"""The discrete-event kernel: ordering, determinism, control."""

import gc
import weakref

import pytest

from repro.sim import Simulator


class TestOrdering:
    def test_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda label=label: fired.append(label))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 2.0)]


class TestControl:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run_until(2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.run()
        assert fired == ["kept"]

    def test_run_until_skips_cancelled_head_before_deadline_check(self):
        # regression: a cancelled event at the head used to pass the
        # `head.time <= time` peek, and step() would then fire the next
        # *live* event even when its time lay past the deadline
        sim = Simulator()
        fired = []
        doomed = sim.schedule(1.0, lambda: fired.append("doomed"))
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.cancel(doomed)
        assert sim.run_until(2.0) == 0
        assert fired == []
        assert sim.now == 2.0
        sim.run()
        assert fired == ["late"]
        assert sim.now == 5.0

    def test_run_until_fires_live_events_behind_cancelled_head(self):
        sim = Simulator()
        fired = []
        doomed = sim.schedule(0.5, lambda: fired.append("doomed"))
        sim.schedule(1.0, lambda: fired.append("kept"))
        sim.cancel(doomed)
        assert sim.run_until(2.0) == 1
        assert fired == ["kept"]

    def test_pending_survives_double_cancel(self):
        # regression: cancelling the same event twice used to count it
        # twice in the lazy-removal set, making `pending` undercount
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending == 1

    def test_pending_survives_cancel_after_fire(self):
        # regression: cancelling an event that already fired used to
        # poison `pending` forever (the seq was never popped again)
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(event)
        assert sim.pending == 0
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_cancel_drops_the_action_at_once(self):
        # a cancelled event waits in the heap until its time comes up; its
        # action must not keep what it refers to alive until then
        class Payload:
            def touch(self):
                raise AssertionError("a cancelled event fired")

        sim = Simulator()
        payload = Payload()
        alive = weakref.ref(payload)
        event = sim.schedule(5.0, payload.touch)
        sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        del payload
        gc.collect()
        assert alive() is None
        assert sim.pending == 1
        assert len(sim._queue) == 2  # the cancelled event is still queued
        sim.run()
        assert sim.pending == 0 and sim.now == 1.0

    def test_run_while_converges(self):
        sim = Simulator()
        box = {"done": False}
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: box.update(done=True))
        sim.schedule(3.0, lambda: None)
        sim.run_while(lambda: not box["done"])
        assert box["done"]
        assert sim.pending == 1  # the 3.0 event was not consumed

    def test_run_while_guards_against_livelock(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError):
            sim.run_while(lambda: True, max_events=100)

    def test_max_events(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending == 6


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        a, b = Simulator(seed=42), Simulator(seed=42)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_full_run_reproducible(self):
        def run_once():
            sim = Simulator(seed=7)
            trace = []

            def noisy(label):
                trace.append((label, round(sim.now, 9)))
                if sim.rng.random() > 0.5:
                    sim.schedule(sim.rng.random(), lambda: trace.append(("x", sim.now)))

            for i in range(10):
                sim.schedule(sim.rng.random() * 3, lambda i=i: noisy(i))
            sim.run()
            return trace

        assert run_once() == run_once()

"""A deterministic discrete-event simulation kernel.

This is the substitution for the paper's real JVM/RMI testbed (see
DESIGN.md): the simulated internetwork in :mod:`repro.net` schedules
message deliveries as events here, so every experiment — including the
bandwidth/latency sweeps of PERF-5 — is exactly reproducible.

The kernel is intentionally small: a monotonically increasing clock, a
priority queue of events, and a seeded random stream for jitter. Events
at equal times fire in scheduling order (a strictly increasing sequence
number breaks ties), which is what makes runs deterministic. The heap
holds ``(time, seq, event)`` tuples, so every sift compares in C; the
unique ``seq`` means the event itself is never compared.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "Simulator"]


@dataclass
class Event:
    """One scheduled action; it fires in (time, seq) order.

    ``action`` is None once the event has fired or been cancelled: a
    cancelled event waits in the heap until its time comes up, and must
    not keep what its action refers to alive until then.
    """

    time: float
    seq: int
    action: Callable[[], Any] | None = field(compare=False)
    label: str = field(compare=False, default="")


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("late"))
    >>> _ = sim.schedule(1.0, lambda: fired.append("early"))
    >>> sim.run()
    >>> fired
    ['early', 'late']
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        #: cancelled events still in the heap
        self._cancelled = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self.events_processed = 0

    def derive_rng(self, name: str) -> random.Random:
        """An independent random stream derived from this run's seed.

        Seeding from a string is deterministic across processes (CPython
        hashes str/bytes seeds with SHA-512), so every consumer — each
        fault injector, for instance — gets its own reproducible stream
        that does not perturb, and is not perturbed by, ``self.rng``.
        """
        return random.Random(f"{self.seed}:{name}")

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self, delay: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule *action* to fire *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time, seq = self._now + delay, next(self._seq)
        event = Event(time, seq, action, label)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule *action* at an absolute simulated time."""
        return self.schedule(time - self._now, action, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (lazy removal).

        The event stays in the heap until its time comes up, but its
        action is dropped now. Cancelling an event that already fired
        (or was already cancelled) is a no-op, so ``pending`` stays
        exact.
        """
        if event.action is not None:
            event.action = None
            self._cancelled += 1

    def _skip_cancelled(self) -> None:
        """Pop cancelled events off the head of the queue."""
        while self._queue and self._queue[0][2].action is None:
            heapq.heappop(self._queue)
            self._cancelled -= 1

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        self._skip_cancelled()
        if not self._queue:
            return False
        time, _seq, event = heapq.heappop(self._queue)
        action, event.action = event.action, None
        self._now = time
        self.events_processed += 1
        action()
        return True

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or *max_events* fire)."""
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            if not self.step():
                break
            fired += 1
        return fired

    def run_until(self, time: float) -> int:
        """Run events with ``event.time <= time``; advance the clock to
        *time* even if the queue drains earlier.

        Cancelled events at the head are skipped *before* the deadline
        check: a cancelled head must not let a live event past the
        deadline sneak into this window.
        """
        fired = 0
        while True:
            self._skip_cancelled()
            if not self._queue or self._queue[0][0] > time:
                break
            if not self.step():
                break
            fired += 1
        self._now = max(self._now, time)
        return fired

    def run_while(self, condition: Callable[[], bool], max_events: int = 1_000_000) -> int:
        """Run until *condition* becomes false or the queue drains.

        The synchronous RMI layer uses this to pump the network until a
        specific reply lands.
        """
        fired = 0
        while condition() and self._queue:
            if not self.step():
                break
            fired += 1
            if fired >= max_events:
                raise RuntimeError(
                    f"simulation did not converge within {max_events} events"
                )
        return fired

    @property
    def pending(self) -> int:
        # exact: _cancelled only counts events still in the queue
        return len(self._queue) - self._cancelled

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.6f}, pending={self.pending})"

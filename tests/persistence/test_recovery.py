"""Crash recovery: replayed state, exactly-once transfer resolution,
record-before-reply dedup across incarnations, and the journal's
fail-safe posture when the disk goes away."""

from __future__ import annotations

import pytest

from repro.core.errors import MarshalError, TransferUnresolvedError
from repro.faults import DropInjector, FaultPlane
from repro.mobility import pack
from repro.net import RetryPolicy
from repro.persistence import MemoryStore, WriteAheadLog, attach_journal
from repro.telemetry import Telemetry, enabled

from ..conftest import build_counter
from .conftest import DurableWorld

pytestmark = pytest.mark.recovery

ONE_SHOT = RetryPolicy(attempts=1, timeout=0.5)


def durable_counter(world: DurableWorld, home: str = "a"):
    counter = build_counter()
    world.sites[home].register_object(counter)
    return counter


class TestStateRecovery:
    def test_invoked_state_survives_a_crash(self):
        world = DurableWorld(names=("a", "b"))
        counter = durable_counter(world, "a")
        for _ in range(3):
            world.sites["b"].remote_invoke(
                "a", counter.guid, "increment", [1], policy=ONE_SHOT
            )
        report = world.crash_restart("a")
        assert report.objects_restored == 1
        recovered = world.sites["a"].local_object(counter.guid)
        assert recovered is not counter  # a fresh incarnation's instance
        assert recovered.get_data("count", caller=recovered.owner) == 3

    def test_recovery_does_not_rerun_install(self):
        world = DurableWorld(names=("a", "b"))
        nomad = world.sites["a"].create_object(display_name="nomad")
        nomad.define_fixed_data("hops", 0)
        nomad.define_fixed_method(
            "install", "self.set('hops', self.get('hops') + 1)"
        )
        nomad.seal()
        world.sites["a"].register_object(nomad)
        ref = world.managers["a"].migrate(nomad, "b")
        landed = world.sites["b"].local_object(ref.guid)
        assert landed.get_data("hops", caller=landed.owner) == 1
        world.crash_restart("b")
        recovered = world.sites["b"].local_object(ref.guid)
        # WAL images are post-install: replay must not double-apply it
        assert recovered.get_data("hops", caller=recovered.owner) == 1
        assert recovered.environment["install_context"]["recovered"] is True

    def test_served_replies_are_replayed_not_reexecuted(self):
        # the record-before-reply discipline across incarnations: the
        # first attempt executes and its reply is dropped; the site
        # crashes and recovers BETWEEN the attempts (a scheduled event
        # inside the synchronous retry pump); the retry carries the same
        # request id and must hit the restored ledger of the NEW
        # incarnation — replayed, never re-executed
        world = DurableWorld(names=("a", "b"))
        counter = durable_counter(world, "a")
        FaultPlane(world.network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["reply"], limit=1)
        )
        world.network.simulator.schedule(
            0.25, lambda: world.crash_restart("a"), label="mid-retry crash"
        )
        result = world.sites["b"].remote_invoke(
            "a", counter.guid, "increment", [1],
            policy=RetryPolicy(attempts=4, timeout=0.5, backoff=0.05),
        )
        assert result == 1
        assert world.sites["a"].replayed_requests == 1
        recovered = world.sites["a"].local_object(counter.guid)
        assert recovered.get_data("count", caller=recovered.owner) == 1

    def test_compacted_log_recovers_from_snapshot(self):
        world = DurableWorld(names=("a", "b"))
        counter = durable_counter(world, "a")
        world.sites["b"].remote_invoke(
            "a", counter.guid, "increment", [5], policy=ONE_SHOT
        )
        world.journals["a"].checkpoint(compact=True)
        assert len(world.wals["a"].records()) == 1  # one snapshot frame
        report = world.crash_restart("a")
        assert report.snapshot_used
        recovered = world.sites["a"].local_object(counter.guid)
        assert recovered.get_data("count", caller=recovered.owner) == 5

    def test_unregistered_objects_stay_gone(self):
        world = DurableWorld(names=("a", "b"))
        counter = durable_counter(world, "a")
        world.sites["a"].unregister_object(counter.guid)
        report = world.crash_restart("a")
        assert report.objects_restored == 0
        assert not world.sites["a"].has_object(counter.guid)


class TestRestartTimeTransferResolution:
    """A sender crashing between PREPARE and COMMIT must settle to
    exactly one owner after restart — the write-ahead intent half."""

    def _ambiguous_handoff(self, drop_kind: str):
        """Drive a handoff whose verdict the sender never learns."""
        world = DurableWorld(names=("a", "b"))
        counter = durable_counter(world, "a")
        world.managers["a"].retry_policy = ONE_SHOT
        FaultPlane(world.network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=[drop_kind], limit=1)
        )
        with pytest.raises(TransferUnresolvedError):
            world.managers["a"].migrate(counter, "b")
        return world, counter

    def test_settled_verdict_completes_the_move(self):
        # the PREPARE settled at b; only its ACK was lost
        world, counter = self._ambiguous_handoff("reply")
        assert world.owners_of(counter.guid) == ["a", "b"]  # transient
        report = world.crash_restart("a")
        assert report.unresolved_restored == 1
        outcomes = world.managers["a"].reconcile()
        assert list(outcomes.values()) == ["settled"]
        assert world.owners_of(counter.guid) == ["b"]
        assert not world.managers["a"].unresolved

    def test_aborted_verdict_keeps_the_original(self):
        # the PREPARE itself was lost: b never saw the transfer
        world, counter = self._ambiguous_handoff("transfer.prepare")
        report = world.crash_restart("a")
        assert report.unresolved_restored == 1
        outcomes = world.managers["a"].reconcile()
        assert list(outcomes.values()) == ["aborted"]
        assert world.owners_of(counter.guid) == ["a"]
        assert not world.managers["a"].unresolved

    def test_resolution_is_journaled_too(self):
        # after reconcile, a SECOND crash must not resurrect the intent
        world, counter = self._ambiguous_handoff("reply")
        world.crash_restart("a")
        world.managers["a"].reconcile()
        report = world.crash_restart("a")
        assert report.unresolved_restored == 0
        assert world.owners_of(counter.guid) == ["b"]

    def test_restarted_receiver_still_suppresses_duplicates(self):
        world = DurableWorld(names=("a", "b"))
        counter = durable_counter(world, "a")
        world.managers["a"].migrate(counter, "b")
        report = world.crash_restart("b")
        assert report.ledger_restored == 1
        # a late duplicate PREPARE (same transfer id) hits the restored
        # ledger of the NEW incarnation and is suppressed, not re-run
        before = world.managers["b"].duplicates_suppressed
        world.managers["a"].retry_policy = ONE_SHOT
        transfer_id = next(iter(world.managers["b"]._ledger))
        from repro.mobility.package import pack

        world.sites["a"].request(
            "b", "transfer.prepare",
            {"transfer_id": transfer_id,
             "package": pack(world.sites["b"].local_object(counter.guid)),
             "install_args": []},
            policy=ONE_SHOT,
        )
        assert world.managers["b"].duplicates_suppressed == before + 1
        assert world.owners_of(counter.guid) == ["b"]


class TestJournalFailSafe:
    def test_full_store_disables_durability_not_service(self):
        with enabled(Telemetry()) as tel:
            world = DurableWorld(names=("a", "b"))
            # shrink the log under a's feet: the next append must fail
            world.wals["a"].store.capacity_bytes = (
                world.wals["a"].store.size_bytes() + 1
            )
            counter = durable_counter(world, "a")
            journal = world.journals["a"]
            assert journal.failed  # the register note hit the full store
            # the site keeps serving without durability
            result = world.sites["b"].remote_invoke(
                "a", counter.guid, "increment", [1], policy=ONE_SHOT
            )
            assert result == 1
            assert tel.metrics.counter_value("wal.failures") >= 1

    def test_failed_journal_goes_quiet(self):
        world = DurableWorld(names=("a", "b"))
        journal = world.journals["a"]
        journal.failed = True
        writes = journal.writes
        durable_counter(world, "a")
        assert journal.writes == writes
        assert journal.checkpoint(compact=True) is None

    def test_closed_journal_never_writes(self):
        world = DurableWorld(names=("a", "b"))
        counter = durable_counter(world, "a")
        journal = world.journals["a"]
        journal.close()
        frames = len(world.wals["a"].store.frames())
        world.sites["a"].unregister_object(counter.guid)
        assert len(world.wals["a"].store.frames()) == frames
        assert world.sites["a"].journal is None

    def test_unportable_guests_are_skipped_not_fatal(self):
        world = DurableWorld(names=("a", "b"))
        site = world.sites["a"]
        hostile = site.create_object(display_name="native-guest")
        # native code: recovery could never rebuild this from an image
        hostile.define_fixed_method("local_only", lambda self, args, ctx: 42)
        hostile.seal()
        site.register_object(hostile)
        journal = world.journals["a"]
        assert journal.skipped_unportable >= 1
        assert not journal.failed  # skipping is not failing


class TestUnreadableStateIsRefusedAtTheWriter:
    """A mapping keyed by a tuple is a valid weakly-typed value, but its
    wire form decodes to a list key, which no decoder accepts. Written
    to the log, it made the record (or the whole compacted snapshot)
    unreadable; the encoder now refuses it before a byte is written."""

    @staticmethod
    def world_with_tuple_keyed_state():
        world = DurableWorld(names=("a", "b"))
        bystander = durable_counter(world, "a")
        holder = world.sites["a"].create_object(display_name="holder")
        holder.define_fixed_data("m", {})
        holder.seal()
        world.sites["a"].register_object(holder)
        holder.set_data("m", {(1, 2): 3}, caller=holder.owner)
        return world, bystander, holder

    def test_a_journaled_image_is_refused_not_torn(self):
        world, _bystander, holder = self.world_with_tuple_keyed_state()
        wal = world.wals["a"]
        before = [record.to_mapping() for record in wal.records()]
        with pytest.raises(MarshalError, match="unhashable mapping key"):
            wal.append(
                "object.image",
                {"guid": holder.guid,
                 "package": pack(holder, strip_native_wrappers=True)},
                site="a",
            )
        records, damage = wal.replay()
        assert damage is None
        assert [record.to_mapping() for record in records] == before

    def test_checkpoint_is_refused_and_the_log_stays_replayable(self):
        world, bystander, holder = self.world_with_tuple_keyed_state()
        wal = world.wals["a"]
        before = [record.to_mapping() for record in wal.records()]
        snapshot = {"objects": {
            obj.guid: pack(obj, strip_native_wrappers=True)
            for obj in world.sites["a"].objects()
        }}
        with pytest.raises(MarshalError, match="unhashable mapping key"):
            wal.compact(snapshot, site="a")
        records, damage = wal.replay()
        assert damage is None
        assert [record.to_mapping() for record in records] == before
        report = world.crash_restart("a")
        assert report.objects_restored == 2
        site = world.sites["a"]
        assert site.has_object(bystander.guid) and site.has_object(holder.guid)
        restored = site.local_object(holder.guid)
        assert restored.get_data("m", caller=restored.owner) == {}


class TestRecoveryReportShape:
    def test_mapping_excludes_wall_clock(self):
        world = DurableWorld(names=("a", "b"))
        durable_counter(world, "a")
        report = world.crash_restart("a")
        mapping = report.to_mapping()
        assert "replay_seconds" not in mapping  # determinism discipline
        assert report.replay_seconds >= 0.0
        assert mapping["site_id"] == "a"
        assert mapping["damage"] is None

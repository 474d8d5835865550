"""Timeout + backoff retries, and at-most-once execution under them."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    NetworkError,
    PartitionError,
    RequestTimeoutError,
)
from repro.faults import DropInjector, DuplicateInjector, FaultPlane
from repro.net import RetryPolicy

from ..conftest import build_counter
from .conftest import make_sites

FAST = RetryPolicy(attempts=4, timeout=0.5, backoff=0.05, multiplier=2.0)


def counter_world(seed=0):
    network, sites = make_sites(seed=seed)
    counter = build_counter()
    sites["b"].register_object(counter)
    return network, sites, counter


class TestRetryPolicy:
    def test_backoff_schedule_caps(self):
        policy = RetryPolicy(backoff=0.5, multiplier=2.0, max_backoff=1.6)
        assert policy.backoff_for(0) == 0.5
        assert policy.backoff_for(1) == 1.0
        assert policy.backoff_for(2) == 1.6  # capped
        assert policy.backoff_for(9) == 1.6

    @pytest.mark.parametrize(
        "bad",
        [
            dict(attempts=0),
            dict(timeout=0.0),
            dict(backoff=-1.0),
            dict(multiplier=0.5),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(NetworkError):
            RetryPolicy(**bad)


class TestRetries:
    def test_dropped_requests_are_retried_to_success(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=2)
        )
        result = sites["a"].remote_invoke(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        assert result == 1
        assert counter.get_data("count", caller=counter.owner) == 1

    def test_dropped_reply_is_replayed_not_reexecuted(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["reply"], limit=1)
        )
        result = sites["a"].remote_invoke(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        assert result == 1
        # the retried request hit the served-reply ledger: the handler ran
        # exactly once and the recorded reply was replayed
        assert counter.get_data("count", caller=counter.owner) == 1
        assert sites["b"].replayed_requests == 1

    def test_exhausted_attempts_raise_timeout(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"])
        )
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )
        # bookkeeping fully unwound: no attempt stays registered
        assert sites["a"]._async_calls == {}
        assert counter.get_data("count", caller=counter.owner) == 0

    def test_late_reply_after_timeout_is_stale(self):
        network, sites, counter = counter_world()
        # a one-shot policy whose timeout is shorter than the LAN RTT
        rtt = network.topology.path_cost("a", "b", 200) * 2
        impatient = RetryPolicy(attempts=1, timeout=rtt / 10, backoff=0.01)
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=impatient
            )
        network.run()  # the reply lands after the caller gave up
        assert sites["a"].stale_replies == 1
        assert sites["a"]._async_calls == {}
        # ...but the remote side did execute (at-least-once ambiguity)
        assert counter.get_data("count", caller=counter.owner) == 1

    def test_site_default_policy_applies(self):
        network, sites, counter = counter_world()
        sites["a"].retry_policy = FAST
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=1)
        )
        assert (
            sites["a"].remote_invoke("b", counter.guid, "increment", [1]) == 1
        )


class TestPolicyFreeRequests:
    def test_a_policy_free_request_is_deduplicated(self):
        """Every blocking request carries a request_id, so a duplicated
        delivery replays the recorded reply instead of re-executing."""
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DuplicateInjector(rate=1.0, only_kinds=["invoke"], limit=1)
        )
        assert sites["a"].remote_invoke("b", counter.guid, "increment", [1]) == 1
        network.run()  # the duplicate lands after the original was served
        assert counter.get_data("count", caller=counter.owner) == 1
        assert sites["b"].replayed_requests == 1
        assert sites["a"].stale_replies == 1  # the replayed reply

    def test_the_request_id_does_not_travel_in_the_wire_bytes(self):
        network, sites, counter = counter_world()
        sizes = []
        original_receive = sites["b"].receive

        def record(message):
            sizes.append((message.request_id, message.size))
            original_receive(message)

        sites["b"].receive = record
        sites["a"].remote_invoke("b", counter.guid, "increment", [1])
        sites["a"].remote_invoke(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        (first_id, first_size), (second_id, second_size) = sizes
        assert first_id and second_id and first_id != second_id
        assert first_size == second_size


class TestDrains:
    def test_a_drained_sync_request_unregisters(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=1)
        )
        with pytest.raises(NetworkError, match="drained"):
            sites["a"].remote_invoke("b", counter.guid, "increment", [1])
        assert sites["a"]._async_calls == {}

    def test_a_drained_async_wait_unregisters(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=2)
        )
        orphan = sites["a"].remote_invoke_async("b", counter.guid, "increment")
        with pytest.raises(NetworkError, match="drained"):
            sites["a"].wait(orphan)
        assert sites["a"]._async_calls == {}
        assert not orphan.done  # abandoned, not settled
        orphans = [
            sites["a"].remote_invoke_async("b", counter.guid, "increment"),
            sites["a"].remote_invoke_async("b", counter.guid, "increment"),
        ]
        with pytest.raises(NetworkError, match="1 request"):
            sites["a"].wait_all(orphans)
        assert sites["a"]._async_calls == {}
        assert orphans[1].result() == 1


class TestPartitionSemantics:
    def test_legacy_no_policy_path_raises_immediately(self):
        network, sites, counter = counter_world()
        network.topology.set_link_state("a", "b", False)
        with pytest.raises(PartitionError):
            sites["a"].remote_invoke("b", counter.guid, "increment", [1])
        assert sites["a"]._async_calls == {}

    def test_policy_with_nothing_sent_stays_atomic(self):
        network, sites, counter = counter_world()
        network.topology.set_link_state("a", "b", False)
        # every attempt fails at send time: no bytes hit the wire, so the
        # failure is atomic, not ambiguous
        with pytest.raises(PartitionError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )
        assert counter.get_data("count", caller=counter.owner) == 0

    def test_partition_after_send_is_ambiguous(self):
        network, sites, counter = counter_world()
        cut_after_first = {"done": False}
        original_send = network.send

        def flaky_send(*args, **kwargs):
            if cut_after_first["done"]:
                raise PartitionError("'a' cannot reach 'b'")
            cut_after_first["done"] = True
            return original_send(*args, **kwargs)

        network.send = flaky_send
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"])
        )
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )

    def test_reply_path_partition_is_contained(self):
        network, sites, counter = counter_world()
        # the request gets through, then the link dies before the reply
        original_receive = sites["b"].receive

        def receive_and_cut(message):
            network.topology.set_link_state("a", "b", False)
            original_receive(message)

        sites["b"].receive = receive_and_cut
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )
        assert sites["b"].replies_unsendable >= 1

"""Crash recovery: rebuild a site incarnation from its write-ahead log.

Replay is a fold over the record stream (snapshot first if one
survived compaction, then everything after it): the latest durable
image per object wins, removes erase, the served-reply ledger and the
receiver-side transfer ledger are reconstructed in order, and every
``transfer.intent`` without a matching ``transfer.resolved`` comes back
as an *unresolved* transfer on the new
:class:`~repro.mobility.transfer.MobilityManager` — the sender crashed
between PREPARE and COMMIT, and :meth:`~repro.mobility.transfer.
MobilityManager.reconcile` re-resolves it via ``transfer.query`` so the
object settles to exactly one owner.

Restoring an image deliberately does **not** re-invoke ``install``
(unlike :func:`~.checkpoint.restore_site`): WAL images are taken after
the install already ran, so running it again would double-apply its
effects. The environment gets a fresh ``install_context`` marked
``recovered`` instead.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import MROMError
from ..mobility.package import unpack
from ..mobility.transfer import MobilityManager
from ..net.rmi import RetryPolicy
from ..net.site import Site
from ..net.transport import Network
from ..telemetry import state as _telemetry
from .wal import WalRecord, WriteAheadLog

__all__ = ["ReplayState", "RecoveryReport", "replay_records", "recover_site"]


@dataclass
class ReplayState:
    """The fold of a record stream: everything recovery reinstates."""

    images: "OrderedDict[str, dict]" = field(default_factory=OrderedDict)
    served: "OrderedDict[str, Any]" = field(default_factory=OrderedDict)
    ledger: "OrderedDict[str, dict]" = field(default_factory=OrderedDict)
    unresolved: dict[str, dict] = field(default_factory=dict)
    snapshot_used: bool = False
    records_replayed: int = 0
    unknown_kinds: int = 0


def replay_records(records: list[WalRecord]) -> ReplayState:
    """Fold *records* (in LSN order) into a :class:`ReplayState`."""
    state = ReplayState()
    for record in records:
        attrs = record.attrs
        kind = record.kind
        if kind == "snapshot":
            state.images = OrderedDict(attrs.get("objects") or {})
            state.served = OrderedDict(
                (str(request_id), reply)
                for request_id, reply in (attrs.get("served") or [])
            )
            state.ledger = OrderedDict(
                (str(transfer_id), dict(entry))
                for transfer_id, entry in (attrs.get("ledger") or [])
            )
            state.unresolved = {
                str(transfer_id): dict(entry)
                for transfer_id, entry in (attrs.get("unresolved") or {}).items()
            }
            state.snapshot_used = True
        elif kind == "object.image":
            state.images[str(attrs["guid"])] = attrs["package"]
        elif kind == "object.remove":
            state.images.pop(str(attrs["guid"]), None)
        elif kind == "served.reply":
            state.served[str(attrs["request_id"])] = attrs["reply"]
            image = attrs.get("image")
            if image is not None:
                state.images[str(attrs["guid"])] = image
        elif kind == "transfer.intent":
            state.unresolved[str(attrs["transfer_id"])] = dict(attrs["entry"])
        elif kind == "transfer.resolved":
            state.unresolved.pop(str(attrs["transfer_id"]), None)
        elif kind == "transfer.ledger":
            state.ledger[str(attrs["transfer_id"])] = {
                "state": str(attrs["state"]),
                "report": attrs.get("report"),
            }
            image = attrs.get("image")
            if image is not None:
                report = attrs.get("report") or {}
                guid = str(report.get("guid", ""))
                if guid:
                    state.images[guid] = image
        else:
            state.unknown_kinds += 1  # forward compatibility: skip, don't die
        state.records_replayed += 1
    return state


@dataclass
class RecoveryReport:
    """What one recovery actually reinstated (deterministic fields only
    in :meth:`to_mapping`; wall-clock timing stays an attribute)."""

    site_id: str
    records_replayed: int = 0
    objects_restored: int = 0
    objects_failed: int = 0
    served_restored: int = 0
    ledger_restored: int = 0
    unresolved_restored: int = 0
    snapshot_used: bool = False
    damage: str | None = None
    replay_seconds: float = 0.0

    def to_mapping(self) -> dict:
        return {
            "site_id": self.site_id,
            "records_replayed": self.records_replayed,
            "objects_restored": self.objects_restored,
            "objects_failed": self.objects_failed,
            "served_restored": self.served_restored,
            "ledger_restored": self.ledger_restored,
            "unresolved_restored": self.unresolved_restored,
            "snapshot_used": self.snapshot_used,
            "damage": self.damage,
        }


def recover_site(
    network: Network,
    site_id: str,
    wal: WriteAheadLog,
    domain: str = "",
    policy=None,
    retry_policy: RetryPolicy | None = None,
) -> tuple[Site, MobilityManager, RecoveryReport]:
    """Bring up a fresh incarnation of *site_id* from its WAL.

    Returns the new site, its mobility manager (pre-loaded with the
    durable transfer ledger and every dangling intent as an unresolved
    transfer), and a :class:`RecoveryReport`. The caller re-applies
    host configuration (admission limits, service delay, name bindings)
    and attaches a new journal — recovery itself journals nothing.
    """
    started = _time.perf_counter()
    records, damage = wal.replay()
    state = replay_records(records)

    site = Site(network, site_id, domain)
    manager = MobilityManager(site, policy=policy, retry_policy=retry_policy)
    report = RecoveryReport(
        site_id=site_id,
        records_replayed=state.records_replayed,
        snapshot_used=state.snapshot_used,
        damage=wal.repaired if wal.repaired is not None else damage,
    )

    tel = _telemetry.ACTIVE
    span = None
    if tel is not None:
        span = tel.begin_span(
            "recovery",
            attrs={"site": site_id, "records": state.records_replayed,
                   "sim_time": network.now},
        )
        tel.metrics.counter("recoveries").inc()

    try:
        for guid, package in state.images.items():
            try:
                obj = unpack(site.import_value(package))
                obj.fastpath_reset()  # caches never survive a restart
                site.register_object(obj)
                obj.environment["install_context"] = {
                    "site": site.site_id,
                    "domain": site.domain,
                    "recovered": True,
                }
            except MROMError:
                report.objects_failed += 1
                if span is not None:
                    span.event("recovery.image_failed", guid=guid)
                continue
            report.objects_restored += 1

        for request_id, reply in state.served.items():
            site._remember(request_id, reply)
        report.served_restored = len(site._served)

        for transfer_id, entry in state.ledger.items():
            manager._record(transfer_id, entry["state"], entry.get("report"))
        report.ledger_restored = len(manager._ledger)

        manager.unresolved.update(state.unresolved)
        report.unresolved_restored = len(manager.unresolved)
    finally:
        report.replay_seconds = _time.perf_counter() - started
        if span is not None:
            span.set(
                objects=report.objects_restored,
                served=report.served_restored,
                unresolved=report.unresolved_restored,
            )
            tel.end_span(span)
    return site, manager, report

"""Span tracing of the program's layers, applied from outside the program.

Nothing under ``src/`` knows about this module. :class:`Installation` rebinds
each layer's public entry points — class methods on their classes,
functions in every module that imported them by value — to wrappers
that open a span, and :meth:`Installation.undo` puts the originals back.

A span records its name, start, end, parent span and the request id
(the benchmark's op number) of the op it serves. Aggregates are kept
for every span; the spans themselves are kept in memory up to a cap and
written out when the run ends. A layer's *self time* is a span's
duration minus the durations of its direct child spans, so the self
times of all spans under one op root add up to the root's duration.

The same rebinding serves the exact wire-format counts: a
:class:`WireProbe` takes no time, and hashes and counts every encoded
frame instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from pathlib import Path

#: span name -> layer (the repo module group the entry point belongs
#: to); the per-layer metrics sum self time by span name
SPAN_LAYERS = {
    "core.invoke": "core",
    "marshal.encode": "net.marshal",
    "marshal.decode": "net.marshal",
    "site.request": "net.site",
    "site.receive": "net.site",
    "site.export_import": "net.site",
    "transport.send": "net.transport",
    "kernel.step": "net.transport",
    "gateway.call": "net.gateway",
    "gateway.respond": "net.gateway",
    "gateway.send_frame": "net.gateway",
    "mobility.migrate": "mobility",
    "mobility.install": "mobility",
    "mobility.pack": "mobility",
    "mobility.unpack": "mobility",
    "wal.append": "persistence",
    "journal.note": "persistence",
    "journal.image": "persistence",
}

#: spans kept per process for the written-out trace
KEEP_SPANS = 20_000


def _targets():
    """(owner, attribute, span name) for every entry point.

    Functions imported by value are listed once per importing module:
    rebinding only the defining module would miss the copies.
    """
    from importlib import import_module

    # import_module, not ``from repro.net import marshal``: the package
    # re-exports the function under the submodule's name
    mobject = import_module("repro.core.mobject")
    mob_package = import_module("repro.mobility.package")
    mob_transfer = import_module("repro.mobility.transfer")
    net_gateway = import_module("repro.net.gateway")
    net_marshal = import_module("repro.net.marshal")
    net_site = import_module("repro.net.site")
    net_transport = import_module("repro.net.transport")
    pers_journal = import_module("repro.persistence.journal")
    pers_wal = import_module("repro.persistence.wal")
    kernel = import_module("repro.sim.kernel")
    MROMObject, Site, Simulator = mobject.MROMObject, net_site.Site, kernel.Simulator

    targets = [
        (MROMObject, "invoke", "core.invoke"),
        (net_marshal, "marshal", "marshal.encode"),
        (net_marshal, "marshal_frame", "marshal.encode"),
        (net_marshal, "unmarshal", "marshal.decode"),
        (net_marshal, "unmarshal_lazy", "marshal.decode"),
        (net_transport, "marshal", "marshal.encode"),
        (net_transport, "unmarshal", "marshal.decode"),
        (net_gateway, "marshal_frame", "marshal.encode"),
        (net_gateway, "unmarshal", "marshal.decode"),
        (pers_wal, "marshal", "marshal.encode"),
        (pers_wal, "unmarshal", "marshal.decode"),
        (mob_package, "marshal", "marshal.encode"),
        (mob_package, "marshal_frame", "marshal.encode"),
        (mob_package, "unmarshal", "marshal.decode"),
        (mob_package, "unmarshal_lazy", "marshal.decode"),
        (Site, "request", "site.request"),
        (Site, "request_async", "site.request"),
        (Site, "wait", "site.request"),
        (Site, "wait_all", "site.request"),
        (Site, "receive", "site.receive"),
        (Site, "export_value", "site.export_import"),
        (Site, "import_value", "site.export_import"),
        (net_transport.Network, "send", "transport.send"),
        (Simulator, "step", "kernel.step"),
        (net_gateway.TcpGatewayClient, "_call", "gateway.call"),
        (net_gateway.TcpGateway, "_respond", "gateway.respond"),
        (net_gateway, "_send_frame", "gateway.send_frame"),
        (mob_transfer.MobilityManager, "migrate", "mobility.migrate"),
        (mob_transfer.MobilityManager, "install_package", "mobility.install"),
        (mob_transfer, "pack", "mobility.pack"),
        (mob_transfer, "unpack", "mobility.unpack"),
        (mob_package, "unpack_bytes", "mobility.unpack"),
        (pers_wal.WriteAheadLog, "append", "wal.append"),
        # the journal images every object it records with mobility's
        # pack(); that is the journal's cost, so it is counted there
        (pers_journal, "pack", "journal.image"),
    ]
    for name in sorted(vars(pers_journal.SiteJournal)):
        if name.startswith("note_"):
            targets.append((pers_journal.SiteJournal, name, "journal.note"))
    return targets


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "next_id", "rid")

    def __init__(self):
        self.stack: list[list] = []  # [span id, name, child ns]
        self.agg: dict[str, list[int]] = {}  # name -> [count, total, self]
        self.spans: list[tuple] = []
        self.next_id = 1
        self.rid = 0


class Tracer:
    """Per-thread span stacks with aggregates merged on demand."""

    def __init__(self, keep: int = KEEP_SPANS):
        self.keep = keep
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def wrap(self, name: str, fn):
        """*fn* inside a span called *name*. A call nested directly in a
        span of the same name (recursion such as ``export_value``) runs
        inside its caller's span instead of opening its own."""
        clock = time.perf_counter_ns
        state_of = self.state
        keep = self.keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = state.next_id
            state.next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                entry = state.agg.get(name)
                if entry is None:
                    entry = state.agg[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if len(state.spans) < keep:
                    state.spans.append((name, start, end, span_id, parent, state.rid))

        return traced

    def root(self, fn):
        """*fn* as an op root span: each call gets the next request id."""
        traced = self.wrap("op", fn)
        state_of = self.state

        @functools.wraps(fn)
        def op(*args, **kwargs):
            state = state_of()
            state.rid += 1
            return traced(*args, **kwargs)

        return op

    def aggregates(self) -> dict[str, list[int]]:
        merged: dict[str, list[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (count, total, self_ns) in state.agg.items():
                entry = merged.setdefault(name, [0, 0, 0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_ns
        return merged

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines (times in ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            states = list(self._states)
        with open(path, "w") as out:
            for thread, state in enumerate(states):
                for name, start, end, span_id, parent, rid in state.spans:
                    out.write(json.dumps({
                        "thread": thread, "id": span_id, "parent": parent,
                        "name": name, "start": start, "end": end,
                        "request": rid,
                    }) + "\n")


class WireProbe:
    """Exact counts and a digest of every encoded frame, no timing.

    Encoders are hashed on their output, decoders on their input, which
    is what a process sees of frames another process encoded. WAL
    appends are counted with the bytes they add to the store, and each
    migration package with its encoded size.
    """

    def __init__(self):
        from importlib import import_module

        self._encode = import_module("repro.net.marshal").marshal
        self.digest = hashlib.sha256()
        self.encoded_bytes = 0
        self.decoded_bytes = 0
        self.encodes = 0
        self.decodes = 0
        self.wal_appends = 0
        self.wal_bytes = 0
        self.packages = 0
        self.package_bytes = 0

    def wrap(self, name: str, fn):
        wrapper = {
            "marshal.encode": self._encoder,
            "marshal.decode": self._decoder,
            "wal.append": self._wal,
            "mobility.pack": self._package,
        }.get(name)
        return fn if wrapper is None else functools.wraps(fn)(wrapper(fn))

    def _encoder(self, fn):
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            data = out.view if hasattr(out, "view") else out
            self.digest.update(data)
            self.encoded_bytes += len(data)
            self.encodes += 1
            return out

        return probed

    def _decoder(self, fn):
        def probed(data, *args, **kwargs):
            self.digest.update(data)
            self.decoded_bytes += len(data)
            self.decodes += 1
            return fn(data, *args, **kwargs)

        return probed

    def _wal(self, fn):
        def probed(wal, *args, **kwargs):
            before = wal.store.size_bytes()
            record = fn(wal, *args, **kwargs)
            self.wal_bytes += wal.store.size_bytes() - before
            self.wal_appends += 1
            return record

        return probed

    def _package(self, fn):
        def probed(*args, **kwargs):
            package = fn(*args, **kwargs)
            self.package_bytes += len(self._encode(package))
            self.packages += 1
            return package

        return probed

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


class Installation:
    """Every entry point rebound to ``wrap(span name, original)`` (a
    :meth:`Tracer.wrap` or :meth:`WireProbe.wrap`); :meth:`undo`
    restores the originals."""

    def __init__(self, wrap):
        self._saved: list[tuple] = []
        for owner, attr, name in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class CacheCensus:
    """Invocation-cache counter deltas over a phase.

    Starts from the caches of *objects*; caches born during the phase
    (every migration install builds a fresh object) are registered as
    they are constructed, so counts of objects that moved on are kept.
    """

    KEYS = ("compiled_hits", "lookup_hits", "lookup_misses", "compiles",
            "invalidations")

    def __init__(self, objects):
        from repro.core.fastpath import InvocationCache

        self._class = InvocationCache
        self._original = InvocationCache.__init__
        self._start = [
            (obj.fastpath, obj.fastpath.stats())
            for obj in objects if obj.fastpath is not None
        ]
        born = self._born = []
        original = self._original

        @functools.wraps(original)
        def init(cache, *args, **kwargs):
            original(cache, *args, **kwargs)
            born.append(cache)

        InvocationCache.__init__ = init

    def finish(self) -> dict[str, int]:
        self._class.__init__ = self._original
        totals = dict.fromkeys(self.KEYS, 0)
        for cache, start in self._start:
            end = cache.stats()
            for key in self.KEYS:
                totals[key] += end[key] - start[key]
        for cache in self._born:
            end = cache.stats()
            for key in self.KEYS:
                totals[key] += end[key]
        return totals

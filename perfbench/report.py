"""From recorded samples and span aggregates to named metrics.

Every metric is a ``(value, unit)`` pair. End-to-end metrics come from
the untraced runs only; per-layer metrics from the traced half of a
``--trace 1`` run, except the exact counts, which come from the wire
probe over the fixed op prefix and repeat exactly for one seed.

Times are scaled to the nominal machine speed by the measurement's
:attr:`~run.Measurement.scale` (times multiply by it, rates divide);
the readable lines also give the unscaled figures.
"""

from __future__ import annotations

import math
import statistics

from tracer import SPAN_LAYERS
from workloads import KINDS, K

TAIL = 0.99
MIN_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def percentile(ordered: list[int], share: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def raw_ops_per_s(measured) -> float:
    """Median over rounds of the requests completed per second; a round
    is one pass of every caller over its op table, so all do the same
    work."""
    return statistics.median(requests / (ns / 1e9) for requests, ns in measured.rounds)


def ops_per_s(measured) -> float:
    return raw_ops_per_s(measured) / measured.scale


def latencies(rec, kind: int | None = None) -> list[int]:
    return sorted(lat for lat, code in rec.samples() if kind is None or code == kind)


def single_latencies(rec) -> list[int]:
    """Latencies of the ops that carry one request: every op but an async
    window, whose cost shows in the throughput instead."""
    window = K["window"]
    return sorted(lat for lat, code in rec.samples() if code != window)


def tail_us(measured) -> float:
    """The run's p99 op latency, scaled; at least MIN_BEYOND samples must
    lie beyond it."""
    ordered = latencies(measured.rec)
    if len(ordered) * (1 - TAIL) < MIN_BEYOND:
        raise RuntimeError(
            f"{len(ordered)} latency samples leave fewer than {MIN_BEYOND} beyond p99"
        )
    return percentile(ordered, TAIL) * measured.scale / 1e3


def end_to_end(measured, setup_times: list[float], rss_kb: int) -> dict[str, tuple]:
    scale = measured.scale
    return {
        "ops_per_s": (ops_per_s(measured), "1/s"),
        "latency_p50_us": (
            percentile(single_latencies(measured.rec), 0.5) * scale / 1e3, "us"),
        # each set-up time is already scaled, by set-up's own reference timings
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def wire_counts(world, probe, before: dict, ops: int) -> dict:
    """Exact per-op counts of the probed prefix, and its frame digest.

    In a simulated world each frame is encoded once and decoded once in
    this process, so its bytes are the encoded bytes. Over TCP the reply
    frames are encoded in the serving process and seen here as decoded,
    so both directions are added.
    """
    after = world.counters()
    if world.wire == "tcp":
        frames = probe.encodes + probe.decodes
        wire_bytes = probe.encoded_bytes + probe.decoded_bytes
        messages = frames
        events = 0
        frame_bytes = wire_bytes + 4 * frames  # the length prefixes
    else:
        wire_bytes = probe.encoded_bytes
        messages = after["messages"] - before["messages"]
        events = after["events"] - before["events"]
        frame_bytes = 0
    return {
        "ops": ops,
        "digest": probe.hexdigest() if probe.encodes or probe.decodes else "none",
        "marshal.bytes_per_op": wire_bytes / ops,
        "net.messages_per_op": messages / ops,
        "kernel.events_per_op": events / ops,
        "gateway.frame_bytes_per_op": frame_bytes / ops,
        "wal.appends_per_op": probe.wal_appends / ops,
        "wal.bytes_per_op": probe.wal_bytes / ops,
        "mobility.package_bytes_per_hop": (
            probe.package_bytes / probe.packages if probe.packages else 0.0
        ),
    }


def per_layer(plain, traced, agg: dict, child: dict | None, cache: dict,
              wire: dict) -> dict[str, tuple]:
    """Per-layer metrics; a layer the workload does not reach reads 0."""
    server: dict = {}
    if child is not None:
        # the serving process of tcp_gateway: its spans belong to the
        # same requests, so they join the client's aggregates
        server = child["agg"]
        for name, (count, total, self_ns) in server.items():
            entry = agg.setdefault(name, [0, 0, 0])
            entry[0] += count
            entry[1] += total
            entry[2] += self_ns
        cache = child["cache"]
    ops = traced.rec.requests
    scale = traced.scale

    def count(name):
        return agg.get(name, (0, 0, 0))[0]

    def total_us(name, source=agg):
        return source.get(name, (0, 0, 0))[1] * scale / 1e3

    def self_us(name):
        return agg.get(name, (0, 0, 0))[2] * scale / 1e3

    def per(value, base):
        return value / base if base else 0.0

    hops = count("mobility.migrate")
    dispatches = cache["compiled_hits"] + cache["lookup_hits"] + cache["lookup_misses"]
    hop_latencies = latencies(plain.rec, K["hop"])
    served = count("gateway.respond")
    metrics = {
        "latency_p99_us": (tail_us(plain), "us"),
        "core.invoke_self_us": (per(self_us("core.invoke"), count("core.invoke")), "us"),
        "core.invokes_per_op": (per(count("core.invoke"), ops), "count"),
        "core.compiled_hit_ratio": (per(cache["compiled_hits"], dispatches), "ratio"),
        "core.compiles_per_kop": (per(1000 * cache["compiles"], ops), "count"),
        "core.invalidations_per_kop": (per(1000 * cache["invalidations"], ops), "count"),
        "marshal.encode_us_per_op": (per(self_us("marshal.encode"), ops), "us"),
        "marshal.decode_us_per_op": (per(self_us("marshal.decode"), ops), "us"),
        "marshal.calls_per_op": (
            per(count("marshal.encode") + count("marshal.decode"), ops), "count"),
        "marshal.bytes_per_op": (wire["marshal.bytes_per_op"], "B"),
        "net.messages_per_op": (wire["net.messages_per_op"], "count"),
        "site.export_import_us_per_op": (per(self_us("site.export_import"), ops), "us"),
        "site.request_self_us_per_op": (per(self_us("site.request"), ops), "us"),
        "site.serve_self_us_per_op": (per(self_us("site.receive"), ops), "us"),
        "transport.send_self_us_per_op": (per(self_us("transport.send"), ops), "us"),
        "kernel.events_per_op": (wire["kernel.events_per_op"], "count"),
        "kernel.step_self_us_per_op": (per(self_us("kernel.step"), ops), "us"),
        "gateway.roundtrip_us": (per(total_us("gateway.call"), count("gateway.call")), "us"),
        "gateway.server_us_per_op": (per(
            total_us("gateway.respond", server) + total_us("gateway.send_frame", server)
            + total_us("marshal.decode", server), served), "us"),
        "gateway.lock_wait_us_per_op": (
            per(child["lock_wait_ns"] * scale / 1e3, child["acquires"]) if child else 0.0,
            "us"),
        "gateway.frame_bytes_per_op": (wire["gateway.frame_bytes_per_op"], "B"),
        "mobility.migrate_us": (per(total_us("mobility.migrate"), hops), "us"),
        "migrate_p50_us": (
            percentile(hop_latencies, 0.5) * plain.scale / 1e3 if hop_latencies else 0.0,
            "us"),
        "mobility.pack_us_per_hop": (per(total_us("mobility.pack"), hops), "us"),
        "mobility.unpack_us_per_hop": (per(total_us("mobility.unpack"), hops), "us"),
        "mobility.install_us_per_hop": (per(self_us("mobility.install"), hops), "us"),
        "mobility.package_bytes_per_hop": (wire["mobility.package_bytes_per_hop"], "B"),
        "wal.append_us_per_op": (per(self_us("wal.append"), ops), "us"),
        "wal.appends_per_op": (wire["wal.appends_per_op"], "count"),
        "wal.bytes_per_op": (wire["wal.bytes_per_op"], "B"),
        "journal.note_us_per_op": (
            per(self_us("journal.note") + self_us("journal.image"), ops), "us"),
        "trace.overhead_ratio": (ops_per_s(plain) / ops_per_s(traced), "x"),
        "trace.unattributed_share": (per(self_us("op"), total_us("op")), "ratio"),
    }
    return metrics


def anatomy(agg: dict, traced) -> list[str]:
    """Self time per layer of this process's traced requests, as a share
    of the op root spans they all sit under."""
    root = agg.get("op", (0, 0, 0))[1]
    if not root:
        return []
    ops = traced.rec.requests
    layers: dict[str, int] = {}
    for name, (_count, _total, self_ns) in agg.items():
        layer = SPAN_LAYERS.get(name, "unattributed")
        layers[layer] = layers.get(layer, 0) + self_ns
    lines = ["  anatomy of a traced request in this process (self time, scaled):"]
    for layer, self_ns in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"    {layer:14s} {self_ns * traced.scale / ops / 1e3:10.2f} us/op "
                     f"{self_ns / root:7.1%}")
    return lines


def describe(workload: str, options, untraced, setup_times: list[float], wire: dict,
             metrics: dict, problems: list[str], extra: list[str]) -> list[str]:
    """The readable lines printed above the JSON result."""
    rec, scale = untraced.rec, untraced.scale
    lines = [f"workload {workload} seed {options.seed} seconds {options.seconds:g} "
             f"trace {options.trace}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32s} {value:14.4f} {unit}")
    reference = statistics.median(untraced.references)
    lines.append(
        f"  machine: reference kernel {reference / 1e6:.3f} ms (nominal "
        f"{reference * scale / 1e6:g} ms), times scaled by {scale:.4f}; "
        f"unscaled ops_per_s {raw_ops_per_s(untraced):.1f}"
    )
    lines.append("  set-up repetitions (s, scaled): "
                 + " ".join(f"{seconds:.3f}" for seconds in setup_times))
    samples = rec.kept
    lines.append(f"  untraced: {len(untraced.rounds)} rounds, {rec.n} ops "
                 f"(an async window is one op), {samples} latency samples kept; "
                 f"p99 {tail_us(untraced):.4f} us (scaled) with "
                 f"{math.floor(samples * (1 - TAIL))} beyond it; per kind, unscaled:")
    for code, kind in enumerate(KINDS):
        ordered = latencies(rec, code)
        if ordered:
            lines.append(f"    {kind:10s} n={len(ordered):8d} "
                         f"p50={percentile(ordered, .5) / 1e3:10.2f}us "
                         f"p99={percentile(ordered, TAIL) / 1e3:10.2f}us")
    lines += extra
    lines.append(
        f"  wire: first {wire['ops']} requests, {wire['net.messages_per_op']:.4f} "
        f"messages/op, {wire['marshal.bytes_per_op']:.4f} B/op, "
        f"digest sha256:{wire['digest']}"
    )
    if problems:
        lines += [f"  WRONG: {problem}" for problem in problems]
    else:
        lines.append("  correctness: every checked result and the final state are right")
    return lines

"""Request-anatomy benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload rmi_sim --seed 1 --seconds 10 --trace 0

Runs from any directory and imports the program from the ``src/`` that
sits beside ``perfbench/``. A run sets its world up several times
(``setup_s`` is the median), runs a fixed prefix of the seeded op stream
under the wire probe (exact counts and a frame digest, untimed), then
measures:

* ``--trace 0``: the end-to-end metrics, over ``--seconds`` of ops;
* ``--trace 1``: half the time untraced and half traced; the per-layer
  metrics come from the traced half, the untraced tail latencies from
  the other.

Time metrics are scaled to a nominal machine speed by a reference
kernel timed between rounds (:mod:`reference`).

Every op's result is checked after its clock stops, and the world's
state after the run; a wrong result prints ``"correct": false`` and
exits 1. Readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from array import array
from pathlib import Path

from reference import REFERENCE_NS, Reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SETUP_CHUNKS = 4
#: reference kernel timings after each round
REFERENCE_SAMPLES = 3


class Recorder:
    """One caller's requests attempted, failed (an ``MROMError``), wrong
    and completed, and its op latencies. An async window is one op of 8
    requests: the caller waits for it once.

    The latencies kept are an evenly spaced subset of the ops, at most
    CAP of them: when the arrays fill, every second sample is dropped and
    from then on every second op is kept. So the harness's memory is the
    same whatever the throughput, and the subset spans the whole run.
    The kept ops shift by one op every segment: a segment is one pass
    over a cyclic op table whose length the stride divides, and without
    the shift the same table positions, a seeded subset, would be kept
    on every pass.
    """

    CAP = 1 << 16

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.requests = 0  # requests completed
        self.n = 0  # ops completed
        self.lat = array("q", bytes(8 * self.CAP))
        self.kinds = bytearray(self.CAP)
        self.kept = 0  # samples held
        self.stride = 1
        self.segments = 0

    def samples(self) -> list[tuple[int, int]]:
        """(latency, kind) of every op sample kept."""
        return list(zip(self.lat[:self.kept], self.kinds[:self.kept]))

    def merge_tally(self, other: "Recorder") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def run_segment(stream, rec: Recorder, segment_ops: int, call=None) -> None:
    """Run *segment_ops* ops back to back, timing each one. *call*, when
    given, runs each op (the traced half passes a root-span wrapper)."""
    from repro.core.errors import MROMError

    clock = time.perf_counter_ns
    lat, kinds, cap = rec.lat, rec.kinds, rec.CAP
    n, kept, stride = rec.n + rec.segments, rec.kept, rec.stride
    done = 0
    for _ in range(segment_ops):
        fn, args, requests, kind, check, info = next(stream)
        rec.attempted += requests
        t0 = clock()
        try:
            result = fn(*args) if call is None else call(fn, args)
        except MROMError:
            rec.failed += requests
            continue
        elapsed = clock() - t0
        if not n % stride:
            lat[kept] = elapsed
            kinds[kept] = kind
            kept += 1
            if kept == cap:
                kept = cap // 2
                lat[:kept] = lat[::2]
                kinds[:kept] = kinds[::2]
                stride *= 2
        n += 1
        done += requests
        if not check(result, info):
            rec.wrong += requests
    rec.n, rec.kept, rec.stride = n - rec.segments, kept, stride
    rec.segments += 1
    rec.requests += done


class Measurement:
    """The caller's recorder; the requests completed and the duration of
    each round; the reference kernel's times, REFERENCE_SAMPLES after
    each round."""

    def __init__(self):
        self.rec = Recorder()
        self.rounds: list[tuple[int, int]] = []
        self.references: list[int] = []
        self.busy_ns = 0

    @property
    def scale(self) -> float:
        """Factor from this run's times to times at the nominal speed,
        where the reference kernel takes :data:`~reference.REFERENCE_NS`."""
        return REFERENCE_NS / statistics.median(self.references)


def measure(world, reference: Reference, segment_ops: int, seconds: float,
            call=None) -> Measurement:
    """Rounds of one segment of the stream until they add up to *seconds*.

    Between rounds, with the clock stopped, the world does its
    maintenance and the reference kernel is timed.
    """
    clock = time.perf_counter_ns
    result = Measurement()
    rec = result.rec
    while result.busy_ns < seconds * 1e9:
        before = rec.requests
        start = clock()
        run_segment(world.stream, rec, segment_ops, call)
        elapsed = clock() - start
        result.rounds.append((rec.requests - before, elapsed))
        result.busy_ns += elapsed
        world.maintain()
        result.references += [reference.ns() for _ in range(REFERENCE_SAMPLES)]
    return result


def set_up(workload, reference: Reference, warm: Recorder) -> tuple[object, list[float]]:
    """Build and warm the world SETUP_REPEATS times; keep the last one.

    Each repetition starts from a collected heap, and its warm-up runs
    in SETUP_CHUNKS pieces. The reference kernel is timed, with the
    clock stopped, before and after the build and after every piece;
    the repetition's time is scaled by the median of those timings.
    ``setup_s`` is the median of the scaled repetitions returned. The
    warm-up ops are tallied in *warm*.
    """
    clock = time.perf_counter_ns
    times = []
    world = None
    for _ in range(SETUP_REPEATS):
        if world is not None:
            world.close()
            world = None
        gc.collect()
        references = [reference.ns()]
        start = clock()
        world = workload.build()
        busy = clock() - start
        try:
            for _ in range(SETUP_CHUNKS):
                references.append(reference.ns())
                start = clock()
                run_segment(world.stream, warm, workload.WARMUP_OPS // SETUP_CHUNKS)
                busy += clock() - start
        except BaseException:
            world.close()
            raise
        references.append(reference.ns())
        times.append(busy / 1e9 * REFERENCE_NS / statistics.median(references))
    return world, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if options.workload not in WORKLOADS:
        parser.error(f"unknown workload {options.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[options.workload](options.seed, ROOT)
    if workload.ONE_CPU:
        # Caller and server processes that take turns: on one CPU a
        # request costs the code and two context switches, where across
        # two it costs wake-ups whose price follows the host's scheduler.
        # Child processes, the reference kernel's too, inherit this.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference = Reference()
    try:
        return _run(options, workload, reference)
    finally:
        reference.close()


def _run(options, workload, reference: Reference) -> int:
    import report
    import tracer

    tally = Recorder()
    world, setup_times = set_up(workload, reference, tally)
    try:
        probe = tracer.WireProbe()
        probed = Recorder()
        installation = tracer.Installation(probe.wrap)
        before = world.counters()
        try:
            run_segment(world.stream, probed, workload.PROBE_OPS)
        finally:
            installation.undo()
        wire = report.wire_counts(world, probe, before, probed.attempted)
        tally.merge_tally(probed)
        if options.trace:
            plain = measure(world, reference, workload.SEGMENT_OPS, options.seconds / 2)
            spans = tracer.Tracer()
            census = tracer.CacheCensus(world.all_objects())
            world.trace(True)
            installation = tracer.Installation(spans.wrap)
            try:
                traced = measure(world, reference, workload.SEGMENT_OPS,
                                 options.seconds / 2, spans.root(_call))
            finally:
                installation.undo()
                cache = census.finish()
                child = world.trace(False)
            spans.write(OUT / f"spans-{workload.name}-{options.seed}.jsonl")
            agg = spans.aggregates()
            extra = report.anatomy(agg, traced)
            metrics = report.per_layer(plain, traced, agg, child, cache, wire)
            untraced, runs = plain, (plain, traced)
        else:
            untraced = measure(world, reference, workload.SEGMENT_OPS, options.seconds)
            metrics = report.end_to_end(untraced, setup_times, world.peak_rss_kb())
            runs, extra = (untraced,), []
        problems = world.verify()
    finally:
        world.close()
    for phase in runs:
        tally.merge_tally(phase.rec)
    if tally.wrong:
        problems.append(f"{tally.wrong} op(s) returned a wrong result")
    for line in report.describe(workload.name, options, untraced, setup_times, wire,
                                metrics, problems, extra):
        print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def _call(fn, args):
    return fn(*args)


if __name__ == "__main__":
    sys.exit(main())

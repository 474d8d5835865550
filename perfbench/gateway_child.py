"""The serving process of the tcp_gateway workload.

Builds one site holding the benchmark's counter objects, serves it
through a :class:`~repro.net.TcpGateway` on a loopback port, and prints
``{"port": ..., "guids": [...]}`` as its first line. After that it reads
one command per line on stdin and answers each with one JSON line:

* ``trace on`` — start tracing the request handling in this process;
* ``trace off`` — stop, and report the span aggregates, the serving
  lock's wait time and the invocation caches' counter deltas;
* ``rss`` — report this process's peak resident memory;
* ``quit`` — close the gateway and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.net import Network, Site, TcpGateway  # noqa: E402
from repro.sim import Simulator  # noqa: E402

import tracer  # noqa: E402
from workloads import counter_object, peak_rss_kb  # noqa: E402


class TimedLock:
    """Stands in for the gateway's serving lock and sums acquire waits.
    The sums are updated while the lock is held, so they need no lock."""

    def __init__(self, lock):
        self.lock = lock
        self.wait_ns = 0
        self.acquires = 0

    def __enter__(self):
        start = time.perf_counter_ns()
        self.lock.acquire()
        self.wait_ns += time.perf_counter_ns() - start
        self.acquires += 1
        return self

    def __exit__(self, *exc_info):
        self.lock.release()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--objects", type=int, required=True)
    options = parser.parse_args()
    site = Site(Network(Simulator()), "s0", "bench.s0")
    guids = []
    for index in range(options.objects):
        obj = counter_object(site.create_object(display_name=f"counter{index}"))
        site.register_object(obj)
        guids.append(obj.guid)
    gateway = TcpGateway(site)
    print(json.dumps({"port": gateway.port, "guids": guids}), flush=True)
    active = None
    for line in sys.stdin:
        command = line.strip()
        if command == "trace on":
            spans = tracer.Tracer()
            lock = TimedLock(gateway._lock)
            gateway._lock = lock
            census = tracer.CacheCensus(site.objects())
            active = (spans, tracer.Installation(spans.wrap), lock, census)
            reply = {"ok": True}
        elif command == "trace off":
            spans, installation, lock, census = active
            installation.undo()
            gateway._lock = lock.lock
            reply = {
                "agg": spans.aggregates(),
                "lock_wait_ns": lock.wait_ns,
                "acquires": lock.acquires,
                "cache": census.finish(),
            }
            active = None
        elif command == "rss":
            reply = {"peak_rss_kb": peak_rss_kb()}
        elif command == "quit":
            break
        else:
            reply = {"error": f"unknown command {command!r}"}
        print(json.dumps(reply), flush=True)
    gateway.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

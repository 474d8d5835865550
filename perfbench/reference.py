"""The reference kernel the time metrics are scaled by.

A shared machine can change speed by 2x within seconds (seen on a 2-vCPU
Xeon VM), far more than any bound a regression check can use. So every
run times a fixed pure-Python kernel, sharing no code with the program,
between its timed rounds, and scales its time metrics by
``REFERENCE_NS / median kernel time``: a metric reads what it would on
a machine where the kernel takes REFERENCE_NS. A change to the program
moves the metrics; a change to the machine's speed mostly does not.

The kernel has two halves, as the program's requests do: computing on a
small hot set (recursive encoding, container building, calls), and
chasing references through a heap too large for the CPU's caches. A
faster machine state speeds the first half about twice as much as the
second, and the program lies between. The heap lives in a process of
its own (``python3 reference.py``, answering one timing per input line),
so it does not count in the benchmark's memory.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

#: the kernel's time at the nominal machine speed the time metrics are
#: scaled to (about its median on a 2-vCPU Xeon at 2.1 GHz)
REFERENCE_NS = 20_000_000
#: the heap half: nodes in one seeded random cycle (about 12 MB), and
#: the steps one timing walks on from where the last one stopped
HEAP_NODES = 60_000
WALK_STEPS = 20_000

#: what the compute half encodes: nested containers of every scalar kind
_DATA = {
    f"key{index}": [index, f"value{index}", {"x": index * 1.5, "y": [index, None]},
                    b"\x00" * (index % 50), index % 2 == 0]
    for index in range(60)
}


def _encode(out: bytearray, value) -> None:
    if value is None or isinstance(value, bool):
        out.append(0 if value is None else 1 + value)
    elif isinstance(value, int):
        out += value.to_bytes(8, "little", signed=True)
    elif isinstance(value, float):
        out += repr(value).encode()
    elif isinstance(value, (str, bytes)):
        data = value.encode() if isinstance(value, str) else value
        out += len(data).to_bytes(4, "little")
        out += data
    elif isinstance(value, list):
        out.append(5)
        for element in value:
            _encode(out, element)
    else:
        out.append(6)
        for key, element in value.items():
            _encode(out, key)
            _encode(out, element)


class _Node:
    __slots__ = ("key", "value", "items", "next")


class Kernel:
    """The kernel, with its heap built once."""

    def __init__(self):
        nodes = []
        for index in range(HEAP_NODES):
            node = _Node()
            node.key, node.value, node.items = f"key{index}", index, [index, None]
            nodes.append(node)
        order = list(range(HEAP_NODES))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self.node = nodes[0]

    def time_ns(self) -> int:
        """Nanoseconds the kernel takes on this process's CPU, right now."""
        start = time.perf_counter_ns()
        for _ in range(20):
            out = bytearray()
            _encode(out, _DATA)
            copied = {key: list(value) for key, value in _DATA.items()}
            sorted(copied, key=len)
        node, table = self.node, {}
        for _ in range(WALK_STEPS):
            table[node.key] = node.value + node.items[0]
            node = node.next
            if len(table) > 512:
                table.clear()
        self.node = node
        return time.perf_counter_ns() - start


class Reference:
    """The kernel, timed in a process of its own."""

    def __init__(self):
        self.server = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def ns(self) -> int:
        """The kernel's time, right now."""
        self.server.stdin.write("\n")
        self.server.stdin.flush()
        answer = self.server.stdout.readline()
        if not answer:
            raise RuntimeError("reference kernel process exited")
        return int(answer)

    def close(self) -> None:
        self.server.stdin.close()
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


def main() -> int:
    kernel = Kernel()
    for _line in sys.stdin:
        print(kernel.time_ns(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

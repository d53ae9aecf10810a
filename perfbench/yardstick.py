"""A fixed reference program that measures the host's speed.

The host the benchmark was built on changes speed by up to 1.6x, in
phases that can outlast a run of ``--seconds``: no statistic over one
run's repetitions can tell such a phase from a slower program.  So
``run.py`` also times this file, started in a fresh interpreter, before
every repetition of a workload that runs in the benchmark's own
process, and scales ``wall_s`` by ``REFERENCE_S / (fastest of those
times)`` (``sim_pages_per_s`` by its inverse): they read as if measured
on a machine that runs the yardstick in ``REFERENCE_S``.

The yardstick is a small discrete-event loop -- a binary-heap calendar
of tuples, small slotted objects, a dict of counters and integer
arithmetic -- the same kind of interpreter work the simulator does, plus
the start of an interpreter.  It imports nothing from the program, so a
change to the program cannot move it.  A fresh process keeps it clear of
the benchmark process's heap, whose size would otherwise change how long
its allocations take.

Run as a script, it runs the loop once and exits.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
from time import perf_counter

# Fastest yardstick seconds on the reference machine (the 2-vCPU VM the
# benchmark was sized on, in a quiet phase).
REFERENCE_S = 0.07

_STEPS = 30_000


class _Job:
    __slots__ = ("key", "hops")

    def __init__(self, key: int):
        self.key = key
        self.hops = 0


def yardstick(steps: int = _STEPS) -> int:
    """Run the fixed reference loop; returns a checksum."""
    heap, table, seq, x = [], {}, 0, 12345
    for _ in range(256):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        heapq.heappush(heap, (x % 1000 / 7.0, seq, _Job(x % 997)))
    for _ in range(steps):
        now, _, job = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        job.hops += 1
        key = (job.key + x) % 997
        table[key] = table.get(key, 0) + job.hops
        if table[key] > 50:
            del table[key]
        seq += 1
        heapq.heappush(heap, (now + (x % 100) / 13.0, seq, _Job(key)))
    return len(table) + seq


def seconds() -> float:
    """Wall seconds of one yardstick run in a fresh interpreter."""
    start = perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return perf_counter() - start


if __name__ == "__main__":
    yardstick()

"""Disk array model: one FCFS queue per disk, uniform declustering.

From the paper (Section 3): "Our I/O system model is a probabilistic model
of a database that is declustered across all of the disks.  There is a
queue associated with each disk; when a transaction needs service, it
chooses a disk (at random, with all disks being equally likely) and waits
in the queue associated with the selected disk.  The service discipline for
the disk queues in the model is also FCFS."
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, List, Tuple

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

__all__ = ["DiskArray"]

_Request = Tuple[float, Callable[..., Any], tuple]


class _Disk:
    """A single disk: one server, FCFS queue."""

    __slots__ = ("busy", "queue", "busy_time", "requests_served")

    def __init__(self) -> None:
        self.busy = False
        self.queue: Deque[_Request] = deque()
        self.busy_time = 0.0
        self.requests_served = 0


class DiskArray:
    """A collection of independent FCFS disks."""

    def __init__(self, sim: Simulator, num_disks: int):
        if num_disks < 1:
            raise ConfigurationError(
                f"num_disks must be >= 1, got {num_disks}")
        self._sim = sim
        self.num_disks = num_disks
        self._disks: List[_Disk] = [_Disk() for _ in range(num_disks)]
        # Bits per draw of access_random's disk index, as
        # Random._randbelow computes it per call.
        self._index_bits = num_disks.bit_length()
        # Transient degradation knob (see repro.faultinject.system):
        # accesses issued while the scale is s take s times longer.
        # Applied at access time; queued/in-service work is unaffected.
        self.service_scale = 1.0

    def clear(self) -> None:
        """Drop every waiting request (a finished run's teardown); the
        counters stay readable."""
        for disk in self._disks:
            disk.queue.clear()

    def choose_disk(self, rng: random.Random) -> int:
        """Pick a disk uniformly at random (the paper's declustering)."""
        return rng.randrange(self.num_disks)

    def queue_length(self, disk_index: int) -> int:
        """Waiting requests (not in service) at one disk."""
        return len(self._disks[disk_index].queue)

    def total_queue_length(self) -> int:
        """Waiting requests across all disks."""
        return sum(len(d.queue) for d in self._disks)

    def requests_served(self) -> int:
        """Completed I/Os across all disks."""
        return sum(d.requests_served for d in self._disks)

    @property
    def busy_time(self) -> float:
        """Total server-busy seconds summed across all disks."""
        return sum(d.busy_time for d in self._disks)

    def utilization(self, elapsed: float) -> float:
        """Average fraction of disks busy over ``elapsed`` seconds."""
        if elapsed <= 0.0:
            return 0.0
        busy = sum(d.busy_time for d in self._disks)
        return busy / (elapsed * self.num_disks)

    def access(self, disk_index: int, service_time: float,
               callback: Callable[..., Any], *args: Any) -> None:
        """Request ``service_time`` seconds of I/O on a specific disk."""
        if service_time < 0.0:
            raise ConfigurationError(
                f"negative disk service time: {service_time}")
        if not 0 <= disk_index < self.num_disks:
            raise ConfigurationError(
                f"disk index {disk_index} out of range "
                f"[0, {self.num_disks})")
        service_time *= self.service_scale
        disk = self._disks[disk_index]
        if disk.busy:
            disk.queue.append((service_time, callback, args))
        else:
            disk.busy = True
            disk.busy_time += service_time
            # post(): completions are never cancelled, so no handle.
            self._sim.post(service_time, self._complete,
                           disk, callback, args)

    def access_random(self, rng: random.Random, service_time: float,
                      callback: Callable[..., Any], *args: Any) -> None:
        """``choose_disk`` + ``access`` fused for the per-page hot path.

        Draws exactly one disk index from ``rng`` — the same stream
        consumption as the two-call form — and skips the index range
        check (the index is generated in range by construction).
        ``randrange(n)`` for a positive int n is a validating wrapper
        around ``Random._randbelow(n)``, a rejection loop over
        ``getrandbits(n.bit_length())``; the loop is spelled out here
        with the bit count computed once, so it consumes identical
        random bits and trajectories stay bit-identical to
        :meth:`choose_disk`.
        """
        if service_time < 0.0:
            raise ConfigurationError(
                f"negative disk service time: {service_time}")
        service_time *= self.service_scale
        num_disks = self.num_disks
        index = rng.getrandbits(self._index_bits)
        while index >= num_disks:
            index = rng.getrandbits(self._index_bits)
        disk = self._disks[index]
        if disk.busy:
            disk.queue.append((service_time, callback, args))
        else:
            disk.busy = True
            disk.busy_time += service_time
            # Simulator.post, spelled out (see repro.sim.engine).
            sim = self._sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, [sim.now + service_time, seq,
                                 self._complete, (disk, callback, args),
                                 None])

    def _complete(self, disk: _Disk,
                  callback: Callable[..., Any], args: tuple) -> None:
        disk.requests_served += 1
        if disk.queue:
            # Start the next waiter before running the completion callback
            # so FCFS order is preserved if the callback re-enters.  The
            # start bookkeeping is spelled out inline — this runs once
            # per I/O-bound calendar event.
            service_time, queued_callback, queued_args = (
                disk.queue.popleft())
            disk.busy_time += service_time
            # Simulator.post, spelled out as in access_random().
            sim = self._sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, [sim.now + service_time, seq,
                                 self._complete,
                                 (disk, queued_callback, queued_args),
                                 None])
        else:
            disk.busy = False
        callback(*args)

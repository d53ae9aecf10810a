"""CPU server pool with priority FCFS scheduling.

The paper's physical model (Section 3) uses a pool of CPU servers fed by a
single queue: "Requests in the queue for the pool of CPU servers are
serviced FCFS, except that concurrency control requests get priority over
other service requests."  We model that with two FCFS sub-queues, one per
priority class; a freed server always drains the high-priority queue first.

Service is non-preemptive: a running request completes even if a
higher-priority request arrives meanwhile.
"""

from __future__ import annotations

import enum
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Tuple

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

__all__ = ["Priority", "CpuPool"]


class Priority(enum.IntEnum):
    """CPU request priority classes (lower value = higher priority)."""

    CC = 0        # concurrency control work
    NORMAL = 1    # page processing, deferred updates


_Request = Tuple[float, Callable[..., Any], tuple]


class CpuPool:
    """A pool of identical CPU servers with a shared two-level FCFS queue."""

    def __init__(self, sim: Simulator, num_cpus: int):
        if num_cpus < 1:
            raise ConfigurationError(f"num_cpus must be >= 1, got {num_cpus}")
        self._sim = sim
        self.num_cpus = num_cpus
        self._free = num_cpus
        self._queues: Tuple[Deque[_Request], Deque[_Request]] = (
            deque(), deque())
        # Transient degradation knob (see repro.faultinject.system):
        # every service demand issued while the scale is s takes s times
        # longer.  Applied at request time, so work already queued or in
        # service keeps the demand it was issued with.
        self.service_scale = 1.0
        # Statistics.
        self.busy_time = 0.0          # total server-busy seconds
        self.requests_served = 0

    @property
    def free_servers(self) -> int:
        """Number of currently idle servers."""
        return self._free

    def queue_length(self) -> int:
        """Number of requests waiting (not in service)."""
        return len(self._queues[0]) + len(self._queues[1])

    def utilization(self, elapsed: float) -> float:
        """Average fraction of servers busy over ``elapsed`` seconds."""
        if elapsed <= 0.0:
            return 0.0
        return self.busy_time / (elapsed * self.num_cpus)

    def clear(self) -> None:
        """Drop every waiting request (a finished run's teardown); the
        counters stay readable."""
        for queue in self._queues:
            queue.clear()

    def request(self, service_time: float,
                callback: Callable[..., Any], *args: Any,
                priority: Priority = Priority.NORMAL) -> None:
        """Ask for ``service_time`` seconds of CPU; run callback when done.

        Zero-cost requests complete through the same path (an event at the
        current time) so that callback ordering stays deterministic.
        """
        if service_time < 0.0:
            raise ConfigurationError(
                f"negative CPU service time: {service_time}")
        service_time *= self.service_scale
        if self._free > 0:
            self._free -= 1
            self.busy_time += service_time
            # Simulator.post, spelled out (see repro.sim.engine).
            sim = self._sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, [sim.now + service_time, seq,
                                 self._complete, (callback, args), None])
        else:
            # Priority is an IntEnum, so it indexes the queue pair
            # directly.
            self._queues[priority].append((service_time, callback, args))

    def _complete(self, callback: Callable[..., Any], args: tuple) -> None:
        self._free += 1
        self.requests_served += 1
        # Hand the freed server to the next waiter before running the
        # completion callback: the callback may itself issue a new request,
        # and FCFS requires existing waiters to be served first.  The
        # start bookkeeping is spelled out inline — this runs once per
        # CPU-bound calendar event.
        cc_queue, normal_queue = self._queues
        if cc_queue:
            service_time, queued_callback, queued_args = cc_queue.popleft()
        elif normal_queue:
            service_time, queued_callback, queued_args = (
                normal_queue.popleft())
        else:
            callback(*args)
            return
        self._free -= 1
        self.busy_time += service_time
        # Simulator.post, spelled out as in request().
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, [sim.now + service_time, seq, self._complete,
                             (queued_callback, queued_args), None])
        callback(*args)

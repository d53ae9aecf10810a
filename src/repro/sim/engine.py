"""Discrete-event simulation kernel.

The kernel is a classic event-calendar design: a binary heap of pending
events ordered by ``(time, sequence_number)``.  Sequence numbers break ties
so that events scheduled earlier at the same timestamp fire first, which
makes every simulation run fully deterministic for a given seed.

Hot-loop representation (the "slot" calendar)
---------------------------------------------

The heap does *not* store :class:`Event` objects.  Each calendar entry is
a plain 5-element list — a *slot*::

    [time, seq, callback, args, handle]

``heapq`` compares entries with ``<``; list comparison runs element-wise
in C, so an entire sift step costs no Python-level calls.  Sequence
numbers are unique, so a comparison never proceeds past ``seq``
(callbacks are never compared).  A slot is built fresh per event: a
free list of fired slots would cost a ``pop`` and an ``append`` per
event, more than the small-list allocation it saves.

:class:`Event` is now purely a *cancellation handle*: :meth:`Simulator.
schedule` returns one, :meth:`Simulator.post` (the hot-path variant used
by the DBMS state machine) skips allocating one entirely.  Cancelling
clears the slot's callback in place (lazy deletion), so cancelled slots
pin no model objects while they await removal.

The CPU pool and the disk array push their completion slots onto
``_heap`` themselves, numbered from the shared ``_seq``: a change to the
slot layout must change them too.  ``_heap`` is one list for the
simulator's lifetime: ``_compact`` and ``clear`` empty or refill it in
place, because :meth:`Simulator.run` holds a local reference to it while
a callback may cancel events (and so compact) or clear the calendar.

Calendar hygiene: the kernel maintains a live-event counter (making
:meth:`Simulator.pending` O(1)) and re-heapifies — dropping every
cancelled slot — whenever cancelled entries outnumber live ones, so
workloads that cancel heavily (bounded-wait policies, fault plans)
cannot grow the heap without bound.

Typical usage::

    sim = Simulator()
    sim.schedule(0.0, lambda: print("hello at t=0"))
    handle = sim.schedule(5.0, some_callback, arg1, arg2)
    handle.cancel()                 # events may be cancelled before firing
    sim.run(until=100.0)
"""

from __future__ import annotations

import heapq
from time import perf_counter as _perf_counter
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import SimulationError, VerificationError

__all__ = ["Event", "Simulator"]

# Relative tolerance for absolute-time scheduling: a delta no further in
# the past than EPSILON times the clock magnitude is floating-point
# round-off from computing ``time - now`` (e.g. 5.1 - 2.0 - 3.1 ==
# -4.4e-16), not a genuinely past time, and clamps to "now".
_SCHEDULE_EPSILON = 1e-9

# Slot indices, for readability at the few non-loop touch points.
_TIME, _SEQ, _CALLBACK, _ARGS, _HANDLE = range(5)

# Compaction only kicks in above this many cancelled slots: rebuilding a
# tiny heap saves nothing, and the threshold keeps cancel() O(1)
# amortized even for workloads that cancel every other event.
_COMPACT_MIN_DEAD = 8


class Event:
    """A cancellation handle, returned by :meth:`Simulator.schedule`.

    The only public operation is :meth:`cancel`.  Cancelled slots stay in
    the heap but are skipped by the main loop (lazy deletion); their
    callback and argument references are dropped immediately, and the
    calendar compacts itself when cancelled slots outnumber live ones.
    """

    __slots__ = ("time", "seq", "cancelled", "_sim", "_slot")

    def __init__(self, time: float, seq: int, sim: "Simulator",
                 slot: list):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._sim = sim
        self._slot = slot

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent; a no-op once the
        event has fired."""
        self.cancelled = True
        slot = self._slot
        if slot is None:      # already fired, or already cancelled
            return
        self._slot = None
        # Clear the slot in place: the heap skips callback-less slots,
        # and dropping the references here means a cancelled event never
        # pins model objects while awaiting lazy deletion.
        slot[_CALLBACK] = None
        slot[_ARGS] = None
        slot[_HANDLE] = None
        sim = self._sim
        self._sim = None
        sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Event-calendar simulator with a monotonically advancing clock.

    ``now`` is the clock, a plain attribute so the model reads it
    without a call.  Only :meth:`run` writes it; nothing else in the
    package may (``tests/sim/test_engine.py`` checks the source).
    """

    def __init__(self) -> None:
        # Current simulation time in (simulated) seconds.
        self.now = 0.0
        self._heap: List[list] = []
        self._dead = 0                # cancelled slots still in the heap
        self._seq = 0
        self._running = False
        self._stopped = False
        # Cumulative count of executed events, across every run() call.
        # Maintained at the end of each run (not per event), so reading
        # it costs the harness nothing on the hot loop.
        self.events_executed = 0
        # Optional event-loop profiler (duck-typed; see
        # repro.telemetry.profiling.EngineProfiler).  When set, every
        # executed event is counted into profiler.tally[callback] — or,
        # if profiler.timed, timed with a perf_counter pair and reported
        # to profiler.record(callback, elapsed, args) — and each run()
        # ends with profiler.end_run(loop wall seconds).  Costs one None
        # check per event when disabled.
        self.profiler = None
        # Optional event monitor (duck-typed; see
        # repro.verify.InvariantChecker): when set, monitor.on_event(cb)
        # runs after every executed event, with the simulation quiescent
        # between events — the point where cross-subsystem invariants
        # must hold.  A monitor may raise (e.g. InvariantViolation) to
        # abort the run; it must never mutate simulation state.  Same
        # zero-cost-off contract as the profiler: one None check per
        # event when disabled.
        self.monitor = None

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the calendar (O(1))."""
        return len(self._heap) - self._dead

    def iter_pending_callbacks(self) -> Iterator[Callable[..., Any]]:
        """Yield the callback of every live (not cancelled) calendar
        entry, in no particular order.  Observational — used by the
        verification layer's population-conservation check."""
        for slot in self._heap:
            callback = slot[_CALLBACK]
            if callback is not None:
                yield callback

    def schedule(self, delay: float,
                 callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns an :class:`Event` handle that may be cancelled.  A negative
        delay is a programming error and raises :class:`SimulationError`.
        """
        if delay < 0.0:
            raise SimulationError(
                f"cannot schedule event {delay} seconds in the past")
        time = self.now + delay
        self._seq += 1
        slot = [time, self._seq, callback, args, None]
        ev = slot[_HANDLE] = Event(time, self._seq, self, slot)
        heapq.heappush(self._heap, slot)
        return ev

    def post(self, delay: float,
             callback: Callable[..., Any], *args: Any) -> None:
        """Hot-path :meth:`schedule`: no cancellation handle is created.

        Semantically identical to ``schedule`` (same sequence numbering,
        same ordering, same negative-delay check) minus the :class:`Event`
        allocation.  Use it for fire-and-forget events — resource
        completions, state-machine continuations — which are never
        cancelled.
        """
        if delay < 0.0:
            raise SimulationError(
                f"cannot schedule event {delay} seconds in the past")
        self._seq += 1
        heapq.heappush(self._heap,
                       [self.now + delay, self._seq, callback, args, None])

    def schedule_at(self, time: float,
                    callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        Computing ``time - now`` in floating point can round to a tiny
        negative number even when ``time`` is mathematically the current
        instant (``5.1 - 2.0 - 3.1 == -4.4e-16``); such round-off deltas
        are clamped to "now".  Genuinely past times still raise
        :class:`SimulationError`.
        """
        delay = time - self.now
        if delay < 0.0:
            tolerance = _SCHEDULE_EPSILON * max(
                1.0, abs(time), abs(self.now))
            if delay >= -tolerance:
                delay = 0.0
        return self.schedule(delay, callback, *args)

    def _note_cancelled(self) -> None:
        """Account for one newly cancelled slot; compact when cancelled
        slots outnumber live ones."""
        self._dead += 1
        if (self._dead > _COMPACT_MIN_DEAD
                and self._dead * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled slot and re-heapify.

        O(live) — cheaper than the cancelled backlog it removes, so the
        amortized cost per cancellation is constant.  Fire order is
        unaffected: live slots keep their (time, seq) keys.
        """
        heap = self._heap
        heap[:] = [slot for slot in heap if slot[_CALLBACK] is not None]
        heapq.heapify(heap)
        self._dead = 0

    def clear(self) -> None:
        """Drop every pending event.

        For a finished run: the calendar's callbacks are bound methods
        of the model, which holds the simulator, so a calendar left
        populated keeps the whole run alive as cyclic garbage.  Handles
        of dropped events are detached like those of fired ones (a late
        ``cancel()`` is a no-op).  The clock and ``events_executed``
        stay readable; scheduling afterwards works as on a fresh
        calendar.
        """
        for slot in self._heap:
            handle = slot[_HANDLE]
            if handle is not None:
                handle._slot = None
                handle._sim = None
            slot[_CALLBACK] = slot[_ARGS] = slot[_HANDLE] = None
        del self._heap[:]
        self._dead = 0

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time.  Events at
                exactly ``until`` still fire.  ``None`` runs to exhaustion.
            max_events: safety valve; stop after this many events fired.

        Returns:
            The number of events executed.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        hit_max = False
        # Local bindings shave attribute lookups off every iteration;
        # None sentinels become +inf bounds so the loop pays one compare
        # instead of an `is not None` check plus a compare.
        heap = self._heap
        heappop = heapq.heappop
        profiler = self.profiler
        monitor = self.monitor
        perf_counter = _perf_counter
        horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        if profiler is not None:
            # A counting profiler gets its tally bumped in place; only a
            # timed one is called per event.
            tally = None if profiler.timed else profiler.tally
            loop_start = perf_counter()
        try:
            while heap:
                if self._stopped:
                    break
                slot = heap[0]
                callback = slot[2]
                if callback is None:      # cancelled: lazy deletion
                    heappop(heap)
                    self._dead -= 1
                    continue
                time = slot[0]
                if time > horizon:
                    break
                if fired >= limit:
                    hit_max = True
                    break
                heappop(heap)
                self.now = time
                args = slot[3]
                handle = slot[4]
                if handle is not None:
                    # Detach the handle so a late cancel() is a no-op
                    # rather than counting a fired event as cancelled.
                    handle._slot = None
                    handle._sim = None
                try:
                    if profiler is None:
                        callback(*args)
                    elif tally is not None:
                        callback(*args)
                        tally[callback] = tally.get(callback, 0) + 1
                    else:
                        start = perf_counter()
                        callback(*args)
                        profiler.record(callback, perf_counter() - start,
                                        args)
                except (SimulationError, VerificationError):
                    # Verification failures (invariant violations, shadow
                    # divergences) are first-class: wrapping them would
                    # hide the typed evidence they carry.
                    raise
                except Exception as exc:
                    # Chain with the simulated time and callback so an
                    # in-simulation failure is debuggable from the
                    # traceback alone.  CPython 3.11+ try/except costs
                    # nothing on the no-exception path.
                    name = getattr(callback, "__qualname__", repr(callback))
                    raise SimulationError(
                        f"event callback {name} raised at simulated "
                        f"time {self.now:.6f} (event #{fired + 1}): "
                        f"{type(exc).__name__}: {exc}") from exc
                fired += 1
                if monitor is not None:
                    monitor.on_event(callback)
        finally:
            self._running = False
            self.events_executed += fired
            if profiler is not None:
                profiler.end_run(perf_counter() - loop_start)
        if (until is not None and self.now < until
                and not self._stopped and not hit_max):
            # Exhausted the calendar before the horizon: advance the clock so
            # repeated run(until=...) calls measure real elapsed sim time.
            # Not done when the max_events valve tripped — events are still
            # pending before the horizon, so jumping the clock to `until`
            # would corrupt subsequent run(until=...) accounting.
            self.now = until
        return fired

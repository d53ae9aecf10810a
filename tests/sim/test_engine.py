"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_only_the_engine_assigns_the_clock():
    """``Simulator.now`` is a writable attribute, so nothing enforces at
    run time that only the event loop advances it: no module of the
    package outside the engine may assign an attribute named ``now``."""
    import ast
    from pathlib import Path

    import repro
    import repro.sim.engine as engine

    package = Path(repro.__file__).parent
    writers = []
    for path in sorted(package.rglob("*.py")):
        if path == Path(engine.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "now":
                        writers.append(f"{path.relative_to(package)}:"
                                       f"{node.lineno}")
    assert writers == []


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.schedule(7.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5, 7.25]
    assert sim.now == 7.25


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run(until=20.0)
    assert fired == ["early", "late"]


def test_event_at_exact_horizon_fires():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "edge")
    sim.run(until=5.0)
    assert fired == ["edge"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.001, lambda: None)


def test_zero_delay_event_fires_at_now():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, seen.append, sim.now))
    sim.run()
    assert seen == [1.0]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    handle.cancel()
    sim.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_pending_counts_only_live_events():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    h1.cancel()
    assert sim.pending() == 1


def test_schedule_at_absolute_time():
    sim = Simulator()
    times = []
    sim.schedule_at(4.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [4.0]


def test_schedule_at_clamps_float_roundoff_to_now():
    # Regression: scheduling at the mathematically current instant used
    # to raise when the delta computation rounded to a tiny negative
    # (0.3 - (0.1 + 0.2) == -5.6e-17).  Such round-off clamps to "now".
    sim = Simulator()
    fired = []

    def at_roundoff_now():
        assert 0.3 - sim.now < 0.0     # genuinely negative round-off
        sim.schedule_at(0.3, lambda: fired.append(sim.now))

    sim.schedule(0.1 + 0.2, at_roundoff_now)
    sim.run()
    assert fired == [0.1 + 0.2]


def test_schedule_at_genuinely_past_time_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_post_shares_tie_order_with_schedule():
    # post() and schedule() draw from the same sequence counter, so
    # same-time events fire in submission order regardless of which
    # entry point scheduled them.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.post(1.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_post_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-0.001, lambda: None)


def test_mass_cancellation_compacts_the_calendar():
    # Regression: cancelled slots were lazily deleted but never
    # compacted, so a cancel-heavy workload grew the heap without
    # bound.  Once cancelled slots outnumber live ones the calendar
    # re-heapifies, and survivors still fire in order.
    sim = Simulator()
    kept = []
    handles = []
    for i in range(1000):
        if i % 100 == 0:
            sim.schedule(float(i), kept.append, i)
        else:
            handles.append(sim.schedule(float(i), lambda: None))
    for handle in handles:
        handle.cancel()
    assert sim.pending() == 10
    # Compaction ran: dead slots never exceed max(live, threshold), so
    # nearly all of the 990 cancelled slots are gone.
    assert len(sim._heap) <= 2 * sim.pending() + 8
    assert sim.run() == 10
    assert kept == list(range(0, 1000, 100))


def test_compaction_inside_a_callback_keeps_the_loop_on_the_calendar():
    # Regression: compaction replaced the heap list while run() kept
    # looping over its local reference to the old one.  The loop then
    # popped the cancelled slots a second time (``_dead`` went to -20),
    # missed events scheduled after the compaction, and the next run()
    # fired the surviving events again.
    sim = Simulator()
    fired = []
    handles = [sim.schedule(2.0, fired.append, "cancelled")
               for _ in range(20)]

    def first():
        fired.append("first")
        for handle in handles:
            handle.cancel()             # compacts the calendar mid-run

    def kept():
        fired.append("kept")
        sim.schedule(0.5, fired.append, "late")

    sim.schedule(0.5, first)
    sim.schedule(1.0, kept)
    assert sim.run(until=100.0) == 3
    assert fired == ["first", "kept", "late"]
    assert sim._dead == 0
    assert sim.pending() == 0
    assert sim.run() == 0
    assert fired == ["first", "kept", "late"]


def test_clear_inside_a_callback_stops_the_dropped_events():
    sim = Simulator()
    fired = []

    def wipe():
        fired.append("wipe")
        sim.clear()
        sim.schedule(1.0, fired.append, "after clear")

    sim.schedule(1.0, wipe)
    sim.schedule(2.0, fired.append, "dropped")
    assert sim.run() == 2
    assert fired == ["wipe", "after clear"]
    assert sim._dead == 0
    assert sim.pending() == 0


def test_cancel_heavy_workload_keeps_heap_bounded():
    sim = Simulator()
    for _ in range(10_000):
        sim.schedule(1.0, lambda: None).cancel()
    assert sim.pending() == 0
    # Compaction keeps the calendar's footprint constant, not linear in
    # the number of cancellations.
    assert len(sim._heap) < 32
    assert sim.run() == 0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_limits_execution():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.run() == 6


def test_max_events_does_not_fast_forward_clock():
    # Regression: when the max_events safety valve tripped with events
    # still pending before the horizon, run(until=...) fast-forwarded the
    # clock to `until` anyway, corrupting subsequent run accounting.
    sim = Simulator()
    for t in range(1, 6):
        sim.schedule(float(t), lambda: None)
    assert sim.run(until=10.0, max_events=2) == 2
    assert sim.now == 2.0          # not 10.0: events at t=3..5 still pending
    assert sim.pending() == 3
    assert sim.run(until=10.0) == 3
    assert sim.now == 10.0         # calendar drained, clock reaches horizon


def test_max_events_with_exhausted_calendar_still_advances():
    # When the valve is set but never trips, the horizon jump must behave
    # as before.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=10.0, max_events=5) == 1
    assert sim.now == 10.0


def test_max_events_exactly_drains_calendar_still_advances():
    # When the last allowed event also empties the calendar, the run
    # genuinely finished early and the horizon jump must still happen.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.run(until=10.0, max_events=2) == 2
    assert sim.now == 10.0


def test_stop_inside_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]  # the stop request halted the loop


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_run_returns_number_of_events():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    assert sim.run() == 5


def test_callback_arguments_passed_through():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
    sim.run()
    assert seen == [(1, "x")]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fire_times = []
    for d in delays:
        sim.schedule(d, lambda: fire_times.append(sim.now))
    sim.run()
    assert len(fire_times) == len(delays)
    assert fire_times == sorted(fire_times)
    assert fire_times == sorted(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=40))
def test_property_cancelled_events_never_fire(items):
    sim = Simulator()
    fired = []
    for i, (delay, cancel) in enumerate(items):
        handle = sim.schedule(delay, fired.append, i)
        if cancel:
            handle.cancel()
    sim.run()
    expected = [i for i, (_d, cancel) in enumerate(items) if not cancel]
    assert sorted(fired) == expected


# ----------------------------------------------------------------------
# Callback failures carry simulation context
# ----------------------------------------------------------------------

def _explode():
    raise ValueError("boom inside the model")


def test_callback_exception_chains_into_simulation_error():
    sim = Simulator()
    sim.schedule(3.5, _explode)
    with pytest.raises(SimulationError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "_explode" in message
    assert "3.5" in message
    assert "ValueError: boom inside the model" in message
    assert isinstance(excinfo.value.__cause__, ValueError)
    # The loop is reusable after the failure (not left marked running).
    fired = []
    sim.schedule(1.0, fired.append, "next")
    sim.run()
    assert fired == ["next"]


def test_simulation_errors_from_callbacks_pass_through_unwrapped():
    sim = Simulator()

    def raise_sim_error():
        raise SimulationError("already typed")

    sim.schedule(1.0, raise_sim_error)
    with pytest.raises(SimulationError) as excinfo:
        sim.run()
    assert str(excinfo.value) == "already typed"
    assert excinfo.value.__cause__ is None


# ----------------------------------------------------------------------
# Resource completions on the shared calendar
# ----------------------------------------------------------------------

def _resources(sim):
    from repro.sim.resources.cpu import CpuPool
    from repro.sim.resources.disk import DiskArray
    cpu, disks = CpuPool(sim, 1), DiskArray(sim, 1)
    return {
        "cpu": lambda delay, callback, *args: cpu.request(
            delay, callback, *args),
        "disk": lambda delay, callback, *args: disks.access_random(
            _FirstDisk(), delay, callback, *args),
    }


class _FirstDisk:
    """A random stream whose every draw picks disk 0."""

    def getrandbits(self, bits):
        return 0


@pytest.mark.parametrize("kind", ["cpu", "disk"])
def test_resource_completions_share_sequence_numbers_with_post(kind):
    """The CPU pool and the disk array push their completion slots onto
    the calendar themselves: at one simulated time they fire in
    scheduling order among posted and scheduled events, and
    ``pending()`` counts them."""
    sim = Simulator()
    serve = _resources(sim)[kind]
    fired = []
    sim.post(1.0, fired.append, "posted before")
    serve(1.0, fired.append, "completion")
    sim.schedule(1.0, fired.append, "scheduled after")
    sim.post(1.0, fired.append, "posted after")
    assert sim.pending() == 4
    assert sim.run() == 4
    assert fired == ["posted before", "completion", "scheduled after",
                     "posted after"]
    assert sim.pending() == 0


@pytest.mark.parametrize("kind", ["cpu", "disk"])
def test_resource_completions_land_on_a_replaced_heap(kind):
    """Compaction and ``clear()`` rebuild the heap list in place; a
    completion issued afterwards is pushed onto it and fires."""
    sim = Simulator()
    serve = _resources(sim)[kind]
    handles = [sim.schedule(5.0, print) for _ in range(20)]
    for handle in handles:
        handle.cancel()                 # compacts: a new heap list
    fired = []
    serve(2.0, fired.append, "after compaction")
    sim.post(2.0, fired.append, "posted")
    assert sim.pending() == 2
    sim.run()
    assert fired == ["after compaction", "posted"]
    sim.clear()
    serve(1.0, fired.append, "after clear")
    assert sim.pending() == 1
    sim.run()
    assert fired[-1] == "after clear"

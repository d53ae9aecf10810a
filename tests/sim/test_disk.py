"""Unit tests for the disk array (per-disk FCFS queues)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.resources.disk import DiskArray


def test_invalid_disk_count_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        DiskArray(sim, 0)


def test_invalid_disk_index_rejected():
    sim = Simulator()
    disks = DiskArray(sim, 2)
    with pytest.raises(ConfigurationError):
        disks.access(2, 1.0, lambda: None)
    with pytest.raises(ConfigurationError):
        disks.access(-1, 1.0, lambda: None)


def test_negative_service_time_rejected():
    sim = Simulator()
    disks = DiskArray(sim, 1)
    with pytest.raises(ConfigurationError):
        disks.access(0, -0.5, lambda: None)


def test_single_disk_fcfs():
    sim = Simulator()
    disks = DiskArray(sim, 1)
    done = []
    disks.access(0, 2.0, done.append, "a")
    disks.access(0, 1.0, done.append, "b")
    sim.run()
    assert done == ["a", "b"]
    assert sim.now == 3.0


def test_disks_are_independent():
    sim = Simulator()
    disks = DiskArray(sim, 2)
    done_times = {}
    disks.access(0, 5.0, lambda: done_times.setdefault("slow", sim.now))
    disks.access(1, 1.0, lambda: done_times.setdefault("fast", sim.now))
    sim.run()
    assert done_times["fast"] == 1.0   # not stuck behind disk 0
    assert done_times["slow"] == 5.0


def test_queue_length_per_disk():
    sim = Simulator()
    disks = DiskArray(sim, 2)
    disks.access(0, 1.0, lambda: None)
    disks.access(0, 1.0, lambda: None)
    disks.access(0, 1.0, lambda: None)
    assert disks.queue_length(0) == 2   # one in service, two waiting
    assert disks.queue_length(1) == 0
    assert disks.total_queue_length() == 2
    sim.run()
    assert disks.total_queue_length() == 0


def test_utilization_and_served():
    sim = Simulator()
    disks = DiskArray(sim, 2)
    disks.access(0, 4.0, lambda: None)
    disks.access(1, 4.0, lambda: None)
    sim.run()
    assert disks.utilization(8.0) == pytest.approx(0.5)
    assert disks.utilization(0.0) == 0.0
    assert disks.requests_served() == 2


def test_choose_disk_uniform_coverage():
    sim = Simulator()
    disks = DiskArray(sim, 5)
    rng = random.Random(1)
    chosen = {disks.choose_disk(rng) for _ in range(300)}
    assert chosen == {0, 1, 2, 3, 4}


def test_completion_callback_can_reaccess():
    sim = Simulator()
    disks = DiskArray(sim, 1)
    done = []

    def again():
        done.append("first")
        disks.access(0, 1.0, done.append, "second")

    disks.access(0, 1.0, again)
    sim.run()
    assert done == ["first", "second"]
    assert sim.now == 2.0


@pytest.mark.parametrize("seed", [1, 2, 9001])
def test_access_random_draws_randbelow_stream(seed):
    """``access_random`` picks the same disk indices as
    ``Random._randbelow`` and consumes the same random bits, for disk
    counts on both sides of every power of two."""
    for num_disks in range(1, 18):
        sim = Simulator()
        array = DiskArray(sim, num_disks)
        rng = random.Random(seed)
        reference = random.Random(seed)
        for _ in range(10_000):
            array.access_random(rng, 1.0, _noop)
            busy = [i for i, disk in enumerate(array._disks) if disk.busy]
            assert busy == [reference._randbelow(num_disks)], num_disks
            array._disks[busy[0]].busy = False
        assert rng.getstate() == reference.getstate(), num_disks


def _noop() -> None:
    pass

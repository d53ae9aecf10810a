"""The workload's inline draws against the ``random`` calls they spell
out: same values, same random bits consumed."""

from __future__ import annotations

import random

import pytest

from repro.dbms.config import SimulationParameters
from repro.sim.rng import RandomStreams
from repro.workload.base import (sample_page_sets, sample_pages,
                                 sample_readset_size)
from repro.workload.homogeneous import HomogeneousWorkload

# n = 1..24 covers Random.sample's pool branch and the switch to its set
# branch at n = 22 for k <= 5; 86 is the first set-branch size for
# 6 <= k <= 21.
POPULATIONS = [*range(1, 25), 86, 300, 1000, 4096]
DRAWS = 40          # per (n, k): a wrong draw shows up in a later state


@pytest.mark.parametrize("seed", [1, 2, 9001])
def test_sample_pages_draws_random_sample_stream(seed):
    """``sample_pages`` returns ``Random.sample(range(n), k)`` and leaves
    the generator in the same state, for every k <= min(n, 12)."""
    for n in POPULATIONS:
        for k in range(min(n, 12) + 1):
            rng = random.Random(seed)
            reference = random.Random(seed)
            for _ in range(DRAWS):
                assert sample_pages(rng, n, k) == \
                    reference.sample(range(n), k), (n, k)
            assert rng.getstate() == reference.getstate(), (n, k)


@pytest.mark.parametrize("seed", [1, 7, 9001])
@pytest.mark.parametrize("tran_size, db_size, write_prob", [
    (1, 30, 0.25), (2, 30, 0.5), (3, 40, 0.0), (8, 1000, 0.25),
    (8, 22, 1.0), (24, 86, 0.25), (40, 4096, 0.1),
])
def test_transactions_equal_the_sampling_helpers(seed, tran_size, db_size,
                                                 write_prob):
    """A generated transaction is the one ``sample_readset_size`` and
    ``sample_page_sets`` (``randint``, ``Random.sample`` and a Bernoulli
    draw per page) give on the same seed, and every stream ends in the
    same state."""
    params = SimulationParameters(tran_size=tran_size, db_size=db_size,
                                  write_prob=write_prob)
    streams = RandomStreams(seed)
    gen = HomogeneousWorkload(streams, params)
    reference = RandomStreams(seed)
    for i in range(200):
        txn = gen.make_transaction(i, 0, 0.0)
        size = sample_readset_size(reference, tran_size)
        readset, writeset = sample_page_sets(reference, db_size, size,
                                             write_prob)
        assert txn.readset == readset
        assert txn.writeset == writeset
        assert txn.num_reads == size
    for name in ("readset_size", "page_choice", "write_choice"):
        assert (streams.stream(name).getstate()
                == reference.stream(name).getstate()), name


def test_non_positive_mean_size_rejected():
    from repro.errors import WorkloadError
    from repro.workload.base import WorkloadGenerator
    gen = WorkloadGenerator(RandomStreams(1))
    with pytest.raises(WorkloadError, match="must be positive"):
        gen._build(0, 0, 0.0, db_size=10, mean_size=0, write_prob=0.0)

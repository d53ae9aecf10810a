"""Unit tests for the distributed workload generator and parameters."""

from __future__ import annotations

import pytest

from repro.distributed.config import DistributedParameters
from repro.distributed.partition import RangePartition
from repro.distributed.workload import DistributedWorkload
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.workload.base import sample_readset_size


def _gen(seed=1, **overrides):
    params = DistributedParameters(**overrides)
    partition = RangePartition(params.db_size, params.num_sites)
    return DistributedWorkload(RandomStreams(seed), params, partition), \
        params, partition


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        DistributedParameters(num_sites=0)
    with pytest.raises(ConfigurationError):
        DistributedParameters(msg_delay=-0.1)
    with pytest.raises(ConfigurationError):
        DistributedParameters(locality=1.5)
    with pytest.raises(ConfigurationError):
        DistributedParameters(num_sites=2000, db_size=1000)


def test_single_site_degenerates_to_centralized():
    params = DistributedParameters(num_sites=1, msg_delay=0.0)
    assert params.pages_per_site == params.db_size


def test_terminal_site_assignment_round_robin():
    gen, params, _part = _gen(num_sites=4)
    assert gen.home_site_of_terminal(0) == 0
    assert gen.home_site_of_terminal(5) == 1
    assert gen.home_site_of_terminal(199) == 3


def test_pages_distinct_and_in_range():
    gen, params, _part = _gen(num_sites=4)
    for i in range(100):
        txn = gen.make_transaction(i, i, 0.0)
        assert len(set(txn.readset)) == len(txn.readset)
        assert all(0 <= p < params.db_size for p in txn.readset)
        assert txn.writeset <= set(txn.readset)


def test_locality_controls_home_fraction():
    gen, _params, part = _gen(num_sites=4, locality=0.9)
    home_hits = total = 0
    for i in range(400):
        txn = gen.make_transaction(i, 0, 0.0)   # home site 0
        lo, hi = part.range_of(0)
        total += txn.num_reads
        home_hits += sum(1 for p in txn.readset if lo <= p < hi)
    assert home_hits / total > 0.8


def test_full_locality_stays_home():
    gen, _params, part = _gen(num_sites=4, locality=1.0)
    lo, hi = part.range_of(2)
    for i in range(50):
        txn = gen.make_transaction(i, 2, 0.0)   # terminal 2 -> site 2
        assert all(lo <= p < hi for p in txn.readset)


def test_zero_locality_goes_remote():
    gen, _params, part = _gen(num_sites=4, locality=0.0)
    lo, hi = part.range_of(0)
    remote = total = 0
    for i in range(200):
        txn = gen.make_transaction(i, 0, 0.0)
        total += txn.num_reads
        remote += sum(1 for p in txn.readset if not lo <= p < hi)
    assert remote == total


def test_class_name_records_home_site():
    gen, _params, _part = _gen(num_sites=4)
    assert gen.make_transaction(0, 6, 0.0).class_name == "site2"


def test_deterministic_by_seed():
    a, _p, _ = _gen(seed=7)
    b, _p2, _ = _gen(seed=7)
    for i in range(20):
        assert a.make_transaction(i, i, 0.0).readset == \
            b.make_transaction(i, i, 0.0).readset


def test_oversized_home_partition_request_falls_back():
    """locality=1.0 with a readset bigger than the home partition must
    still produce a valid (partially remote) transaction."""
    gen, params, part = _gen(num_sites=4, db_size=40, tran_size=8,
                             locality=1.0)
    # Home partition has 10 pages; readsets can reach 12.
    for i in range(100):
        txn = gen.make_transaction(i, 0, 0.0)
        assert len(set(txn.readset)) == txn.num_reads
        assert all(0 <= p < 40 for p in txn.readset)


# -- draw streams ------------------------------------------------------------
#
# The generator draws with inline getrandbits loops.  The reference below
# is the same model written with the random.Random calls those loops
# replace (randint through sample_readset_size, randrange, shuffle, and a
# per-page bernoulli); both must consume the same bits.

_STREAMS = ("readset_size", "dist_page_choice", "write_choice")


def _reference_pages(streams, params, partition, home, count):
    rng = streams.stream("dist_page_choice")
    lo, hi = partition.range_of(home)
    home_pages = hi - lo
    remote_pages = params.db_size - home_pages
    chosen = set()
    guard = 0
    while len(chosen) < count:
        guard += 1
        if guard > 50 * count + 200:
            remaining = [p for p in range(params.db_size)
                         if p not in chosen]
            chosen.update(rng.sample(remaining, count - len(chosen)))
            break
        local = rng.random() < params.locality
        if local or remote_pages == 0:
            page = lo + rng.randrange(home_pages)
        else:
            offset = rng.randrange(remote_pages)
            page = offset if offset < lo else offset + home_pages
        chosen.add(page)
    ordered = list(chosen)
    rng.shuffle(ordered)
    return ordered


def _reference_transaction(streams, params, partition, terminal_id):
    home = terminal_id % partition.num_sites
    size = sample_readset_size(streams, params.tran_size)
    readset = _reference_pages(streams, params, partition, home, size)
    writeset = {page for page in readset
                if streams.bernoulli("write_choice", params.write_prob)}
    return readset, writeset


def _states(streams):
    return [streams.stream(name).getstate() for name in _STREAMS]


@pytest.mark.parametrize("seed", [1, 7, 9001])
@pytest.mark.parametrize("locality", [0.0, 0.8, 1.0])
@pytest.mark.parametrize("write_prob", [0.0, 0.25, 1.0])
def test_inline_draws_equal_the_random_calls(seed, locality, write_prob):
    gen, params, part = _gen(seed=seed, num_sites=4, locality=locality,
                             write_prob=write_prob)
    ref = RandomStreams(seed)
    for i in range(150):
        txn = gen.make_transaction(i, i, 0.0)
        readset, writeset = _reference_transaction(ref, params, part, i)
        assert txn.readset == readset
        assert txn.writeset == writeset
    assert _states(gen.streams) == _states(ref)


@pytest.mark.parametrize("seed", [1, 7, 9001])
def test_inline_shuffle_equals_random_shuffle_across_sizes(seed):
    """Sizes 1..70 cross several powers of two, where the shuffle's bit
    count changes, and pass the home partition of 62 pages, where
    locality 1.0 falls back to the uniform fill."""
    gen, params, part = _gen(seed=seed, num_sites=16, db_size=1000,
                             locality=1.0)
    ref = RandomStreams(seed)
    for count in range(1, 71):
        home = count % 16
        assert gen._draw_pages(home, count) == _reference_pages(
            ref, params, part, home, count)
    assert _states(gen.streams) == _states(ref)


@pytest.mark.parametrize("seed", [1, 7, 9001])
@pytest.mark.parametrize("locality", [0.0, 0.8, 1.0])
def test_uniform_fill_fallback_draws_equal_the_random_calls(seed,
                                                            locality):
    """A 2-page home partition with readsets of 2 to 6 pages: at
    locality 1.0 every readset over 2 pages takes the fallback."""
    gen, params, part = _gen(seed=seed, num_sites=4, db_size=8,
                             tran_size=4, locality=locality)
    ref = RandomStreams(seed)
    fell_back = 0
    for i in range(60):
        txn = gen.make_transaction(i, i, 0.0)
        readset, writeset = _reference_transaction(ref, params, part, i)
        assert txn.readset == readset
        assert txn.writeset == writeset
        lo, hi = part.range_of(i % 4)
        fell_back += any(not lo <= p < hi for p in readset)
    assert _states(gen.streams) == _states(ref)
    if locality == 1.0:
        assert fell_back > 0

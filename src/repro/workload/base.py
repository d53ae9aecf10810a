"""Workload generator interface and shared sampling helpers.

All generators implement :class:`WorkloadGenerator`: given a terminal and
the current time, produce a new :class:`Transaction` with an ordered
readset sampled without replacement from the database and a writeset drawn
per-page with some write probability — the sampling model of the paper's
Section 3.
"""

from __future__ import annotations

import random
from math import ceil as _ceil, log as _log
from typing import List, Set, Tuple

from repro.dbms.transaction import Transaction
from repro.errors import WorkloadError
from repro.lockmgr.protocols import LockProtocol
from repro.sim.rng import RandomStreams

__all__ = ["WorkloadGenerator", "sample_readset_size", "sample_page_sets",
           "sample_pages"]


def sample_readset_size(streams: RandomStreams, mean_size: int) -> int:
    """Readset size uniform over ``mean ± mean/2`` (integer pages, ≥ 1).

    For the base case mean of 8 this yields the paper's 4–12 page range.
    """
    low = max(1, mean_size - mean_size // 2)
    high = mean_size + mean_size // 2
    return streams.uniform_int("readset_size", low, high)


def sample_pages(rng: random.Random, db_size: int,
                 size: int) -> List[int]:
    """``rng.sample(range(db_size), size)``, drawing the same bits.

    Sample's set branch, spelled out: ``_randbelow(db_size)`` (a
    rejection loop over ``getrandbits(db_size.bit_length())``) until
    the page is not yet picked.  Its pool branch is left to it.
    """
    # Sample takes the pool branch when db_size <= setsize, and
    # setsize < 21 + 12 * size.
    if db_size <= 21 + 12 * size:
        setsize = 21
        if size > 5:
            setsize += 4 ** _ceil(_log(size * 3, 4))
        if db_size <= setsize:
            return rng.sample(range(db_size), size)
    getrandbits = rng.getrandbits
    bits = db_size.bit_length()
    picked = {}
    for _ in range(size):
        page = getrandbits(bits)
        while page >= db_size or page in picked:
            page = getrandbits(bits)
        picked[page] = None
    return list(picked)


def sample_page_sets(streams: RandomStreams, db_size: int,
                     readset_size: int,
                     write_prob: float) -> Tuple[List[int], Set[int]]:
    """Sample an ordered readset (without replacement) and its writeset."""
    if readset_size > db_size:
        raise WorkloadError(
            f"readset of {readset_size} pages exceeds database "
            f"of {db_size} pages")
    readset = streams.sample_without_replacement(
        "page_choice", db_size, readset_size)
    writeset = {page for page in readset
                if streams.bernoulli("write_choice", write_prob)}
    return readset, writeset


class WorkloadGenerator:
    """Produces transactions for terminals."""

    def __init__(self, streams: RandomStreams):
        self.streams = streams
        # Prebound substreams: ``_build`` runs once per generated
        # transaction and would otherwise pay three name-hash lookups
        # each time.  Drawing through these produces the exact variate
        # sequences of the module-level sampling helpers above.
        self._size_rng = streams.stream("readset_size")
        self._page_rng = streams.stream("page_choice")
        self._write_rng = streams.stream("write_choice")

    def make_transaction(self, txn_id: int, terminal_id: int,
                         now: float) -> Transaction:
        """Create the next transaction for ``terminal_id`` at time ``now``."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__

    def _build(self, txn_id: int, terminal_id: int, now: float,
               db_size: int, mean_size: int, write_prob: float,
               protocol: LockProtocol = LockProtocol.TWO_PHASE,
               class_name: str = "default") -> Transaction:
        """Shared construction path used by the concrete generators."""
        # randint(low, high) over mean ± mean/2, spelled out: it is
        # Random._randbelow(width), a rejection loop over
        # getrandbits(width.bit_length()), so the same bits are drawn.
        low = mean_size - mean_size // 2
        if low < 1:
            raise WorkloadError(
                f"mean readset size must be positive, got {mean_size}")
        width = 2 * (mean_size // 2) + 1
        bits = width.bit_length()
        getrandbits = self._size_rng.getrandbits
        size = getrandbits(bits)
        while size >= width:
            size = getrandbits(bits)
        size += low
        if size > db_size:
            raise WorkloadError(
                f"readset of {size} pages exceeds database "
                f"of {db_size} pages")
        readset = sample_pages(self._page_rng, db_size, size)
        if write_prob <= 0.0:
            writeset: Set[int] = set()
        elif write_prob >= 1.0:
            writeset = set(readset)
        else:
            rand = self._write_rng.random
            writeset = {page for page in readset if rand() < write_prob}
        return Transaction(
            txn_id=txn_id, terminal_id=terminal_id, timestamp=now,
            readset=readset, writeset=writeset,
            lock_protocol=protocol, class_name=class_name)

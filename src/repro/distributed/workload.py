"""Workload generation for the distributed model.

Terminals are assigned to sites round-robin; each transaction draws its
readset with a configurable *locality*: each page falls inside the home
partition with probability ``locality`` and uniformly over the remote
partitions otherwise.  Pages are distinct within a transaction.
"""

from __future__ import annotations

from typing import List, Set

from repro.dbms.transaction import Transaction
from repro.distributed.config import DistributedParameters
from repro.distributed.partition import RangePartition
from repro.errors import WorkloadError
from repro.sim.rng import RandomStreams
from repro.workload.base import WorkloadGenerator, sample_readset_size

__all__ = ["DistributedWorkload"]


class DistributedWorkload(WorkloadGenerator):
    """Locality-controlled page selection over a partitioned database."""

    def __init__(self, streams: RandomStreams,
                 params: DistributedParameters,
                 partition: RangePartition):
        super().__init__(streams)
        self.params = params
        self.partition = partition
        self._dist_rng = streams.stream("dist_page_choice")
        # Per home site: the first home page, the home and remote page
        # counts and the bit count each draws with (see _draw_pages).
        self._regions = []
        for site in range(partition.num_sites):
            lo, hi = partition.range_of(site)
            home_pages = hi - lo
            remote_pages = params.db_size - home_pages
            self._regions.append((lo, home_pages, home_pages.bit_length(),
                                  remote_pages, remote_pages.bit_length()))

    @property
    def name(self) -> str:
        return (f"Distributed(sites={self.partition.num_sites}, "
                f"locality={self.params.locality:.0%}, "
                f"size={self.params.tran_size})")

    def home_site_of_terminal(self, terminal_id: int) -> int:
        """Round-robin terminal-to-site assignment."""
        return terminal_id % self.partition.num_sites

    def _draw_pages(self, home: int, count: int) -> List[int]:
        params = self.params
        if count > params.db_size:
            raise WorkloadError(
                f"readset of {count} exceeds database of "
                f"{params.db_size} pages")
        rng = self._dist_rng
        random, getrandbits = rng.random, rng.getrandbits
        lo, home_pages, home_bits, remote_pages, remote_bits = \
            self._regions[home]
        locality = params.locality
        # Each page is ``lo + randrange(home_pages)`` with probability
        # ``locality`` and ``randrange(remote_pages)`` mapped around the
        # home range otherwise.  ``randrange(n)`` is a rejection loop
        # over ``getrandbits(n.bit_length())`` (see
        # DiskArray.access_random); spelled out here with the bit counts
        # computed once, it draws the same bits.
        chosen: Set[int] = set()
        drawn = 0
        guard = 0
        limit = 50 * count + 200
        while drawn < count:
            guard += 1
            if guard > limit:
                # Degenerate region exhausted (e.g. tiny home partition
                # with locality 1.0): fall back to uniform fill.
                remaining = [p for p in range(params.db_size)
                             if p not in chosen]
                chosen.update(rng.sample(remaining, count - drawn))
                break
            if random() < locality or remote_pages == 0:
                page = getrandbits(home_bits)
                while page >= home_pages:
                    page = getrandbits(home_bits)
                page += lo
            else:
                page = getrandbits(remote_bits)
                while page >= remote_pages:
                    page = getrandbits(remote_bits)
                if page >= lo:
                    page += home_pages
            # Adding only new pages builds the same set as adding every
            # draw: adding a member changes nothing.
            if page not in chosen:
                chosen.add(page)
                drawn += 1
        ordered = list(chosen)
        # ``rng.shuffle(ordered)``: for each size n from the length down
        # to 2, swap the last of the first n with ``randrange(n)``; the
        # bit count of n falls by one each time n drops below a power
        # of two.
        size = count
        bits = size.bit_length()
        floor = (1 << bits) >> 1            # the least size with ``bits``
        while size > 1:
            if size < floor:
                bits -= 1
                floor >>= 1
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            size -= 1
            ordered[size], ordered[j] = ordered[j], ordered[size]
        return ordered

    def make_transaction(self, txn_id: int, terminal_id: int,
                         now: float) -> Transaction:
        params = self.params
        home = self.home_site_of_terminal(terminal_id)
        size = sample_readset_size(self.streams, params.tran_size)
        readset = self._draw_pages(home, size)
        # A per-page bernoulli("write_choice", write_prob) with the
        # stream bound once, as WorkloadGenerator._build draws it.
        write_prob = params.write_prob
        if write_prob <= 0.0:
            writeset: Set[int] = set()
        elif write_prob >= 1.0:
            writeset = set(readset)
        else:
            rand = self._write_rng.random
            writeset = {page for page in readset if rand() < write_prob}
        return Transaction(txn_id=txn_id, terminal_id=terminal_id,
                           timestamp=now, readset=readset,
                           writeset=writeset,
                           class_name=f"site{home}")

"""LRU buffer manager (paper Section 4.6, Figures 22–23).

"This buffer manager has a single parameter, buf_size, which is the number
of pages in the buffer pool; it keeps a list of the buf_size most recently
accessed pages, and a read request for a page only causes an I/O if the
requested page is not on this list."

Writes are modelled write-through: a deferred-update write always costs an
I/O, but it still counts as an access and refreshes the page's recency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["LRUBuffer", "NullBuffer"]


class NullBuffer:
    """Bufferless I/O model: every read misses (the paper's default).
    The DBMS system skips both access calls on a buffer whose
    ``capacity`` is None."""

    capacity: Optional[int] = None

    def access_read(self, page: int) -> bool:
        """Returns True on a buffer hit; always False here."""
        return False

    def access_write(self, page: int) -> None:
        """Record a write access; a no-op without a buffer."""

    def hit_ratio(self) -> float:
        return 0.0


class LRUBuffer:
    """Fixed-capacity LRU list of recently accessed pages."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def access_read(self, page: int) -> bool:
        """Touch ``page`` for a read.  Returns True on a hit (no I/O)."""
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        self._insert(page)
        return False

    def access_write(self, page: int) -> None:
        """Touch ``page`` for a write (always costs an I/O; refreshes LRU)."""
        if page in self._pages:
            self._pages.move_to_end(page)
        else:
            self._insert(page)

    def _insert(self, page: int) -> None:
        self._pages[page] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            self.evictions += 1

    def hit_ratio(self) -> float:
        """Fraction of read accesses served from the buffer."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

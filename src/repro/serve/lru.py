"""The serving cache tier: a bounded response LRU.

A query server needs an in-memory, bounded, *request-shaped* cache: the
:class:`LRUCache` here stores finished *response* objects keyed by the
content hash of the whole query, so a repeated query costs a dict lookup
and no model evaluation at all.  It is the only cache model queries
enter — they never reach the pipeline memo — so its ``maxsize`` (``repro
serve --cache-size``) bounds the memory their answers hold.

The cache is event-loop-local by design: it is only touched from the
server's asyncio thread, so it takes no lock.
"""

from __future__ import annotations

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Backed by dict insertion order: a hit re-inserts the key at the tail,
    an insert beyond ``maxsize`` evicts the head.  ``maxsize <= 0``
    disables caching entirely (every ``get`` misses, ``put`` is a no-op),
    which is how ``repro serve --cache-size 0`` opts out.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = int(maxsize)
        self._data: "dict[str, object]" = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> "object | None":
        """The cached value (refreshed to most-recent), or None."""
        if key not in self._data:
            self.misses += 1
            return None
        value = self._data.pop(key)
        self._data[key] = value  # re-insert at the MRU end
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        if self.maxsize <= 0:
            return
        if key in self._data:
            self._data.pop(key)
        elif len(self._data) >= self.maxsize:
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.evictions += 1
        self._data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def info(self) -> dict:
        """Counters + occupancy, in the shape ``/healthz`` reports."""
        total = self.hits + self.misses
        return {
            "entries": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }

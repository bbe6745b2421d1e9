"""The one bounded-cache policy of the library's result caches."""

from collections import OrderedDict


class LRUCache(OrderedDict):
    """A result cache of at most cap entries, least recently used first.

    lookup moves a hit to the end and store evicts from the front once the
    cache holds more than cap entries.  None is never stored, so lookup
    returns None on a miss.  hits and misses count lookups, evictions counts
    the entries store dropped; clear() empties the cache and resets all
    three, as functools' cache_clear does.
    """

    def __init__(self, cap):
        super().__init__()
        self.cap = cap
        self.hits = self.misses = self.evictions = 0

    def lookup(self, key):
        hit = self.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
            self.move_to_end(key)
        return hit

    def store(self, key, value):
        self[key] = value
        if len(self) > self.cap:
            self.popitem(last=False)
            self.evictions += 1

    def clear(self):
        super().clear()
        self.hits = self.misses = self.evictions = 0

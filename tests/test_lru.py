"""The bounded result cache and its counters."""

from flagtutte.lru import LRUCache


def test_lru_cache_counts_hits_misses_and_evictions():
    cache = LRUCache(2)
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    assert cache.lookup("a") is None
    cache.store("a", 1)
    cache.store("b", 2)
    assert cache.lookup("a") == 1
    # "b" is now the least recently used entry, so storing "c" drops it
    cache.store("c", 3)
    assert list(cache) == ["a", "c"]
    assert cache.lookup("b") is None
    assert cache.lookup("c") == 3
    assert (cache.hits, cache.misses, cache.evictions) == (2, 2, 1)
    cache.store("b", 2)
    assert cache.evictions == 2 and list(cache) == ["c", "b"]
    cache.clear()
    assert len(cache) == 0
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    assert cache.cap == 2

"""One report of the library's result caches, and one switch to empty them.

Four caches are lru.LRUCache objects, which count their own hits, misses and
evictions; the rest are functools memos, which report cache_info().
"""

from . import cones, genfun, invariants, matroid

_LRU_CACHES = {
    "genfun.box_cache": genfun._box_cache,
    "invariants.cells_cache": invariants._CELLS_CACHE,
    "invariants.value_cache": invariants._VALUE_CACHE,
    "invariants.support_cache": invariants._SUPPORT_CACHE,
}

_MEMOS = {
    "cones.triangulate_cells": cones._triangulate_cells,
    "cones.origin_cells": cones._origin_cells,
    "cones.edge_vectors": cones._edge_vectors,
    "genfun.flipped_cached": genfun._flipped_cached,
    "genfun.prime_tables": genfun._prime_tables,
    "invariants.numerator": invariants._numerator,
    "invariants.pascal": invariants._pascal,
    "invariants.parity": invariants._parity,
    "matroid.cube_edges": matroid._cube_edges,
}


def cache_stats():
    """A snapshot of every result cache, by name.

    An LRUCache gives a dict of entries, hits, misses and evictions; a
    functools memo gives its cache_info() (hits, misses, maxsize, currsize).
    Counters run from the last clear_caches(), or from import.
    """
    out = {name: {"entries": len(c), "hits": c.hits, "misses": c.misses,
                  "evictions": c.evictions}
           for name, c in _LRU_CACHES.items()}
    out.update((name, fn.cache_info()) for name, fn in _MEMOS.items())
    return out


def clear_caches():
    """Empty every result cache and reset its counters."""
    for c in _LRU_CACHES.values():
        c.clear()
    for fn in _MEMOS.values():
        fn.cache_clear()

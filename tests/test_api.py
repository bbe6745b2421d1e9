"""The public surface: every name the package binds is exported."""

import types

import flagtutte


def test_all_lists_every_public_name():
    public = {name for name, value in vars(flagtutte).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(flagtutte.__all__)
    assert all(hasattr(flagtutte, name) for name in flagtutte.__all__)


def test_cache_stats_reports_and_clear_caches_resets_every_cache():
    flagtutte.clear_caches()
    fm = flagtutte.flag(flagtutte.Matroid.uniform(2, 4))
    flagtutte.kt_equivariant(fm)
    flagtutte.kt_equivariant(fm)
    stats = flagtutte.cache_stats()
    support = stats["invariants.support_cache"]
    assert support["entries"] >= 1 and support["hits"] == 1
    assert support["misses"] >= 1 and support["evictions"] == 0
    assert stats["invariants.numerator"].currsize == 1
    assert stats["cones.triangulate_cells"].misses >= 1
    flagtutte.clear_caches()
    for name, info in flagtutte.cache_stats().items():
        if isinstance(info, dict):
            assert info == dict.fromkeys(info, 0), name
        else:
            assert info.hits == info.misses == info.currsize == 0, name

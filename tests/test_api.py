"""The public surface: every name the package binds is exported."""

import types

import flagtutte


def test_all_lists_every_public_name():
    public = {name for name, value in vars(flagtutte).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(flagtutte.__all__)
    assert all(hasattr(flagtutte, name) for name in flagtutte.__all__)

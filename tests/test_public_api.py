"""The package's public names: what __all__ promises and what `import *` binds."""

import midlines

# Names the package no longer has: a midline pair is a row of MidlineArrays.
RETIRED = ("MidlinePair", "Segment", "intersection_point", "drift_radius", "reconstruct_at_cell")


def test_every_exported_name_resolves():
    assert [name for name in midlines.__all__ if not hasattr(midlines, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from midlines import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(midlines.__all__)
    assert len(set(midlines.__all__)) == len(midlines.__all__)


def test_retired_names_are_gone():
    assert not set(RETIRED) & set(midlines.__all__)
    assert [name for name in RETIRED if hasattr(midlines, name)] == []

"""The benchmark's trace mode wraps package functions by module and name.

perfbench/workloads.py looks those attributes up when it builds its
patches, so renaming or deleting one breaks `perfbench/run.py --trace 1`.
Building, entering and leaving the patches here turns that into a test
failure.
"""

from pathlib import Path

import midlines.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_patches_enter_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    patches = workloads.tracing_patches(Tracer(), workloads.WarningCounter())
    original = cli.rotated_iou
    with patches:
        assert cli.rotated_iou is not original
    assert cli.rotated_iou is original

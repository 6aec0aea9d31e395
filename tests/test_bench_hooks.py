"""The benchmark's hooks into the package, checked in the test suite.

perfbench/workloads.py looks package attributes up by module and name when
it builds its trace patches, so renaming or deleting one breaks
`perfbench/run.py --trace 1`. Building, entering and leaving the patches
here turns that into a test failure. The benchmark also checks every
train_step tile's loss values, each detect pass's mAP, and each cli_chain
pass's eval mAP and roundtrip fraction against the ones recorded in
perfbench/reference.json; one pass each of seed 0 and the held-out seed
90017 runs those checks here.
"""

import json
from pathlib import Path

import pytest

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



def test_traced_cli_chain_records_every_layer(monkeypatch, tmp_path, capsys):
    # The trace wraps names in the cli module; a command that reached the
    # library some other way would leave its layer's numbers at zero.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer
    from test_cli import DOTA_SCENE

    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "P0001.txt").write_text(DOTA_SCENE, encoding="utf-8")
    tiles, maps, dets = tmp_path / "tiles", tmp_path / "maps", tmp_path / "dets.json"
    tracer = Tracer()
    with workloads.tracing_patches(tracer, workloads.WarningCounter()):
        for argv in (
            ["tile", "--input", labels, "--out", tiles],
            ["encode", "--gt", tiles, "--out", maps, "--jobs", "2"],
            ["decode", "--maps", maps, "--out", dets],
            ["eval", "--gt", tiles, "--dets", dets],
            ["roundtrip", "--gt", tiles],
        ):
            assert cli.main([str(a) for a in argv]) == 0, capsys.readouterr().out
    missing = {
        "ingest.parse", "ingest.tile", "ingest.gt_load", "encoder.encode",
        "container.write", "container.read", "decoder.decode",
        "evaluation.evaluate", "cli.item",
    } - {s.name for s in tracer.spans}
    assert not missing

# 90017 is the benchmark's held-out seed.
@pytest.mark.parametrize("seed", [0, 90017])
def test_train_step_matches_the_recorded_losses(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.TrainStep()
    workload.start(workload.setup(seed), reference["seeds"][str(seed)]["train_step"])
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert tally.attempted == workload.n_tiles
    assert tally.failed == 0, tally.reasons


@pytest.mark.parametrize("seed", [0, 90017])
def test_detect_matches_the_recorded_map(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.Detect()
    workload.start(workload.setup(seed), reference["seeds"][str(seed)]["detect"])
    tally = workloads.Tally()
    workload.run_pass(tally)
    workload.finish(tally)
    assert tally.attempted == workload.n_images + 1
    assert tally.failed == 0, tally.reasons


@pytest.mark.parametrize("seed", [0, 90017])
def test_cli_chain_matches_the_recorded_map_and_fraction(monkeypatch, tmp_path, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.CliChain(tmp_path)
    workload.start(workload.setup(seed), reference["seeds"][str(seed)]["cli_chain"])
    tally = workloads.Tally()
    workload.run_pass(tally)
    workload.finish(tally)
    assert tally.attempted == len(workload.commands(tmp_path)) + 1
    assert tally.failed == 0, tally.reasons

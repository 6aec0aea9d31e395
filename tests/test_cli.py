import json
import re
import resource
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from midlines.cli import FLAG_RANGES, _parallel_map, build_parser, main
from midlines.container import TENSOR_NAMES, read_maps, write_maps
from midlines.decoder import decode
from midlines.encoder import TargetMaps, encode_image
from midlines.errors import MidlinesError, ShapeMismatch
from midlines.geometry import Boxes, OrientedBox, Point2, rectangle
from midlines.ingest import DOTA_CLASS_NAMES

from test_gradcheck import bias_every_loss

DOTA_SCENE = """imagesource:GoogleEarth
gsd:0.15
100 80 160 80 160 120 100 120 plane 0
300 300 380 330 360 384 280 354 ship 0
900 200 980 200 980 240 900 240 ship 0
700 900 770 940 750 975 680 935 plane 0
1360 1360 1400 1360 1400 1400 1360 1400 storage-tank 0
"""


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def write_labels(tmp_path):
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "P0001.txt").write_text(DOTA_SCENE, encoding="utf-8")
    return labels


# --- tile -------------------------------------------------------------------------


def test_tile_writes_one_json_per_tile(tmp_path, capsys):
    labels = write_labels(tmp_path)
    code, out = run(capsys, "tile", "--input", labels, "--out", tmp_path / "tiles")
    assert code == 0
    assert "images=1 tiles=4" in out
    names = sorted(p.name for p in (tmp_path / "tiles").glob("*.json"))
    assert names == [
        "P0001__0_0.json", "P0001__0_600.json",
        "P0001__600_0.json", "P0001__600_600.json",
    ]
    data = json.loads((tmp_path / "tiles" / "P0001__0_0.json").read_text())
    assert data[0]["image_id"] == "P0001__0_0"
    assert {o["class"] for o in data[0]["objects"]} == {"plane", "ship"}


def test_tile_empty_directory(tmp_path, capsys):
    (tmp_path / "labels").mkdir()
    code, out = run(capsys, "tile", "--input", tmp_path / "labels", "--out", tmp_path / "t")
    assert code == 0
    assert "images=0" in out


def test_tile_rejects_bad_overlap(tmp_path, capsys):
    labels = write_labels(tmp_path)
    code, out = run(
        capsys, "tile", "--input", labels, "--out", tmp_path / "t", "--overlap", "1.0"
    )
    assert code == 1
    assert "overlap" in out


def test_tile_rejects_a_window_past_float_range_before_reading(tmp_path, capsys):
    # 10**400 px with 0.25 overlap gives a step no float holds.
    labels = write_labels(tmp_path)
    window = "1" + "0" * 400
    code, out = run(capsys, "tile", "--input", labels, "--out", tmp_path / "t", "--window", window)
    assert code == 1
    assert out == f"error=window must give a finite step, got {window}\n"
    assert not (tmp_path / "t").exists()


def test_tile_unreadable_input_is_io_error(tmp_path, capsys):
    code, out = run(capsys, "tile", "--input", tmp_path / "nope", "--out", tmp_path / "t")
    assert code == 2


def test_tile_autodetects_icdar_and_keeps_going_after_bad_file(tmp_path, capsys):
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "gt_img7.txt").write_text("10,10,60,12,59,40,9,38,word\n", encoding="utf-8")
    (labels / "broken.txt").write_text("not a label line\n", encoding="utf-8")
    code, out = run(capsys, "tile", "--input", labels, "--out", tmp_path / "t")
    assert code == 1  # broken.txt is structural, gt_img7 still tiles
    assert "broken.txt" in out
    data = json.loads((tmp_path / "t" / "img7__0_0.json").read_text())
    assert data[0]["objects"][0]["class"] == "text"


def test_tile_reports_a_label_file_that_is_not_utf8(tmp_path, capsys):
    labels = write_labels(tmp_path)
    (labels / "A0000.txt").write_bytes(b"\xff\xfe" + DOTA_SCENE.splitlines(True)[2].encode())
    code, out = run(capsys, "tile", "--input", labels, "--out", tmp_path / "t", "--jobs", "2")
    assert code == 1
    assert re.search(r"^file=A0000.txt error=.*can't decode byte 0xff", out, re.MULTILINE), out
    assert "images=2 tiles=4" in out  # P0001 still tiles
    assert (tmp_path / "t" / "P0001__0_0.json").is_file()


def test_tile_logs_each_file_in_order_and_writes_the_tiles_of_those_that_work(tmp_path, capsys):
    labels = tmp_path / "labels"
    labels.mkdir()
    plane = DOTA_SCENE.splitlines(True)[2]
    (labels / "A.txt").write_text(plane + "not a label\n", encoding="utf-8")
    (labels / "B.txt").write_text("not a label line\n", encoding="utf-8")
    (labels / "C.txt").write_text(plane.replace("plane", "zeppelin") + plane, encoding="utf-8")
    out = tmp_path / "t"
    code, stdout = run(capsys, "tile", "--input", labels, "--out", out)
    assert code == 1
    assert stdout.splitlines() == [
        "file=A.txt warning='line 2: expected 10 fields, got 3'",
        "file=B.txt error='B: none of 1 lines parse'",
        "file=C.txt warning=\"line 1: unknown category 'zeppelin', skipped\"",
        f"images=3 tiles=2 objects=2 warnings=2 out={out}",
    ]
    assert sorted(p.name for p in out.iterdir()) == ["A__0_0.json", "C__0_0.json"]


def test_tile_refuses_a_second_file_that_names_the_same_image(tmp_path, capsys):
    # gt_img.txt (ICDAR) and img.txt (DOTA) both name image img; img.txt,
    # second in sorted order, would overwrite img__0_0.json.
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "gt_img.txt").write_text("10,10,60,12,59,40,9,38,word\n", encoding="utf-8")
    (labels / "img.txt").write_text(DOTA_SCENE.splitlines(True)[2], encoding="utf-8")
    (labels / "z.txt").write_text(DOTA_SCENE.splitlines(True)[2], encoding="utf-8")
    out = tmp_path / "t"
    code, stdout = run(capsys, "tile", "--input", labels, "--out", out)
    assert code == 1
    assert stdout.splitlines() == [
        "file=img.txt error='tile img__0_0 is already a tile of gt_img.txt'",
        f"images=3 tiles=2 objects=2 warnings=0 out={out}",
    ]
    assert sorted(p.name for p in out.iterdir()) == ["img__0_0.json", "z__0_0.json"]
    (tile,) = json.loads((out / "img__0_0.json").read_text())
    assert [obj["class"] for obj in tile["objects"]] == ["text"]


def test_tile_stops_at_a_file_it_cannot_read_after_writing_the_files_before(tmp_path, capsys):
    labels = write_labels(tmp_path)
    (labels / "Q.txt").mkdir()  # reading it raises IsADirectoryError, an OSError
    (labels / "R.txt").write_text(DOTA_SCENE, encoding="utf-8")
    out = tmp_path / "t"
    code, stdout = run(capsys, "tile", "--input", labels, "--out", out)
    assert code == 2
    assert stdout.startswith("error=[Errno 21] Is a directory:") and "Q.txt" in stdout
    assert len(stdout.splitlines()) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "P0001__0_0.json", "P0001__0_600.json", "P0001__600_0.json", "P0001__600_600.json",
    ]


def test_tile_keeps_the_lines_logged_before_a_file_it_cannot_read(tmp_path, capsys):
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "A.txt").write_text("10 10 50 10 50 30 10 30 plane 0\nnot a label line\n", encoding="utf-8")
    (labels / "B.txt").mkdir()  # reading it raises IsADirectoryError, an OSError
    code, stdout = run(capsys, "tile", "--input", labels, "--out", tmp_path / "t")
    assert code == 2
    warning, error = stdout.splitlines()
    assert warning.startswith("file=A.txt warning='line 2:")
    assert error.startswith("error=[Errno 21] Is a directory:") and "B.txt" in error
    assert [p.name for p in (tmp_path / "t").iterdir()] == ["A__0_0.json"]


# A dart: its corners turn both ways, but no two of its edges cross.
DART_LINE = "200 200 260 210 220 220 260 260 plane 0\n"


def test_tile_skips_a_dart_and_the_chain_scores_the_tiles(tmp_path, capsys):
    labels = write_labels(tmp_path)
    (labels / "P0001.txt").write_text(DOTA_SCENE + DART_LINE, encoding="utf-8")
    tiles, maps, dets = tmp_path / "tiles", tmp_path / "maps", tmp_path / "dets.json"
    code, out = run(capsys, "tile", "--input", labels, "--out", tiles)
    assert code == 0
    assert "file=P0001.txt warning='line 8: non-convex" in out
    corners = [
        obj["corners"] for path in tiles.glob("*.json")
        for obj in json.loads(path.read_text())[0]["objects"]
    ]
    assert [200, 200, 260, 210, 220, 220, 260, 260] not in corners
    assert run(capsys, "encode", "--gt", tiles, "--out", maps)[0] == 0
    assert run(capsys, "decode", "--maps", maps, "--out", dets)[0] == 0
    code, out = run(capsys, "eval", "--gt", tiles, "--dets", dets)
    assert code == 0, out


# A valid box (finite shoelace area) that reaches x = 1e308.
FAR_LINE = "0 0 1e308 0 1e308 0.5 0 0.5 plane 0\n"


@pytest.mark.parametrize("extra_label, flags, message", [
    (FAR_LINE, [], "x axis of 1e+308 px needs 1.66667e+305 windows, more than 200000"),
    (DOTA_SCENE, ["--overlap", "0.9999999999999999"],
     "x axis of 1400 px needs 6.7554e+15 windows, more than 200000"),
], ids=["coordinate-1e308", "overlap-one-ulp-below-1"])
def test_tile_reports_an_axis_with_too_many_windows(tmp_path, capsys, extra_label, flags, message):
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "A0000.txt").write_text(DOTA_SCENE.splitlines(True)[2] + extra_label, encoding="utf-8")
    # One window wide, so it tiles at any overlap.
    (labels / "B0000.txt").write_text(DOTA_SCENE.splitlines(True)[2], encoding="utf-8")
    started = time.perf_counter()
    code, out = run(capsys, "tile", "--input", labels, "--out", tmp_path / "t", "--jobs", "2", *flags)
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out.splitlines()[0] == f"file=A0000.txt error={message!r}", out
    assert "images=2 tiles=1 objects=1" in out
    assert [p.name for p in (tmp_path / "t").glob("*.json")] == ["B0000__0_0.json"]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_tile_reports_an_image_with_too_many_tiles(tmp_path):
    # Near (1.2e8, 1.2e8) each axis needs 200,000 windows, just within its
    # cap, and both together 4e10 tiles. Without a cap on the product, tile
    # lays them out until the timeout or the 2 GB address-space limit.
    labels = tmp_path / "labels"
    labels.mkdir()
    far = "120000000 120000000 120000010 120000000 120000010 120000010 120000000 120000010"
    (labels / "A0000.txt").write_text(DOTA_SCENE.splitlines(True)[2] + f"{far} plane 0\n", encoding="utf-8")
    (labels / "B0000.txt").write_text(DOTA_SCENE.splitlines(True)[2], encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "midlines.cli", "tile", "--input", str(labels),
         "--out", str(tmp_path / "t")],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 1, proc.stderr
    message = "200000 x 200000 windows make 40000000000 tiles, more than 1000000"
    assert proc.stdout.splitlines()[0] == f"file=A0000.txt error={message!r}", proc.stdout
    assert "images=2 tiles=1 objects=1" in proc.stdout
    assert [p.name for p in (tmp_path / "t").glob("*.json")] == ["B0000__0_0.json"]


def test_tile_reports_each_box_its_clamp_drops_as_a_warning_line(tmp_path):
    # In a subprocess: pytest's log capture would hide a drop that reaches
    # only Python's last-resort handler on stderr. Both boxes of the first
    # line clamp to non-convex quads; the drops follow the parse warning,
    # in tile order, and warnings= counts them.
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "P1.txt").write_text(
        "877.7 242.8 817.2 676.6 548.3 352.7 658.8 311.7 ship 0\n"
        "1000 1000 1001 1000 1001 1001 1000 1001 ship 0\n"
        "not a label\n",
        encoding="utf-8",
    )
    out = tmp_path / "t"
    proc = subprocess.run(
        [sys.executable, "-m", "midlines.cli", "tile", "--input", str(labels), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    dropped = "dropped a box that clamping left invalid: non-convex quad"
    assert proc.stdout.splitlines() == [
        "file=P1.txt warning='line 3: expected 10 fields, got 3'",
        f"file=P1.txt warning='tile=P1__0_0 {dropped}'",
        f"file=P1.txt warning='tile=P1__0_201 {dropped}'",
        f"images=1 tiles=4 objects=3 warnings=3 out={out}",
    ]


# --- encode -----------------------------------------------------------------------


def make_gt(tmp_path, objects, image_id="img", width=256, height=256, name="gt.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            [{"image_id": image_id, "width": width, "height": height, "objects": objects}]
        ),
        encoding="utf-8",
    )
    return path


PLANE = {"class": "plane", "corners": [100, 80, 160, 80, 160, 120, 100, 120], "difficult": False}


# An oriented box next to PLANE, so both branches light cells.
SHIP = {"class": "ship", "corners": [150, 150, 230, 180, 210, 234, 130, 204], "difficult": False}


# PLANE's box in the first eight DOTA classes, SHIP's in the last eight, so
# each branch lights eight of its 15 heatmap channels at a cell.
HORIZONTAL_CLASSES, ORIENTED_CLASSES = DOTA_CLASS_NAMES[:8], DOTA_CLASS_NAMES[7:]
CROWD = [dict(PLANE, **{"class": c}) for c in HORIZONTAL_CLASSES]
CROWD += [dict(SHIP, **{"class": c}) for c in ORIENTED_CLASSES]


def encode_scene(tmp_path, capsys, layout):
    """A scene encoded by the CLI into tmp_path/maps/img, every tensor in one layout.

    Dense: CROWD at a stride of 256, which makes the 256 x 256 image one
    cell, so at least half of every tensor's cells are non-zero. Sparse:
    PLANE and SHIP at the default stride light a few cells of a 64 x 64
    grid per branch.
    """
    objects, stride = (CROWD, 256) if layout == "dense" else ([PLANE, SHIP], 4)
    code, _ = run(
        capsys, "encode", "--gt", make_gt(tmp_path, objects), "--out", tmp_path / "maps",
        "--stride", stride,
    )
    assert code == 0
    container = tmp_path / "maps" / "img"
    manifest = json.loads((container / "manifest.json").read_text())
    assert {t["layout"] for t in manifest["tensors"]} == {layout}
    return container


def value_slot(container, tensor):
    """A tensor file as float32 words, and the position of a value word in its middle."""
    entry = next(
        t for t in json.loads((container / "manifest.json").read_text())["tensors"]
        if t["name"] == tensor
    )
    data = np.fromfile(container / entry["file"], dtype="<f4")
    if entry["layout"] == "dense":
        return data, len(data) // 2
    count = entry["count"]  # count indices come first, then count values
    return data, count + count // 2


def test_encode_writes_container_with_provenance(tmp_path, capsys):
    container = encode_scene(tmp_path, capsys, "dense")
    manifest = json.loads((container / "manifest.json").read_text())
    assert manifest["provenance"]["stride"] == 256
    assert manifest["num_classes"] == 15  # DOTA vocabulary inferred
    for tensor, classes in (("hm_b1", HORIZONTAL_CLASSES), ("hm_b2", ORIENTED_CLASSES)):
        channels = [manifest["class_names"].index(c) for c in classes]
        heatmap = np.fromfile(container / f"{tensor}.f32", dtype="<f4").reshape(15, 1, 1)
        assert (heatmap[channels] == 1.0).all()  # the branch's own classes
        assert np.delete(heatmap, channels, axis=0).max() == 0.0


def test_encode_writes_container_with_provenance_sparse(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    code, out = run(capsys, "encode", "--gt", gt, "--out", tmp_path / "maps", "--stride", 4)
    assert code == 0
    container = tmp_path / "maps" / "img"
    manifest = json.loads((container / "manifest.json").read_text())
    assert manifest["provenance"]["stride"] == 4
    assert manifest["num_classes"] == 15  # DOTA vocabulary inferred
    entries = {t["name"]: t for t in manifest["tensors"]}
    assert {t["layout"] for t in entries.values()} == {"sparse"}
    count = entries["hm_b1"]["count"]
    raw = (container / "hm_b1.f32").read_bytes()
    cells = np.frombuffer(raw[: 4 * count], dtype="<u4")
    assert count > 0 and (cells < 64 * 64).all()  # plane channel, horizontal branch
    assert (np.frombuffer(raw[4 * count :], dtype="<f4") == 1.0).all()
    assert entries["hm_b2"]["count"] == 0
    assert (container / "hm_b2.f32").stat().st_size == 0


def test_encode_zero_objects_gives_zero_tensors(tmp_path, capsys):
    gt = make_gt(tmp_path, [], width=64, height=32)
    code, _ = run(capsys, "encode", "--gt", gt, "--out", tmp_path / "maps")
    assert code == 0
    container = tmp_path / "maps" / "img"
    manifest = json.loads((container / "manifest.json").read_text())
    assert (manifest["width"], manifest["height"]) == (16, 8)
    for entry in manifest["tensors"]:
        assert (entry["layout"], entry["count"]) == ("sparse", 0)
        assert (container / entry["file"]).stat().st_size == 0
    maps, _ = read_maps(container)
    for array in (maps.heatmap, maps.regression, maps.reg_mask):
        assert not array.any()


@pytest.mark.parametrize("command", ["encode", "roundtrip"])
@pytest.mark.parametrize("value", ["nan", "0", "-5"])
def test_drift_r_must_be_positive(tmp_path, capsys, command, value):
    gt = make_gt(tmp_path, [PLANE])
    out_flag = ["--out", tmp_path / "maps"] if command == "encode" else []
    code, out = run(capsys, command, "--gt", gt, *out_flag, "--drift-r", value)
    assert code == 1
    assert out == f"error=drift_r must be > 0, got {float(value)}\n"
    assert not (tmp_path / "maps").exists()


def test_encode_corrupt_json_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _ = run(capsys, "encode", "--gt", bad, "--out", tmp_path / "maps")
    assert code == 2
    code, _ = run(capsys, "encode", "--gt", tmp_path / "missing.json", "--out", tmp_path / "m")
    assert code == 2


def write_gt_with_bad_image(tmp_path):
    """Two images; the first has a box centred at (300, 50) in a 100x100 image."""
    outside = {"class": "plane", "corners": [290, 40, 310, 40, 310, 60, 290, 60], "difficult": False}
    path = tmp_path / "gt.json"
    path.write_text(
        json.dumps([
            {"image_id": "bad", "width": 100, "height": 100, "objects": [outside]},
            {"image_id": "good", "width": 256, "height": 256, "objects": [PLANE]},
        ]),
        encoding="utf-8",
    )
    return path


def test_encode_bad_image_is_reported_and_others_still_encode(tmp_path, capsys):
    gt = write_gt_with_bad_image(tmp_path)
    code, out = run(capsys, "encode", "--gt", gt, "--out", tmp_path / "maps", "--jobs", 2)
    assert code == 1
    assert "image=bad error=" in out and "outside 100x100" in out
    assert (tmp_path / "maps" / "good" / "manifest.json").is_file()
    assert not (tmp_path / "maps" / "bad").exists()


def test_roundtrip_bad_image_is_reported_and_others_still_run(tmp_path, capsys):
    gt = write_gt_with_bad_image(tmp_path)
    code, out = run(capsys, "roundtrip", "--gt", gt)
    assert code == 1
    assert "image=bad error=" in out
    assert "objects=1" in out and "fraction=1.000000" in out


@pytest.mark.parametrize("command", ["encode", "roundtrip"])
def test_overflowing_edge_midpoint_is_reported_and_others_still_run(tmp_path, capsys, command):
    # Finite corners with a finite area whose edge midpoint (1e308 + 1.7e308) / 2 overflows.
    huge = {"class": "plane", "corners": [1e308, 0, 1.7e308, 0, 1.7e308, 1e-300, 1e308, 1e-300]}
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([
        {"image_id": "huge", "width": 100, "height": 100, "objects": [huge]},
        {"image_id": "good", "width": 256, "height": 256, "objects": [PLANE]},
    ]), encoding="utf-8")
    out_flag = ["--out", tmp_path / "maps"] if command == "encode" else []
    code, out = run(capsys, command, "--gt", gt, *out_flag, "--jobs", 2)
    assert code == 1
    assert out.splitlines()[0] == "image=huge error='non-finite point (inf, 0.0)'"
    if command == "encode":
        assert (tmp_path / "maps" / "good" / "manifest.json").is_file()
        assert not (tmp_path / "maps" / "huge").exists()
    else:
        assert "objects=1" in out and "fraction=1.000000" in out


@pytest.mark.parametrize("command", ["encode"])
def test_maps_too_large_to_allocate_are_reported_and_others_still_run(tmp_path, capsys, command):
    # The dense tensor files of a 1e8 x 1e8 image's container exceed the
    # address space, so numpy refuses them with MemoryError before touching
    # a page, and before the container's directory is made.
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([
        {"image_id": "vast", "width": 100_000_000, "height": 100_000_000, "objects": [PLANE]},
        {"image_id": "good", "width": 256, "height": 256, "objects": [PLANE]},
    ]), encoding="utf-8")
    code, out = run(capsys, command, "--gt", gt, "--out", tmp_path / "maps", "--jobs", 2)
    assert code == 1
    assert out.splitlines()[0].startswith("image=vast error='Unable to allocate"), out
    assert (tmp_path / "maps" / "good" / "manifest.json").is_file()
    assert not (tmp_path / "maps" / "vast").exists()


def test_roundtrip_of_maps_too_large_to_allocate_makes_no_grid(tmp_path, capsys):
    # Roundtrip keeps the maps of a 1e8 x 1e8 image as their cells, whose
    # dense arrays would exceed the address space, and decodes those cells.
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([
        {"image_id": "vast", "width": 100_000_000, "height": 100_000_000, "objects": [PLANE]},
        {"image_id": "good", "width": 256, "height": 256, "objects": [PLANE]},
    ]), encoding="utf-8")
    code, out = run(capsys, "roundtrip", "--gt", gt, "--jobs", 2)
    assert code == 0, out
    assert "images=2 objects=2" in out and "fraction=1.000000" in out


@pytest.mark.parametrize("command", ["encode", "eval"])
def test_gt_box_whose_area_overflows_is_validation_error(tmp_path, capsys, command):
    # rectangle(0, 0, 1e200, 1e200): finite corners, shoelace area inf.
    huge = dict(PLANE, corners=[-5e199, -5e199, 5e199, -5e199, 5e199, 5e199, -5e199, 5e199])
    gt = make_gt(tmp_path, [huge], width=1, height=1)
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out.startswith("error=") and out.endswith("non-finite area\n"), out
    assert not (tmp_path / "maps").exists()


# Boxes with valid corner fields that the box rule rejects, by its message.
BAD_SHAPES = {
    "non-convex quad": [100, 80, 160, 90, 120, 100, 160, 140],
    "zero-area box": [100, 80, 160, 80, 160, 80, 100, 80],
    "non-finite area": [-5e199, -5e199, 5e199, -5e199, 5e199, 5e199, -5e199, 5e199],
}


@pytest.mark.parametrize("shape", BAD_SHAPES)
@pytest.mark.parametrize("command", ["encode", "roundtrip", "eval"])
def test_gt_box_shape_error_names_its_image_and_object(tmp_path, capsys, command, shape):
    gt = make_gt(tmp_path, [PLANE, dict(PLANE, corners=BAD_SHAPES[shape])], image_id="z")
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "roundtrip": [],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == f"error=image 'z' object 1: {shape}\n"
    assert not (tmp_path / "maps").exists()


@pytest.mark.parametrize("objects, message", [
    # A JSON integer is shown as written, not as the float it is held as.
    ([dict(PLANE, corners=[100, 80, 160, 80, 160, 120, 100, float("nan")])],
     "image 'z' object 0: non-finite point (100, nan)"),
    ([PLANE, dict(PLANE, corners=[1e308, 0, -1e308, 0, 0, 1, 0, 2])], "image 'z' object 1: non-finite area"),
    ([dict(PLANE, corners=BAD_SHAPES["non-convex quad"]), PLANE], "image 'z' object 0: non-convex quad"),
], ids=["nan-corner", "area-overflows", "first-bad-object"])
@pytest.mark.parametrize("command", ["encode", "roundtrip", "eval"])
def test_gt_object_error_names_the_first_bad_object(tmp_path, capsys, command, objects, message):
    gt = make_gt(tmp_path, objects, image_id="z")
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "roundtrip": [],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == f"error={message}\n"
    assert not (tmp_path / "maps").exists()


def write_two_images(tmp_path, objects_b, layout):
    """Ground truth of image 'a' holding PLANE, then image 'b' holding objects_b:
    one file, or a directory of one file per image."""
    entries = [
        {"image_id": "a", "width": 256, "height": 256, "objects": [PLANE]},
        {"image_id": "b", "width": 256, "height": 256, "objects": objects_b},
    ]
    if layout == "file":
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(entries), encoding="utf-8")
        return gt
    gt = tmp_path / "gt"
    gt.mkdir()
    for entry in entries:
        (gt / f"{entry['image_id']}.json").write_text(json.dumps([entry]), encoding="utf-8")
    return gt


@pytest.mark.parametrize("layout", ["file", "directory"])
@pytest.mark.parametrize("objects, message", [
    ([PLANE, SHIP, dict(PLANE, corners=BAD_SHAPES["non-convex quad"])], "image 'b' object 2: non-convex quad"),
    ([SHIP, dict(PLANE, corners=[100, 80, 160, 80, 160, float("inf"), 100, 120])],
     "image 'b' object 1: non-finite point (160, inf)"),
], ids=["shape", "non-finite-point"])
@pytest.mark.parametrize("command", ["encode", "roundtrip", "eval"])
def test_gt_fault_in_a_later_image_names_that_image_and_its_own_object(
    tmp_path, capsys, command, objects, message, layout
):
    gt = write_two_images(tmp_path, objects, layout)
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "roundtrip": [],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == f"error={message}\n"
    assert not (tmp_path / "maps").exists()


@pytest.mark.parametrize("layout", ["file", "directory"])
@pytest.mark.parametrize("command", ["encode", "eval"])
def test_gt_unknown_class_in_a_later_image_is_validation_error(tmp_path, capsys, command, layout):
    # roundtrip takes no --classes: its vocabulary holds every class the GT names.
    gt = write_two_images(tmp_path, [SHIP, dict(PLANE, **{"class": "zeppelin"})], layout)
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra, "--classes", "plane,ship")
    assert code == 1
    assert out == "error=image 'b' object 1: class 'zeppelin' not in vocabulary ['plane', 'ship']\n"
    assert not (tmp_path / "maps").exists()


@pytest.mark.parametrize("command", ["encode", "roundtrip", "eval"])
def test_gt_corners_written_as_huge_integers_are_held_as_floats(tmp_path, capsys, command):
    # Exact integer arithmetic gave an area of 10**400, which no float holds.
    huge = dict(PLANE, corners=[0, 0, 10**200, 0, 10**200, 10**200, 0, 10**200])
    gt = make_gt(tmp_path, [PLANE, huge], image_id="z")
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "roundtrip": [],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == "error=image 'z' object 1: non-finite area\n"


@pytest.mark.parametrize("entry, message", [
    ({"image_id": "z", "width": 0, "height": 10, "objects": []}, "image 'z': width 0 below 1"),
    ({"image_id": "z", "width": 10, "height": -3, "objects": []}, "image 'z': height -3 below 1"),
    ({"width": 10, "height": 10, "objects": []}, "image #0: missing field 'image_id'"),
    ({"image_id": "z", "height": 10}, "image #0: missing field 'width'"),
    ({"image_id": "z", "width": 10, "objects": []}, "image #0: missing field 'height'"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": [{"class": "plane"}]},
     "image 'z' object 0: missing field 'corners'"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": [PLANE, {"corners": [0] * 8}]},
     "image 'z' object 1: missing field 'class'"),
    ("z", "image #0: missing field 'image_id'"),
    ({"image_id": "z", "width": None, "height": 10}, "image #0: width must be an integer, got None"),
    ({"image_id": "z", "width": 10, "height": [10]}, "image #0: height must be an integer, got [10]"),
    ({"image_id": "z", "width": 1.5, "height": 10}, "image #0: width must be an integer, got 1.5"),
    ({"image_id": "z", "width": "10", "height": 10}, "image #0: width must be an integer, got '10'"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": None}, "image 'z': objects must be a list"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": {"class": "plane"}},
     "image 'z': objects must be a list"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": [dict(PLANE, corners=[1, 2, 3])]},
     "image 'z' object 0: corners must be a list of 8 numbers, got [1, 2, 3]"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": [dict(PLANE, corners=["1"] * 8)]},
     "image 'z' object 0: corners must be a list of 8 numbers, got ['1', '1', '1', '1', '1', '1', '1', '1']"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": [dict(PLANE, corners=None)]},
     "image 'z' object 0: corners must be a list of 8 numbers, got None"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": [dict(PLANE, **{"class": ["plane"]})]},
     "image 'z' object 0: class must be a string, got ['plane']"),
    ({"image_id": "../z", "width": 10, "height": 10}, "image #0: image_id must be a plain file name, got '../z'"),
    ({"image_id": "", "width": 10, "height": 10}, "image #0: image_id must be a plain file name, got ''"),
    ({"image_id": "a\x00b", "width": 10, "height": 10},
     "image #0: image_id must be a plain file name, got 'a\\x00b'"),
    ({"image_id": "z", "width": 10, "height": 10, "objects": [dict(PLANE, difficult="false")]},
     "image 'z' object 0: difficult must be a boolean, got 'false'"),
    # A name that is not a string is not turned into one.
    ({"image_id": None, "width": 10, "height": 10}, "image #0: image_id must be a plain file name, got None"),
    ({"image_id": 5, "width": 10, "height": 10}, "image #0: image_id must be a plain file name, got 5"),
    ({"image_id": True, "width": 10, "height": 10}, "image #0: image_id must be a plain file name, got True"),
    ({"image_id": ["a"], "width": 10, "height": 10},
     "image #0: image_id must be a plain file name, got ['a']"),
], ids=[
    "zero-width", "negative-height", "no-image_id", "no-width", "no-height",
    "object-without-corners", "object-without-class", "entry-not-an-object",
    "null-width", "list-height", "fractional-width", "string-width",
    "null-objects", "objects-not-a-list", "short-corners", "string-corners",
    "null-corners", "list-class", "image_id-leaves-out-dir", "empty-image_id", "nul-in-image_id",
    "string-difficult", "null-image_id", "number-image_id", "boolean-image_id", "list-image_id",
])
@pytest.mark.parametrize("command", ["encode", "roundtrip", "eval"])
def test_malformed_gt_entry_is_validation_error(tmp_path, capsys, command, entry, message):
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([entry]), encoding="utf-8")
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "roundtrip": [],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == f"error={message}\n"


@pytest.mark.parametrize("command", ["encode", "roundtrip", "eval"])
def test_gt_directory_file_that_is_not_an_array_is_validation_error(tmp_path, capsys, command):
    gt = tmp_path / "gt"
    gt.mkdir()
    make_gt(gt, [PLANE], name="a.json")
    (gt / "b.json").write_text("7", encoding="utf-8")
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "roundtrip": [],
        "eval": ["--dets", dets_from_gt(gt / "a.json", tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == "error=b.json: ground-truth JSON must be an array of images\n"


@pytest.mark.parametrize("layout", ["file", "directory"])
@pytest.mark.parametrize("command", ["encode", "roundtrip", "eval"])
def test_repeated_gt_image_id_is_validation_error(tmp_path, capsys, command, layout):
    # Two images named "x", one plane each. Accepted, eval would score both
    # images' detections against one image's ground truth, and encode would
    # write both into one container directory.
    other = dict(PLANE, corners=[20, 20, 60, 20, 60, 50, 20, 50])
    entries = [{"image_id": "x", "width": 256, "height": 256, "objects": [obj]} for obj in (PLANE, other)]
    gt = tmp_path / ("gt.json" if layout == "file" else "gt")
    if layout == "file":
        gt.write_text(json.dumps(entries), encoding="utf-8")
    else:
        gt.mkdir()
        for name, entry in zip(("a.json", "b.json"), entries):
            (gt / name).write_text(json.dumps([entry]), encoding="utf-8")
    dets = tmp_path / "d.json"
    dets.write_text(json.dumps([
        {"class": "plane", "score": 1.0, "corners": obj["corners"], "image_id": "x"} for obj in (PLANE, other)
    ]), encoding="utf-8")
    extra = {"encode": ["--out", tmp_path / "maps"], "roundtrip": [], "eval": ["--dets", dets]}[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == "error=image #1: image_id 'x' repeats image #0\n"
    assert not (tmp_path / "maps").exists()


def test_gt_size_written_as_an_integral_float_is_accepted(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE], width=256.0, height=256.0)
    code, out = run(capsys, "roundtrip", "--gt", gt)
    assert code == 0 and "fraction=1.000000" in out


def test_encode_class_outside_vocabulary(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    code, out = run(
        capsys, "encode", "--gt", gt, "--out", tmp_path / "maps", "--classes", "ship"
    )
    assert code == 1
    assert "plane" in out


# --- decode -----------------------------------------------------------------------


def test_decode_single_container_round_trips(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    run(capsys, "encode", "--gt", gt, "--out", tmp_path / "maps")
    code, out = run(
        capsys, "decode", "--maps", tmp_path / "maps" / "img", "--out", tmp_path / "d.json"
    )
    assert code == 0
    (det,) = json.loads((tmp_path / "d.json").read_text())
    assert det["class"] == "plane"
    assert det["branch"] == 1
    assert det["score"] == 1.0
    assert "image_id" not in det  # single container records carry no image id
    assert sorted(det["corners"]) == sorted(map(float, PLANE["corners"]))


def test_decode_directory_adds_image_ids(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    run(capsys, "encode", "--gt", gt, "--out", tmp_path / "maps")
    code, _ = run(capsys, "decode", "--maps", tmp_path / "maps", "--out", tmp_path / "d.json")
    assert code == 0
    (det,) = json.loads((tmp_path / "d.json").read_text())
    assert det["image_id"] == "img"


def test_decode_directory_writes_the_rows_of_each_containers_table(tmp_path, capsys):
    labels = write_labels(tmp_path)
    tiles, maps = tmp_path / "tiles", tmp_path / "maps"
    run(capsys, "tile", "--input", labels, "--out", tiles)
    run(capsys, "encode", "--gt", tiles, "--out", maps)
    code, _ = run(capsys, "decode", "--maps", maps, "--out", tmp_path / "d.json", "--jobs", 2)
    assert code == 0
    expected = []
    containers = sorted(p.parent for p in maps.glob("*/manifest.json"))
    for container in containers:
        container_maps, class_names = read_maps(container)
        for det in decode(container_maps):
            expected.append({
                "class": class_names[det.class_id], "score": det.score,
                "corners": det.box.corner_array(), "branch": det.branch.value,
                "image_id": container.name,
            })
    assert len(containers) > 1 and len({r["image_id"] for r in expected}) > 1
    assert json.loads((tmp_path / "d.json").read_text()) == expected


def test_decode_high_threshold_gives_empty_array(tmp_path, capsys):
    maps = TargetMaps(
        stride=4, num_classes=1, width=16, height=16, image_w=64, image_h=64,
        heatmap=np.full((2, 1, 16, 16), 0.9), regression=np.ones((2, 8, 16, 16)),
        reg_mask=np.ones((2, 16, 16), dtype=bool), n_objects=1,
    )
    write_maps(maps, tmp_path / "c", ["text"])
    code, _ = run(
        capsys, "decode", "--maps", tmp_path / "c", "--out", tmp_path / "d.json",
        "--threshold", "0.99",
    )
    assert code == 0
    assert json.loads((tmp_path / "d.json").read_text()) == []


def test_decode_missing_tensor_is_io_error(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    run(capsys, "encode", "--gt", gt, "--out", tmp_path / "maps")
    (tmp_path / "maps" / "img" / "reg_b1.f32").unlink()
    code, _ = run(capsys, "decode", "--maps", tmp_path / "maps", "--out", tmp_path / "d.json")
    assert code == 2


def test_decode_merge_iou_is_honoured(tmp_path, capsys):
    # The same box sits in both branches: the default merge keeps one copy,
    # and a merge IoU of 1.0 (IoU must exceed it) keeps both.
    box = OrientedBox(tuple(Point2(*PLANE["corners"][i:i + 2]) for i in range(0, 8, 2)))
    maps = encode_image([box], 256, 256, num_classes=1)
    for array in (maps.heatmap, maps.regression, maps.reg_mask):
        array[1] = array[0]
    write_maps(maps, tmp_path / "c", ["plane"])
    counts = []
    for extra in ([], ["--merge-iou", "1.0"]):
        code, _ = run(capsys, "decode", "--maps", tmp_path / "c", "--out", tmp_path / "d.json", *extra)
        assert code == 0
        counts.append(len(json.loads((tmp_path / "d.json").read_text())))
    assert counts == [1, 2]


def corrupt_and_decode(tmp_path, capsys, container, tensor, value, message):
    data, at = value_slot(container, tensor)
    data[at] = value
    data.tofile(container / f"{tensor}.f32")
    with pytest.raises(MidlinesError, match=message):
        read_maps(container)
    code, out = run(capsys, "decode", "--maps", container, "--out", tmp_path / "d.json")
    assert code == 2
    assert out.startswith("error=") and tensor in out


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("tensor", TENSOR_NAMES)
def test_decode_rejects_non_finite_tensor(tmp_path, capsys, tensor, value):
    container = encode_scene(tmp_path, capsys, "dense")
    corrupt_and_decode(tmp_path, capsys, container, tensor, value, tensor)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("tensor", TENSOR_NAMES)
def test_decode_rejects_non_finite_sparse_tensor(tmp_path, capsys, tensor, value):
    container = encode_scene(tmp_path, capsys, "sparse")
    corrupt_and_decode(tmp_path, capsys, container, tensor, value, f"{tensor}: non-finite")


@pytest.mark.parametrize("value", [1.5, -0.5])
@pytest.mark.parametrize("tensor", ["hm_b1", "hm_b2"])
def test_decode_rejects_heatmap_outside_unit_interval(tmp_path, capsys, tensor, value):
    container = encode_scene(tmp_path, capsys, "dense")
    corrupt_and_decode(tmp_path, capsys, container, tensor, value, f"{tensor}: values outside")


@pytest.mark.parametrize("value", [1.5, -0.5])
@pytest.mark.parametrize("tensor", ["hm_b1", "hm_b2"])
def test_decode_rejects_sparse_heatmap_outside_unit_interval(tmp_path, capsys, tensor, value):
    container = encode_scene(tmp_path, capsys, "sparse")
    corrupt_and_decode(tmp_path, capsys, container, tensor, value, f"{tensor}: values outside")


def test_decode_drops_near_parallel_midlines(tmp_path, capsys):
    # Offsets exact in float32 whose two midlines differ in direction by one
    # unit in the last place; at this cell the rebuilt corners round to a
    # zero-area quad, which decode drops as degenerate.
    maps = TargetMaps(
        stride=4, num_classes=1, width=64, height=64, image_w=256, image_h=256,
        heatmap=np.zeros((2, 1, 64, 64)), regression=np.zeros((2, 8, 64, 64)),
        reg_mask=np.zeros((2, 64, 64), dtype=bool), n_objects=0,
    )
    maps.heatmap[0, 0, 32, 21] = 0.9
    maps.regression[0, :, 32, 21] = [
        0.6419510841369629, -0.3967475891113281, -0.6419510841369629, 0.3967475891113281,
        1.038698673248291, -0.6419510841369629, -1.038698673248291, 0.6419510841369629,
    ]
    write_maps(maps, tmp_path / "c", ["plane"])
    code, out = run(capsys, "decode", "--maps", tmp_path / "c", "--out", tmp_path / "d.json")
    assert code == 0
    assert "detections=0 dropped_degenerate=1" in out
    assert json.loads((tmp_path / "d.json").read_text()) == []


@pytest.mark.parametrize(
    "stride", [2**62, 2**63, 10**30, 10**400], ids=["2**62", "2**63", "10**30", "10**400"]
)
@pytest.mark.parametrize("command", ["encode", "roundtrip", "decode"])
def test_huge_stride_ends_in_an_exit_code(tmp_path, capsys, command, stride):
    # A stride past float range (10**400) is an error line; the others hold.
    if command == "decode":
        container = encode_plane(tmp_path, capsys)
        manifest = json.loads((container / "manifest.json").read_text())
        manifest["stride"] = stride
        (container / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        argv = ["decode", "--maps", container, "--out", tmp_path / "d.json"]
    else:
        argv = [command, "--gt", make_gt(tmp_path, [PLANE]), "--stride", stride]
        argv += ["--out", tmp_path / "maps"] if command == "encode" else []
    code, out = run(capsys, *argv)
    lines = out.splitlines()
    assert lines and all(re.match(r"\w+=", line) for line in lines), out
    if stride > 10**308:
        assert code == (2 if command == "decode" else 1)
        assert "error=" in out and "too large to convert to float" in out
    else:
        assert code == 0, out


def test_decode_anchors_at_a_huge_stride_do_not_wrap(tmp_path, capsys):
    # One lit cell at column 2 with offsets large enough to survive float64
    # rounding at its input point x = 2 * 2**62 = 2**63, which int64 wraps to
    # -2**63.
    maps = TargetMaps(
        stride=2**62, num_classes=1, width=4, height=1, image_w=2**64, image_h=2**62,
        heatmap=np.zeros((2, 1, 1, 4)), regression=np.zeros((2, 8, 1, 4)),
        reg_mask=np.zeros((2, 1, 4), dtype=bool), n_objects=1,
    )
    maps.heatmap[0, 0, 0, 2] = 0.9
    maps.regression[0, :, 0, 2] = [-2.0**60, 0, 2.0**60, 0, 0, -2.0**59, 0, 2.0**59]
    maps.reg_mask[0, 0, 2] = True
    write_maps(maps, tmp_path / "c", ["plane"])
    code, out = run(capsys, "decode", "--maps", tmp_path / "c", "--out", tmp_path / "d.json")
    assert code == 0
    assert "detections=1 dropped_degenerate=0" in out
    (det,) = json.loads((tmp_path / "d.json").read_text())
    xs, ys = det["corners"][0::2], det["corners"][1::2]
    assert sorted(xs) == [2.0**63 - 2.0**60] * 2 + [2.0**63 + 2.0**60] * 2
    assert sorted(ys) == [-(2.0**59)] * 2 + [2.0**59] * 2


@pytest.mark.parametrize("side", [8192, 2**26])
def test_decode_sparse_grid_past_the_cell_cap_is_io_error(tmp_path, capsys, side):
    # Empty sparse files can claim any grid: 15 x 8192**2 heatmap cells is
    # 16 GB of float64 the OS would grant lazily, and decode would scan it;
    # 2**26 on a side is past any address space. Both stop before allocating.
    container = encode_plane(tmp_path, capsys)
    path = container / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["width"] = manifest["height"] = side
    for entry in manifest["tensors"]:
        entry["shape"][-2:] = [side, side]
        entry["count"] = 0
        (container / entry["file"]).write_bytes(b"")
    path.write_text(json.dumps(manifest), encoding="utf-8")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code, out = run(capsys, "decode", "--maps", container, "--out", tmp_path / "d.json")
    assert code == 2
    assert out.startswith("error=") and "hm_b1: sparse shape" in out and "more than" in out
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 100_000  # KiB


def encode_plane(tmp_path, capsys):
    run(capsys, "encode", "--gt", make_gt(tmp_path, [PLANE]), "--out", tmp_path / "maps")
    return tmp_path / "maps" / "img"


def set_stride(m, v):
    m["stride"] = v


def set_class_names(m, v):
    m["class_names"] = v


def set_tensors(m, v):
    m["tensors"] = v


def set_shape_entry(m, v):
    m["tensors"][0]["shape"][1] = v


def set_file(m, v):
    m["tensors"][0]["file"] = v


def set_dtype(m, v):
    m["tensors"][0]["dtype"] = v


def set_layout(m, v):
    m["tensors"][0]["layout"] = v


def set_count(m, v):
    m["tensors"][0]["count"] = v


def drop_tensor_key(key):
    def edit(m, v):
        del m["tensors"][2][key]
    return edit


@pytest.mark.parametrize("edit, value, message", [
    (set_stride, 0, "stride must be an integer >= 1, got 0"),
    (set_stride, -4, "stride must be an integer >= 1, got -4"),
    (set_stride, "4", "stride must be an integer >= 1, got '4'"),
    (set_stride, 4.5, "stride must be an integer >= 1, got 4.5"),
    (set_stride, None, "stride must be an integer >= 1, got None"),
    (set_shape_entry, "64", "tensor hm_b1 shape entry must be an integer >= 0, got '64'"),
    (set_shape_entry, 6.5, "tensor hm_b1 shape entry must be an integer >= 0, got 6.5"),
    (drop_tensor_key("name"), None, "tensors must be a list of objects with a name"),
    (drop_tensor_key("file"), None, "tensor reg_b1: manifest entry needs a file name and a shape list"),
    (set_tensors, {"name": "hm_b1"}, "tensors must be a list of objects with a name"),
    (set_tensors, "hm_b1", "tensors must be a list of objects with a name"),
    (set_class_names, ["plane"], "class_names must be a list of 15 strings"),
    (set_class_names, "plane", "class_names must be a list of 15 strings"),
    (set_file, "../../other/hm_b1.f32", "tensor hm_b1: file must be a plain file name"),
    (set_file, "/tmp/hm_b1.f32", "tensor hm_b1: file must be a plain file name"),
    (set_file, "sub/hm_b1.f32", "tensor hm_b1: file must be a plain file name"),
    (set_file, "..", "tensor hm_b1: file must be a plain file name"),
    (set_file, "", "tensor hm_b1: file must be a plain file name"),
    (set_dtype, "<f8", "tensor hm_b1: dtype must be '<f4', got '<f8'"),
    (set_dtype, None, "tensor hm_b1: dtype must be '<f4', got None"),
    (set_layout, "csr", "tensor hm_b1: layout must be 'dense' or 'sparse', got 'csr'"),
    (set_layout, None, "tensor hm_b1: layout must be 'dense' or 'sparse', got None"),
    (set_count, -1, "tensor hm_b1 count must be an integer >= 0, got -1"),
    (set_count, 1.5, "tensor hm_b1 count must be an integer >= 0, got 1.5"),
    (drop_tensor_key("count"), None, "tensor reg_b1 count must be an integer >= 0, got None"),
], ids=[
    "zero-stride", "negative-stride", "string-stride", "fractional-stride", "null-stride",
    "string-shape", "fractional-shape", "tensor-without-name", "tensor-without-file",
    "tensors-an-object", "tensors-a-string", "short-class_names", "class_names-a-string",
    "relative-file", "absolute-file", "subdirectory-file", "parent-dir-file", "empty-file",
    "f8-dtype", "null-dtype", "unknown-layout", "null-layout", "negative-count",
    "fractional-count", "sparse-without-count",
])
def test_decode_rejects_malformed_manifest(tmp_path, capsys, edit, value, message):
    container = encode_plane(tmp_path, capsys)
    path = container / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest, value)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ShapeMismatch, match=re.escape(message)):
        read_maps(container)
    code, out = run(capsys, "decode", "--maps", container, "--out", tmp_path / "d.json")
    assert code == 2
    assert out.startswith("error=") and message in out


@pytest.mark.parametrize("corrupt", ["not-utf-8", "nul-in-file-name"])
def test_decode_unreadable_manifest_is_io_error(tmp_path, capsys, corrupt):
    container = encode_plane(tmp_path, capsys)
    path = container / "manifest.json"
    if corrupt == "not-utf-8":
        path.write_bytes(b"\xff\xfe")
    else:
        manifest = json.loads(path.read_text())
        manifest["tensors"][0]["file"] = "hm\x00b1.f32"
        path.write_text(json.dumps(manifest), encoding="utf-8")
    code, out = run(capsys, "decode", "--maps", container, "--out", tmp_path / "d.json")
    assert code == 2
    assert out.startswith("error=")


@pytest.mark.parametrize("value", ["-1", "1.5", "nan"])
def test_decode_validates_merge_iou_range(tmp_path, capsys, value):
    container = encode_plane(tmp_path, capsys)
    code, out = run(
        capsys, "decode", "--maps", container, "--out", tmp_path / "d.json", "--merge-iou", value
    )
    assert code == 1
    assert out == f"error=merge-iou must be in [0, 1], got {float(value)}\n"
    assert not (tmp_path / "d.json").exists()


def test_decode_validates_threshold_and_input(tmp_path, capsys):
    code, _ = run(
        capsys, "decode", "--maps", tmp_path, "--out", tmp_path / "d.json",
        "--threshold", "1.5",
    )
    assert code == 1
    code, _ = run(capsys, "decode", "--maps", tmp_path, "--out", tmp_path / "d.json")
    assert code == 2  # no manifest anywhere


# --- roundtrip --------------------------------------------------------------------


def test_roundtrip_passes_on_well_resolved_objects(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE, dict(PLANE, corners=[30, 200, 90, 230, 76, 258, 16, 228])])
    code, out = run(capsys, "roundtrip", "--gt", gt)
    assert code == 0
    assert "status=pass" in out
    assert "objects=2" in out
    assert "fraction=1.000000" in out


def test_roundtrip_reports_sub_resolution_separately(tmp_path, capsys):
    thin = {"class": "ship", "corners": [50, 50, 90, 50, 90, 54, 50, 54], "difficult": False}
    gt = make_gt(tmp_path, [PLANE, thin])
    code, out = run(capsys, "roundtrip", "--gt", gt)
    assert code == 0
    assert "sub_resolution=1" in out
    assert "objects=1" in out  # the bar only sees the well-resolved one


def test_roundtrip_where_every_image_failed_is_no_pass(tmp_path, capsys):
    code, out = run(capsys, "roundtrip", "--gt", make_gt(tmp_path, [PLANE]), "--stride", 10**400)
    assert code == 1
    assert out.splitlines() == [
        "image=img error='int too large to convert to float'",
        "images=1 objects=0 sub_resolution=0 status=fail note=no_image_ran",
    ]


def test_roundtrip_vacuous_pass_on_empty_input(tmp_path, capsys):
    gt = make_gt(tmp_path, [])
    code, out = run(capsys, "roundtrip", "--gt", gt)
    assert code == 0
    assert "note=vacuous" in out


def test_roundtrip_fails_when_regions_merge(tmp_path, capsys):
    # Two concentric same-class boxes share one connected domain, so one of
    # the two objects cannot be recovered.
    inner = {"class": "ship", "corners": [108, 112, 148, 112, 148, 128, 108, 128], "difficult": False}
    outer = {"class": "ship", "corners": [88, 96, 168, 96, 168, 144, 88, 144], "difficult": False}
    gt = make_gt(tmp_path, [inner, outer])
    code, out = run(capsys, "roundtrip", "--gt", gt)
    assert code == 1
    assert "status=fail" in out


def test_roundtrip_around_a_failed_image_scores_each_object_by_its_own_pairs(tmp_path, capsys):
    # All pairs are scored in one call after the images ran, so a failed
    # image between two good ones must not shift the good ones' slices.
    inner = {"class": "ship", "corners": [108, 112, 148, 112, 148, 128, 108, 128], "difficult": False}
    outer = {"class": "ship", "corners": [88, 96, 168, 96, 168, 144, 88, 144], "difficult": False}
    thin = {"class": "ship", "corners": [50, 50, 90, 50, 90, 54, 50, 54], "difficult": False}
    outside = {"class": "plane", "corners": [290, 40, 310, 40, 310, 60, 290, 60], "difficult": False}
    images = {
        "a": {"image_id": "a", "width": 256, "height": 256, "objects": [inner, outer, PLANE]},
        "b": {"image_id": "b", "width": 100, "height": 100, "objects": [outside, PLANE]},
        "c": {"image_id": "c", "width": 256, "height": 256, "objects": [thin, SHIP, PLANE]},
    }
    fields = {}
    for ids in ("abc", "ac"):
        gt = tmp_path / f"{ids}.json"
        gt.write_text(json.dumps([images[i] for i in ids]), encoding="utf-8")
        code, out = run(capsys, "roundtrip", "--gt", gt)
        assert code == 1
        *errors, summary = out.splitlines()
        assert [line.split(" error=")[0] for line in errors] == ["image=b"] * (ids == "abc")
        fields[ids] = dict(item.split("=") for item in summary.split())
    keys = ("objects", "sub_resolution", "min_iou", "mean_iou", "fraction")
    assert [fields["abc"][k] for k in keys] == [fields["ac"][k] for k in keys]
    # a's merged pair scores 1.0 and 1/6; c's thin box is sub-resolution.
    assert [fields["ac"][k] for k in keys] == ["5", "1", "0.166667", "0.833333", "0.800000"]


@pytest.mark.parametrize("value", ["-3", "1.01", "nan"])
def test_roundtrip_validates_bar_range(tmp_path, capsys, value):
    code, out = run(capsys, "roundtrip", "--gt", make_gt(tmp_path, [PLANE]), "--bar", value)
    assert code == 1
    assert out == f"error=bar must be in [0, 1], got {float(value)}\n"


# --- gradcheck --------------------------------------------------------------------


def test_gradcheck_passes_and_prints_per_loss(tmp_path, capsys):
    code, out = run(capsys, "gradcheck", "--samples", 2)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("status=pass" in line for line in lines)
    assert lines[0].startswith("loss=focal_ip")


def test_gradcheck_negative_control_fails(tmp_path, capsys, monkeypatch):
    bias_every_loss(monkeypatch, 0.05)
    code, out = run(capsys, "gradcheck", "--samples", 1)
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("status=fail" in line for line in lines)


def test_gradcheck_zero_samples_is_validation_error(tmp_path, capsys):
    code, out = run(capsys, "gradcheck", "--samples", 0)
    assert code == 1


@pytest.mark.parametrize("flag", ["--step", "--tolerance"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
def test_gradcheck_rejects_step_and_tolerance_out_of_range(capsys, flag, value):
    code, out = run(capsys, "gradcheck", "--samples", 1, flag, value)
    assert code == 1
    assert out == f"error={flag[2:]} must be finite and > 0, got {float(value)}\n"


def test_gradcheck_step_too_large_for_every_point_is_validation_error(capsys):
    code, out = run(capsys, "gradcheck", "--samples", 1, "--step", "1e300")
    assert code == 1
    assert out.startswith("error=focal_ip: point is")


def test_gradcheck_output_depends_on_the_seed_flag_alone(capsys, monkeypatch):
    _, seed3 = run(capsys, "gradcheck", "--samples", 1, "--seed", 3)
    _, seed99 = run(capsys, "gradcheck", "--samples", 1, "--seed", 99)
    assert seed3 != seed99
    monkeypatch.setenv("O2_SEED", "3")  # the environment variable of an earlier release
    assert run(capsys, "gradcheck", "--samples", 1, "--seed", 99)[1] == seed99


# --- eval -------------------------------------------------------------------------


def dets_from_gt(gt_path, det_path, image_id=None):
    entries = json.loads(gt_path.read_text())
    records = []
    for entry in entries:
        for obj in entry["objects"]:
            rec = {"class": obj["class"], "score": 1.0, "corners": obj["corners"], "branch": 1}
            if image_id is not None:
                rec["image_id"] = entry["image_id"]
            records.append(rec)
    det_path.write_text(json.dumps(records), encoding="utf-8")
    return det_path


def test_eval_ground_truth_is_perfect(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    dets = dets_from_gt(gt, tmp_path / "d.json", image_id="img")
    code, out = run(
        capsys, "eval", "--gt", gt, "--dets", dets, "--out", tmp_path / "report.json"
    )
    assert code == 0
    map_line = next(line for line in out.splitlines() if line.startswith("mAP"))
    assert map_line.split() == ["mAP", "1.0000"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["map"] == 1.0
    assert report["per_class_ap"]["plane"] == 1.0


def test_eval_text_mode_prints_prf(tmp_path, capsys):
    gt = make_gt(tmp_path, [{"class": "text", "corners": [10, 10, 60, 10, 60, 30, 10, 30], "difficult": False}])
    dets = dets_from_gt(gt, tmp_path / "d.json", image_id="img")
    code, out = run(capsys, "eval", "--gt", gt, "--dets", dets, "--mode", "text")
    assert code == 0
    assert "P=1.0000" in out and "R=1.0000" in out and "F1=1.0000" in out


def test_eval_unknown_class_lists_offenders(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    bad = tmp_path / "d.json"
    bad.write_text(
        json.dumps([{"class": "zeppelin", "score": 0.5, "corners": PLANE["corners"], "branch": 1}]),
        encoding="utf-8",
    )
    code, out = run(capsys, "eval", "--gt", gt, "--dets", bad)
    assert code == 1
    assert "zeppelin" in out


def test_eval_classes_flag_is_a_comma_separated_vocabulary(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    dets = dets_from_gt(gt, tmp_path / "d.json", image_id="img")
    code, out = run(
        capsys, "eval", "--gt", gt, "--dets", dets, "--classes", "plane,ship",
        "--out", tmp_path / "report.json",
    )
    assert code == 0, out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["map"] == 1.0
    assert report["per_class_ap"]["plane"] == 1.0


@pytest.mark.parametrize("field", ["class", "corners", "score"])
def test_eval_detection_record_missing_a_field(tmp_path, capsys, field):
    gt = make_gt(tmp_path, [PLANE])
    record = {"class": "plane", "score": 1.0, "corners": PLANE["corners"]}
    del record[field]
    bad = tmp_path / "d.json"
    bad.write_text(json.dumps([record, record]), encoding="utf-8")
    code, out = run(capsys, "eval", "--gt", gt, "--dets", bad)
    assert code == 1
    assert out == f"error=detection #0: missing field {field!r}\n"


@pytest.mark.parametrize("change, message", [
    ({"corners": [1, 2, 3]}, "corners must be a list of 8 numbers, got [1, 2, 3]"),
    ({"corners": [None] * 8}, "corners must be a list of 8 numbers, got [None, None"),
    ({"corners": "0 0 1 0 1 1 0 1"}, "corners must be a list of 8 numbers, got '0 0 1 0 1 1 0 1'"),
    ({"class": ["plane"]}, "class must be a string, got ['plane']"),
    ({"score": None}, "score must be a number, got None"),
    ({"score": "0.5"}, "score must be a number, got '0.5'"),
    ({"score": [1]}, "score must be a number, got [1]"),
    ({"image_id": None}, "image_id must be a string, got None"),
    ({"image_id": 5}, "image_id must be a string, got 5"),
], ids=[
    "short-corners", "null-corners", "string-corners", "list-class",
    "null-score", "string-score", "list-score", "null-image_id", "number-image_id",
])
def test_eval_detection_record_with_a_field_of_the_wrong_type(tmp_path, capsys, change, message):
    gt = make_gt(tmp_path, [PLANE])
    record = {"class": "plane", "score": 1.0, "corners": PLANE["corners"]}
    bad = tmp_path / "d.json"
    bad.write_text(json.dumps([record, dict(record, **change)]), encoding="utf-8")
    code, out = run(capsys, "eval", "--gt", gt, "--dets", bad)
    assert code == 1
    assert out.startswith(f"error=detection #1: {message}")


@pytest.mark.parametrize("shape", BAD_SHAPES)
def test_eval_detection_shape_error_names_its_record(tmp_path, capsys, shape):
    record = {"class": "plane", "score": 1.0, "corners": PLANE["corners"]}
    bad = tmp_path / "d.json"
    bad.write_text(json.dumps([record] * 3 + [dict(record, corners=BAD_SHAPES[shape])]), encoding="utf-8")
    code, out = run(capsys, "eval", "--gt", make_gt(tmp_path, [PLANE]), "--dets", bad)
    assert code == 1
    assert out == f"error=detection #3: {shape}\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("records, message", [
    ([{"score": 1.5}], "detection #0: score 1.5 outside [0, 1]"),
    ([{"score": NAN}], "detection #0: score nan outside [0, 1]"),
    # A non-finite point is reported before the score.
    ([{"score": NAN, "corners": [100, 80, 160, 80, 160, 120, 100, INF]}], "detection #0: non-finite point (100, inf)"),
    # Every record's class is checked before any record's shape.
    ([{"corners": BAD_SHAPES["non-convex quad"]}, {"class": "zebra"}],
     "detection classes not in vocabulary: ['zebra']"),
    ([{}, {"score": 2}, {"score": -0.5}], "detection #1: score 2.0 outside [0, 1]"),
], ids=["score-above-one", "nan-score", "inf-corner-before-nan-score", "class-before-shape", "second-record"])
def test_eval_detection_error_names_the_first_bad_record(tmp_path, capsys, records, message):
    record = {"class": "plane", "score": 1.0, "corners": PLANE["corners"]}
    bad = tmp_path / "d.json"
    bad.write_text(json.dumps([dict(record, **change) for change in records]), encoding="utf-8")
    code, out = run(capsys, "eval", "--gt", make_gt(tmp_path, [PLANE]), "--dets", bad)
    assert code == 1
    assert out == f"error={message}\n"


# Bad values that only the per-record scan names, each after many good
# records: plain_records passes none of them, and the scan reports the
# first, in the message it always gave. An integer corner is a number but
# no float, so it too is scanned, and passes.
LATE_FAULTS = [
    ({"corners": [True, 80, 160, 80, 160, 120, 100, 120]},
     "corners must be a list of 8 numbers, got [True, 80, 160, 80, 160, 120, 100, 120]"),
    ({"corners": [100, 80, 10**400, 80, 160, 120, 100, 120]},
     f"corners must be a list of 8 numbers, got [100, 80, {10**400}, 80, 160, 120, 100, 120]"),
    ({"class": None}, "class must be a string, got None"),
]
GOOD_FLOATS = [float(v) for v in PLANE["corners"]]


@pytest.mark.parametrize("change, message", LATE_FAULTS + [
    ("no-class", "missing field 'class'"),
], ids=["true-corner", "corner-past-float-range", "null-class", "no-class"])
@pytest.mark.parametrize("command", ["encode", "eval"])
def test_gt_fault_after_many_good_objects_names_the_first(tmp_path, capsys, command, change, message):
    good = dict(PLANE, corners=GOOD_FLOATS)
    bad = {"corners": GOOD_FLOATS} if change == "no-class" else dict(good, **change)
    objects = [good] * 300 + [dict(PLANE)] + [bad, dict(bad, corners=[None] * 8)] + [good] * 50
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([
        {"image_id": "a", "width": 256, "height": 256, "objects": [good] * 200},
        {"image_id": "z", "width": 256, "height": 256, "objects": objects},
    ]), encoding="utf-8")
    extra = {
        "encode": ["--out", tmp_path / "maps"],
        "eval": ["--dets", dets_from_gt(make_gt(tmp_path, [PLANE], name="ok.json"), tmp_path / "d.json")],
    }[command]
    code, out = run(capsys, command, "--gt", gt, *extra)
    assert code == 1
    assert out == f"error=image 'z' object 301: {message}\n"
    assert not (tmp_path / "maps").exists()


@pytest.mark.parametrize("change, message", LATE_FAULTS + [
    ({"score": False}, "score must be a number, got False"),
    ({"score": 10**400}, f"score must be a number, got {10**400}"),
    ({"image_id": 7}, "image_id must be a string, got 7"),
], ids=["true-corner", "corner-past-float-range", "null-class", "false-score", "score-past-float-range",
        "number-image_id"])
def test_detection_fault_after_many_good_records_names_the_first(tmp_path, capsys, change, message):
    good = {"class": "plane", "score": 0.5, "corners": GOOD_FLOATS, "image_id": "img"}
    # An integer corner and score are scanned, and pass.
    records = [good] * 400 + [dict(good, corners=PLANE["corners"], score=1), dict(good, **change)]
    bad = tmp_path / "d.json"
    bad.write_text(json.dumps(records + [{}] + [good] * 20), encoding="utf-8")
    code, out = run(capsys, "eval", "--gt", make_gt(tmp_path, [PLANE]), "--dets", bad)
    assert code == 1
    assert out == f"error=detection #401: {message}\n"


def test_eval_of_detections_without_image_ids_exits_1(tmp_path, capsys):
    # A single container decodes to records without image_id, by design.
    # Scored against ground truth named by image, they matched no image
    # and read mAP 0.0000 with exit 0.
    gt = make_gt(tmp_path, [PLANE])
    assert run(capsys, "encode", "--gt", gt, "--out", tmp_path / "maps")[0] == 0
    single, every = tmp_path / "single.json", tmp_path / "every.json"
    assert run(capsys, "decode", "--maps", tmp_path / "maps" / "img", "--out", single)[0] == 0
    assert run(capsys, "decode", "--maps", tmp_path / "maps", "--out", every)[0] == 0
    code, out = run(capsys, "eval", "--gt", gt, "--dets", single, "--out", tmp_path / "report.json")
    assert code == 1
    assert out == "error=detections name images not in the ground truth: ['']\n"
    assert not (tmp_path / "report.json").exists()
    code, out = run(capsys, "eval", "--gt", gt, "--dets", every)
    assert code == 0 and "1.0000" in out, out


def test_eval_names_every_image_the_ground_truth_lacks(tmp_path, capsys):
    record = {"class": "plane", "score": 1.0, "corners": PLANE["corners"]}
    dets = tmp_path / "d.json"
    dets.write_text(json.dumps([
        dict(record, image_id="zz"), dict(record, image_id="img"), record, dict(record, image_id="b"),
    ]), encoding="utf-8")
    code, out = run(capsys, "eval", "--gt", make_gt(tmp_path, [PLANE]), "--dets", dets)
    assert code == 1
    assert out == "error=detections name images not in the ground truth: ['', 'b', 'zz']\n"


@pytest.mark.parametrize("records", [7, None, "plane"])
def test_eval_detections_that_are_not_an_array(tmp_path, capsys, records):
    bad = tmp_path / "d.json"
    bad.write_text(json.dumps(records), encoding="utf-8")
    code, out = run(capsys, "eval", "--gt", make_gt(tmp_path, [PLANE]), "--dets", bad)
    assert code == 1
    assert out == "error=detections JSON must be an array of records\n"


def test_eval_non_convex_box_is_validation_error(tmp_path, capsys):
    dart = dict(PLANE, corners=[100, 80, 160, 90, 120, 100, 160, 140])
    good_gt, dart_gt = make_gt(tmp_path, [PLANE]), make_gt(tmp_path, [dart], name="dart.json")
    for gt, dets in ((dart_gt, good_gt), (good_gt, dart_gt)):
        code, out = run(capsys, "eval", "--gt", gt, "--dets", dets_from_gt(dets, tmp_path / "d.json"))
        assert code == 1
        assert out.startswith("error=") and "non-convex" in out


def test_eval_validates_iou(tmp_path, capsys):
    gt = make_gt(tmp_path, [PLANE])
    dets = dets_from_gt(gt, tmp_path / "d.json")
    code, _ = run(capsys, "eval", "--gt", gt, "--dets", dets, "--iou", "0")
    assert code == 1


# --- flag ranges ------------------------------------------------------------------


# Each range rule's exact line, and which rule wins when two flags are out of
# range: the rules run in one fixed order before any file is read.
@pytest.mark.parametrize("argv, message", [
    (["decode", "--threshold", "0"], "threshold must be in (0, 1), got 0.0"),
    (["decode", "--threshold", "1.5"], "threshold must be in (0, 1), got 1.5"),
    (["roundtrip", "--threshold", "nan"], "threshold must be in (0, 1), got nan"),
    (["encode", "--branch-low", "95"], "branch window empty: [95.0, 92.0]"),
    (["roundtrip", "--branch-high", "88"], "branch window empty: [88.0, 88.0]"),
    (["encode", "--branch-high", "nan"], "branch window empty: [88.0, nan]"),
    (["encode", "--stride", "0"], "stride must be >= 1, got 0"),
    (["roundtrip", "--stride", "-4"], "stride must be >= 1, got -4"),
    (["encode", "--drift-r", "-1"], "drift_r must be > 0, got -1.0"),
    (["roundtrip", "--drift-r", "0"], "drift_r must be > 0, got 0.0"),
    (["decode", "--merge-iou", "-0.5"], "merge-iou must be in [0, 1], got -0.5"),
    (["roundtrip", "--bar", "1.5"], "bar must be in [0, 1], got 1.5"),
    (["eval", "--iou", "0"], "iou must be in (0, 1], got 0.0"),
    (["eval", "--iou", "nan"], "iou must be in (0, 1], got nan"),
    (["roundtrip", "--threshold", "2", "--bar", "5"], "threshold must be in (0, 1), got 2.0"),
    (["encode", "--stride", "0", "--branch-low", "95"], "branch window empty: [95.0, 92.0]"),
    (["decode", "--merge-iou", "2", "--threshold", "0"], "threshold must be in (0, 1), got 0.0"),
    (["roundtrip", "--bar", "2", "--drift-r", "0"], "drift_r must be > 0, got 0.0"),
    (["encode", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["decode", "--jobs", "-1"], "jobs must be >= 1, got -1"),
    (["roundtrip", "--jobs", "-1", "--bar", "2"], "bar must be in [0, 1], got 2.0"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_flag_out_of_range_is_one_error_line_and_writes_nothing(tmp_path, capsys, argv, message):
    gt = make_gt(tmp_path, [PLANE])
    write_maps(encode_image([], 64, 64, num_classes=1), tmp_path / "maps", ["plane"])
    outputs = {
        "encode": ["--gt", gt, "--out", tmp_path / "out"],
        "decode": ["--maps", tmp_path / "maps", "--out", tmp_path / "d.json"],
        "roundtrip": ["--gt", gt],
        "eval": ["--gt", gt, "--dets", dets_from_gt(gt, tmp_path / "dets.json"),
                 "--out", tmp_path / "report.json"],
    }
    command, *flags = argv
    code, out = run(capsys, command, *outputs[command], *flags)
    assert code == 1
    assert out == f"error={message}\n"
    assert not any(p.exists() for p in (tmp_path / "out", tmp_path / "d.json", tmp_path / "report.json"))


def test_every_range_rule_reads_flags_that_one_subcommand_has():
    # A misspelled dest would leave its rule silently never firing.
    parser = build_parser()
    dests = [set(vars(parser.parse_args(argv))) for argv in (
        ["tile", "--input", "i", "--out", "o"],
        ["encode", "--gt", "g", "--out", "o"],
        ["decode", "--maps", "m", "--out", "o"],
        ["roundtrip", "--gt", "g"],
        ["gradcheck"],
        ["eval", "--gt", "g", "--dets", "d"],
    )]
    for rule, _, message in FLAG_RANGES:
        assert any(set(rule) <= have for have in dests), message


# --- whole pipeline ---------------------------------------------------------------


def test_pipeline_closure(tmp_path, capsys):
    labels = write_labels(tmp_path)
    tiles, maps = tmp_path / "tiles", tmp_path / "maps"
    dets, report = tmp_path / "dets.json", tmp_path / "report.json"
    assert run(capsys, "tile", "--input", labels, "--out", tiles)[0] == 0
    assert run(capsys, "encode", "--gt", tiles, "--out", maps)[0] == 0
    assert run(capsys, "decode", "--maps", maps, "--out", dets)[0] == 0
    code, out = run(capsys, "eval", "--gt", tiles, "--dets", dets, "--out", report)
    assert code == 0
    assert json.loads(report.read_text())["map"] >= 0.99


@pytest.mark.parametrize("command, target", [
    ("tile", "a_file"),
    ("tile", "a_file/tiles"),
    ("encode", "a_file"),
    ("decode", "a_dir"),
    ("decode", "a_file/dets.json"),
    ("eval", "a_dir"),
    ("eval", "a_file/report.json"),
])
def test_output_path_that_cannot_be_written_is_one_io_error_line(tmp_path, capsys, command, target):
    labels = write_labels(tmp_path)
    tiles, maps, dets = tmp_path / "tiles", tmp_path / "maps", tmp_path / "dets.json"
    run(capsys, "tile", "--input", labels, "--out", tiles)
    run(capsys, "encode", "--gt", tiles, "--out", maps)
    run(capsys, "decode", "--maps", maps, "--out", dets)
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("kept\n", encoding="utf-8")
    inputs = {
        "tile": ["--input", labels],
        "encode": ["--gt", tiles],
        "decode": ["--maps", maps],
        "eval": ["--gt", tiles, "--dets", dets],
    }
    code, out = run(capsys, command, *inputs[command], "--out", tmp_path / target)
    assert code == 2
    assert re.fullmatch(r"error=\[Errno \d+\] [^\n]+\n", out), out
    assert (tmp_path / "a_file").read_text(encoding="utf-8") == "kept\n"
    assert not any((tmp_path / "a_dir").iterdir())


def test_chain_on_a_scene_without_errors_makes_no_box_row(tmp_path, capsys, monkeypatch, caplog):
    # Boxes stay columns from the label text to every output; only a row
    # asked for, or an error to report, makes an OrientedBox and its Point2s.
    made = []
    row_view, box_check = Boxes.__iter__, OrientedBox.__post_init__

    def rows(table):
        for row in row_view(table):
            made.append(row)
            yield row

    monkeypatch.setattr(Boxes, "__iter__", rows)
    monkeypatch.setattr(OrientedBox, "__post_init__", lambda box: made.append(box) or box_check(box))
    labels = write_labels(tmp_path)
    tiles, maps, dets = tmp_path / "tiles", tmp_path / "maps", tmp_path / "dets.json"
    for argv in (
        ["tile", "--input", labels, "--out", tiles],
        ["encode", "--gt", tiles, "--out", maps],
        ["decode", "--maps", maps, "--out", dets],
        ["eval", "--gt", tiles, "--dets", dets],
        ["eval", "--gt", tiles, "--dets", dets, "--mode", "text"],
        ["roundtrip", "--gt", tiles, "--bar", 0],
    ):
        code, out = run(capsys, *argv)
        assert code == 0 and "warning=" not in out and "error=" not in out, out
    assert not caplog.records
    assert made == []
    list(Boxes.of([rectangle(5.0, 5.0, 2.0, 2.0)]))
    assert len(made) == 2  # the patches see every box made and every row read


def test_pipeline_is_byte_deterministic(tmp_path, capsys):
    labels = write_labels(tmp_path)
    outputs = []
    for run_dir in ("a", "b"):
        base = tmp_path / run_dir
        run(capsys, "tile", "--input", labels, "--out", base / "tiles", "--jobs", 2)
        run(capsys, "encode", "--gt", base / "tiles", "--out", base / "maps", "--jobs", 2)
        run(capsys, "decode", "--maps", base / "maps", "--out", base / "dets.json", "--jobs", 2)
        run(
            capsys, "eval", "--gt", base / "tiles", "--dets", base / "dets.json",
            "--out", base / "report.json",
        )
        outputs.append(base)
    a, b = outputs
    rel = lambda base: sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
    assert rel(a) == rel(b)
    for p in rel(a):
        assert (a / p).read_bytes() == (b / p).read_bytes(), p


def test_jobs_flag_starts_no_thread(tmp_path, capsys):
    # Per-file work runs in the calling thread whatever --jobs says.
    labels = write_labels(tmp_path)
    before = threading.active_count()
    for argv in (
        ["tile", "--input", labels, "--out", tmp_path / "tiles"],
        ["encode", "--gt", tmp_path / "tiles", "--out", tmp_path / "maps"],
        ["decode", "--maps", tmp_path / "maps", "--out", tmp_path / "dets.json"],
        ["roundtrip", "--gt", tmp_path / "tiles", "--bar", 0],
    ):
        code, out = run(capsys, *argv, "--jobs", 2)
        assert code == 0, out
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("midlines")]


def test_parallel_map_raises_the_first_error_at_once():
    done = []

    def work(item):
        if item in (2, 4):
            raise ValueError(f"item {item}")
        done.append(item)
        return item

    with pytest.raises(ValueError, match="item 2"):
        _parallel_map(work, range(6), 2)
    assert done == [0, 1]
    assert _parallel_map(lambda x: x * x, range(6), 2) == [0, 1, 4, 9, 16, 25]


DECODE_ONE_MAP = """
import sys
import numpy as np
import midlines.cli
from midlines.decoder import decode
from midlines.encoder import TargetMaps

heatmap = np.zeros((2, 1, 8, 8))
heatmap[0, 0, 3:5, 3:5] = 0.9
regression = np.zeros((2, 8, 8, 8))
regression[0, :, 3:5, 3:5] = np.array([4.0, 0, -4, 0, 0, -2, 0, 2])[:, None, None]
maps = TargetMaps(stride=4, num_classes=1, width=8, height=8, image_w=32, image_h=32,
                  heatmap=heatmap, regression=regression,
                  reg_mask=np.zeros((2, 8, 8), dtype=bool), n_objects=0)
print(len(decode(maps)), 'scipy' in sys.modules)
"""


def test_importing_the_cli_does_not_load_scipy():
    # Neither the CLI nor decode's labelling needs scipy.
    proc = subprocess.run([sys.executable, "-c", DECODE_ONE_MAP], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "midlines.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("tile", "encode", "decode", "roundtrip", "gradcheck", "eval"):
        assert name in proc.stdout

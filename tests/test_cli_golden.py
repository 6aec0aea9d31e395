"""The bytes of the whole CLI chain, pinned by one digest.

Two seeded DOTA label files of about 150 rotated boxes each go through
tile -> encode -> decode -> eval (mAP at IoU 0.5, 11-point mAP, and text
mode at IoU 0.3) -> roundtrip. One sha256 over every file the chain writes
and everything it prints must equal the digest recorded when the chain was
last known to be right, with --jobs 1 and --jobs 2 alike. A change that
means to keep every output byte the same keeps this test passing; one that
means to change them records the new digest here, and says why, in the
same change.

The digest last changed when each container's six tensor files became one
data file, maps.f32, with a byte offset in each manifest entry. Only the
files under maps/ changed: every other output file and everything printed
hash as before, and each tensor's bytes and other manifest fields are
those of its file before.
"""

import hashlib
import math

import numpy as np
import pytest

from midlines.cli import main
from midlines.ingest import DOTA_CLASS_NAMES

GOLDEN_SHA256 = "bfcd2c1d83f2c4bd288331b7fd9917ebd6c289bcad8cf0395caa3c3bb34bd4cf"

# Lines each file also carries: a header, a malformed line, an unknown
# category, a dart, and a box on the image's left edge written with -0,
# which tiling keeps as -0.0.
EXTRA_LINES = [
    "gsd:0.15",
    "10 10 20 10 20 five 10 20 plane 0",
    "300 300 340 300 340 320 300 320 zeppelin 0",
    "100 80 160 90 120 100 160 140 ship 0",
    "-0 500 40 500 40 530 -0 530 harbor 0",
]


def scene(rng, n_boxes=150, side=1400.0):
    """DOTA label text: rotated rectangles anywhere in the image, some past its edges."""
    lines = list(EXTRA_LINES)
    for _ in range(n_boxes):
        cx, cy = rng.uniform(-10.0, side + 10.0, 2)
        w, h = rng.uniform(6.0, 90.0), rng.uniform(6.0, 40.0)
        angle = math.radians(rng.uniform(0.0, 180.0))
        ca, sa = math.cos(angle), math.sin(angle)
        corners = []
        for dx, dy in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)):
            corners += [f"{cx + dx * ca - dy * sa:.1f}", f"{cy + dx * sa + dy * ca:.1f}"]
        name = DOTA_CLASS_NAMES[int(rng.integers(len(DOTA_CLASS_NAMES)))]
        lines.append(" ".join([*corners, name, "1" if rng.random() < 0.1 else "0"]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_chain_bytes_match_the_recorded_digest(tmp_path, capsys, jobs):
    rng = np.random.default_rng(20261019)
    labels = tmp_path / "labels"
    labels.mkdir()
    for name in ("P0000", "P0001"):
        (labels / f"{name}.txt").write_text(scene(rng), encoding="utf-8")
    out = tmp_path / "out"
    tiles, maps, dets = out / "tiles", out / "maps", out / "dets.json"
    commands = [
        ["tile", "--input", labels, "--out", tiles, "--jobs", jobs],
        ["encode", "--gt", tiles, "--out", maps, "--jobs", jobs],
        ["decode", "--maps", maps, "--out", dets, "--jobs", jobs],
        ["eval", "--gt", tiles, "--dets", dets, "--out", out / "eval_map.json"],
        ["eval", "--gt", tiles, "--dets", dets, "--ap-mode", "11-point", "--out", out / "eval_11.json"],
        ["eval", "--gt", tiles, "--dets", dets, "--mode", "text", "--iou", 0.3, "--out", out / "eval_text.json"],
        ["roundtrip", "--gt", tiles, "--jobs", jobs],
    ]
    digest = hashlib.sha256()
    for argv in commands:
        code = main([str(a) for a in argv])
        printed = capsys.readouterr().out
        assert code in (0, 1), printed  # roundtrip fails its bar on clamped tile quads
        digest.update(f"{argv[0]} exit={code}\n".encode())
        digest.update(printed.replace(str(tmp_path), "TMP").encode())
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert len(files) > 20
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    assert digest.hexdigest() == GOLDEN_SHA256

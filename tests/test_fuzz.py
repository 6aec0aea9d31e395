"""Malformed inputs end in exit 0, 1 or 2 with an error= line, never a traceback.

Each example replaces one to three values inside a valid ground-truth JSON,
detections JSON or container manifest (the whole document included) with
null, a string, a list, a negative number or a short list, damages the
bytes of one tensor in a valid dense or sparse container, the indices of a
sparse one, or any bytes of a container's shared data file, or writes DOTA
and ICDAR label lines with huge, non-finite or missing coordinates, then
runs the CLI in-process on the result.
"""

import contextlib
import copy
import io
import json
import math
import re
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from midlines.cli import main
from midlines.container import DATA_FILE, TENSOR_NAMES

from test_container import DENSE_CONTAINER, rewrite_tensor, tensor_bytes

BOX = [8, 8, 40, 8, 40, 24, 8, 24]
GT = [{
    "image_id": "img", "width": 64, "height": 64,
    "objects": [{"class": "plane", "corners": BOX, "difficult": False}],
}]
DETS = [{"class": "plane", "score": 0.9, "corners": BOX, "branch": 1, "image_id": "img"}]
JUNK = [None, "x", "", [], [1, 2, 3], -1, -2.5, {"a": 1}]

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def paths(node, prefix=()):
    """Every key path inside a JSON value, the empty path (the root) first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def edits(doc):
    return st.lists(
        st.tuples(st.sampled_from(list(paths(doc))), st.sampled_from(JUNK)),
        min_size=1, max_size=3,
    )


def mutated(doc, changes):
    """doc with each (path, value) change applied; a path an earlier change removed is skipped."""
    doc = copy.deepcopy(doc)
    for path, value in changes:
        value = copy.deepcopy(value)
        if not path:
            doc = value
            continue
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]]  # the slot must still exist
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return doc


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    text = out.getvalue()
    assert code in (0, 1, 2), text
    if code != 0:
        assert re.search(r"(^| )error=", text, re.MULTILINE), text
    return code


@FUZZ
@given(edits(GT))
def test_malformed_ground_truth_never_raises(changes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gt = write_json(tmp / "gt.json", mutated(GT, changes))
        dets = write_json(tmp / "dets.json", DETS)
        run_cli("encode", "--gt", gt, "--out", tmp / "maps")
        run_cli("roundtrip", "--gt", gt, "--bar", "0")
        run_cli("eval", "--gt", gt, "--dets", dets)


@FUZZ
@given(edits(DETS))
def test_malformed_detections_never_raise(changes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gt = write_json(tmp / "gt.json", GT)
        dets = write_json(tmp / "dets.json", mutated(DETS, changes))
        run_cli("eval", "--gt", gt, "--dets", dets)
        run_cli("eval", "--gt", gt, "--dets", dets, "--mode", "text")


def valid_manifest():
    with tempfile.TemporaryDirectory() as tmp:
        gt = write_json(Path(tmp) / "gt.json", GT)
        assert run_cli("encode", "--gt", gt, "--out", Path(tmp) / "maps") == 0
        return json.loads((Path(tmp) / "maps" / "img" / "manifest.json").read_text())


MANIFEST = valid_manifest()


@FUZZ
@given(edits(MANIFEST))
def test_malformed_manifest_never_raises(changes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        run_cli("encode", "--gt", write_json(tmp / "gt.json", GT), "--out", tmp / "maps")
        write_json(tmp / "maps" / "img" / "manifest.json", mutated(MANIFEST, changes))
        run_cli("decode", "--maps", tmp / "maps", "--out", tmp / "dets.json")
        run_cli("decode", "--maps", tmp / "maps" / "img", "--out", tmp / "dets.json")


# How one tensor's bytes are damaged: its file cut short inside them, a few
# bytes put after them, or one float32 word overwritten with NaN, an infinity or a heatmap value outside
# [0, 1]. In a sparse file the word may be an index: each of those bit
# patterns is an index past the tensor's cells.
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 4096)),
    st.tuples(st.just("extend"), st.integers(1, 7)),
    st.tuples(st.just("overwrite"), st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 1.5])),
)

# How the indices of one sparse tensor are damaged, the file size kept right
# except for "count": one index moved to or past the tensor's cell count, an
# index repeated, two neighbours swapped, or the manifest count off by some.
INDEX_DAMAGE = st.one_of(
    st.tuples(st.just("past-end"), st.integers(0, 2**32)),
    st.tuples(st.just("repeat"), st.just(0)),
    st.tuples(st.just("swap"), st.just(0)),
    st.tuples(st.just("count"), st.sampled_from([-2, -1, 1, 3])),
)

# GT plus an oriented box, so each branch lights cells and every sparse
# tensor file holds at least two indices to damage.
SCENE = [{
    **GT[0],
    "objects": GT[0]["objects"] + [
        {"class": "ship", "corners": [30, 30, 56, 40, 50, 56, 24, 46], "difficult": False},
    ],
}]


def container(tmp, layout):
    """tmp/maps/img holding every tensor in one layout: the checked-in dense
    container, or SCENE encoded by the CLI, which writes it sparse."""
    img = tmp / "maps" / "img"
    if layout == "dense":
        shutil.copytree(DENSE_CONTAINER, img)
    else:
        assert run_cli("encode", "--gt", write_json(tmp / "gt.json", SCENE), "--out", tmp / "maps") == 0
    manifest = json.loads((img / "manifest.json").read_text())
    assert {t.get("layout", "dense") for t in manifest["tensors"]} == {layout}
    return img, manifest


def damaged(data, damage, position):
    kind, arg = damage
    if kind == "truncate":
        return data[:max(0, len(data) - arg)]
    if kind == "extend":
        return data + bytes(range(1, arg + 1))
    at = 4 * (position % (len(data) // 4))
    return data[:at] + struct.pack("<f", arg) + data[at + 4:]


@FUZZ
@given(st.sampled_from(TENSOR_NAMES), st.sampled_from(["dense", "sparse"]), DAMAGE,
       st.integers(0, 2**20))
def test_damaged_tensor_bytes_never_raise(name, layout, damage, position):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        img, _ = container(tmp, layout)
        data = damaged(tensor_bytes(img, name), damage, position)
        rewrite_tensor(img, name, data, cut=damage[0] == "truncate")
        code = run_cli("decode", "--maps", tmp / "maps", "--out", tmp / "dets.json")
        if damage[0] != "overwrite" or not math.isfinite(damage[1]) or name.startswith("hm"):
            assert code == 2  # a size, a non-finite value, a heatmap outside [0, 1] or an index


@FUZZ
@given(st.sampled_from(TENSOR_NAMES), INDEX_DAMAGE, st.integers(0, 2**20))
def test_damaged_sparse_indices_never_raise(name, damage, position):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        img, manifest = container(tmp, "sparse")
        entry = next(t for t in manifest["tensors"] if t["name"] == name)
        count, cells = entry["count"], math.prod(entry["shape"])
        data = tensor_bytes(img, name)
        indices = np.frombuffer(data[:4 * count], "<u4").copy()
        kind, arg = damage
        i = position % (count - 1)  # a neighbour pair (i, i + 1) for repeat and swap
        if kind == "past-end":
            indices[position % count] = min(cells + arg, 2**32 - 1)
        elif kind == "repeat":
            indices[i + 1] = indices[i]
        elif kind == "swap":
            indices[[i, i + 1]] = indices[[i + 1, i]]
        else:
            entry["count"] = count + arg
        rewrite_tensor(img, name, indices.tobytes() + data[4 * count:])
        write_json(img / "manifest.json", manifest)
        assert run_cli("decode", "--maps", tmp / "maps", "--out", tmp / "dets.json") == 2


# How a container's shared data file is damaged at any byte: some bytes cut
# out, put in, or cut off its end, each of which leaves some extent where
# its file does not, or some bytes overwritten, which may leave valid values.
FILE_DAMAGE = st.tuples(
    st.sampled_from(["cut", "insert", "truncate", "overwrite"]), st.integers(0, 2**20),
    st.binary(min_size=1, max_size=16),
)


@FUZZ
@given(FILE_DAMAGE, st.sampled_from([4, 32]))
def test_damaged_data_file_never_raises(damage, stride):
    # Stride 4 stores every tensor sparse; at 32 the 2 x 2 grid stores some dense.
    kind, position, junk = damage
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gt = write_json(tmp / "gt.json", SCENE)
        assert run_cli("encode", "--gt", gt, "--out", tmp / "maps", "--stride", stride) == 0
        path = tmp / "maps" / "img" / DATA_FILE
        data = path.read_bytes()
        at = position % len(data)
        cut = {"cut": len(junk), "insert": 0, "truncate": len(data), "overwrite": len(junk)}[kind]
        put = b"" if kind in ("cut", "truncate") else junk
        path.write_bytes(data[:at] + put + data[at + cut:])
        code = run_cli("decode", "--maps", tmp / "maps", "--out", tmp / "dets.json")
        if path.stat().st_size != len(data):
            assert code == 2  # the size rule


# Label coordinates: ordinary ones (at most five windows per axis), and
# values that are huge, non-finite, or overflow float() to inf. Every huge
# positive one needs more than MAX_AXIS_WINDOWS windows, so no example
# lays out a large tile set.
COORD = st.one_of(
    st.floats(-50.0, 3000.0).map(str),
    st.sampled_from(["1e9", "-1e9", "1e15", "1e308", "-1e308", "1.7976931348623157e308",
                     "1e999", "inf", "-inf", "nan", "x"]),
)
CORNERS = st.lists(COORD, min_size=7, max_size=9)  # one short or long now and then
DOTA_LINE = st.tuples(
    CORNERS, st.sampled_from(["plane", "ship", "vehicle-ish"]), st.sampled_from(["0", "1", "2"]),
).map(lambda t: " ".join([*t[0], t[1], t[2]]))
ICDAR_LINE = st.tuples(CORNERS, st.sampled_from(["word", "###", "a,b", ""])).map(
    lambda t: ",".join([*t[0], t[1]])
)


@FUZZ
@given(st.lists(DOTA_LINE, min_size=1, max_size=4), st.lists(ICDAR_LINE, min_size=1, max_size=4),
       st.booleans())
def test_label_text_through_tile_never_raises(dota, icdar, strict):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        labels = tmp / "labels"
        labels.mkdir()
        (labels / "P0000.txt").write_text("\n".join(["gsd:0.15", *dota]), encoding="utf-8")
        (labels / "gt_img.txt").write_text("\n".join(icdar), encoding="utf-8")
        run_cli("tile", "--input", labels, "--out", tmp / "tiles", *(["--strict"] if strict else []))

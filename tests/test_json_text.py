"""The tile and detection JSON writers format records straight from table
columns. Their text must be exactly what json.dumps(payload, indent=2,
sort_keys=True) + "\\n" writes for the same records, which each test here
builds from the same columns as plain dicts.
"""

import json

import numpy as np
import pytest

from midlines.cli import _detections_json, main
from midlines.decoder import Detections
from midlines.encoder import encode_image
from midlines.container import write_maps
from midlines.geometry import Boxes
from midlines.ingest import AnnotatedImage, images_to_json

# Names json escapes: non-ASCII (one past the BMP), a quote, a backslash,
# control characters, and a % that a template must not read.
NAMES = ("plane", 'say "hi"', "back\\slash", "tab\tnew\nline\x01\x7f", "é☃\U0001F600", "100%s")
# Corners json prints by float.__repr__: signed zero, the smallest
# subnormal, the first float where repr turns to exponent form, a large
# exponent, and integral floats.
CORNERS = [
    [-0.0, 5e-324, 1e16, 1e22, 100.0, 3.0, 0.1, 2.5],
    [1e-7, 123456789.125, 0.0, -1.5, 1e300, 7.0, 1.0 / 3.0, 64.0],
]


def dumped(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table(corners, class_id, score=None, difficult=None):
    corners = np.array(corners, dtype=np.float64).reshape(-1, 4, 2)
    n = len(corners)
    score = np.ones(n) if score is None else np.array(score, dtype=np.float64)
    difficult = np.zeros(n, dtype=bool) if difficult is None else np.array(difficult, dtype=bool)
    return Boxes(corners, np.array(class_id, dtype=np.int64), score, difficult)


def gt_record(img):
    boxes = img.objects
    return {
        "image_id": img.image_id, "width": img.width, "height": img.height,
        "objects": [
            {"class": img.class_names[c], "corners": xy, "difficult": d}
            for c, xy, d in zip(boxes.class_id.tolist(), boxes.corners.reshape(-1, 8).tolist(),
                                boxes.difficult.tolist())
        ],
    }


# --- ground truth -----------------------------------------------------------------


def test_gt_text_is_json_dumps_for_escaped_names_and_edge_floats():
    boxes = table(CORNERS, [3, 4], difficult=[True, False])
    images = [
        AnnotatedImage(name, 800, 600, boxes, NAMES) for name in NAMES
    ] + [AnnotatedImage("float-size", 50.0, 32.0, table(CORNERS[:1], [5]), NAMES)]
    text = images_to_json(images)
    assert text == dumped([gt_record(img) for img in images])
    assert "\\u00e9\\u2603\\ud83d\\ude00" in text and '"width": 50.0' in text


def test_gt_text_of_a_tile_with_no_objects():
    img = AnnotatedImage("P1__0_0", 800, 800, table([], []), NAMES)
    text = images_to_json([img])
    assert text == dumped([gt_record(img)])
    assert '"objects": [],' in text


def test_gt_text_of_no_images():
    assert images_to_json([]) == dumped([]) == "[]\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_gt_text_of_a_non_finite_corner_raises(value):
    corners = [list(CORNERS[0]), list(CORNERS[1])]
    corners[1][5] = value
    with pytest.raises(ValueError, match="not finite"):
        images_to_json([AnnotatedImage("z", 10, 10, table(corners, [0, 0]), NAMES)])


# --- detections -------------------------------------------------------------------


def detections(corners, class_id, score, branch):
    boxes = table(corners, class_id, score)
    return Detections(boxes.corners, boxes.class_id, boxes.score, boxes.difficult, np.array(branch))


def det_records(dets, image_id):
    records = []
    for c, xy, s, b in zip(dets.class_id.tolist(), dets.corners.reshape(-1, 8).tolist(),
                           dets.score.tolist(), (dets.branch + 1).tolist()):
        record = {"class": NAMES[c], "score": s, "corners": xy, "branch": b}
        if image_id is not None:
            record["image_id"] = image_id
        records.append(record)
    return records


@pytest.mark.parametrize("image_id", [None, "P1__0_0", 'q"\\\t\x02é☃%d'])
def test_detection_text_is_json_dumps_for_escaped_names_and_edge_floats(image_id):
    dets = detections(CORNERS, [1, 5], [-0.0, 5e-324], [0, 1])
    text = "[\n" + ",\n".join(_detections_json(dets, NAMES, image_id)) + "\n]\n"
    assert text == dumped(det_records(dets, image_id))


@pytest.mark.parametrize("column", ["corners", "score"])
def test_detection_text_of_a_non_finite_value_raises(column):
    corners, score = [list(CORNERS[0])], [0.5]
    if column == "corners":
        corners[0][2] = np.nan
    else:
        score[0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        _detections_json(detections(corners, [0], score, [0]), NAMES, None)


@pytest.mark.parametrize("layout", ["single", "directory"])
def test_decode_of_no_detections_writes_an_empty_array(tmp_path, capsys, layout):
    write_maps(encode_image([], 64, 64, num_classes=1), tmp_path / "maps" / "a", ["plane"])
    maps = tmp_path / "maps" / ("a" if layout == "single" else "")
    assert main(["decode", "--maps", str(maps), "--out", str(tmp_path / "d.json")]) == 0
    assert "detections=0" in capsys.readouterr().out
    assert (tmp_path / "d.json").read_text(encoding="utf-8") == dumped([])


def test_decode_directory_text_is_json_dumps_of_its_records(tmp_path, capsys):
    # Two containers whose names json escapes; one lights no cell.
    plane = {"class": "plane", "corners": [100, 80, 160, 80, 160, 120, 100, 120]}
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps([
        {"image_id": 'a"b\\c\té☃', "width": 256, "height": 256, "objects": [plane, dict(plane, corners=[
            150, 150, 230, 180, 210, 234, 130, 204])]},
        {"image_id": "empty", "width": 64, "height": 64, "objects": []},
    ]), encoding="utf-8")
    assert main(["encode", "--gt", str(gt), "--out", str(tmp_path / "maps")]) == 0
    assert main(["decode", "--maps", str(tmp_path / "maps"), "--out", str(tmp_path / "d.json")]) == 0
    capsys.readouterr()
    text = (tmp_path / "d.json").read_text(encoding="utf-8")
    records = json.loads(text)
    assert len(records) == 2 and {r["image_id"] for r in records} == {'a"b\\c\té☃'}
    assert text == dumped(records)

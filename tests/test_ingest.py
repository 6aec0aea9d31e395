import functools
import json
import logging
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from midlines.errors import AllLinesMalformed, EmptyFile, UnknownClass
from midlines.geometry import OrientedBox, Point2, rectangle
from midlines.ingest import (
    DOTA_CLASS_NAMES,
    ICDAR_CLASS_NAMES,
    MAX_AXIS_WINDOWS,
    AnnotatedImage,
    TileSpec,
    _axis_origins,
    images_from_json,
    images_to_json,
    infer_vocabulary,
    load_ground_truth,
    parse_dota,
    parse_icdar,
    tile_image,
)

DOTA_LINE = "100 80 130 80 130 120 100 120 plane 0"


# --- parse_dota -------------------------------------------------------------------


def test_dota_basic_line():
    img, warnings = parse_dota(DOTA_LINE, image_id="P0001")
    assert warnings == []
    assert img.image_id == "P0001"
    assert img.class_names == DOTA_CLASS_NAMES
    (box,) = img.objects
    assert box.class_id == DOTA_CLASS_NAMES.index("plane")
    assert not box.difficult
    assert box.corner_array() == [100, 80, 130, 80, 130, 120, 100, 120]


def test_dota_headers_skipped_silently():
    text = "imagesource:GoogleEarth\ngsd:0.146343590398\n" + DOTA_LINE
    img, warnings = parse_dota(text)
    assert warnings == []
    assert len(img.objects) == 1


def test_dota_difficult_flag():
    img, _ = parse_dota(DOTA_LINE.replace("plane 0", "plane 1"))
    assert img.objects[0].difficult


def test_dota_short_line_warns_and_skips():
    text = DOTA_LINE + "\n" + "1 2 3 4 5 6 7 plane 0"
    img, warnings = parse_dota(text)
    assert len(img.objects) == 1
    assert len(warnings) == 1
    assert "10 fields" in warnings[0]
    assert "line 2" in warnings[0]


def test_dota_bad_coordinate_and_flag_warn():
    text = "a b c d e f g h plane 0\n" + DOTA_LINE.replace(" 0", " 2")
    img, warnings = parse_dota(text + "\n" + DOTA_LINE)
    assert len(img.objects) == 1
    assert "unparseable coordinates" in warnings[0]
    assert "difficult flag" in warnings[1]


def test_dota_unknown_category_is_skipped_not_structural():
    text = DOTA_LINE.replace("plane", "zeppelin")
    img, warnings = parse_dota(text)  # must not raise AllLinesMalformed
    assert len(img.objects) == 0
    assert "zeppelin" in warnings[0]


def test_dota_all_lines_malformed_raises():
    with pytest.raises(AllLinesMalformed):
        parse_dota("1 2 3\nnot even close")
    # Unparseable coordinates and a bad difficult flag are malformed too.
    with pytest.raises(AllLinesMalformed):
        parse_dota("a b c d e f g h plane 0\n" + DOTA_LINE.replace(" 0", " 2"))


def test_dota_empty_file_strict_only():
    img, warnings = parse_dota("imagesource:x\n\n")
    assert len(img.objects) == 0 and warnings == []
    with pytest.raises(EmptyFile):
        parse_dota("", strict=True)


def test_dota_clamps_to_given_dimensions():
    text = "-10 -5 40 -5 40 30 -10 30 plane 0"
    img, _ = parse_dota(text, width=35, height=25)
    assert img.objects[0].corner_array() == [0, 0, 35, 0, 35, 25, 0, 25]
    assert (img.width, img.height) == (35, 25)


def test_dota_infers_extent_without_dimensions():
    img, _ = parse_dota(DOTA_LINE)
    assert (img.width, img.height) == (130, 120)


# --- parse_icdar ------------------------------------------------------------------


def test_icdar_basic_line():
    img, warnings = parse_icdar("10,10,50,12,49,30,9,28,hello", image_id="img_1")
    assert warnings == []
    assert img.class_names == ICDAR_CLASS_NAMES
    (box,) = img.objects
    assert box.class_id == 0
    assert not box.difficult
    assert box.corner_array() == [10, 10, 50, 12, 49, 30, 9, 28]


def test_icdar_hash_marks_difficult():
    img, _ = parse_icdar("10,10,50,12,49,30,9,28,###")
    assert img.objects[0].difficult


def test_icdar_transcription_may_contain_commas():
    img, warnings = parse_icdar("10,10,50,12,49,30,9,28,one, two, three")
    assert warnings == []
    assert len(img.objects) == 1
    assert not img.objects[0].difficult


def test_icdar_byte_order_mark_tolerated():
    img, warnings = parse_icdar("﻿10,10,50,12,49,30,9,28,word")
    assert warnings == []
    assert len(img.objects) == 1


def test_icdar_non_convex_quad_skipped():
    img, warnings = parse_icdar("0,0,10,1,3,2,10,10,word")
    assert len(img.objects) == 0
    assert "non-convex" in warnings[0]


def test_icdar_structural_failures():
    with pytest.raises(AllLinesMalformed):
        parse_icdar("1,2,3\nalso,not,enough")
    with pytest.raises(AllLinesMalformed):
        parse_icdar("a,b,c,d,e,f,g,h,word")
    with pytest.raises(EmptyFile):
        parse_icdar("\n\n", strict=True)
    img, _ = parse_icdar("")
    assert len(img.objects) == 0


# --- tiling -----------------------------------------------------------------------


def test_four_tiles_for_1400_square():
    img = AnnotatedImage("P1", 1400, 1400, [rectangle(900, 300, 40, 20, 30)])
    tiles = tile_image(img, TileSpec(window=800, overlap=0.25))
    assert [t.image_id for t in tiles] == [
        "P1__0_0", "P1__600_0", "P1__0_600", "P1__600_600",
    ]
    assert all((t.width, t.height) == (800, 800) for t in tiles)
    by_id = {t.image_id: t for t in tiles}
    # Centroid (900, 300) sits only in the window starting at x=600.
    assert [len(t.objects) for t in tiles] == [0, 1, 0, 0]
    (moved,) = by_id["P1__600_0"].objects
    cx = sum(p.x for p in moved.corners) / 4
    cy = sum(p.y for p in moved.corners) / 4
    assert (cx, cy) == pytest.approx((300, 300))


def test_overlap_band_centroid_lands_in_both_tiles():
    img = AnnotatedImage("P1", 1400, 100, [rectangle(700, 50, 40, 20)])
    tiles = tile_image(img, TileSpec(window=800, overlap=0.25))
    assert [len(t.objects) for t in tiles] == [1, 1]


def test_membership_interval_is_half_open():
    # Centroid exactly at x=800 is outside [0, 800) but inside [600, 1400).
    img = AnnotatedImage("P1", 1400, 100, [rectangle(800, 50, 40, 20)])
    tiles = tile_image(img, TileSpec(window=800, overlap=0.25))
    assert [len(t.objects) for t in tiles] == [0, 1]


def test_last_window_clamps_to_edge():
    img = AnnotatedImage("P1", 1000, 1900, [])
    tiles = tile_image(img, TileSpec(window=800, overlap=0.25))
    xs = sorted({t.image_id.split("__")[1].split("_")[0] for t in tiles})
    ys = sorted({t.image_id.split("__")[1].split("_")[1] for t in tiles}, key=int)
    assert xs == ["0", "200"]
    assert ys == ["0", "600", "1100"]
    assert len(tiles) == 6


def test_small_image_is_one_tile():
    img = AnnotatedImage("P1", 700, 500, [rectangle(650, 450, 30, 14, 45)])
    (tile,) = tile_image(img, TileSpec(window=800, overlap=0.25))
    assert tile.image_id == "P1__0_0"
    assert (tile.width, tile.height) == (700, 500)
    assert len(tile.objects) == 1


def test_translation_is_exact_for_interior_objects():
    box = rectangle(1000.25, 900.5, 48, 20, 30)
    img = AnnotatedImage("P1", 1400, 1400, [box])
    tiles = {t.image_id: t for t in tile_image(img, TileSpec(800, 0.25))}
    (moved,) = tiles["P1__600_600"].objects
    for p, q in zip(moved.corners, box.corners):
        assert p.x + 600 == q.x
        assert p.y + 600 == q.y


def test_straddling_corners_clamp_to_tile():
    img = AnnotatedImage("P1", 700, 700, [rectangle(690, 100, 40, 20)])
    (tile,) = tile_image(img, TileSpec(window=800, overlap=0.25))
    (moved,) = tile.objects
    assert max(p.x for p in moved.corners) == 700.0


def test_box_collapsed_by_clamping_is_dropped(caplog):
    # Window reaches past the declared extent: the centroid test passes but
    # every corner clamps onto the image edge.
    img = AnnotatedImage("P1", 700, 700, [rectangle(725, 100, 30, 20)])
    with caplog.at_level(logging.WARNING, logger="midlines.ingest"):
        (tile,) = tile_image(img, TileSpec(window=800, overlap=0.25))
    assert len(tile.objects) == 0
    assert "clamping" in caplog.text


def scalar_tiles(img, objects, spec):
    """Each tile's boxes and its count of dropped boxes, box by box: the rule
    tile_image states, written out for one OrientedBox at a time."""
    out = []
    for oy in _axis_origins(img.height, spec.window, spec.step):
        for ox in _axis_origins(img.width, spec.window, spec.step):
            tile_w = int(round(min(spec.window, img.width - ox)))
            tile_h = int(round(min(spec.window, img.height - oy)))
            kept, dropped = [], 0
            for box in objects:
                # Python's sum before 3.12: left to right, from 0.
                cx = functools.reduce(operator.add, (p.x for p in box.corners), 0) / 4.0
                cy = functools.reduce(operator.add, (p.y for p in box.corners), 0) / 4.0
                if not (ox <= cx < ox + spec.window and oy <= cy < oy + spec.window):
                    continue
                moved = [
                    Point2(min(max(p.x - ox, 0.0), float(tile_w)), min(max(p.y - oy, 0.0), float(tile_h)))
                    for p in box.corners
                ]
                try:
                    kept.append(OrientedBox(tuple(moved), box.class_id, box.score, box.difficult))
                except ValueError:
                    dropped += 1
            out.append(((tile_w, tile_h), kept, dropped))
    return out


# Coordinates on a coarse grid hit window edges, image edges and -0.0 exactly.
COORD = st.one_of(
    st.sampled_from([-0.0, 0.0]), st.integers(-30, 230).map(float), st.floats(-30.0, 230.0),
)


@st.composite
def tiling_scene(draw):
    boxes = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            (x0, x1), (y0, y1) = sorted(draw(st.tuples(COORD, COORD))), sorted(draw(st.tuples(COORD, COORD)))
            corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
            if draw(st.booleans()):
                corners.reverse()  # clockwise: OrientedBox reorders it
            try:
                box = OrientedBox(tuple(Point2(x, y) for x, y in corners), class_id=draw(st.integers(0, 14)))
            except ValueError:
                continue
        else:
            box = rectangle(
                draw(COORD), draw(COORD), draw(st.floats(0.5, 80.0)), draw(st.floats(0.5, 80.0)),
                draw(st.floats(0.0, 180.0)), class_id=draw(st.integers(0, 14)),
                score=draw(st.floats(0.0, 1.0)), difficult=draw(st.booleans()),
            )
        boxes.append(box)
    return draw(st.integers(1, 200)), draw(st.integers(1, 200)), boxes


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(tiling_scene(), st.integers(16, 120), st.sampled_from([0.0, 0.25, 0.5]))
def test_tiles_hold_the_boxes_the_scalar_rule_gives(scene, window, overlap):
    width, height, boxes = scene
    img = AnnotatedImage("s", width, height, boxes)
    spec = TileSpec(window, overlap)
    handler = logging.Handler()
    warned = []
    handler.emit = warned.append
    logger = logging.getLogger("midlines.ingest")
    logger.addHandler(handler)
    try:
        tiles = tile_image(img, spec)
    finally:
        logger.removeHandler(handler)
    expected = scalar_tiles(img, boxes, spec)
    assert len(tiles) == len(expected)
    for tile, ((tile_w, tile_h), kept, _) in zip(tiles, expected):
        assert (tile.width, tile.height) == (tile_w, tile_h)
        corners = np.array([[(p.x, p.y) for p in box.corners] for box in kept]).reshape(-1, 4, 2)
        assert tile.objects.corners.tobytes() == corners.tobytes()  # bit for bit, -0.0 included
        assert [(b.class_id, b.score, b.difficult) for b in tile.objects] == [
            (b.class_id, b.score, b.difficult) for b in kept
        ]
    assert len(warned) == sum(dropped for *_, dropped in expected)


def test_tile_spec_validation():
    with pytest.raises(ValueError):
        TileSpec(window=0)
    with pytest.raises(ValueError):
        TileSpec(overlap=1.0)
    for window in (10**400, math.inf, math.nan):
        with pytest.raises(ValueError, match="window must give a finite step"):
            TileSpec(window=window)
    assert TileSpec(window=800, overlap=0.25).step == 600.0


@pytest.mark.parametrize("window", [1, 3, 800, 1024])
@pytest.mark.parametrize("overlap", [0.0, 0.25, 1 / 3, 0.5, 0.9])
def test_axis_origins_cover_the_axis_in_increasing_order(window, overlap):
    step = TileSpec(window, overlap).step
    for dim in (1, 2, 7, 799, 800, 801, 1023, 1400, 1401, 5000, 10007):
        origins = _axis_origins(dim, window, step)
        assert origins[0] == 0.0
        assert all(a < b <= a + step for a, b in zip(origins, origins[1:])), (dim, origins)
        assert origins[-1] + window >= dim
        assert all(o + window < dim for o in origins[:-1])


def test_tile_image_refuses_an_axis_beyond_the_window_limit():
    step = TileSpec(800, 0.25).step
    at_limit = int(step) * (MAX_AXIS_WINDOWS - 1) + 800
    assert len(_axis_origins(at_limit, 800, step)) == MAX_AXIS_WINDOWS
    img = AnnotatedImage("tall", 10, at_limit + 1)
    with pytest.raises(ValueError, match=f"^y axis of .* needs {MAX_AXIS_WINDOWS + 1} windows"):
        tile_image(img, TileSpec(800, 0.25))


# --- normalized JSON --------------------------------------------------------------


def test_json_round_trip(tmp_path):
    img, _ = parse_dota(DOTA_LINE + "\n30 0 60 0 60 20 30 20 ship 1", image_id="P9")
    text = images_to_json(tile_image(img, TileSpec(800, 0.25)))
    payload = json.loads(text)
    path = tmp_path / "gt.json"
    path.write_text(text, encoding="utf-8")
    restored = load_ground_truth(path)
    assert [r.image_id for r in restored] == [t["image_id"] for t in payload]
    for entry, image in zip(payload, restored):
        assert image.class_names == DOTA_CLASS_NAMES
        assert [
            {
                "class": image.class_names[b.class_id],
                "corners": b.corner_array(),
                "difficult": b.difficult,
            }
            for b in image.objects
        ] == entry["objects"]


def test_json_schema_fields():
    img, _ = parse_icdar("10,10,50,12,49,30,9,28,###", image_id="t1")
    (payload,) = json.loads(images_to_json([img]))
    assert payload == {
        "image_id": "t1",
        "width": 50,
        "height": 30,
        "objects": [
            {
                "class": "text",
                "corners": [10, 10, 50, 12, 49, 30, 9, 28],
                "difficult": True,
            }
        ],
    }


def test_vocabulary_inference():
    assert infer_vocabulary({"ship", "plane"}) == list(DOTA_CLASS_NAMES)
    assert infer_vocabulary({"text"}) == ["text"]
    assert infer_vocabulary({"zebra", "aardvark"}) == ["aardvark", "zebra"]
    assert infer_vocabulary(set()) == list(DOTA_CLASS_NAMES)


def test_json_with_explicit_vocabulary():
    data = [
        {
            "image_id": "a",
            "width": 100,
            "height": 100,
            "objects": [{"class": "car", "corners": [0, 0, 10, 0, 10, 5, 0, 5]}],
        }
    ]
    (img,) = images_from_json(data, class_names=["bus", "car"])
    assert img.objects[0].class_id == 1
    assert not img.objects[0].difficult
    with pytest.raises(UnknownClass):
        images_from_json(data, class_names=["bus"])


def test_integer_corners_load_as_the_floats_they_round_to():
    # Integer corners take the per-object scan rather than the bulk type
    # check; they load to the same float64 columns: -0 is the integer 0,
    # and 2**53 + 1 rounds to 2**53.
    big = 2**53
    written = [[-0, 0, big + 1, 0, big + 1, 4, -0, 4], [10, 10, 50, 12, 49, 30, 9, 28]]
    held = [[0.0, 0.0, float(big), 0.0, float(big), 4.0, 0.0, 4.0], [10.0, 10.0, 50.0, 12.0, 49.0, 30.0, 9.0, 28.0]]
    text = json.dumps([{"image_id": "a", "width": 100, "height": 100, "objects": [
        {"class": "plane", "corners": xy, "difficult": d} for xy, d in zip(written, (False, True))
    ]}]).replace("[0, 0,", "[-0, 0,").replace(", 0, 4]", ", -0, 4]")
    assert "-0" in text
    (img,) = images_from_json(json.loads(text))
    (plain,) = images_from_json([{"image_id": "a", "width": 100, "height": 100, "objects": [
        {"class": "plane", "corners": xy, "difficult": d} for xy, d in zip(held, (False, True))
    ]}])
    for column in ("corners", "class_id", "score", "difficult"):
        assert getattr(img.objects, column).tobytes() == getattr(plain.objects, column).tobytes(), column
    assert img.objects.corners.reshape(-1, 8).tolist() == held
    assert not np.signbit(img.objects.corners).any()


def test_json_must_be_an_array():
    with pytest.raises(ValueError):
        images_from_json({"image_id": "a"})

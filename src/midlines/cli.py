"""Command-line pipeline around the library: tile, encode, decode,
roundtrip, gradcheck, eval.

Each subparser holds its flags' defaults and its handler, and a handler
reads the parsed flags directly. Before any handler runs, main checks the
numeric flags a subcommand has against FLAG_RANGES, in that table's order;
the first one out of range prints one error= line and exits 1, before any
file is read.

Output is line-oriented key=value logging plus the JSON files each
subcommand writes; given the same inputs and seed, every written file is
byte-identical between runs. Every JSON file holds the text that
json.dumps(payload, indent=2, sort_keys=True) + "\\n" gives; tile and
decode format theirs straight from table columns, since json's indented
encoder runs in pure Python. Ground truth and detections load through
ingest.images_from_json and ingest.detections_by_image, which type-check
all records of a load in one pass and build one box table from them.
eval exits 1 when a detection names an image the ground truth does not
hold. An OSError a handler does not catch, such as an output path that
cannot be written, ends in one error= line and exit 2, printed after the
lines the handler logged before it. eval and roundtrip score their
rotated IoUs in one rotated_iou_pairs call per command.
Per-file work runs in input order in the calling thread: a --jobs 2 thread
pool made the CLI chain a third slower (280 against 204 ms a pass on 2
vCPUs), as its threads handed the GIL over at each short numpy call.
--jobs is still parsed and range-checked, for existing command lines.
tile, encode and roundtrip log a file or image that fails as file=<name>
or image=<id> error=... and go on with the others; an error no handler
catches stops the command at that file, after the files before it.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .container import read_maps, write_maps
from .decoder import DEFAULT_MERGE_IOU, DEFAULT_THRESHOLD, Detections, decode
from .encoder import DEFAULT_DRIFT_R, DEFAULT_STRIDE, TargetMaps, encode_image
from .errors import MidlinesError, UnknownClass
from .evaluation import (  # noqa: F401 - perfbench's trace mode wraps cli.rotated_iou
    evaluate,
    may_overlap,
    rotated_iou,
    rotated_iou_pairs,
)
from .geometry import (  # noqa: F401 - perfbench's trace mode wraps cli.box_to_midlines
    BRANCH_HIGH_DEG,
    BRANCH_LOW_DEG,
    box_to_midlines,
    midline_arrays,
)
from .gradcheck import DEFAULT_STEP, DEFAULT_TOLERANCE, run_gradchecks
from .ingest import (
    AnnotatedImage,
    TileSpec,
    detections_by_image,
    images_from_json,
    images_to_json,
    json_array,
    log as ingest_log,
    parse_dota,
    parse_icdar,
    read_ground_truth,
    tile_image,
)

OK = 0
VALIDATION_ERROR = 1
IO_ERROR = 2


# Every numeric range the CLI checks, in the order main checks them: the
# flag dests a rule reads, the test their values must pass, and the error
# text. A subcommand is held to every rule whose dests its parser defines.
FLAG_RANGES: tuple[tuple[tuple[str, ...], Callable[..., bool], str], ...] = (
    (("threshold",), lambda v: 0.0 < v < 1.0, "threshold must be in (0, 1), got {}"),
    (("branch_low", "branch_high"), lambda lo, hi: lo < hi, "branch window empty: [{}, {}]"),
    (("stride",), lambda v: v >= 1, "stride must be >= 1, got {}"),
    (("drift_r",), lambda v: v > 0.0, "drift_r must be > 0, got {}"),
    (("merge_iou",), lambda v: 0.0 <= v <= 1.0, "merge-iou must be in [0, 1], got {}"),
    (("bar",), lambda v: 0.0 <= v <= 1.0, "bar must be in [0, 1], got {}"),
    (("iou",), lambda v: 0.0 < v <= 1.0, "iou must be in (0, 1], got {}"),
    (("jobs",), lambda v: v >= 1, "jobs must be >= 1, got {}"),
)


def _range_error(args: argparse.Namespace) -> str | None:
    """The first FLAG_RANGES rule the parsed flags break, as its error text."""
    flags = vars(args)
    for dests, ok, message in FLAG_RANGES:
        if all(d in flags for d in dests):
            values = [flags[d] for d in dests]
            if not ok(*values):
                return message.format(*values)
    return None


@dataclass
class CommandResult:
    """Exit code (0 ok, 1 validation, 2 I/O) plus the log lines to print."""

    exit_code: int = OK
    messages: list[str] = field(default_factory=list)

    def log(self, **fields) -> None:
        self.messages.append(" ".join(f"{k}={v}" for k, v in fields.items()))

    def fail(self, code: int, **fields) -> None:
        self.exit_code = max(self.exit_code, code)
        self.log(**fields)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_gt_images(
    result: CommandResult, path: Path, class_names: Sequence[str] | None
) -> list[AnnotatedImage] | None:
    """Normalized ground-truth JSON from one file or a directory of files.

    On failure the error is logged on result (exit 2 for unreadable JSON,
    1 for content outside the vocabulary or layout) and None comes back.
    """
    try:
        return images_from_json(read_ground_truth(path), class_names)
    except (OSError, json.JSONDecodeError) as err:
        result.fail(IO_ERROR, error=err)
    except (UnknownClass, ValueError) as err:
        result.fail(VALIDATION_ERROR, error=err)
    return None


# perfbench's tracing_patches wraps this with a (work, items, jobs) wrapper.
def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """fn over items in input order, in the calling thread; jobs is not read."""
    return [fn(item) for item in items]


_IMAGE_ERRORS = (MidlinesError, ValueError, OverflowError, MemoryError)


def _map_images(
    result: CommandResult, fn: Callable, items: Sequence, jobs: int, key: str = "image"
) -> list:
    """fn over every image (or label file, for key "file"), in input order,
    keeping the outputs that worked; fn returns no None.

    An item whose fn raises MidlinesError, ValueError for geometry its
    values cannot hold (an edge midpoint that overflows), OverflowError for
    a stride past float range, or MemoryError for maps too large to
    allocate, is logged as image=<id> (or file=<name>) error=... with exit
    1, and the other items still run.
    """
    def guarded(item):
        try:
            return fn(item)
        except _IMAGE_ERRORS as err:
            name = item.name if key == "file" else item.image_id
            result.fail(VALIDATION_ERROR, **{key: name}, error=f"{str(err)!r}")
            return None

    return [out for out in _parallel_map(guarded, items, jobs) if out is not None]


def _encode(img: AnnotatedImage, args: argparse.Namespace) -> TargetMaps:
    return encode_image(
        img.objects, img.width, img.height, len(img.class_names),
        stride=args.stride, r=args.drift_r,
        branch_low=args.branch_low, branch_high=args.branch_high,
    )


# --- tile -------------------------------------------------------------------------


def cmd_tile(args: argparse.Namespace, result: CommandResult) -> None:
    """Parse a directory of annotation files and write one JSON per tile."""
    try:
        spec = TileSpec(window=args.window, overlap=args.overlap)
    except ValueError as err:
        result.fail(VALIDATION_ERROR, error=err)
        return
    root = Path(args.input)
    if not root.is_dir():
        result.fail(IO_ERROR, error=f"not a readable directory: {root}")
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = sorted(root.glob("*.txt"))
    owners: dict[str, str] = {}  # tile id -> the label file that wrote it

    def process(path: Path) -> tuple[int, int, int]:
        text = path.read_text(encoding="utf-8")
        if args.format == "icdar" or (args.format == "auto" and path.name.startswith("gt_")):
            image_id = path.stem.removeprefix("gt_")
            img, warnings = parse_icdar(text, image_id=image_id, strict=args.strict)
        else:
            img, warnings = parse_dota(text, image_id=path.stem, strict=args.strict)
        # tile_image logs each box its clamp drops; attached, this handler
        # adds them to the file's warnings and keeps them off stderr.
        dropped = logging.Handler(logging.WARNING)
        dropped.emit = lambda record: warnings.append(record.getMessage())
        ingest_log.addHandler(dropped)
        try:
            tiles = tile_image(img, spec)
        finally:
            ingest_log.removeHandler(dropped)
        # img.txt and gt_img.txt both name image img: the second may not overwrite its tiles.
        clash = next((t.image_id for t in tiles if t.image_id in owners), None)
        if clash is not None:
            raise ValueError(f"tile {clash} is already a tile of {owners[clash]}")
        for line in warnings:
            result.log(file=path.name, warning=f"{line!r}")
        for tile in tiles:
            owners[tile.image_id] = path.name
            _write_text(out / f"{tile.image_id}.json", images_to_json([tile]))
        return len(tiles), sum(len(t.objects) for t in tiles), len(warnings)

    # A ValueError may also be bytes that are not UTF-8, or more windows or tiles than allowed.
    counts = _map_images(result, process, files, args.jobs, key="file")
    n_tiles, n_objects, n_warnings = map(sum, zip((0, 0, 0), *counts))
    result.log(
        images=len(files), tiles=n_tiles, objects=n_objects,
        warnings=n_warnings, out=out,
    )


# --- encode -----------------------------------------------------------------------


def cmd_encode(args: argparse.Namespace, result: CommandResult) -> None:
    """Encode every ground-truth image into a map container directory."""
    images = _load_gt_images(result, Path(args.gt), args.classes)
    if images is None:
        return
    out = Path(args.out)
    provenance = {
        "command": "encode",
        "stride": args.stride,
        "drift_r": args.drift_r,
        "branch_low": args.branch_low,
        "branch_high": args.branch_high,
    }

    def process(img: AnnotatedImage):
        maps = _encode(img, args)
        write_maps(maps, out / img.image_id, img.class_names, provenance=provenance)
        return maps.n_objects

    counts = _map_images(result, process, images, args.jobs)
    result.log(images=len(images), objects=sum(counts), out=out)


# --- decode -----------------------------------------------------------------------


# One detection inside an array of detections, laid out as
# json.dumps(indent=2, sort_keys=True) lays it out; CORNERS stands for
# eight %r lines, and the %s before score is its image_id line or nothing.
_DETECTION_JSON = """\
  {
    "branch": %d,
    "class": %s,
    "corners": [
      CORNERS
    ],
%s    "score": %r
  }""".replace("CORNERS", ",\n      ".join(["%r"] * 8))


def _detections_json(dets: Detections, class_names: Sequence[str], image_id: str | None) -> list[str]:
    """The JSON text of each detection row, read straight from the table's
    columns, with an image_id line when one is given. A table holding a
    non-finite value raises ValueError."""
    if not (np.isfinite(dets.corners).all() and np.isfinite(dets.score).all()):
        raise ValueError("a detection holds a non-finite value")
    names = [encode_basestring_ascii(name) for name in class_names]
    id_line = "" if image_id is None else f'    "image_id": {encode_basestring_ascii(image_id)},\n'
    columns = (
        (dets.branch + 1).tolist(), dets.class_id.tolist(),
        dets.corners.reshape(-1, 8).tolist(), dets.score.tolist(),
    )
    return [
        _DETECTION_JSON % (branch, names[c], *corners, id_line, score)
        for branch, c, corners, score in zip(*columns)
    ]


def cmd_decode(args: argparse.Namespace, result: CommandResult) -> None:
    """Decode one container, or a directory of them, into detections JSON."""
    root = Path(args.maps)
    single = (root / "manifest.json").is_file()
    containers = [root] if single else sorted(
        p.parent for p in root.glob("*/manifest.json")
    )
    if not containers:
        result.fail(IO_ERROR, error=f"no manifest.json under {root}")
        return

    def process(container: Path):
        maps, class_names = read_maps(container)
        stats: dict = {}
        dets = decode(maps, threshold=args.threshold, merge_iou=args.merge_iou, stats=stats)
        records = _detections_json(dets, class_names, None if single else container.name)
        return records, stats["dropped_degenerate"]

    try:
        outputs = _parallel_map(process, containers, args.jobs)
    except (ValueError, OverflowError, MidlinesError) as err:
        # ValueError: malformed JSON, bytes that are not UTF-8, a NUL in a file name.
        # OverflowError: a stride past float range.
        result.fail(IO_ERROR, error=err)
        return
    records = [rec for recs, _ in outputs for rec in recs]
    dropped = sum(d for _, d in outputs)
    _write_text(Path(args.out), json_array(records, "") + "\n")
    result.log(
        containers=len(containers), detections=len(records),
        dropped_degenerate=dropped, out=args.out,
    )


# --- roundtrip --------------------------------------------------------------------


def cmd_roundtrip(args: argparse.Namespace, result: CommandResult) -> None:
    """Encode then decode every image and report per-object fidelity.

    Objects whose shorter side is under two strides cannot survive the
    grid quantization and are tallied separately; the pass bar applies
    only to well-resolved objects. Each image returns its candidate
    pairs, and one rotated_iou_pairs call scores those of every image:
    scored per image, about 32 pairs a call, the array call would lose to
    the one-pair rotated_iou.
    """
    images = _load_gt_images(result, Path(args.gt), None)
    if images is None:
        return

    def process(img: AnnotatedImage):
        dets = decode(_encode(img, args), threshold=args.threshold)
        corners = img.objects.corners
        lines = midline_arrays(corners, args.branch_low, args.branch_high)
        lines.check()
        subres = lines.lengths.min(axis=1) < 2.0 * args.stride
        resolved = corners[~subres]
        candidates = may_overlap(resolved, img.objects.class_id[~subres], dets.corners, dets.class_id)
        rows, cols = np.nonzero(candidates)
        return len(resolved), rows, np.stack((resolved[rows], dets.corners[cols]), axis=1), int(subres.sum())

    outputs = _map_images(result, process, images, args.jobs)
    subres = sum(out[-1] for out in outputs)
    # Every image's candidate pairs in one call. An object's IoU is the
    # max over its pairs in their order, as max() takes it, or 0.0.
    pairs = np.concatenate([np.zeros((0, 2, 4, 2)), *(out[2] for out in outputs)])
    pair_iou = iter(rotated_iou_pairs(pairs[:, 0], pairs[:, 1]).tolist())
    ious: list[float] = []
    for n_objects, rows, _, _ in outputs:
        per_object: list[list[float]] = [[] for _ in range(n_objects)]
        for i in rows.tolist():
            per_object[i].append(next(pair_iou))
        ious.extend(max(p, default=0.0) for p in per_object)
    if not ious:
        # No well-resolved object meets the bar vacuously, but only when
        # some image ran or there was none to run.
        ran = bool(outputs) or not images
        result.log(
            images=len(images), objects=0, sub_resolution=subres,
            status="pass" if ran else "fail", note="vacuous" if ran else "no_image_ran",
        )
        return
    passed = sum(1 for v in ious if v >= 0.99)
    fraction = passed / len(ious)
    status = "pass" if fraction >= args.bar else "fail"
    result.log(
        images=len(images), objects=len(ious), sub_resolution=subres,
        min_iou=f"{min(ious):.6f}", mean_iou=f"{sum(ious) / len(ious):.6f}",
        fraction=f"{fraction:.6f}", bar=args.bar, status=status,
    )
    if status == "fail":
        result.exit_code = VALIDATION_ERROR


# --- gradcheck --------------------------------------------------------------------


def cmd_gradcheck(args: argparse.Namespace, result: CommandResult) -> None:
    """Finite-difference checks for every loss; exit 1 on any failure."""
    try:
        reports = run_gradchecks(
            seed=args.seed, samples=args.samples,
            step=args.step, tolerance=args.tolerance,
        )
    except (ValueError, MidlinesError) as err:
        result.fail(VALIDATION_ERROR, error=err)
        return
    for report in reports:
        result.log(
            loss=report.name,
            max_rel_error=f"{report.max_rel_error:.3e}",
            tolerance=f"{report.tolerance:.1e}",
            components=report.n_components,
            samples=report.samples,
            status="pass" if report.passed else "fail",
        )
    if not all(r.passed for r in reports):
        result.exit_code = VALIDATION_ERROR


# --- eval -------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace, result: CommandResult) -> None:
    """Score a detections file against ground truth; print the table."""
    images = _load_gt_images(result, Path(args.gt), args.classes)
    if images is None:
        return
    class_names = images[0].class_names if images else tuple(args.classes or ())
    try:
        records = json.loads(Path(args.dets).read_text(encoding="utf-8"))
        dets = detections_by_image(records, class_names)
    except (OSError, json.JSONDecodeError) as err:
        result.fail(IO_ERROR, error=err)
        return
    except (UnknownClass, ValueError) as err:
        result.fail(VALIDATION_ERROR, error=err)
        return
    gts = {img.image_id: img.objects for img in images}
    strays = sorted(set(dets) - set(gts))
    if strays:
        result.fail(VALIDATION_ERROR, error=f"detections name images not in the ground truth: {strays}")
        return
    report = evaluate(
        dets, gts, mode=args.mode, iou_threshold=args.iou,
        ap_mode=args.ap_mode, class_names=class_names,
    )
    # Written before the table is logged: a report path that cannot be
    # written ends in one error= line, as every output path does.
    if args.out is not None:
        _write_json(Path(args.out), report.to_json_dict())
    result.messages.append(report.format_table())
    if args.out is not None:
        result.log(out=args.out)


# --- argument parsing ---------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--drift-r", type=float, default=DEFAULT_DRIFT_R)
    p.add_argument("--branch-low", type=float, default=BRANCH_LOW_DEG)
    p.add_argument("--branch-high", type=float, default=BRANCH_HIGH_DEG)


_JOBS_HELP = (
    "kept for existing command lines, at least 1; per-file work runs in input order in the"
    " calling thread, since two threads made the CLI chain about a third slower"
)


def _class_list(text: str) -> list[str] | None:
    """--classes as a vocabulary; an empty value overrides nothing."""
    return text.split(",") if text else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midlines",
        description="Middle-line oriented detection targets: build, verify, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="split annotation files into window tiles")
    p.add_argument("--input", required=True, help="directory of label .txt files")
    p.add_argument("--out", required=True, help="output directory for tile JSON")
    p.add_argument("--window", type=int, default=TileSpec.window)
    p.add_argument("--overlap", type=float, default=TileSpec.overlap)
    p.add_argument("--format", choices=("auto", "dota", "icdar"), default="auto")
    p.add_argument("--strict", action="store_true", help="reject empty label files")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(run=cmd_tile)

    p = sub.add_parser("encode", help="rasterize ground truth into map containers")
    p.add_argument("--gt", required=True, help="normalized ground-truth JSON file or directory")
    p.add_argument("--out", required=True, help="output directory, one container per image")
    p.add_argument("--classes", type=_class_list, help="comma-separated class vocabulary override")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_config_flags(p)
    p.set_defaults(run=cmd_encode)

    p = sub.add_parser("decode", help="read containers back into detections JSON")
    p.add_argument("--maps", required=True, help="container directory, or a directory of containers")
    p.add_argument("--out", required=True, help="detections JSON path")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--merge-iou", type=float, default=DEFAULT_MERGE_IOU)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(run=cmd_decode)

    p = sub.add_parser("roundtrip", help="encode+decode self-test with IoU statistics")
    p.add_argument("--gt", required=True, help="normalized ground-truth JSON file or directory")
    p.add_argument("--bar", type=float, default=0.99, help="required fraction of objects at IoU >= 0.99")
    p.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD, help="decode heatmap threshold"
    )
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_config_flags(p)
    p.set_defaults(run=cmd_roundtrip)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every loss gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(run=cmd_gradcheck)

    p = sub.add_parser("eval", help="score detections JSON against ground truth")
    p.add_argument("--gt", required=True, help="normalized ground-truth JSON file or directory")
    p.add_argument("--dets", required=True, help="detections JSON path")
    p.add_argument("--mode", choices=("map", "text"), default="map")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--ap-mode", choices=("all-point", "11-point"), default="all-point")
    p.add_argument("--out", help="also write the report as JSON")
    p.add_argument("--classes", type=_class_list, help="comma-separated class vocabulary override")
    p.set_defaults(run=cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = CommandResult()
    error = _range_error(args)
    if error:
        result.fail(VALIDATION_ERROR, error=error)
    else:
        try:
            args.run(args, result)
        except OSError as err:  # a file a handler could not read, or an output path it could not write
            # The lines logged before it stand, as do the files written before it.
            result.fail(IO_ERROR, error=err)
    for line in result.messages:
        print(line)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

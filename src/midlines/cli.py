"""Command-line pipeline around the library: tile, encode, decode,
roundtrip, gradcheck, eval.

Output is line-oriented key=value logging plus the JSON files each
subcommand writes; given the same inputs and seed, every written file is
byte-identical between runs. A --jobs flag parallelizes per-file work, but
summaries and outputs always follow input order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .container import read_maps, write_maps
from .decoder import DEFAULT_MERGE_IOU, DEFAULT_THRESHOLD, Detection, decode
from .encoder import DEFAULT_DRIFT_R, DEFAULT_STRIDE, TargetMaps, encode_image
from .errors import MidlinesError, UnknownClass
from .evaluation import evaluate, may_overlap, rotated_iou
from .geometry import (  # noqa: F401 - perfbench's trace mode wraps cli.box_to_midlines
    BRANCH_HIGH_DEG,
    BRANCH_LOW_DEG,
    OrientedBox,
    box_corners,
    box_to_midlines,
    midline_arrays,
)
from .gradcheck import DEFAULT_STEP, DEFAULT_TOLERANCE, run_gradchecks
from .ingest import (
    AnnotatedImage,
    TileSpec,
    image_to_json,
    images_from_json,
    json_box,
    parse_dota,
    parse_icdar,
    require_fields,
    tile_image,
)

OK = 0
VALIDATION_ERROR = 1
IO_ERROR = 2


@dataclass
class RunConfig:
    """Numeric knobs shared by the pipeline subcommands."""

    stride: int = DEFAULT_STRIDE
    drift_r: float = DEFAULT_DRIFT_R
    threshold: float = DEFAULT_THRESHOLD
    branch_low: float = BRANCH_LOW_DEG
    branch_high: float = BRANCH_HIGH_DEG

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if not self.branch_low < self.branch_high:
            raise ValueError(
                f"branch window empty: [{self.branch_low}, {self.branch_high}]"
            )
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not self.drift_r > 0.0:
            raise ValueError(f"drift_r must be > 0, got {self.drift_r}")


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


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_gt_images(
    result: CommandResult, path: Path, class_names: Sequence[str] | None
) -> list[AnnotatedImage] | None:
    """Normalized ground-truth JSON from one file or a directory of files.

    On failure the error is logged on result (exit 2 for unreadable JSON,
    1 for content outside the vocabulary or layout) and None comes back.
    """
    try:
        if path.is_dir():
            data: list = []
            for child in sorted(path.glob("*.json")):
                part = json.loads(child.read_text(encoding="utf-8"))
                if not isinstance(part, list):
                    raise ValueError(f"{child.name}: ground-truth JSON must be an array of images")
                data.extend(part)
        else:
            data = json.loads(path.read_text(encoding="utf-8"))
        return images_from_json(data, class_names)
    except (OSError, json.JSONDecodeError) as err:
        result.fail(IO_ERROR, error=err)
    except (UnknownClass, ValueError) as err:
        result.fail(VALIDATION_ERROR, error=err)
    return None


# One pool per --jobs value, kept for the life of the process. Commands run
# one after another in one process (a test run, a notebook) reuse the same
# worker threads instead of starting fresh ones per command: a fresh thread
# that starts before the last command's workers have fully exited gets a new
# malloc arena of its own, which keeps its freed maps resident and made peak
# memory jump by one decode's working set at random.
_POOLS: dict[int, ThreadPoolExecutor] = {}


def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> Iterable:
    """fn over items in input order; with jobs > 1, on that many pool threads.

    Every item has finished when this returns, also when one raised: the
    first exception in input order is raised after the rest are done.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = _POOLS.setdefault(jobs, ThreadPoolExecutor(max_workers=jobs, thread_name_prefix="midlines"))
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]


def _map_images(
    result: CommandResult, fn: Callable, images: Sequence[AnnotatedImage], jobs: int
) -> list:
    """fn over every image, in input order, keeping the outputs that worked.

    An image whose fn raises MidlinesError, or ValueError for geometry its
    values cannot hold (an edge midpoint that overflows), is logged as
    image=<id> error=... with exit 1, and the other images still run.
    """
    def guarded(img: AnnotatedImage):
        try:
            return fn(img)
        except (MidlinesError, ValueError) as err:
            return err

    outputs = []
    for img, out in zip(images, _parallel_map(guarded, images, jobs)):
        if isinstance(out, (MidlinesError, ValueError)):
            result.fail(VALIDATION_ERROR, image=img.image_id, error=f"{str(out)!r}")
        else:
            outputs.append(out)
    return outputs


def _encode(img: AnnotatedImage, config: RunConfig) -> TargetMaps:
    return encode_image(
        img.objects, img.width, img.height, len(img.class_names),
        stride=config.stride, r=config.drift_r,
        branch_low=config.branch_low, branch_high=config.branch_high,
    )


# --- tile -------------------------------------------------------------------------


def cmd_tile(
    input_dir: str | Path,
    out_dir: str | Path,
    window: int = TileSpec.window,
    overlap: float = TileSpec.overlap,
    fmt: str = "auto",
    strict: bool = False,
    jobs: int = 1,
) -> CommandResult:
    """Parse a directory of annotation files and write one JSON per tile."""
    result = CommandResult()
    try:
        spec = TileSpec(window=window, overlap=overlap)
    except ValueError as err:
        result.fail(VALIDATION_ERROR, error=err)
        return result
    root = Path(input_dir)
    if not root.is_dir():
        result.fail(IO_ERROR, error=f"not a readable directory: {root}")
        return result
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = sorted(root.glob("*.txt"))

    def process(path: Path):
        try:
            text = path.read_text(encoding="utf-8")
            if fmt == "icdar" or (fmt == "auto" and path.name.startswith("gt_")):
                image_id = path.stem.removeprefix("gt_")
                img, warnings = parse_icdar(text, image_id=image_id, strict=strict)
            else:
                img, warnings = parse_dota(text, image_id=path.stem, strict=strict)
        except (MidlinesError, UnicodeDecodeError) as err:
            return None, [str(err)], []
        return img, warnings, tile_image(img, spec)

    n_tiles = n_objects = n_warnings = 0
    try:
        outputs = _parallel_map(process, files, jobs)
    except OSError as err:
        result.fail(IO_ERROR, error=err)
        return result
    for path, (img, warnings, tiles) in zip(files, outputs):
        if img is None:
            result.fail(VALIDATION_ERROR, file=path.name, error=f"{warnings[0]!r}")
            continue
        for line in warnings:
            result.log(file=path.name, warning=f"{line!r}")
        for tile in tiles:
            _write_json(out / f"{tile.image_id}.json", [image_to_json(tile)])
        n_tiles += len(tiles)
        n_objects += sum(len(t.objects) for t in tiles)
        n_warnings += len(warnings)
    result.log(
        images=len(files), tiles=n_tiles, objects=n_objects,
        warnings=n_warnings, out=out,
    )
    return result


# --- encode -----------------------------------------------------------------------


def cmd_encode(
    gt_json: str | Path,
    out_dir: str | Path,
    config: RunConfig,
    classes: Sequence[str] | None = None,
    jobs: int = 1,
) -> CommandResult:
    """Encode every ground-truth image into a map container directory."""
    result = CommandResult()
    images = _load_gt_images(result, Path(gt_json), classes)
    if images is None:
        return result
    out = Path(out_dir)
    provenance = {
        "command": "encode",
        "stride": config.stride,
        "drift_r": config.drift_r,
        "branch_low": config.branch_low,
        "branch_high": config.branch_high,
    }

    def process(img: AnnotatedImage):
        maps = _encode(img, config)
        write_maps(maps, out / img.image_id, img.class_names, provenance=provenance)
        return maps.n_objects

    try:
        counts = _map_images(result, process, images, jobs)
    except OSError as err:
        result.fail(IO_ERROR, error=err)
        return result
    result.log(images=len(images), objects=sum(counts), out=out)
    return result


# --- decode -----------------------------------------------------------------------


def _detection_record(det: Detection, class_names: Sequence[str]) -> dict:
    return {
        "class": class_names[det.class_id],
        "score": det.score,
        "corners": det.box.corner_array(),
        "branch": det.branch.value,
    }


def cmd_decode(
    maps_dir: str | Path,
    out_json: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
    merge_iou: float = DEFAULT_MERGE_IOU,
    jobs: int = 1,
) -> CommandResult:
    """Decode one container, or a directory of them, into detections JSON."""
    result = CommandResult()
    if not 0.0 < threshold < 1.0:
        result.fail(VALIDATION_ERROR, error=f"threshold must be in (0, 1), got {threshold}")
        return result
    if not 0.0 <= merge_iou <= 1.0:
        result.fail(VALIDATION_ERROR, error=f"merge-iou must be in [0, 1], got {merge_iou}")
        return result
    root = Path(maps_dir)
    single = (root / "manifest.json").is_file()
    containers = [root] if single else sorted(
        p.parent for p in root.glob("*/manifest.json")
    )
    if not containers:
        result.fail(IO_ERROR, error=f"no manifest.json under {root}")
        return result

    def process(container: Path):
        maps, class_names = read_maps(container)
        stats: dict = {}
        dets = decode(maps, threshold=threshold, merge_iou=merge_iou, stats=stats)
        records = [_detection_record(d, class_names) for d in dets]
        if not single:
            for record in records:
                record["image_id"] = container.name
        return records, stats["dropped_degenerate"]

    try:
        outputs = _parallel_map(process, containers, jobs)
    except (OSError, ValueError, MidlinesError) as err:
        # ValueError: malformed JSON, bytes that are not UTF-8, a NUL in a file name.
        result.fail(IO_ERROR, error=err)
        return result
    records = [rec for recs, _ in outputs for rec in recs]
    dropped = sum(d for _, d in outputs)
    _write_json(Path(out_json), records)
    result.log(
        containers=len(containers), detections=len(records),
        dropped_degenerate=dropped, out=out_json,
    )
    return result


# --- roundtrip --------------------------------------------------------------------


def cmd_roundtrip(
    gt_json: str | Path,
    config: RunConfig,
    bar: float = 0.99,
    jobs: int = 1,
) -> CommandResult:
    """Encode then decode every image and report per-object fidelity.

    Objects whose shorter side is under two strides cannot survive the
    grid quantization and are tallied separately; the pass bar applies
    only to well-resolved objects.
    """
    result = CommandResult()
    if not 0.0 <= bar <= 1.0:
        result.fail(VALIDATION_ERROR, error=f"bar must be in [0, 1], got {bar}")
        return result
    images = _load_gt_images(result, Path(gt_json), None)
    if images is None:
        return result

    def process(img: AnnotatedImage):
        dets = decode(_encode(img, config), threshold=config.threshold)
        candidates = may_overlap(img.objects, dets)
        lines = midline_arrays(box_corners(img.objects), config.branch_low, config.branch_high)
        lines.check()
        subres = lines.lengths.min(axis=1) < 2.0 * config.stride
        ious = [
            max((rotated_iou(box, dets[j].box) for j in np.flatnonzero(row)), default=0.0)
            for box, row, small in zip(img.objects, candidates, subres)
            if not small
        ]
        return ious, int(subres.sum())

    outputs = _map_images(result, process, images, jobs)
    ious = [v for vs, _ in outputs for v in vs]
    subres = sum(s for _, s in outputs)
    if not ious:
        result.log(
            images=len(images), objects=0, sub_resolution=subres,
            status="pass", note="vacuous",
        )
        return result
    passed = sum(1 for v in ious if v >= 0.99)
    fraction = passed / len(ious)
    status = "pass" if fraction >= bar else "fail"
    result.log(
        images=len(images), objects=len(ious), sub_resolution=subres,
        min_iou=f"{min(ious):.6f}", mean_iou=f"{sum(ious) / len(ious):.6f}",
        fraction=f"{fraction:.6f}", bar=bar, status=status,
    )
    if status == "fail":
        result.exit_code = VALIDATION_ERROR
    return result


# --- gradcheck --------------------------------------------------------------------


def cmd_gradcheck(
    seed: int = 0,
    samples: int = 100,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CommandResult:
    """Finite-difference checks for every loss; exit 1 on any failure."""
    result = CommandResult()
    try:
        reports = run_gradchecks(
            seed=seed, samples=samples, step=step, tolerance=tolerance
        )
    except (ValueError, MidlinesError) as err:
        result.fail(VALIDATION_ERROR, error=err)
        return result
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
    return result


# --- eval -------------------------------------------------------------------------


def _detections_by_image(
    records: list, class_names: Sequence[str]
) -> dict[str, list[OrientedBox]]:
    if not isinstance(records, list):
        raise ValueError("detections JSON must be an array of records")
    for n, r in enumerate(records):
        require_fields(r, ("class", "corners", "score"), f"detection #{n}")
    index = {name: i for i, name in enumerate(class_names)}
    unknown = sorted({r["class"] for r in records} - set(index))
    if unknown:
        raise UnknownClass(f"detection classes not in vocabulary: {unknown}")
    grouped: dict[str, list[OrientedBox]] = {}
    for r in records:
        box = json_box(r, index[r["class"]], score=float(r["score"]))
        grouped.setdefault(str(r.get("image_id", "")), []).append(box)
    return grouped


def cmd_eval(
    gt_json: str | Path,
    det_json: str | Path,
    mode: str = "map",
    iou: float = 0.5,
    ap_mode: str = "all-point",
    out_json: str | Path | None = None,
    classes: Sequence[str] | None = None,
) -> CommandResult:
    """Score a detections file against ground truth; print the table."""
    result = CommandResult()
    if not 0.0 < iou <= 1.0:
        result.fail(VALIDATION_ERROR, error=f"iou must be in (0, 1], got {iou}")
        return result
    images = _load_gt_images(result, Path(gt_json), classes)
    if images is None:
        return result
    class_names = images[0].class_names if images else tuple(classes or ())
    try:
        records = json.loads(Path(det_json).read_text(encoding="utf-8"))
        dets = _detections_by_image(records, class_names)
    except (OSError, json.JSONDecodeError) as err:
        result.fail(IO_ERROR, error=err)
        return result
    except (UnknownClass, ValueError) as err:
        result.fail(VALIDATION_ERROR, error=err)
        return result
    gts = {img.image_id: img.objects for img in images}
    for image_id in dets:
        gts.setdefault(image_id, [])
    report = evaluate(
        dets, gts, mode=mode, iou_threshold=iou,
        ap_mode=ap_mode, class_names=class_names,
    )
    result.messages.append(report.format_table())
    if out_json is not None:
        _write_json(Path(out_json), report.to_json_dict())
        result.log(out=out_json)
    return result


# --- argument parsing ---------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--drift-r", type=float, default=DEFAULT_DRIFT_R)
    p.add_argument("--branch-low", type=float, default=BRANCH_LOW_DEG)
    p.add_argument("--branch-high", type=float, default=BRANCH_HIGH_DEG)


def _config_from(args: argparse.Namespace) -> RunConfig:
    # encode has no --threshold: it does not decode.
    return RunConfig(
        stride=args.stride, drift_r=args.drift_r,
        threshold=getattr(args, "threshold", RunConfig.threshold),
        branch_low=args.branch_low, branch_high=args.branch_high,
    )


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
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("encode", help="rasterize ground truth into map containers")
    p.add_argument("--gt", required=True, help="normalized ground-truth JSON file or directory")
    p.add_argument("--out", required=True, help="output directory, one container per image")
    p.add_argument("--classes", help="comma-separated class vocabulary override")
    p.add_argument("--jobs", type=int, default=1)
    _add_config_flags(p)

    p = sub.add_parser("decode", help="read containers back into detections JSON")
    p.add_argument("--maps", required=True, help="container directory, or a directory of containers")
    p.add_argument("--out", required=True, help="detections JSON path")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--merge-iou", type=float, default=DEFAULT_MERGE_IOU)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("roundtrip", help="encode+decode self-test with IoU statistics")
    p.add_argument("--gt", required=True, help="normalized ground-truth JSON file or directory")
    p.add_argument("--bar", type=float, default=0.99, help="required fraction of objects at IoU >= 0.99")
    p.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD, help="decode heatmap threshold"
    )
    p.add_argument("--jobs", type=int, default=1)
    _add_config_flags(p)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every loss gradient")
    p.add_argument("--seed", type=int, default=0, help="overridden by O2_SEED when set")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("eval", help="score detections JSON against ground truth")
    p.add_argument("--gt", required=True, help="normalized ground-truth JSON file or directory")
    p.add_argument("--dets", required=True, help="detections JSON path")
    p.add_argument("--mode", choices=("map", "text"), default="map")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--ap-mode", choices=("all-point", "11-point"), default="all-point")
    p.add_argument("--out", help="also write the report as JSON")
    p.add_argument("--classes", help="comma-separated class vocabulary override")

    return parser


def _run(args: argparse.Namespace) -> CommandResult:
    classes = args.classes.split(",") if getattr(args, "classes", None) else None
    if args.command in ("encode", "roundtrip"):
        try:
            config = _config_from(args)
        except ValueError as err:
            return CommandResult(VALIDATION_ERROR, [f"error={err}"])
    if args.command == "tile":
        return cmd_tile(
            args.input, args.out, window=args.window, overlap=args.overlap,
            fmt=args.format, strict=args.strict, jobs=args.jobs,
        )
    if args.command == "encode":
        return cmd_encode(args.gt, args.out, config, classes=classes, jobs=args.jobs)
    if args.command == "decode":
        return cmd_decode(
            args.maps, args.out, threshold=args.threshold,
            merge_iou=args.merge_iou, jobs=args.jobs,
        )
    if args.command == "roundtrip":
        return cmd_roundtrip(args.gt, config, bar=args.bar, jobs=args.jobs)
    if args.command == "gradcheck":
        seed = int(os.environ.get("O2_SEED", args.seed))
        return cmd_gradcheck(
            seed=seed, samples=args.samples, step=args.step,
            tolerance=args.tolerance,
        )
    if args.command == "eval":
        return cmd_eval(
            args.gt, args.dets, mode=args.mode, iou=args.iou,
            ap_mode=args.ap_mode, out_json=args.out, classes=classes,
        )
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = _run(args)
    for line in result.messages:
        print(line)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

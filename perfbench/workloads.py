"""The three workloads: set-up, one timed pass, output checks, trace hooks.

A pass runs the workload's fixed input set once. Every item in a pass is
checked; a failed check, an exception or a CLI exit code of 2 counts as one
failed operation. Reference values recorded per seed (reference.json) are
compared when the seed has them; the checks that need no recording run for
every seed.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import logging
import math
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import midlines.cli as cli
import midlines.decoder as decoder
import midlines.encoder as encoder
import midlines.evaluation as evaluation
import midlines.losses as losses
from midlines.encoder import TargetMaps
from midlines.ingest import DOTA_CLASS_NAMES

import gen
from spans import Patches, Tracer, count_wrapper, leaf_wrapper, span_wrapper

# Loss values and gradient sums are float64 sums over ~1.8M cells; a
# relative 1e-11 is 1e-9 absolute at the loss magnitudes here, the bar the
# acceptance tests use for hand-computed losses.
REL_TOL = 1e-11
MAP_TOL = 1e-12

_clock = time.perf_counter


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


@dataclass
class PassResult:
    images: int
    wall_s: float  # the whole pass, glue and checks included
    item_ms: list[float]  # time of each timed item, in the same order every pass


def _close(a: float, b: float, scale: float | None = None) -> bool:
    return abs(a - b) <= REL_TOL * (abs(b) if scale is None else scale)


# --- train_step ------------------------------------------------------------------


class TrainStep:
    """encode_image on the target, then total_loss with gradients."""

    name = "train_step"
    item = "tile"  # a timed item is one tile: encode_image + total_loss
    n_tiles = 24

    def setup(self, seed: int) -> gen.TrainInputs:
        return gen.train_inputs(seed, self.n_tiles)

    def start(self, inputs: gen.TrainInputs, reference: dict | None) -> None:
        self.inputs = inputs
        self.reference = reference
        self.observed: list[list[float]] = []
        shape_hm, shape_reg = inputs.hm_noise.shape, inputs.reg_noise.shape
        self._pred_hm = np.empty(shape_hm)
        self._pred_reg = np.empty(shape_reg)

    def _prediction(self, target: TargetMaps) -> TargetMaps:
        """The fixed perturbation of the target that stands in for a network."""
        np.multiply(target.heatmap, 0.8, out=self._pred_hm)
        self._pred_hm += self.inputs.hm_noise
        np.add(target.regression, self.inputs.reg_noise, out=self._pred_reg)
        return TargetMaps(
            stride=target.stride, num_classes=target.num_classes, width=target.width,
            height=target.height, image_w=target.image_w, image_h=target.image_h,
            heatmap=self._pred_hm, regression=self._pred_reg,
            reg_mask=target.reg_mask, n_objects=target.n_objects,
        )

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> PassResult:
        start = _clock()
        latencies = []
        first = not self.observed
        for k, boxes in enumerate(self.inputs.tiles):
            t0 = _clock()
            try:
                target = encoder.encode_image(boxes, gen.TRAIN_TILE, gen.TRAIN_TILE, gen.NUM_CLASSES)
                t1 = _clock()
                pred = self._prediction(target)
                t2 = _clock()
                loss = losses.total_loss(pred, target)
            except Exception as exc:  # noqa: BLE001 - a crash is one failed operation
                latencies.append((_clock() - t0) * 1e3)
                if first:
                    self.observed.append(None)
                tally.record(False, f"tile {k}: {type(exc).__name__}: {exc}")
                continue
            t3 = _clock()
            latencies.append((t1 - t0 + t3 - t2) * 1e3)
            obs = self._observe(target, loss)
            if first:
                self.observed.append(obs)
            tally.record(self._check(k, obs, loss), f"tile {k}: {obs}")
        return PassResult(len(latencies), _clock() - start, latencies)

    @staticmethod
    def _observe(target: TargetMaps, loss) -> list[float]:
        g_hm, g_reg = loss.gradients["heatmap"], loss.gradients["regression"]
        return [target.n_objects, loss.total,
                float(np.abs(g_hm).sum()), float(g_hm.sum()),
                float(np.abs(g_reg).sum()), float(g_reg.sum())]

    def _check(self, k: int, obs: list[float], loss) -> bool:
        if obs[0] != self.inputs.expected_encoded[k]:
            return False
        if not (math.isfinite(loss.total) and all(np.isfinite(g).all() for g in loss.gradients.values())):
            return False
        ref = self.observed[k] if self.reference is None else self.reference["tiles"][k]
        if ref is None:
            return False
        n, total, hm_abs, hm_sum, reg_abs, reg_sum = ref
        return (
            obs[0] == n and _close(obs[1], total)
            and _close(obs[2], hm_abs) and _close(obs[3], hm_sum, hm_abs)
            and _close(obs[4], reg_abs) and _close(obs[5], reg_sum, reg_abs)
        )

    def finish(self, tally: Tally) -> dict[str, float]:
        return {}

    def record(self) -> dict:
        return {"tiles": self.observed}


# --- detect ----------------------------------------------------------------------


def grouped_map(dets: dict[str, list], gts: dict[str, list]) -> float:
    """evaluate()'s mAP at IoU 0.5, fed one overlap group at a time.

    Boxes of one class in one image whose bounding boxes are not linked by
    any chain of overlaps can never match each other, and the greedy
    matching of a detection depends only on the boxes it can overlap. So
    splitting each image into such groups gives evaluate() the same matches
    and the same mAP (up to exact score ties across groups), without
    evaluate's all-pairs IoU loop over unrelated boxes.
    """
    group_dets: dict[str, list] = {}
    group_gts: dict[str, list] = {}
    for image_id in sorted(set(dets) | set(gts)):
        boxes = [(b, True) for b in dets.get(image_id, ())] + [(b, False) for b in gts.get(image_id, ())]
        if not boxes:
            continue
        pts = np.array([[(p.x, p.y) for p in b.corners] for b, _ in boxes])
        lo, hi = pts.min(axis=1), pts.max(axis=1)
        cls = np.array([b.class_id for b, _ in boxes])
        link = (
            (lo[:, None, 0] <= hi[None, :, 0]) & (lo[None, :, 0] <= hi[:, None, 0])
            & (lo[:, None, 1] <= hi[None, :, 1]) & (lo[None, :, 1] <= hi[:, None, 1])
            & (cls[:, None] == cls[None, :])
        )
        rows, cols = np.nonzero(link)
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=link.shape)
        _, labels = connected_components(graph, directed=False)
        for (box, is_det), label in zip(boxes, labels):
            key = f"{image_id}/{label:05d}"
            (group_dets if is_det else group_gts).setdefault(key, []).append(box)
    report = evaluation.evaluate(group_dets, group_gts, mode="map", iou_threshold=0.5,
                                 class_names=DOTA_CLASS_NAMES)
    return float(report.map_score)


def _digest(dets) -> str:
    h = hashlib.sha256()
    for d in dets:
        h.update(np.array(d.box.corner_array() + [d.score, d.class_id, d.branch.value]).tobytes())
    return h.hexdigest()


class Detect:
    """decode() on crowded predicted maps, one image at a time."""

    name = "detect"
    item = "image"  # a timed item is one decode() call
    n_images = 32

    def setup(self, seed: int) -> gen.DetectInputs:
        return gen.detect_inputs(seed, self.n_images)

    def start(self, inputs: gen.DetectInputs, reference: dict | None) -> None:
        self.inputs = inputs
        self.reference = reference
        self.first: list[tuple[str, list]] = []
        self._hm = inputs.background.copy()
        self._reg = np.zeros((2, 8, gen.DETECT_CELLS, gen.DETECT_CELLS))
        self._mask = np.zeros((2, gen.DETECT_CELLS, gen.DETECT_CELLS), dtype=bool)

    def _maps(self) -> TargetMaps:
        cells = gen.DETECT_CELLS
        return TargetMaps(
            stride=gen.STRIDE, num_classes=gen.NUM_CLASSES, width=cells, height=cells,
            image_w=gen.DETECT_IMAGE, image_h=gen.DETECT_IMAGE,
            heatmap=self._hm, regression=self._reg, reg_mask=self._mask, n_objects=0,
        )

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> PassResult:
        start = _clock()
        latencies = []
        first = not self.first
        for k, img in enumerate(self.inputs.images):
            self._hm.flat[img.hm_index] = img.hm_value
            self._reg.flat[img.reg_index] = img.reg_value
            stats: dict = {}
            t0 = _clock()
            try:
                dets = decoder.decode(self._maps(), stats=stats)
            except Exception as exc:  # noqa: BLE001 - a crash is one failed operation
                dets, stats["dropped_degenerate"] = [], f"{type(exc).__name__}: {exc}"
            latencies.append((_clock() - t0) * 1e3)
            self._hm.flat[img.hm_index] = self.inputs.background.flat[img.hm_index]
            self._reg.flat[img.reg_index] = 0.0
            digest = _digest(dets)
            if first:
                self.first.append((digest, dets))
            ok = (
                len(dets) == img.expected_detections
                and stats["dropped_degenerate"] == img.expected_dropped
                and digest == self.first[k][0]
            )
            tally.record(ok, f"image {k}: {len(dets)} detections, expected {img.expected_detections}, "
                             f"dropped {stats['dropped_degenerate']}, expected {img.expected_dropped}")
        return PassResult(len(latencies), _clock() - start, latencies)

    def finish(self, tally: Tally) -> dict[str, float]:
        dets = {f"img{k:03d}": d for k, (_, d) in enumerate(self.first)}
        gts = {f"img{k:03d}": img.gts for k, img in enumerate(self.inputs.images)}
        self.map = grouped_map({k: [d.box for d in v] for k, v in dets.items()}, gts)
        if self.reference is not None:
            tally.record(abs(self.map - self.reference["map"]) <= MAP_TOL,
                         f"map {self.map!r}, recorded {self.reference['map']!r}")
        return {"map": self.map}

    def record(self) -> dict:
        return {"map": self.map}


# --- cli_chain -------------------------------------------------------------------


def _tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the byte count."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest(), size


class CliChain:
    """tile -> encode -> decode -> eval -> roundtrip through midlines.cli.main."""

    name = "cli_chain"
    item = "stage"  # a timed item is one CLI command over the whole tile set
    n_scenes = 2
    n_objects = 300
    jobs = "2"
    # The only command allowed to exit 1 is roundtrip: that is its verdict.
    allowed_exit = {"tile": {0}, "encode": {0}, "decode": {0}, "eval": {0}, "roundtrip": {0, 1}}

    def __init__(self, work: Path):
        self.work = work

    def setup(self, seed: int) -> Path:
        labels = self.work / "labels"
        shutil.rmtree(labels, ignore_errors=True)
        labels.mkdir(parents=True)
        for name, text in gen.cli_scenes(seed, self.n_scenes, self.n_objects).items():
            (labels / name).write_text(text, encoding="utf-8")
        return labels

    def start(self, labels: Path, reference: dict | None) -> None:
        self.labels = labels
        self.reference = reference
        self.first: tuple | None = None
        self.tiles = 0
        self.bytes_written = 0  # by the last pass; every pass writes the same files

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        tiles, maps = str(out / "tiles"), str(out / "maps")
        dets, report = str(out / "dets.json"), str(out / "eval.json")
        return [
            ("tile", ["tile", "--input", str(self.labels), "--out", tiles, "--jobs", self.jobs]),
            ("encode", ["encode", "--gt", tiles, "--out", maps, "--jobs", self.jobs]),
            ("decode", ["decode", "--maps", maps, "--out", dets, "--jobs", self.jobs]),
            ("eval", ["eval", "--gt", tiles, "--dets", dets, "--mode", "map", "--iou", "0.5",
                      "--out", report]),
            ("roundtrip", ["roundtrip", "--gt", tiles, "--bar", "0.99", "--jobs", self.jobs]),
        ]

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> PassResult:
        out = self.work / "chain"
        shutil.rmtree(out, ignore_errors=True)
        log = io.StringIO()
        codes = {}
        stage_ms = []
        start = _clock()
        for name, argv in self.commands(out):
            t0 = _clock()
            span = tracer.open(f"cli.{name}") if tracer else None
            try:
                with redirect_stdout(log):
                    codes[name] = cli.main(argv)
            except SystemExit as exc:
                codes[name] = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - a crash is one failed operation
                codes[name] = f"{type(exc).__name__}: {exc}"
            finally:
                if span:
                    tracer.close(span)
            stage_ms.append((_clock() - t0) * 1e3)
            tally.record(codes[name] in self.allowed_exit[name], f"{name} exited {codes[name]!r}")
        wall = _clock() - start

        digest, self.bytes_written = _tree_digest(out)
        text = log.getvalue()
        self.tiles = len(list((out / "tiles").glob("*.json")))
        observed = self._observe(out, text, codes)
        shutil.rmtree(out, ignore_errors=True)
        if self.first is None:
            self.first = (digest, text, observed)
        else:
            tally.record(digest == self.first[0] and text == self.first[1],
                         "outputs differ from the first pass")
        if self.reference is not None:
            ref = self.reference
            tally.record(
                observed["roundtrip_exit"] == ref["roundtrip_exit"]
                and observed["roundtrip_fraction"] == ref["roundtrip_fraction"]
                and abs(observed["map"] - ref["map"]) <= MAP_TOL,
                f"observed {observed}, recorded {ref}",
            )
        return PassResult(self.tiles, wall, stage_ms)

    @staticmethod
    def _observe(out: Path, text: str, codes: dict) -> dict:
        try:
            mean_ap = json.loads((out / "eval.json").read_text(encoding="utf-8"))["map"]
        except (OSError, ValueError, KeyError):
            mean_ap = float("nan")
        fraction = float("nan")
        for line in text.splitlines():
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            if "fraction" in fields and "bar" in fields:
                fraction = float(fields["fraction"])
        return {"map": mean_ap, "roundtrip_fraction": fraction, "roundtrip_exit": codes["roundtrip"]}

    def finish(self, tally: Tally) -> dict[str, float]:
        observed = self.first[2]
        return {"map": observed["map"], "roundtrip_fraction": observed["roundtrip_fraction"]}

    def record(self) -> dict:
        return self.first[2]


# --- tracing hooks ---------------------------------------------------------------


class WarningCounter(logging.Handler):
    """Counts the ingest layer's log warnings (tiles dropping collapsed boxes)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.tracer: Tracer | None = None

    def emit(self, record: logging.LogRecord) -> None:
        if self.tracer is not None:
            self.tracer.count("ingest.warnings")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def tracing_patches(tracer: Tracer, warnings: WarningCounter) -> Patches:
    """Wrap every package function the workloads call, in every namespace used."""

    def on_encode(t, args, kwargs, maps):
        t.count("encoder.objects", len(args[0]))
        t.count("encoder.encoded", maps.n_objects)
        t.count("encoder.mask_cells", int(maps.reg_mask.sum()))

    def on_loss(t, args, kwargs, value):
        t.count("losses.cells", args[0].heatmap.size + args[0].regression.size)

    def on_decode(t, args, kwargs, dets):
        t.count("decoder.detections", len(dets))
        t.count("decoder.dropped_degenerate", kwargs["stats"]["dropped_degenerate"])

    def decode_with_stats(fn):
        """decode() fills `stats` only when given one; give it one."""
        @functools.wraps(fn)
        def call(*args, **kwargs):
            kwargs.setdefault("stats", {})
            return fn(*args, **kwargs)
        return call

    def on_merge(t, args, kwargs, kept):
        t.count("decoder.merged", len(args[0]) - len(kept))

    def on_iou(t, args, kwargs, iou):
        if iou > 0.0:
            t.count("evaluation.iou_nonzero")

    def on_merge_iou(t, args, kwargs, iou):
        on_iou(t, args, kwargs, iou)
        t.count("decoder.merge_iou_calls")

    def on_parse(t, args, kwargs, result):
        t.count("ingest.lines", sum(1 for line in args[0].splitlines() if line.strip()))
        t.count("ingest.warnings", len(result[1]))

    def on_tile(t, args, kwargs, tiles):
        t.count("ingest.tiles", len(tiles))
        t.count("ingest.objects", sum(len(tile.objects) for tile in tiles))

    def on_write(t, args, kwargs, manifest):
        t.count("container.write_bytes", _dir_bytes(Path(manifest).parent))

    def on_read(t, args, kwargs, result):
        t.count("container.read_bytes", _dir_bytes(Path(args[0])))

    def parallel_map(fn):
        """Each work item gets a cli.item span; pooled items also their CPU time."""
        def traced_map(work, items, jobs):
            pooled = jobs > 1 and len(items) > 1

            def item(x):
                span = tracer.open("cli.item")
                cpu = time.thread_time_ns()
                try:
                    return work(x)
                finally:
                    if pooled:
                        tracer.count("cli.pool_cpu_ns", time.thread_time_ns() - cpu)
                    tracer.close(span)

            start = time.perf_counter_ns()
            try:
                return fn(item, items, jobs)
            finally:
                if pooled:
                    tracer.count("cli.pool_capacity_ns", (time.perf_counter_ns() - start) * jobs)
        return traced_map

    def decode(fn):
        return decode_with_stats(span_wrapper(tracer, "decoder.decode", fn, on_decode))

    replacements = [
        (encoder, "encode_image", span_wrapper(tracer, "encoder.encode", encoder.encode_image, on_encode)),
        (encoder, "box_to_midlines", leaf_wrapper(tracer, "geometry.box_to_midlines", encoder.box_to_midlines)),
        (losses, "total_loss", span_wrapper(tracer, "losses.total_loss", losses.total_loss, on_loss)),
        (decoder, "decode", decode(decoder.decode)),
        (decoder, "extract_components", count_wrapper(
            tracer, decoder.extract_components, lambda t, *_: t.count("decoder.channels"))),
        (decoder, "merge_branches", count_wrapper(tracer, decoder.merge_branches, on_merge)),
        (decoder, "midlines_to_box", leaf_wrapper(tracer, "geometry.midlines_to_box", decoder.midlines_to_box)),
        (decoder, "rotated_iou", leaf_wrapper(tracer, "evaluation.rotated_iou", decoder.rotated_iou, on_merge_iou)),
        (evaluation, "rotated_iou", leaf_wrapper(tracer, "evaluation.rotated_iou", evaluation.rotated_iou, on_iou)),
        (cli, "parse_dota", span_wrapper(tracer, "ingest.parse", cli.parse_dota, on_parse)),
        (cli, "tile_image", span_wrapper(tracer, "ingest.tile", cli.tile_image, on_tile)),
        (cli, "images_from_json", span_wrapper(tracer, "ingest.gt_load", cli.images_from_json)),
        (cli, "encode_image", span_wrapper(tracer, "encoder.encode", cli.encode_image, on_encode)),
        (cli, "write_maps", span_wrapper(tracer, "container.write", cli.write_maps, on_write)),
        (cli, "read_maps", span_wrapper(tracer, "container.read", cli.read_maps, on_read)),
        (cli, "decode", decode(cli.decode)),
        (cli, "evaluate", span_wrapper(tracer, "evaluation.evaluate", cli.evaluate)),
        (cli, "rotated_iou", leaf_wrapper(tracer, "evaluation.rotated_iou", cli.rotated_iou, on_iou)),
        (cli, "box_to_midlines", leaf_wrapper(tracer, "geometry.box_to_midlines", cli.box_to_midlines)),
        (cli, "_parallel_map", parallel_map(cli._parallel_map)),
        (warnings, "tracer", tracer),
    ]
    return Patches(replacements)

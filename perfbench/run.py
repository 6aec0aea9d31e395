"""Benchmark of the midlines package: train_step, detect and cli_chain.

Run from the repository root:

    python3 perfbench/run.py --workload detect --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

The package is imported from ./src; nothing needs installing. `all` runs
each workload in a child process of its own, so that each peak_rss_mb is
that workload's own peak, and merges their JSON lines. Each workload
builds its inputs from the seed, times whole passes over them until
--seconds have gone by, checks every output, and prints each metric with its
unit and sample count. The last line of standard output is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.

A traced run alternates untraced and traced passes over the same inputs.
The traced passes wrap the package's functions (see workloads.tracing_patches)
and give each layer's self time and counts, per pass; the difference
between the two kinds of pass is the tracing overhead. Spans and counts are
written to .perfbench/trace-<workload>-<seed>.json.

Exit codes: 0 when the run completed (the JSON says whether outputs were
correct), 2 when the package cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_step", "detect", "cli_chain")
SETUP_REPEATS = 9
# End-to-end metrics in the JSON line: those that every workload has and that
# are never 0. Latency percentiles (train_step, detect), failed_ratio, map
# (detect, cli_chain) and roundtrip_fraction (cli_chain) are printed too.
SCORED = ("setup_s", "images_per_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "images_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
    "peak_rss_mb": "MB", "failed_ratio": "ratio", "map": "ratio", "roundtrip_fraction": "ratio",
}


def import_package(root: Path) -> float:
    """Import midlines (and its CLI) from root/src; seconds taken."""
    src = root / "src"
    if not (src / "midlines" / "__init__.py").is_file():
        raise ImportError(f"no package at {src / 'midlines'}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import midlines
    import midlines.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(midlines.__file__).resolve().parent != (src / "midlines").resolve():
        raise ImportError(f"midlines imported from {midlines.__file__}, not {src}")
    return elapsed


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def make_workload(name: str, work: Path):
    import workloads
    return {
        "train_step": workloads.TrainStep,
        "detect": workloads.Detect,
        "cli_chain": lambda: workloads.CliChain(work),
    }[name]()


def load_reference(seed: int, name: str) -> dict | None:
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed), {}).get(name)


# One set-up as a user meets it: a fresh interpreter imports the package,
# then builds the workload's inputs. argv: src dir, benchmark dir, workload,
# seed, work dir. Prints the seconds the two steps took.
SETUP_CODE = """\
import sys, time
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import midlines.cli
imported = time.perf_counter() - start
import run
workload = run.make_workload(sys.argv[3], Path(sys.argv[5]))
start = time.perf_counter()
workload.setup(int(sys.argv[4]))
print(imported + time.perf_counter() - start)
"""


class SetUps:
    """SETUP_REPEATS timed set-ups, each in a fresh interpreter, spread over the run.

    On a shared machine the speed drifts over seconds, so set-ups taken back
    to back all land in one phase of it; spread over the run, their median
    moves less from run to run. Running them in child processes leaves the
    run's own inputs, and its peak memory, alone.
    """

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.args = [str(root / "src"), str(HERE), name, str(seed), str(work)]
        self.root = root
        self.times: list[float] = []

    def due(self, fraction: float) -> float:
        """Take the set-ups due once `fraction` of the run is done; seconds spent."""
        start = time.perf_counter()
        wanted = min(SETUP_REPEATS, 1 + int(fraction * (SETUP_REPEATS - 1)))
        while len(self.times) < wanted:
            done = subprocess.run([sys.executable, "-c", SETUP_CODE, *self.args], cwd=self.root,
                                  capture_output=True, text=True, check=True, timeout=120)
            self.times.append(float(done.stdout))
        return time.perf_counter() - start


def run_passes(workload, seconds: float, tally, setups: SetUps, tracer=None, patches=None) -> tuple[list, list]:
    """Untraced passes until `seconds` are up; given a tracer, alternate.

    One untimed warm-up pass comes first, so that lazy imports, allocator
    growth and the file cache do not land in the first timed pass; its
    outputs are checked like any other. The set-ups run between passes, and
    their time does not count towards `seconds`. Returns (untraced passes,
    traced passes), two passes at least.
    """
    setups.due(0.0)
    workload.run_pass(tally)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(tally))
        if tracer is not None:
            with patches:
                span = tracer.open("bench.pass")
                try:
                    traced.append(workload.run_pass(tally, tracer))
                finally:
                    tracer.close(span)
        start += setups.due((time.perf_counter() - start) / seconds)
        if time.perf_counter() - start >= seconds and len(plain) + len(traced) >= 2:
            setups.due(1.0)
            return plain, traced


def end_to_end(workload, setup_times, passes, tally, quality) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample description).

    Each timed item's time is the best of its repetitions in the run: the
    other tenants of a shared machine only ever add to a time, so the best
    repetition is the closest to the program's own cost. Percentiles are
    then taken over the items, whose costs differ by their inputs.
    """
    best = [min(times) for times in zip(*(p.item_ms for p in passes))]
    images = passes[0].images
    reps = f"best of {len(passes)} passes"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} set-ups, each in a fresh interpreter"),
        "images_per_s": (images / (sum(best) / 1e3), f"{images} images in {len(best)} timed {workload.item}s, each {reps}"),
    }
    if workload.item != "stage":
        out["latency_ms_p50"] = (percentile(best, 50), f"over {len(best)} {workload.item}s, each {reps}")
        out["latency_ms_p90"] = (percentile(best, 90), f"over {len(best)} {workload.item}s, each {reps}")
    out["peak_rss_mb"] = (peak_kb / 1024.0, "process peak, its own build of the inputs included")
    out["failed_ratio"] = (tally.failed / tally.attempted, f"{tally.failed}/{tally.attempted} operations")
    for name, value in quality.items():
        out[name] = (value, "same on every pass")
    return {k: (v, UNITS[k], note) for k, (v, note) in out.items()}


def per_layer(tracer, traced, plain, import_ms: float, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-pass per-layer metrics from the traced passes: name -> (value, unit)."""
    n = len(traced)
    rep = tracer.report()
    self_ns, total_ns, counts = rep["self_ns"], rep["total_ns"], rep["counts"]

    def ms(name: str) -> float:
        return self_ns.get(name, 0) / 1e6 / n

    def leaf_ms(name: str) -> float:
        return counts.get(name + "_ns", 0) / 1e6 / n

    def count(name: str) -> float:
        return counts.get(name, 0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    write_bytes, read_bytes = count("container.write_bytes"), count("container.read_bytes")
    iou_calls = count("evaluation.rotated_iou_calls")
    loss_ms = ms("losses.total_loss")
    cli_self = sum(v for k, v in self_ns.items() if k.startswith("cli.")) / 1e6 / n
    m = {
        "ingest.parse_ms": (ms("ingest.parse"), "ms"),
        "ingest.tile_ms": (ms("ingest.tile"), "ms"),
        "ingest.gt_load_ms": (ms("ingest.gt_load"), "ms"),
        "ingest.lines": (count("ingest.lines"), "count"),
        "ingest.warnings": (count("ingest.warnings"), "count"),
        "ingest.tiles": (count("ingest.tiles"), "count"),
        "ingest.objects": (count("ingest.objects"), "count"),
        "geometry.box_to_midlines_calls": (count("geometry.box_to_midlines_calls"), "count"),
        "geometry.box_to_midlines_ms": (leaf_ms("geometry.box_to_midlines"), "ms"),
        "geometry.midlines_to_box_calls": (count("geometry.midlines_to_box_calls"), "count"),
        "geometry.midlines_to_box_ms": (leaf_ms("geometry.midlines_to_box"), "ms"),
        "encoder.encode_ms": (ms("encoder.encode"), "ms"),
        "encoder.objects": (count("encoder.objects"), "count"),
        "encoder.encoded": (count("encoder.encoded"), "count"),
        "encoder.skipped": (count("encoder.objects") - count("encoder.encoded"), "count"),
        "encoder.mask_cells": (count("encoder.mask_cells"), "count"),
        "container.write_ms": (ms("container.write"), "ms"),
        "container.read_ms": (ms("container.read"), "ms"),
        "container.bytes": (write_bytes, "B"),
        "container.write_mb_per_s": (ratio(write_bytes / 1e6, ms("container.write") / 1e3), "MB/s"),
        "container.read_mb_per_s": (ratio(read_bytes / 1e6, ms("container.read") / 1e3), "MB/s"),
        "decoder.decode_ms": (ms("decoder.decode"), "ms"),
        "decoder.channels": (count("decoder.channels"), "count"),
        "decoder.detections": (count("decoder.detections"), "count"),
        "decoder.dropped_degenerate": (count("decoder.dropped_degenerate"), "count"),
        "decoder.merged": (count("decoder.merged"), "count"),
        "decoder.merge_iou_calls": (count("decoder.merge_iou_calls"), "count"),
        "evaluation.evaluate_ms": (ms("evaluation.evaluate"), "ms"),
        "evaluation.iou_calls": (iou_calls, "count"),
        "evaluation.iou_ms": (leaf_ms("evaluation.rotated_iou"), "ms"),
        "evaluation.iou_nonzero_ratio": (ratio(count("evaluation.iou_nonzero"), iou_calls), "ratio"),
        "losses.total_loss_ms": (loss_ms, "ms"),
        "losses.cells": (count("losses.cells"), "count"),
        "losses.cells_per_s": (ratio(count("losses.cells"), loss_ms / 1e3), "1/s"),
        "cli.tile_s": (total_ns.get("cli.tile", 0) / 1e9 / n, "s"),
        "cli.encode_s": (total_ns.get("cli.encode", 0) / 1e9 / n, "s"),
        "cli.decode_s": (total_ns.get("cli.decode", 0) / 1e9 / n, "s"),
        "cli.eval_s": (total_ns.get("cli.eval", 0) / 1e9 / n, "s"),
        "cli.roundtrip_s": (total_ns.get("cli.roundtrip", 0) / 1e9 / n, "s"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.bytes_written": (bytes_written, "B"),
        "cli.thread_busy_ratio": (ratio(count("cli.pool_cpu_ns"), count("cli.pool_capacity_ns")), "ratio"),
        "cli.self_ms": (cli_self, "ms"),
    }
    wall = total_ns.get("bench.pass", 0) / 1e6 / n
    plain_wall = statistics.mean(p.wall_s for p in plain) * 1e3
    m["trace.wall_ms"] = (wall, "ms")
    m["trace.unattributed_ms"] = (ms("bench.pass"), "ms")
    m["trace.overlap_ms"] = (rep["overlap_ns"] / 1e6 / n, "ms")
    m["trace.overhead_ms"] = (wall - plain_wall, "ms")
    return m


LAYER_TIMES = {
    "ingest": ("ingest.parse_ms", "ingest.tile_ms", "ingest.gt_load_ms"),
    "geometry": ("geometry.box_to_midlines_ms", "geometry.midlines_to_box_ms"),
    "encoder": ("encoder.encode_ms",),
    "container": ("container.write_ms", "container.read_ms"),
    "decoder": ("decoder.decode_ms",),
    "evaluation": ("evaluation.evaluate_ms", "evaluation.iou_ms"),
    "losses": ("losses.total_loss_ms",),
    "cli": ("cli.self_ms",),
}


def print_accounting(m: dict) -> None:
    """Layer self times + unattributed - parallel overlap = traced wall time."""
    layers = {layer: sum(m[k][0] for k in keys) for layer, keys in LAYER_TIMES.items()}
    total = sum(layers.values())
    wall = m["trace.wall_ms"][0]
    print("  self time per traced pass:")
    for layer, value in layers.items():
        print(f"    {layer:<12} {value:12.3f} ms  {100 * value / wall if wall else 0:6.2f}%")
    rest, overlap = m["trace.unattributed_ms"][0], m["trace.overlap_ms"][0]
    print(f"    {'unattributed':<12} {rest:12.3f} ms  (benchmark code between calls)")
    print(f"    {'- overlap':<12} {overlap:12.3f} ms  (pool threads busy at once)")
    print(f"    {'= accounted':<12} {total + rest - overlap:12.3f} ms  of {wall:.3f} ms traced wall")
    print(f"    tracing overhead {m['trace.overhead_ms'][0]:.3f} ms per pass (traced - untraced wall)")


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path, import_s: float) -> dict:
    import workloads
    from spans import Tracer

    work = root / ".perfbench" / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Also keeps the ingest layer's warnings off stderr.
    counter = workloads.WarningCounter()
    ingest_log = logging.getLogger("midlines.ingest")
    ingest_log.addHandler(counter)
    try:
        workload = make_workload(name, work)
        reference = load_reference(seed, name)
        workload.start(workload.setup(seed), reference)
        tally = workloads.Tally()
        tracer = Tracer() if traced else None
        patches = workloads.tracing_patches(tracer, counter) if traced else None
        setups = SetUps(name, seed, root, work / "setup")
        plain, traced_passes = run_passes(workload, seconds, tally, setups, tracer, patches)
        quality = workload.finish(tally)
    finally:
        ingest_log.removeHandler(counter)
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={name} seed={seed} seconds={seconds:g} trace={int(traced)} "
          f"reference={'recorded' if reference is not None else 'none'}")
    e2e = end_to_end(workload, setups.times, plain, tally, quality)
    for key, (value, unit, note) in e2e.items():
        print(f"  {key:<20} {value:14.6g} {unit:<6} {note}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed}
    if traced:
        layer = per_layer(tracer, traced_passes, plain, import_s * 1e3, getattr(workload, "bytes_written", 0))
        for key, (value, unit) in layer.items():
            print(f"  {key:<32} {value:16.6g} {unit}  per pass, {len(traced_passes)} traced passes")
        print_accounting(layer)
        trace_path = root / ".perfbench" / f"trace-{name}-{seed}.json"
        tracer.write(trace_path)
        print(f"  spans written to {trace_path.relative_to(root)}")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        result["metrics"] = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in SCORED}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # At most two busy threads: the CLI's --jobs 2 pool, and no BLAS or OpenMP
    # pools. Set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    root = Path.cwd()
    try:
        import_s = import_package(root)
    except ImportError as err:
        print(f"error=cannot import the package: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root, import_s)))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a child process; their JSON lines merged into one."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

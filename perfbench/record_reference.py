"""Record the reference outputs that run.py checks, one entry per seed.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/record_reference.py --seeds 0-31 --seeds 90017

For each seed and workload it builds the inputs, runs one pass and stores
what the checks compare: per-tile loss values and gradient sums for
train_step, the mAP for detect, and the mAP, roundtrip fraction and
roundtrip exit code for cli_chain. Existing entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run


def seed_list(specs: list[str]) -> list[int]:
    seeds: list[int] = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", action="append", required=True, help="N or N-M, repeatable")
    args = parser.parse_args()

    root = Path.cwd()
    run.import_package(root)
    sys.path.insert(0, str(run.HERE))
    import workloads

    path = run.HERE / "reference.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"seeds": {}}
    work = root / ".perfbench" / "record"
    try:
        for seed in seed_list(args.seeds):
            entry = data["seeds"].setdefault(str(seed), {})
            for name in run.WORKLOADS:
                workload = run.make_workload(name, work)
                workload.start(workload.setup(seed), None)
                tally = workloads.Tally()
                workload.run_pass(tally)
                workload.finish(tally)
                if tally.failed:
                    raise SystemExit(f"seed {seed} {name}: {tally.reasons}")
                entry[name] = workload.record()
                print(f"seed={seed} workload={name} recorded", flush=True)
            path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

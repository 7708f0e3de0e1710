"""Benchmark entry point.

    python3 bench/run.py --workload cli-sweep --seed 1 --seconds 25 --trace 0

Runs cold rounds of one workload, each in a fresh interpreter with
DM_WORKERS=1 and PYTHONHASHSEED=0, until --seconds have passed and at
least MIN_ROUNDS rounds have run.  Then prints one JSON line: whether
every output checked out, the queries attempted and failed over all
rounds, and the medians over the rounds of the end-to-end metrics
(--trace 0) or of the per-layer metrics from traced rounds (--trace 1).
Times are rescaled to a reference host speed (see one_round.py).  A fuller
record, with per-round raw wall times, per-query times and host CPU steal,
goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: A cli-sweep round takes 8-12 s on a slow shared host, so 25 s may hold
#: only two; the median of three rounds damps one slow round.
MIN_ROUNDS = 3


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host CPU line in /proc/stat, or (0, 0)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # guest and guest_nice are already counted in user and nice
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_round(cfg: dict) -> dict:
    env = dict(os.environ, DM_WORKERS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "one_round.py")],
        input=json.dumps(cfg),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=170,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "deltamatroids" / "__init__.py").is_file():
        print(f"error: no deltamatroids sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cfg = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    oracle = workloads.ORACLES.get(args.workload)
    cfg["oracle"] = oracle() if oracle else {}

    steal0, total0 = cpu_ticks()
    rounds = []
    t0 = time.perf_counter()
    spans = str((OUT / f"spans-{tag}.tsv").relative_to(ROOT)) if args.trace else None
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
        rounds.append(run_round({**cfg, "spans": None if rounds else spans}))
    steal1, total1 = cpu_ticks()
    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [x for r in rounds for x in r["problems"]]
    for line in dict.fromkeys(problems):
        print(f"check failed: {line}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = (lambda r: r["layers"]) if args.trace else (lambda r: r)
    metrics = {
        m["name"]: {"value": statistics.median(source(r).get(m["name"], 0) for r in rounds), "unit": m["unit"]}
        for m in wanted
    }
    record = {"args": vars(args), "host_cpu_steal": steal, "metrics": metrics, "rounds": rounds}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(rounds)} rounds, host CPU steal {steal:.2%}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

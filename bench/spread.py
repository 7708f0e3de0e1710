"""Run every workload once per seed and report each end-to-end metric's
median, quartiles and spread (quartile distance over median).

    python3 bench/spread.py --seeds 1-10 --label set1

Runs go one after another, workloads interleaved seed by seed.  The final
JSON line of each run and the summary land in bench/out/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--label", required=True)
    args = p.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    names = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in names}
    for seed in range(lo, hi + 1):
        for w in names:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=os.environ)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return 1
            runs[w].append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(w, seed, json.dumps(runs[w][-1]), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for w, results in runs.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[f"{w}/{name}"] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bounds.get(name)}
        summary[f"{w}/failed_share"] = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        summary[f"{w}/correct"] = all(r["correct"] for r in results)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"spread-{args.label}.json").write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    for key, row in summary.items():
        print(key, json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())

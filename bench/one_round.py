"""One cold round of one workload, in a fresh interpreter.

Reads {"workload", "seed", "trace", "oracle", "spans"} as JSON on stdin and
prints one JSON line: set-up and batch times, peak RSS, the queries attempted
and failed, the problems the checks found, and (traced) the layer figures.
The set-up time covers importing deltamatroids and building the inputs; the
timed phase covers the batch alone; the checks run after it.

Host speed on a shared machine drifts by 40% within minutes, so after each
query the round runs a fixed reference slice and times it.  Reported times
are wall times rescaled to a host that runs the slice in REFERENCE_S; the
raw wall times stay in the record as wall_setup_s and wall_run_s.  Editing
reference_slice, oracles.is_delta_family or REFERENCE_S changes the scale
of every reported time, so figures from before and after such an edit do
not compare.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


#: Seconds one reference slice takes at the speed reported times are scaled to.
REFERENCE_S = 0.02


def reference_slice() -> None:
    """Fixed pure-Python work of the same kind as the program's kernels."""
    for code in range(20000, 21500):
        oracles.is_delta_family(oracles.decode(code))


def main() -> int:
    cfg = json.load(sys.stdin)
    setup, make_queries, check = workloads.WORKLOADS[cfg["workload"]]

    t0 = time.perf_counter()
    dm = workloads.import_program(ROOT)
    inputs = setup(dm, cfg["seed"])
    setup_s = time.perf_counter() - t0

    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        query_id = tracer.name_to_id(tracing.QUERY)
    queries = make_queries(dm, inputs)
    outputs, query_s, ref_s, failed = [], [], [], 0
    gc.collect()

    start = time.perf_counter()
    for label, thunk in queries:
        q0 = time.perf_counter()
        span = tracer.open(query_id) if tracer else None
        try:
            outputs.append(thunk())
        except Exception:
            failed += 1
            outputs.append(None)
            print(f"query failed: {label}", file=sys.stderr)
            traceback.print_exc()
        finally:
            if tracer:
                tracer.close(span)
        query_s.append(time.perf_counter() - q0)
        # The slice runs with the collector off, so a collection the query's
        # garbage made due is paid by the next query, not by the slice.
        gc.disable()
        r0 = time.perf_counter()
        reference_slice()
        ref_s.append(time.perf_counter() - r0)
        gc.enable()
    run_s = time.perf_counter() - start - sum(ref_s)
    speed = REFERENCE_S / statistics.mean(ref_s)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    memo = dm.delta._delta_ok.cache_info()
    result = {
        "setup_s": setup_s * speed,
        "run_s": run_s * speed,
        "wall_setup_s": setup_s,
        "wall_run_s": run_s,
        "speed": speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(queries),
        "failed": failed,
        "queries": [[label, s] for (label, _), s in zip(queries, query_s)],
        "ref_s": ref_s,
        "problems": check(inputs, outputs, cfg["oracle"]),
    }
    if tracer:
        layers = tracing.layer_metrics(tracer, memo)
        result["layers"] = {k: v * speed if k.endswith("_s") else v for k, v in layers.items()}
        result["spans"] = tracer.summary()
        if cfg.get("spans"):
            tracer.dump_tsv(ROOT / cfg["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

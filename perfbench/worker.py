"""Runs one workload in this process and prints one JSON line: set-up time,
each model's wall time and answers, peak memory and, when traced, the layer
metrics.  run.py starts it with the thread pins and PYTHONPATH it needs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter


def solve_one(workload, items, i) -> dict:
    """Solve items[i]; the model's time runs from the call to its return or
    its exception."""
    t = perf_counter()
    try:
        outcome = {"answers": workload.solve(items[i])}
    except Exception as err:  # a crashing model is counted; the loop goes on
        frame = traceback.extract_tb(err.__traceback__)[-1]
        outcome = {"error": f"{type(err).__name__}: {err} "
                            f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})"}
    return {"item": i, "seconds": perf_counter() - t, **outcome}


def timed_loop(workload, items, seconds):
    """Closed loop: solve the pool in order, cycling, until `seconds` have
    elapsed and every model has been solved at least once.  The reference
    kernel runs between solves; each solve records the mean of the kernel
    times just before and just after it.  Returns every solve and the loop's
    wall time."""
    from speed import reference_s

    solves = []
    start = perf_counter()
    before = reference_s()
    for n in itertools.count():
        if n >= len(items) and perf_counter() - start >= seconds:
            return solves, perf_counter() - start
        solve = solve_one(workload, items, n % len(items))
        after = reference_s()
        solves.append({**solve, "reference_s": (before + after) / 2})
        before = after


def traced_passes(workload, items):
    """A traced pass over the items, then a pass that solves each item
    untraced and at once traced again.  The two traced passes must repeat
    their counts exactly; the second gives the layer metrics and, against
    the untraced solves next to it, the tracing overhead, with both scaled
    to nominal machine speed."""
    from spans import Tracer
    from speed import reference_s, scaled

    first, second = Tracer(), Tracer()
    with first.installed():
        models = [solve_one(workload, items, i) for i in range(len(items))]
    untraced, traced = [], []
    scaled_s = {"untraced": 0.0, "traced": 0.0}
    for i in range(len(items)):
        before = reference_s()
        untraced.append(solve_one(workload, items, i))
        between = reference_s()
        with second.installed():
            traced.append(solve_one(workload, items, i))
        after = reference_s()
        scaled_s["untraced"] += scaled(untraced[-1]["seconds"], (before + between) / 2)
        scaled_s["traced"] += scaled(traced[-1]["seconds"], (between + after) / 2)
    layer = second.layer_metrics(sum(m["seconds"] for m in traced))
    layer["trace.overhead_frac"] = scaled_s["traced"] / scaled_s["untraced"] - 1.0
    a, b = first.repeat_counts(), second.repeat_counts()
    return {"models": models + untraced + traced, "layer": layer,
            "repeat_mismatch": {k: [a[k], b[k]] for k in a if a[k] != b[k]}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    import numpy
    import trwmap
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    items = workload.setup(args.seed, Path(args.workdir))
    setup_s = perf_counter() - start
    from speed import reference_kernel, reference_s

    reference_kernel()  # first calls pay one-off numpy costs

    result = {"setup_s": setup_s,
              "setup_reference_s": statistics.median([reference_s() for _ in range(5)]),
              "trwmap": trwmap.__file__, "numpy": numpy.__version__}
    if not args.setup_only:
        result["pool"] = [workload.describe(x) for x in items]
        if args.trace:
            result.update(traced_passes(workload, items[:workload.trace_models]))
        else:
            models, loop_s = timed_loop(workload, items, args.seconds)
            result.update(models=models, loop_s=loop_s,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

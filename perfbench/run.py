"""trwmap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in its own
process, single-threaded, as a closed loop: one client solving models back to
back for S seconds.  Every answer is then checked against independent
references (outside all timed metrics).  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run over a fixed set of models.
See perfbench/DESIGN.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP threads before numpy is imported here or in a child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import collections
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid4_paper", "grid_large_msg", "lp_mixed_card")
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole run, workers included, must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "models_per_s": "1/s", "model_s_p50": "s",
                    "model_s_tail": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".edges", ".failed")) or name == "trw.iterations":
        return "count"
    if name.endswith("messages_per_edge_p50"):
        return "msg/edge"
    if name.endswith("us_per_edge"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "frac"


def environment(numpy_version: str) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "threads_pinned": {v: os.environ[v] for v in THREAD_VARS}}


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))

    def worker(self, workdir: Path, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--trace", str(a.trace), "--workdir", str(workdir), *extra]
        left = DEADLINE_S - (perf_counter() - self.started)
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker did not finish within {left:.0f} s") from err
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["trwmap"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"trwmap was imported from {result['trwmap']}, not {SRC}")
        return result


def tail(times: list) -> tuple:
    """The highest nearest-rank percentile of the sorted model times that
    leaves ten models beyond it; the largest when the pool has ten or fewer.
    Returns (value, percentile, models beyond)."""
    rank = len(times) - 10 if len(times) > 10 else len(times)
    return times[rank - 1], 100.0 * rank / len(times), len(times) - rank


def check_models(result: dict) -> tuple:
    """Checks every solve.  A pool model fails when any of its solves raised,
    exited 1 or gave a wrong answer, or when its solves disagree.  Returns
    (failed models, wrong models, failure counts by reason)."""
    sys.path.insert(0, str(SRC))
    from checks import Checker

    checker = Checker()
    reasons = collections.Counter()
    status = {}
    first = {}
    for model in result["models"]:
        i = model["item"]
        info = result["pool"][i]
        # An error's location can move with the tracing wrappers' frames.
        answer = model.get("answers") or model["error"].split(" (at ")[0]
        if first.setdefault(i, answer) != answer:
            verdict = ("wrong", "answers differ between solves")
        else:
            verdict = checker.check(info, model)
        if verdict[0] != "ok" and status.get(i, "ok") == "ok":
            status[i] = verdict[0]
            reasons[f"{info['label']}: {verdict[0]}: {verdict[1]}"] += 1
    bad = [s for s in status.values() if s != "ok"]
    return len(bad), bad.count("wrong"), reasons


def run(args) -> int:
    if not (SRC / "trwmap" / "__init__.py").is_file():
        raise BenchError(f"no trwmap sources under {SRC}; run from a source checkout")
    runner = Runner(args)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = runner.worker(workdir)
        setups = [result]
        if not args.trace:
            for k in range(SETUP_REPEATS - 1):
                sub = workdir / f"setup{k}"
                sub.mkdir()
                setups.append(runner.worker(sub, "--setup-only"))
        failed, wrong, reasons = check_models(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass

    attempted = len({m["item"] for m in result["models"]})
    print("env: " + json.dumps(environment(result["numpy"])))
    for reason, count in sorted(reasons.items()):
        print(f"failed: {count} x {reason}")
    if args.trace:
        if result["repeat_mismatch"]:
            raise BenchError("counts differ between two traced passes over the same "
                             f"models: {result['repeat_mismatch']}")
        print(f"{args.workload}: {attempted} models, each traced, untraced and traced "
              f"again; failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(result["layer"].items())}
    else:
        solves = result["models"]
        per_model = collections.defaultdict(list)
        for m in solves:
            per_model[m["item"]].append(scaled(m["seconds"], m["reference_s"]))
        if attempted != len(result["pool"]):
            raise BenchError("the loop did not solve every model of the pool")
        times = sorted(statistics.median(v) for v in per_model.values())
        tail_s, pct, beyond = tail(times)
        setup = [scaled(r["setup_s"], r["setup_reference_s"]) for r in setups]
        slowdown = statistics.median(m["reference_s"] for m in solves) / REFERENCE_S
        print(f"{args.workload}: {len(solves)} solves of {attempted} models in "
              f"{result['loop_s']:.2f} s; the reference "
              f"kernel ran {slowdown:.3f}x its nominal time (median), and each model's "
              f"time is the median of its scaled solve times; model_s_tail is "
              f"p{pct:.1f} of {attempted} models ({beyond} beyond); failed_frac "
              f"{failed / attempted:.4f} ({failed} of {attempted}); raw setup samples "
              f"{[round(r['setup_s'], 4) for r in setups]}")
        values = {"setup_s": statistics.median(setup),
                  "models_per_s": attempted / sum(times),
                  "model_s_p50": statistics.median(times),
                  "model_s_tail": tail_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM unwind normally: subprocess.run then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        return run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

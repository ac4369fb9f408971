"""In-memory spans around the public functions of each trwmap layer.

A span is (name, start, end, parent index, raised, info).  Wrappers are
installed at every module binding of a function, because trwmap modules
import each other's functions by name (`trw` binds `tree_max_marginals` via
`from .treedp import ...`), and are removed again on exit, so untraced passes
run the library exactly as shipped.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

MODULES = ("trwmap", "trwmap.cli", "trwmap.model", "trwmap.trees",
           "trwmap.treedp", "trwmap.trw", "trwmap.lp", "trwmap.examples")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _trw_result(args, kwargs, res):
    return {"iterations": res.iterations, "converged": res.converged,
            "certified": res.certificate is not None,
            "messages_per_edge": res.messages_per_edge}


# (layer, function) -> extracts the span's info from (args, kwargs, result)
# of a call that returned.
OBSERVE = {
    ("cli", "main"): None,
    ("cli", "run_experiment"): None,
    ("model", "load_model"): None,
    ("trees", "edge_appearance"): None,
    ("treedp", "tree_max_marginals"): None,
    ("treedp", "tree_map_value"): None,
    ("treedp", "brute_force_map"): None,
    ("treedp", "check_edge_consistency"): None,
    ("trw", "run_trw"): _trw_result,
    ("trw", "run_tree_updates"): _trw_result,
    ("trw", "message_step"):
        lambda a, k, r: {"edges": len(_arg(a, k, 1, "mrf").edges)},
    ("trw", "reparameterization_step"):
        lambda a, k, r: {"edges": len(_arg(a, k, 0, "nu").log_edge)},
    ("trw", "messages_to_pseudo"): None,
    ("trw", "find_certificate"): None,
    ("lp", "build_local_lp"): None,
    ("lp", "simplex_solve"): None,
    ("lp", "classify_vertex"): lambda a, k, r: {"kind": r.kind},
}
STEP_KERNELS = ("trw.message_step", "trw.reparameterization_step")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = observe(args, kwargs, result) if observe and not raised else None
                spans[idx] = (name, start, end, parent, raised, info)

        return traced

    @contextmanager
    def installed(self):
        """Replace every module binding of each observed function with its
        traced wrapper for the duration of the block."""
        modules = [importlib.import_module(m) for m in MODULES]
        restore = []
        try:
            for (layer, fname), observe in OBSERVE.items():
                fn = getattr(importlib.import_module(f"trwmap.{layer}"), fname)
                wrapped = self.wrap(f"{layer}.{fname}", fn, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            restore.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, value in reversed(restore):
                setattr(mod, attr, value)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def repeat_counts(self) -> dict:
        """Counts that must repeat exactly on the same inputs."""
        counts = {f"{layer}.{fname}.calls": 0 for layer, fname in OBSERVE}
        edges = {k: 0 for k in STEP_KERNELS}
        cert_failed = 0
        trw_runs = {"trw.run_trw": [], "trw.run_tree_updates": []}
        trw_calls = 0
        vertices = []
        for name, _, _, _, raised, info in self.spans:
            counts[f"{name}.calls"] += 1
            if name in edges and info:
                edges[name] += info["edges"]
            elif name == "trw.find_certificate" and raised:
                cert_failed += 1
            elif name in trw_runs:
                trw_calls += 1
                if info:
                    trw_runs[name].append(info)
            elif name == "lp.classify_vertex" and info:
                vertices.append(info["kind"])
        runs = trw_runs["trw.run_trw"] + trw_runs["trw.run_tree_updates"]
        for k, v in edges.items():
            counts[f"{k}.edges"] = v
        counts["trw.find_certificate.failed"] = cert_failed
        counts["trw.iterations"] = sum(r["iterations"] for r in runs)
        for label, key in (("edge", "trw.run_trw"), ("tree", "trw.run_tree_updates")):
            mpe = [r["messages_per_edge"] for r in trw_runs[key]]
            counts[f"trw.{label}.messages_per_edge_p50"] = statistics.median(mpe) if mpe else 0.0
        counts["trw.converged_frac"] = (sum(r["converged"] for r in runs) / len(runs)
                                        if runs else 0.0)
        counts["trw.certified_frac"] = (sum(r["certified"] for r in runs) / trw_calls
                                        if trw_calls else 0.0)
        counts["lp.fractional_frac"] = (vertices.count("fractional") / len(vertices)
                                        if vertices else 0.0)
        return counts

    def layer_metrics(self, wall_s: float) -> dict:
        """Repeat counts plus each layer's self time as a share of `wall_s`,
        and the step kernels' self time per edge update."""
        out = self.repeat_counts()
        self_s = {f"{layer}.{fname}": 0.0 for layer, fname in OBSERVE}
        for span, s in zip(self.spans, self.self_times()):
            self_s[span[0]] += s
        for name, s in self_s.items():
            out[f"{name}.self_frac"] = s / wall_s
        edges = sum(out[f"{k}.edges"] for k in STEP_KERNELS)
        kernel_s = sum(self_s[k] for k in STEP_KERNELS)
        out["trw.step_kernels.us_per_edge"] = 1e6 * kernel_s / edges if edges else 0.0
        out["trace.wall_s"] = wall_s
        return out

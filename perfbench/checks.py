"""Independent answer checks.

The reference value of the local-polytope LP comes from scipy's HiGHS on a
sparse LP built here from the model file, not from `trwmap.build_local_lp`,
whose dense matrix for a 32x32 grid with 3 states would need about 2 GB.
Assignments are rescored with `trwmap.score`.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

import trwmap

LP_TOL = 1e-7  # simplex value against the reference value
SCORE_TOL = 1e-9  # printed value against the rescored assignment, relative


def local_polytope_value(doc: dict) -> float:
    """max theta.tau over the local polytope of a model document: unit node
    sums, and edge tables whose row and column sums give the node vectors."""
    cards = np.asarray(doc["nodes"], dtype=int)
    node_off = np.concatenate([[0], np.cumsum(cards)])
    cost = [np.concatenate([np.asarray(v, dtype=float) for v in doc["theta_node"]])]
    n_nodes = len(cards)
    rows = [np.repeat(np.arange(n_nodes), cards)]
    cols = [np.arange(node_off[-1])]
    vals = [np.ones(node_off[-1])]
    row, col = n_nodes, int(node_off[-1])
    for (s, t), table in zip(doc["edges"], doc["theta_edge"]):
        ms, mt = cards[s], cards[t]
        idx = (col + np.arange(ms * mt)).reshape(ms, mt)
        col += ms * mt
        cost.append(np.asarray(table, dtype=float).reshape(-1))
        # sum_k tau_st(j, k) - tau_s(j) = 0, then sum_j tau_st(j, k) - tau_t(k) = 0
        for axis_rows, node, m in ((np.repeat(np.arange(ms), mt), s, ms),
                                   (np.tile(np.arange(mt), ms), t, mt)):
            rows += [row + axis_rows, row + np.arange(m)]
            cols += [idx.reshape(-1), node_off[node] + np.arange(m)]
            vals += [np.ones(ms * mt), -np.ones(m)]
            row += m
    A = sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(row, col))
    b = np.zeros(row)
    b[:n_nodes] = 1.0
    res = linprog(-np.concatenate(cost), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def _fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value.strip()
    return out


class Checker:
    """Classifies each model as "ok", "raised", "exit1", "unproven" or
    "wrong", with a reason.  "unproven" is a certificate that misses the
    optimum after a run that did not converge: the paper's theorem covers
    fixed points only, and printing such a certificate is a known defect of
    the library.  It counts as a failed model; a wrong certificate at a
    converged run, or any other wrong answer, makes the run incorrect.  Reference values and parsed models are cached per file and are
    computed only when an answer needs them."""

    def __init__(self):
        self._docs = {}
        self._models = {}
        self._refs = {}

    def _load(self, path):
        if path not in self._models:
            with open(path, "rb") as fh:
                data = fh.read()
            self._docs[path] = json.loads(data)
            self._models[path] = trwmap.load_model(data)
        return self._models[path]

    def reference(self, path) -> float:
        if path not in self._refs:
            self._load(path)
            self._refs[path] = local_polytope_value(self._docs[path])
        return self._refs[path]

    def _rescore(self, path, assignment: str, printed: str):
        value = float(printed)
        rescored = trwmap.score(self._load(path), [int(c) for c in assignment])
        if abs(rescored - value) > SCORE_TOL * max(1.0, abs(value)):
            return f"printed value {printed} but the assignment scores {rescored!r}"
        return None

    def _check_solve(self, path, answer):
        method, code, f = answer["method"], answer["code"], _fields(answer["text"])
        if code == 1:
            return "exit1", f"{method} exited 1: {answer['text'].strip()}"
        if method == "lp":
            ref = self.reference(path)
            if abs(float(f["value"]) - ref) > LP_TOL:
                return "wrong", f"simplex value {f['value']} against reference {ref!r}"
            integral = f["vertex"] == "integral"
            if code != (0 if integral else 2):
                return "wrong", f"lp exit {code} on a {f['vertex']} vertex"
            if integral:
                reason = self._rescore(path, f["assignment"], f["value"])
                if reason:
                    return "wrong", reason
            return "ok", ""
        cert = f["certificate"]
        if cert.startswith("none"):
            return ("ok", "") if code == 2 else ("wrong", f"{method} exit {code} without certificate")
        if code != 0:
            return "wrong", f"{method} exit {code} with a certificate"
        reason = self._rescore(path, cert, f["value"])
        if reason:
            return "wrong", reason
        ref = self.reference(path)
        if abs(float(f["value"]) - ref) > LP_TOL * max(1.0, abs(ref)):
            return (("unproven" if f["converged"] == "False" else "wrong"),
                    f"{method} certificate scores {f['value']}, LP bound is {ref!r} "
                    f"(converged: {f['converged']})")
        return "ok", ""

    def check(self, info: dict, model: dict):
        if "error" in model:
            return "raised", model["error"]
        for answer in model["answers"]:
            if "oracle_match" not in answer:
                status, reason = self._check_solve(info["path"], answer)
                if status != "ok":
                    return status, reason
            elif answer["certificate"] and answer["oracle_match"] is not True:
                return (("wrong" if answer["converged"] else "unproven"),
                        f"{answer['method']} certificate {answer['certificate']} misses "
                        f"the brute-force optimum (converged: {answer['converged']})")
        return "ok", ""

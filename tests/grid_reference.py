"""The grid oracle's per-call form, kept as the `==` oracle of `treedp.grid_map`
on its cached per-shape plan (`treedp._grid_plan`).

`grid_map` here validates the grid, plans its lines, their joint states and
every gather index on every call, and builds each line-pair table column by
column from zeros.  The library's `grid_map` must return the same value
(`repr`) and optimal set on every grid: both rescore the configurations they
collect in `score`'s order, which decides the answer.
"""

import math

import numpy as np

from trwmap import CapacityError, StructureError, grid_edges
from trwmap.model import _indicator_index, _sum_in_order
from trwmap.treedp import OptSet

BRUTE_FORCE_GUARD = 2 ** 24
GRID_OPTIMA_GUARD = 2 ** 16
GRID_KEPT_TABLES = 2 ** 20


def is_grid(mrf, rows, cols):
    return (mrf.node_count == rows * cols
            and len(mrf.edges) == rows * (cols - 1) + (rows - 1) * cols
            and sorted(mrf.edges) == grid_edges(rows, cols))


def grid_lines(cardinalities, rows, cols):
    grid = np.arange(rows * cols).reshape(rows, cols)
    sizes = [max(math.prod(cardinalities[s] for s in line) for line in g)
             for g in (grid, grid.T)]
    if min(sizes) ** 2 > BRUTE_FORCE_GUARD:
        raise CapacityError(f"grid line-pair table exceeds guard of {BRUTE_FORCE_GUARD}")
    return (grid.T if sizes[1] < sizes[0] else grid).tolist()


def grid_map(mrf, rows, cols):
    """Exact MAP value and optimal set of a grid model, by a max-sum DP over
    its lines, a backtrack of every configuration near the DP value and a
    rescoring in `score`'s order."""
    if not is_grid(mrf, rows, cols):
        raise StructureError(f"the model's graph is not the {rows}x{cols} grid")
    lines = grid_lines(mrf.cardinalities, rows, cols)
    theta = np.concatenate((mrf.node_vector, mrf.edge_vector))
    cards = np.array(mrf.cardinalities)
    node_off, edge_off = mrf.offsets
    where = {e: k for k, e in enumerate(mrf.edges)}
    starts = edge_off.tolist()
    shapes = [tuple(cards[line].tolist()) for line in lines]
    joint = {key: np.indices(key).reshape(len(key), -1).T for key in set(shapes)}
    states = [joint[key] for key in shapes]

    def within(line, x):
        e = edge_off[[where[(s, t)] for s, t in zip(line[:-1], line[1:])]]
        pos = np.concatenate((node_off[line] + x, e + x[:, :-1] * cards[line[1:]] + x[:, 1:]), 1)
        return theta[pos].sum(axis=1)

    def between(r, next_states):
        x, y = states[r], states[r + 1][next_states]
        out = np.zeros((len(x), len(y)))
        for c, (s, t) in enumerate(zip(lines[r], lines[r + 1])):
            k = where[(s, t)]
            table = theta[starts[k]:starts[k + 1]].reshape(cards[s], cards[t])
            out += table[x[:, c]][:, y[:, c]]
        return out

    unary = [within(line, x) for line, x in zip(lines, states)]
    keep = sum(len(x) * len(y) for x, y in zip(states, states[1:])) <= GRID_KEPT_TABLES
    best, kept = [unary[0]], []
    for r in range(1, len(lines)):
        pair = between(r - 1, slice(None))
        kept.append(pair.copy() if keep else None)
        pair += best[-1][:, None]
        best.append(unary[r] + pair.max(axis=0))
    floor = best[-1].max() - 1e-9 * (1.0 + np.abs(theta).sum())
    too_many = CapacityError(f"more than {GRID_OPTIMA_GUARD} near-optimal grid configurations")
    paths = np.flatnonzero(best[-1] >= floor)[:, None]
    if len(paths) > GRID_OPTIMA_GUARD:
        raise too_many
    tail = unary[-1][paths[:, 0]]
    for r in range(len(lines) - 2, -1, -1):
        step = max(1, 2 ** 20 // len(best[r]))
        grown, count = [], 0
        for lo in range(0, len(paths), step):
            p, t = paths[lo:lo + step], tail[lo:lo + step]
            pair = between(r, p[:, 0]) if kept[r] is None else kept[r][:, p[:, 0]]
            k, i = np.nonzero(best[r][:, None] + pair + t >= floor)
            count += len(k)
            if count > GRID_OPTIMA_GUARD:
                raise too_many
            grown.append((np.concatenate((k[:, None], p[i]), 1), t[i] + pair[k, i] + unary[r][k]))
        paths, tail = (np.concatenate(part) for part in zip(*grown))
    x = np.empty((len(paths), mrf.node_count), dtype=np.intp)
    for r, line in enumerate(lines):
        x[:, line] = states[r][paths[:, r]]
    scores = np.concatenate([_sum_in_order(theta[_indicator_index(mrf, part)].T)
                             for part in np.split(x, range(4096, len(x), 4096))])
    top = scores.max()
    x = x[scores == top]
    x = x[np.lexsort(x.T[::-1])]
    return float(top), OptSet(tuple(map(tuple, x.tolist())))

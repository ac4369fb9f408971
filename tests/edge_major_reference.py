"""The synchronous kernels of `trw._FlatMrf` as they ran on the layout's own
edge-major arrays, kept as the oracle of the edge-last run state that
replaced them.

`EdgeMajorFlatMrf` keeps messages as one (E, 2, M) array and tables as one
padded (E, M, M) stack: every max over states is `_top` over a short
trailing axis, and every broadcast has an inner loop of length M.  The
library's kernels flip these arrays once at a run's start and once at its
end, and in between must perform the same floating-point operations on
every entry in the same order, so every state, result and bound is
`np.array_equal` to this oracle's with the same sign bits, zeros included.

One change from the form the library ran: a table's max, for its
max-normalization, was `.max(axis=(1, 2))`.  On a tie of +0.0 and -0.0 that
reduction returns a zero that depends on numpy's SIMD dispatch, and on the
default dispatch too it returns another zero than any fold of np.maximum
in a fixed order.  Here it is the fold over the rows of the row maxima,
both in `_top`'s order, which returns the zero a left-to-right fold over the
table in row-major order returns.  On tables without such ties, as in every
run on real-valued models, the two are equal.
"""

import functools

import numpy as np

from trwmap.model import _sum_in_order
from trwmap.treedp import MessageSet, _top
from trwmap.trw import PseudoMaxMarginals, _damp


def _normalized(a: np.ndarray) -> np.ndarray:
    """Shift every table of an (E, M, M) stack so its largest entry is 0, the
    max taken over the rows of the row maxima, in `_top`'s order."""
    return a - _top(_top(a, 2), 1)[:, None, None]


class EdgeMajorFlatMrf:
    """A run's rho and model on a cached `layout`, for array updates.

    Messages are one (E, 2, M) array, msgs[k, 0] the log message t->s of the
    k-th edge and msgs[k, 1] the one s->t, 0 on padded states.  `rho_e` comes
    checked (`_checked_rho`).  Only the public reparameterization step has
    no `mrf`: it reads no model tables."""

    def __init__(self, layout, rho_e, mrf=None):
        self.layout = layout
        self.rho = np.fromiter(map(rho_e.__getitem__, layout.edges), float, len(layout.edges))
        self.entries = layout.entries
        # rho of each valid side's edge, as the node sums weight them
        self._rho_sides = np.repeat(self.rho, 2 * layout.pad.shape[2]).take(layout.sides)
        if mrf is not None:
            self.theta_node = mrf.node_vector
            self.table = layout.model_tables(mrf) / self.rho[:, None, None]

    def _normalized_nodes(self, v: np.ndarray) -> np.ndarray:
        return v - self.layout.node_max(v)

    # --- messages: one (E, 2, M) array --------------------------------------

    @functools.cached_property
    def _oriented(self) -> np.ndarray:
        """(E, 2, M, M): [k, 0] the k-th table, rows x_s, and [k, 1] its
        transpose, rows x_t, so both directions maximize over the last axis."""
        return np.stack((self.table, self.table.transpose(0, 2, 1)), axis=1)

    def unit_messages(self) -> tuple:
        return (np.zeros(self.layout.idx.shape),)

    def _cavities(self, msgs: np.ndarray) -> tuple:
        """(h, h[idx] - msgs): h is the node vector theta_s plus
        sum over neighbors v of rho_vs * log M_vs."""
        layout = self.layout
        weighted = self._rho_sides * msgs.take(layout.sides)
        h = self.theta_node + np.bincount(layout._target, weighted, layout.size)
        return h, h[layout.idx] - msgs

    def message_step(self, msgs: tuple, damping: float) -> tuple:
        old = msgs[0]
        _, cav = self._cavities(old)
        # message t -> s (indexed by x_s) maximizes over x_t, s -> t over x_s;
        # a max over the last axis is `_top`'s: np.maximum of its slices in order
        second, rest = min(1, self.layout.pad.shape[2] - 1), range(2, self.layout.pad.shape[2])
        t = self._oriented + cav[:, ::-1, None, :]
        new = np.maximum(t[..., 0], t[..., second])
        for j in rest:
            np.maximum(new, t[..., j], out=new)
        top = np.maximum(new[..., 0], new[..., second])
        for j in rest:
            np.maximum(top, new[..., j], out=top)
        new -= top[..., None]
        if damping < 1.0:
            new = damping * new + (1.0 - damping) * old
            np.maximum(new[..., 0], new[..., second], out=top)
            for j in rest:
                np.maximum(top, new[..., j], out=top)
            new -= top[..., None]
        if len(self.layout.pad_at):
            new.put(self.layout.pad_at, 0.0)
        return (new,)

    def pseudo_from_messages(self, msgs: tuple) -> tuple:
        h, cav = self._cavities(msgs[0])
        return (self._normalized_nodes(h),
                _normalized(self.table + cav[:, 0, :, None] + cav[:, 1, None, :]))

    def pack_messages(self, msgs: MessageSet) -> tuple:
        return (self.layout.messages(msgs),)

    def message_set(self, msgs: tuple) -> MessageSet:
        return MessageSet.on_layout(self.layout, msgs[0])

    # --- pseudo-max-marginals: node vector, then the table stack ------------

    def reparameterization_step(self, nu: tuple, damping: float) -> tuple:
        node, tables = nu
        layout = self.layout
        marg = np.stack((_top(tables, 2), _top(tables, 1)), axis=1)
        marg[layout.pad] = 0.0
        new_node = node.copy()
        np.add.at(new_node, layout._target,
                  (self.rho[:, None, None] * (marg - node[layout.idx])).take(layout.sides))
        new_node = self._normalized_nodes(new_node)
        near = new_node[layout.idx]
        new_tables = _normalized(tables - marg[:, 0, :, None] - marg[:, 1, None, :]
                                 + near[:, 0, :, None] + near[:, 1, None, :])
        if damping < 1.0:
            new_node = self._normalized_nodes(_damp(new_node, node, damping))
            new_tables = _normalized(_damp(new_tables, tables, damping))
        return new_node, new_tables

    def pseudo(self, nu: tuple) -> PseudoMaxMarginals:
        return PseudoMaxMarginals.on_layout(self.layout, nu[0], nu[1])

    def bound(self, trees, weights, offset, nu: tuple) -> float:
        """Current upper bound from pseudo-max-marginals (node vector, table
        stack) and its edges' rho: rho-weighted optimal values of the
        induced tree problems, corrected by the additive constant
        separating their combination from theta."""
        (node, stack), graph = nu, self.layout
        near = node[graph.idx]
        theta = (stack - near[:, 0, :, None]) - near[:, 1, None, :]
        return (float(_sum_in_order(weights * trees.map_values(node, theta)))
                - offset(node[graph.offsets], self.rho * theta[:, 0, 0]))

"""The reparameterization step and stop rule of `trw` as they ran before the
step had a workspace, kept as the `==` oracle of the workspace form.

`PerCallFlatMrf` is `trw._FlatMrf` with the per-call step: each step
allocates its result and every temporary, and reads the row and column
maxima by `_top` off an (M, M, 2, E) copy of the table stack and its
transpose.  `max_change` is the stop rule's measure as it was: for each
array of a state, the largest absolute change of its entries at `valid`'s
flat positions, then the largest of these.  The workspace step must
perform the same floating-point operations on every entry in the same
order, so every state is `np.array_equal` to this oracle's with the same
sign bits, and every change is `==`.
"""

import numpy as np

from trwmap.treedp import _top
from trwmap.trw import _damp, _FlatMrf, _normalize_last


class PerCallFlatMrf(_FlatMrf):
    def reparameterization_step(self, nu: tuple, damping: float) -> tuple:
        node, tables = nu
        layout = self.layout
        # row maxima (over x_t) and column maxima (over x_s), 0 on padded states
        both = np.empty(tables.shape[:2] + (2, tables.shape[2]))
        both[:, :, 0], both[:, :, 1] = tables, tables.transpose(1, 0, 2)
        marg = _top(both, 0)
        marg.put(layout.pad_last, 0.0)
        new_node = node.copy()
        np.add.at(new_node, layout._target, self._rho_sides
                  * (marg.take(layout.sides_last) - node.take(layout._target)))
        new_node -= layout.node_max(new_node)
        near = new_node[layout.idx_last]
        new_tables = _normalize_last(tables - marg[None, :, 0] - marg[:, None, 1]
                                     + near[None, :, 0] + near[:, None, 1])
        if damping < 1.0:
            new_node = _damp(new_node, node, damping)
            new_node -= layout.node_max(new_node)
            new_tables = _normalize_last(_damp(new_tables, tables, damping))
        return new_node, new_tables


def max_change(new: tuple, old: tuple, valid=None) -> float:
    """The largest absolute log change between two states, on the entries at
    `valid`'s flat positions per array (None, or a None entry: all)."""
    return max(float(np.abs(a - b if v is None else a.take(v) - b.take(v)).max())
               for a, b, v in zip(new, old, valid or (None,) * len(new)))

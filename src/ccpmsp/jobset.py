"""Job-set diagram variant: set-only states and cumulative arc costs.

Merging nodes on the bare job set shrinks the diagram but loses the last
job, so an arc's cost must look back at the arcs entering its tail node:
cost(a) = min over incoming b of cost(b) + setup(val(b), val(a)), plus the
arc's own execution time.  Costs are therefore cumulative: each arc carries
the best total time of any sequence realizing its path prefix.

The diagram is regular, so the recursion runs as a batched min-plus
product per layer over the in-arc matrices and setup cells the diagram
derives at build, keeping only the previous layer's arc costs.  Time arrays
may carry a trailing scenario axis (t of shape (k + 1, W), d of shape
(k + 1, k + 1, W)); every scenario then goes through the same operations,
in the same order, as it would alone.
"""

from __future__ import annotations

import numpy as np

from .diagram import Diagram, minimal_over_limit
from .model import StructuralError


def _sweep(diag: Diagram, t: np.ndarray, d: np.ndarray, visit) -> None:
    """Call ``visit(p, into)`` for p = 1..k, where ``into`` holds the costs
    of the arcs entering layer p as its (in-degree, nodes) matrix.  Only
    that matrix lives on into the next layer."""
    if diag.variant != "jobset" or d.shape[1] != diag.depth + 1:
        raise StructuralError("job-set costs requested for a different variant or size")
    k, scen = diag.depth, t.shape[1:]
    val, ranges = diag.arc_value, diag.layer_arc_ranges
    setup = d.reshape(-1, *scen)
    closing = d[:, 0]
    base = t.take(val[slice(*ranges[0])], axis=0)
    if k == 1:  # the root's arcs enter the terminal
        base += closing.take(val[slice(*ranges[0])], axis=0)
    for p in range(1, k + 1):
        into = base.reshape(-1, *scen).take(diag.layer_in[p - 1], axis=0)
        del base
        visit(p, into)
        if p == k:
            return
        start, end = ranges[p]
        vals_out = val[start:end].reshape(into.shape[1], -1)
        # min over in-arcs, one in-arc slot at a time: the temporaries stay
        # the size of the layer's out-arcs
        for i, cells in enumerate(diag.layer_cells[p - 1]):
            step = setup.take(cells, axis=0)
            step += into[i][:, None]
            if i == 0:
                base = step
            else:
                np.minimum(base, step, out=base)
            del step
        del into
        base += t.take(vals_out, axis=0)
        if p == k - 1:  # arcs into the terminal
            base += closing.take(vals_out, axis=0)


def arc_costs(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cumulative per-arc costs, one batched sweep per layer.

    Every buffer is allocated per call, so evaluations of the same diagram
    never share state.
    """
    costs = np.empty((diag.n_arcs, *t.shape[1:]))

    def visit(p, into):
        costs[slice(*diag.layer_arc_ranges[p - 1])][diag.layer_in[p - 1]] = into

    _sweep(diag, t, d, visit)
    return costs


def min_time(diag: Diagram, t: np.ndarray, d: np.ndarray) -> float:
    start, end = diag.layer_arc_ranges[-1]
    return float(arc_costs(diag, t, d)[start:end].min())


def set_times(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Best time per job set (indexed by bit mask, scenarios along the
    trailing axis): the cheapest cumulative cost into the set's node;
    partial sets exclude the closing setup."""
    table = np.empty((1 << diag.depth, *t.shape[1:]))
    table[0] = 0.0  # the empty set, at the root

    def visit(p, into):
        table[diag.layer_masks[p - 1]] = into.min(axis=0)

    _sweep(diag, t, d, visit)
    return table


def iis(diag: Diagram, time_limit: float, t: np.ndarray, d: np.ndarray) -> list[frozenset]:
    """Irreducible infeasible job sets for one scenario."""
    return minimal_over_limit(set_times(diag, t, d)[:, None], time_limit)[0]

"""Job-set diagram variant: set-only states and cumulative arc costs.

Merging nodes on the bare job set shrinks the diagram but loses the last
job, so an arc's cost must look back at the arcs entering its tail node:
cost(a) = min over incoming b of cost(b) + setup(val(b), val(a)), plus the
arc's own execution time.  Costs are therefore cumulative: each arc carries
the best total time of any sequence realizing its path prefix.

The diagram is regular, so the recursion runs as one batched min-plus
product per layer over the in-arc matrices and setup cells the diagram
derives at build.
"""

from __future__ import annotations

import numpy as np

from .diagram import Diagram, minimal_over_limit
from .model import StructuralError


def arc_costs(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cumulative per-arc costs, one batched sweep per layer.

    The scratch buffer is allocated per call, so evaluations of the same
    diagram never share state.
    """
    if diag.variant != "jobset" or d.shape[1] != diag.depth + 1:
        raise StructuralError("job-set costs requested for a different variant or size")
    val = diag.arc_value
    setup = np.ravel(d)
    memo = np.empty(diag.n_arcs)
    for li, (start, end) in enumerate(diag.layer_arc_ranges):
        vals_out = val[start:end].reshape(len(diag.layers[li]), -1)
        if li == 0:
            base = t[vals_out]
        else:
            a_in, cells = diag.layer_in[li - 1], diag.layer_setup[li - 1]
            base = (memo[a_in][:, :, None] + setup[cells]).min(axis=1) + t[vals_out]
        if end == diag.n_arcs:  # arcs into the terminal
            base = base + d[vals_out, 0]
        memo[start:end] = base.ravel()
    return memo


def min_time(diag: Diagram, t: np.ndarray, d: np.ndarray) -> float:
    start, end = diag.layer_arc_ranges[-1]
    return float(arc_costs(diag, t, d)[start:end].min())


def set_times(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Best time per job set (indexed by bit mask): the cheapest cumulative
    cost into the set's node; partial sets exclude the closing setup."""
    memo = arc_costs(diag, t, d)
    table = np.empty(1 << diag.depth)
    table[0] = 0.0  # the empty set, at the root
    for layer, a_in in zip(diag.layers[1:], diag.layer_in):
        table[diag.node_mask[layer.start:layer.stop]] = memo[a_in].min(axis=1)
    return table


def iis(diag: Diagram, time_limit: float, t: np.ndarray, d: np.ndarray) -> list[frozenset]:
    """Irreducible infeasible job sets for one scenario."""
    return minimal_over_limit(set_times(diag, t, d), time_limit)

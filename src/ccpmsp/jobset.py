"""Job-set diagram variant: set-only states and cumulative arc costs.

Merging nodes on the bare job set shrinks the diagram but loses the last
job, so an arc's cost must look back at the arcs entering its tail node:
cost(a) = min over incoming b of cost(b) + setup(val(b), val(a)), plus the
arc's own execution time.  Costs are therefore cumulative: each arc carries
the best total time of any sequence realizing its path prefix.

The diagram is regular, so the recursion runs as a batched min-plus
product per layer over the in-arc matrices and setup cells the diagram
derives at build, keeping only the previous layer's arc costs.  It adds
cost(b) to the entry of the per-call ``lastjob.cost_table`` (setup plus
execution time, and the closing setup on the terminal's arcs), as the
last-job sweep does, so both variants give bitwise-equal set times.  Time
arrays may carry a trailing scenario axis (t of shape (k + 1, W), d of
shape (k + 1, k + 1, W)); every scenario then goes through the same
operations, in the same order, as it would alone.
"""

from __future__ import annotations

import math

import numpy as np

from .diagram import Diagram, minimal_over_limit
from .lastjob import cost_table
from .model import StructuralError

# Float64 cells (512 KB) that one step of the in-arc minimum may hold: as
# many in-arc slots go into a step as fit, and at least one.  The checks
# chunk their sweeps to the same bound, so a chunk of few scenarios takes
# a layer's slots in one step.
SLOT_BLOCK_CELLS = 1 << 16


def _sweep(diag: Diagram, t: np.ndarray, d: np.ndarray, visit) -> None:
    """Call ``visit(p, into)`` for p = 1..k, where ``into`` holds the costs
    of the arcs entering layer p as its (in-degree, nodes) matrix.  Only
    that matrix lives on into the next layer.

    A layer's out-arc costs are held (out-arc slot, node), so each in-arc
    cost broadcasts over whole rows, and are read back through
    ``Diagram.slot_major_in``.
    """
    if diag.variant != "jobset" or d.shape[1] != diag.depth + 1:
        raise StructuralError("job-set costs requested for a different variant or size")
    k, scen = diag.depth, t.shape[1:]
    scen_size = math.prod(scen)
    closing = (k + 1) ** 2  # offset of the closing half of ``costs``
    costs = cost_table(t, d)
    base = costs[closing if k == 1 else 0:].take(
        diag.arc_value[slice(*diag.layer_arc_ranges[0])], axis=0)
    for p in range(1, k + 1):
        into = base.take(diag.slot_major_in[p - 1], axis=0)
        del base
        visit(p, into)
        if p == k:
            return
        table = costs[closing if p == k - 1 else 0:]  # arcs into the terminal close
        cells = diag.layer_cells[p - 1].transpose(0, 2, 1)  # (in-arc, out-arc, node)
        # min over in-arcs, as many in-arc slots per step as fit
        block = max(1, SLOT_BLOCK_CELLS // (cells[0].size * scen_size))
        for i in range(0, len(cells), block):
            step = table.take(cells[i:i + block], axis=0)
            step += into[i:i + block, None]
            # one slot is its own minimum: no copy where it fills the bound
            least = step[0] if len(step) == 1 else step.min(axis=0)
            if i == 0:
                base = least
            else:
                np.minimum(base, least, out=base)
            del step, least
        del into
        base = base.reshape(-1, *scen)


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

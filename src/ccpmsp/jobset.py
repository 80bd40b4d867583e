"""Job-set diagram variant: set-only states and cumulative arc costs.

Merging nodes on the bare job set shrinks the diagram but loses the last
job, so an arc's cost must look back at the arcs entering its tail node:
cost(a) = min over incoming b of cost(b) + setup(val(b), val(a)), plus the
arc's own execution time.  Costs are therefore cumulative: each arc carries
the best total time of any sequence realizing its path prefix, and a job
set's time is the least cost of the arcs into its node.

The diagram is regular, so the recursion runs as a batched min-plus
product per layer over the in-arc matrices and setup cells of the
diagram's sweep plan, keeping only the previous layer's arc costs.  It
adds cost(b) to the entry of the per-call ``lastjob.cost_table`` (setup
plus execution time, and the closing setup on the terminal's arcs), as
the last-job sweep does, so both variants give bitwise-equal set times.
Time arrays may carry a trailing scenario axis (t of shape (k + 1, W), d
of shape (k + 1, k + 1, W)); every scenario then goes through the same
operations, in the same order, as it would alone.
"""

from __future__ import annotations

import math

import numpy as np

from .diagram import JOBSET, Diagram, minimal_over_limit
from .lastjob import cost_table
from .model import StructuralError

# Float64 cells (512 KB) that one step of the in-arc minimum may hold: as
# many in-arc slots go into a step as fit, and at least one.  The checks
# chunk their sweeps to the same bound, so a chunk of few scenarios takes
# a layer's slots in one step.
SLOT_BLOCK_CELLS = 1 << 16


def set_times(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Best time per job set (indexed by bit mask, scenarios along the
    trailing axis): the cheapest cumulative cost into the set's node;
    partial sets exclude the closing setup.

    Only the costs of the arcs entering the current layer live on into the
    next, as its (in-degree, nodes) matrix.  A layer's out-arc costs are
    held (out-arc slot, node), so each in-arc cost broadcasts over whole
    rows, and are read back through ``Diagram.layer_in``, which lists the
    in-arcs at those positions.
    """
    if diag.variant != JOBSET or d.shape[1] != diag.depth + 1:
        raise StructuralError("job-set costs requested for a different variant or size")
    k, scen = diag.depth, t.shape[1:]
    scen_size = math.prod(scen)
    closing = (k + 1) ** 2  # offset of the closing half of ``costs``
    costs = cost_table(t, d)
    table = np.empty((1 << k, *scen))
    table[0] = 0.0  # the empty set, at the root
    base = costs[closing if k == 1 else 0:][1:k + 1]  # the root adds jobs 1..k
    for p in range(1, k + 1):
        into = base.take(diag.layer_in[p - 1], axis=0)
        del base
        table[diag.layer_masks[p - 1]] = into.min(axis=0)
        if p == k:
            return table
        out_costs = costs[closing if p == k - 1 else 0:]  # arcs into the terminal close
        cells = diag.layer_cells[p - 1].transpose(0, 2, 1)  # (in-arc, out-arc, node)
        # min over in-arcs, as many in-arc slots per step as fit
        block = max(1, SLOT_BLOCK_CELLS // (cells[0].size * scen_size))
        for i in range(0, len(cells), block):
            step = out_costs.take(cells[i:i + block], axis=0)
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


def min_time(diag: Diagram, t: np.ndarray, d: np.ndarray) -> float:
    """The full set's time: its entry of ``set_times``."""
    return float(set_times(diag, t, d)[-1])


def iis(diag: Diagram, time_limit: float, t: np.ndarray, d: np.ndarray) -> list[int]:
    """Irreducible infeasible job sets for one scenario, as canonical masks."""
    return minimal_over_limit(set_times(diag, t, d)[:, None], time_limit)[0]

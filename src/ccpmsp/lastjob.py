"""Last-job diagram variant: composite states, linear arc costs, and IIS
extraction via the per-job-set time table.

The arc cost only needs the tail state's last job and the arc's own job, so
costs are independent per arc: each is one entry of a small per-call cost
table, read through the flat cells the diagram stores at build.  The closing
setup back to the dummy is paid exclusively on terminal-entering arcs;
partial job sets are therefore timed without it, which makes a partial
set's infeasibility a valid certificate for every extension.

The set-time sweep runs layer by layer over the in-arc tails and cost
cells the diagram derives at build, keeping only the previous layer's node
times.  Time arrays may carry a trailing scenario axis (t of shape
(k + 1, W), d of shape (k + 1, k + 1, W)); every scenario then goes through
the same operations, in the same order, as it would alone.
"""

from __future__ import annotations

import numpy as np

from .diagram import Diagram, minimal_over_limit, node_min_times
from .model import StructuralError


def cost_table(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Every arc cost of one call, flat in (closing, last, job) order.

    Entry (0, last, v) is d[last, v] + t[v], with t[v] alone in row 0 for
    the root's arcs (no last job); entry (1, last, v) adds the closing
    setup d[v, 0].  Trailing scenario axes are kept.
    """
    costs = np.empty((2, *d.shape))
    np.add(d, t[None], out=costs[0])
    costs[0, 0] = t
    np.add(costs[0], d[None, :, 0], out=costs[1])
    return costs.reshape(-1, *t.shape[1:])


def arc_costs(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-arc costs for one scenario's canonical time arrays.

    Root-leaving arcs cost t[v]; interior arcs d[last, v] + t[v]; arcs into
    the terminal additionally pay d[v, 0].
    """
    if diag.variant != "lastjob":
        raise StructuralError("last-job costs requested for a different variant")
    return cost_table(t, d).take(diag.arc_cell)


def min_time(diag: Diagram, t: np.ndarray, d: np.ndarray) -> float:
    return float(node_min_times(diag, arc_costs(diag, t, d))[diag.terminal])


def set_times(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Minimum completion time per job set (indexed by bit mask, scenarios
    along the trailing axis), taken over all nodes sharing that set: 0 for
    the empty set, the terminal time for the full set."""
    if diag.variant != "lastjob":
        raise StructuralError("last-job costs requested for a different variant")
    costs = cost_table(t, d)
    table = np.empty((1 << diag.depth, *t.shape[1:]))
    table[0] = 0.0
    times = np.zeros((1, *t.shape[1:]))  # the root
    for tails, cells, masks in zip(diag.layer_in, diag.layer_cells, diag.layer_masks):
        heads = costs.take(cells, axis=0)
        heads += times.take(tails, axis=0)  # arc cost plus tail time, per in-arc
        times = heads.min(axis=0)
        table[masks] = times.reshape(-1, len(masks), *t.shape[1:]).min(axis=0)
    return table


def iis(diag: Diagram, time_limit: float, t: np.ndarray, d: np.ndarray) -> list[frozenset]:
    """Irreducible infeasible job sets for one scenario."""
    return minimal_over_limit(set_times(diag, t, d)[:, None], time_limit)[0]

"""Last-job diagram variant: composite states, linear arc costs, and IIS
extraction via the per-job-set time table.

The arc cost only needs the tail state's last job and the arc's own job, so
costs are independent per arc.  The closing setup back to the dummy is paid
exclusively on terminal-entering arcs; partial job sets are therefore timed
without it, which makes a partial set's infeasibility a valid certificate
for every extension.
"""

from __future__ import annotations

import numpy as np

from .diagram import Diagram, minimal_over_limit, node_min_times
from .model import StructuralError


def arc_costs(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-arc costs for one scenario's canonical time arrays.

    Root-leaving arcs cost t[v]; interior arcs d[last, v] + t[v]; arcs into
    the terminal additionally pay d[v, 0].  Interior arcs are those after
    the root's arc range, closing arcs the last layer's arc range.
    """
    if diag.variant != "lastjob":
        raise StructuralError("last-job costs requested for a different variant")
    val = diag.arc_value
    costs = t[val]
    interior = slice(diag.layer_arc_ranges[0][1], None)
    closing = slice(*diag.layer_arc_ranges[-1])
    costs[interior] += d[diag.arc_last[interior], val[interior]]
    costs[closing] += d[val[closing], 0]
    return costs


def min_time(diag: Diagram, t: np.ndarray, d: np.ndarray) -> float:
    return float(node_min_times(diag, arc_costs(diag, t, d))[diag.terminal])


def set_times(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Minimum completion time per job set (indexed by bit mask), taken
    over all nodes sharing that set: 0 for the empty set, the terminal time
    for the full set."""
    table = np.full(1 << diag.depth, np.inf)
    np.minimum.at(table, diag.node_mask, node_min_times(diag, arc_costs(diag, t, d)))
    return table


def iis(diag: Diagram, time_limit: float, t: np.ndarray, d: np.ndarray) -> list[frozenset]:
    """Irreducible infeasible job sets for one scenario."""
    return minimal_over_limit(set_times(diag, t, d), time_limit)

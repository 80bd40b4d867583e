"""Last-job diagram variant: composite states, linear arc costs, and IIS
extraction via the per-job-set time table.

The arc cost only needs the tail state's last job and the arc's own job, so
costs are independent per arc: each is one entry of a small per-call cost
table, read through the flat cells of the diagram's sweep plan.  The
closing setup back to the dummy is paid exclusively on terminal-entering
arcs; partial job sets are therefore timed without it, which makes a
partial set's infeasibility a valid certificate for every extension.

The set-time sweep runs layer by layer over the plan's in-arc tails and
cost cells, keeping only the previous layer's node times, and a job set's
time is the least over its nodes.  Time arrays may carry a trailing
scenario axis (t of shape (k + 1, W), d of shape (k + 1, k + 1, W)); every
scenario then goes through the same operations, in the same order, as it
would alone.
"""

from __future__ import annotations

import numpy as np

from .diagram import LASTJOB, Diagram, minimal_over_limit
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


def set_times(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Minimum completion time per job set (indexed by bit mask, scenarios
    along the trailing axis), taken over all nodes sharing that set: 0 for
    the empty set, the terminal time for the full set."""
    if diag.variant != LASTJOB:
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


def min_time(diag: Diagram, t: np.ndarray, d: np.ndarray) -> float:
    """The full set's time: its entry of ``set_times``."""
    return float(set_times(diag, t, d)[-1])


def iis(diag: Diagram, time_limit: float, t: np.ndarray, d: np.ndarray) -> list[int]:
    """Irreducible infeasible job sets for one scenario, as canonical masks."""
    return minimal_over_limit(set_times(diag, t, d)[:, None], time_limit)[0]

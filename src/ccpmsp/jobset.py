"""Job-set diagram variant: set-only states and cumulative arc costs.

Merging nodes on the bare job set shrinks the diagram but loses the last
job, so an arc's cost must look back at the arcs entering its tail node:
cost(a) = min over incoming b of cost(b) + setup(val(b), val(a)), plus the
arc's own execution time.  Costs are therefore cumulative: each arc carries
the best total time of any sequence realizing its path prefix.

The diagram is regular (every node of layer p has exactly p-1 incoming and
k-p+1 outgoing arcs), so the recursion runs as one batched min-plus product
per layer over rectangular in/out arc matrices, precomputed once per diagram
and shared by all evaluations.
"""

from __future__ import annotations

import numpy as np

from .diagram import Diagram
from .model import TOL, StructuralError


def _layer_plan(diag: Diagram):
    """Per layer: (in-arc matrix or None, out-arc matrix or None); cached on
    the diagram (structural, identical for every evaluation)."""
    plan = getattr(diag, "_jobset_plan", None)
    if plan is None:
        plan = []
        for li, layer in enumerate(diag.layers):
            a_in = (
                np.array([diag.node_in[n] for n in layer], dtype=np.int64)
                if li > 0 else None
            )
            a_out = (
                np.array([diag.node_out[n] for n in layer], dtype=np.int64)
                if li < len(diag.layers) - 1 else None
            )
            plan.append((a_in, a_out))
        diag._jobset_plan = plan
    return plan


def _propagate(diag, memo, t, d, li, a_in, a_out, rows=None):
    """Fill the cumulative costs of the selected rows' outgoing arcs."""
    val = diag.arc_value
    if rows is not None:
        a_out = a_out[rows]
        if a_in is not None:
            a_in = a_in[rows]
    if len(a_out) == 0:
        return
    vals_out = val[a_out]
    if a_in is None:
        base = t[vals_out]
    else:
        vals_in = val[a_in]
        lead = memo[a_in][:, :, None] + d[vals_in[:, :, None], vals_out[:, None, :]]
        base = lead.min(axis=1) + t[vals_out]
    if li == len(diag.layers) - 2:  # arcs out of the last decision layer
        base = base + d[vals_out, 0]
    memo[a_out.ravel()] = base.ravel()


def arc_costs(diag: Diagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cumulative per-arc costs, one batched sweep per layer.

    The scratch buffer is allocated per call, so evaluations of the same
    diagram never share state.
    """
    if diag.variant != "jobset":
        raise StructuralError("job-set costs requested for a different variant")
    memo = np.full(diag.n_arcs, np.inf)
    for li, (a_in, a_out) in enumerate(_layer_plan(diag)):
        if a_out is not None:
            _propagate(diag, memo, t, d, li, a_in, a_out)
    return memo


def min_time(diag: Diagram, t: np.ndarray, d: np.ndarray) -> float:
    costs = arc_costs(diag, t, d)
    return float(costs[diag.node_in[diag.terminal]].min())


def iis(diag: Diagram, time_limit: float, t: np.ndarray, d: np.ndarray,
        prune: bool = True) -> list[frozenset]:
    """Irreducible infeasible job sets for one scenario.

    Walks the layers in order; a node whose state contains a kept set is
    skipped outright, otherwise its best incoming cumulative cost decides.
    With ``prune`` on, nodes below a kept set are dead and their outgoing
    costs never computed; this cannot change the result because every
    descendant state is a superset of the kept set.  Kept sets within one
    layer have equal size, so they never subsume each other and the layer
    can be decided in one batch.
    """
    memo = np.full(diag.n_arcs, np.inf)
    plan = _layer_plan(diag)
    kept: list[int] = []
    live = np.ones(1, dtype=bool)
    for li, layer in enumerate(diag.layers):
        a_in, a_out = plan[li]
        if li > 0:
            masks = np.fromiter(
                (diag.states[n] for n in layer), dtype=np.int64, count=len(layer)
            )
            times = memo[a_in].min(axis=1)
            dead = np.zeros(len(layer), dtype=bool)
            for kmask in kept:
                dead |= (masks & kmask) == kmask
            newly = ~dead & (times > time_limit + TOL)
            kept.extend(int(m) for m in masks[newly])
            live = ~(dead | newly)
        if a_out is not None:
            _propagate(diag, memo, t, d, li, a_in, a_out,
                       rows=live if prune else None)
    return [
        frozenset(j + 1 for j in range(diag.depth) if m >> j & 1) for m in kept
    ]

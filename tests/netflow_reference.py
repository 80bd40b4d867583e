"""The layered flow-dual pass and per-arc costs that
``ccpmsp.netflow.extract_duals`` replaced, kept as its bitwise reference,
with the payloads that read every non-assignment arc, and ``full_arrays``,
which rebuilds the per-node and per-arc dual arrays that the compact duals
of ``extract_duals`` leave out.

``extract_duals`` runs over the whole capacitated diagram, one decision
layer at a time: a forward pass over the arcs the column enables, then a
backward pass with an any-arc fallback.  The structure it reads per
diagram (``layer_spans``, the setup cells, the non-assignment job rows) is
derived here by ``layered`` from the diagram's arc arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from ccpmsp.netflow import (
    ASSIGN,
    NONASSIGN,
    CapDiagram,
    _first_seen_minima,
    _running_sum,
)


class LayeredDiagram:
    """A capacitated diagram with the structure the layered pass read,
    derived once; every other attribute is the diagram's own."""

    def __init__(self, capd: CapDiagram):
        self.capd = capd

        def where(mask):
            return np.flatnonzero(mask).astype(np.int32)

        assign = capd.arc_kind == ASSIGN
        nonassign = capd.arc_kind == NONASSIGN
        job, last = capd.arc_job, capd.arc_last
        after = last >= 1
        self.assign = assign
        self.assign_arcs = where(assign)
        width = capd.n_jobs + 1
        lead = where(assign & after)
        closing = where(assign & (capd.arc_head == capd.terminal))
        ending = where(nonassign & after)
        self.lead_setup = (lead, last[lead] * width + job[lead])
        self.closing_setup = (closing, job[closing] * width)
        self.ending_setup = (ending, last[ending] * width)
        self.na_arcs = where(nonassign)
        bits = np.int64(1) << np.arange(capd.n_jobs, dtype=np.int64)
        self.na_jobs = (capd.arc_cap[self.na_arcs, None] & bits) != 0
        bounds = np.searchsorted(capd.arc_layer, np.arange(len(capd.layers)))
        self.layer_spans = [
            (int(bounds[li]), int(bounds[li + 1]), layer[0], len(layer))
            for li, layer in enumerate(capd.layers[:-1])
        ]

    def __getattr__(self, name):
        return getattr(self.capd, name)


_LAYERED: dict[int, LayeredDiagram] = {}


def layered(capd) -> LayeredDiagram:
    if isinstance(capd, LayeredDiagram):
        return capd
    cached = _LAYERED.get(capd.n_jobs)
    if cached is None or cached.capd is not capd:
        cached = _LAYERED[capd.n_jobs] = LayeredDiagram(capd)
    return cached


def cap_arc_costs(capd, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-arc costs for one scenario: an assignment arc pays its job's time,
    the setup from the previous job and, into the terminal, the closing
    setup; a non-assignment arc pays the closing setup of the last job."""
    capd = layered(capd)
    setup = np.ravel(d)
    costs = np.zeros(capd.n_arcs)
    costs[capd.assign_arcs] = t[capd.arc_job[capd.assign_arcs]]
    for arcs, cells in (capd.lead_setup, capd.closing_setup):
        costs[arcs] += setup[cells]
    arcs, cells = capd.ending_setup
    costs[arcs] = setup[cells]
    return costs


def _enabled(capd, x_col: np.ndarray) -> np.ndarray:
    """Per arc: an assignment arc is enabled when its job is in the column,
    a non-assignment arc when none of its U_a is."""
    xmask = 0
    for j in np.flatnonzero(np.asarray(x_col)):
        xmask |= 1 << int(j)
    held = capd.arc_cap & xmask
    return np.where(capd.arc_kind == ASSIGN, held == capd.arc_cap, held == 0)


@dataclass
class DualValues:
    pi: np.ndarray
    pi_root: float
    alpha: np.ndarray  # per arc; nonzero only on assignment arcs
    beta: np.ndarray  # per arc; nonzero only on non-assignment arcs
    enabled: np.ndarray = field(repr=False)


def extract_duals(capd, x_col: np.ndarray, t: np.ndarray,
                  d: np.ndarray) -> DualValues:
    """Shortest-path duals of the column's flow problem.

    pi is the enabled to-terminal distance (with an any-arc fallback at
    nodes the column strands, keeping values finite); a capacitated arc's
    dual is the negative part of the reduction the cheapest path forced
    through it would bring: fdist(tail) + cost + pi(head) - pi(root).
    Arcs on the current shortest path, and arcs whose forced path is no
    better, get zero.  Both passes go one decision layer at a time: an
    arc's head lies in a later layer than its tail, so the distances a
    layer reads are final by then, and minima do not depend on order.
    """
    capd = layered(capd)
    costs = cap_arc_costs(capd, t, d)
    enabled = _enabled(capd, x_col)
    tail, head = capd.arc_tail, capd.arc_head

    fdist = np.full(capd.n_nodes, np.inf)
    fdist[capd.root] = 0.0
    for start, end, _, _ in capd.layer_spans:
        on = start + np.flatnonzero(enabled[start:end])
        np.minimum.at(fdist, head[on], fdist[tail[on]] + costs[on])

    pi = np.full(capd.n_nodes, np.inf)
    pi[capd.terminal] = 0.0
    for start, end, first, count in reversed(capd.layer_spans):
        via = costs[start:end] + pi[head[start:end]]
        slot = tail[start:end] - first
        on = enabled[start:end]
        best = np.full(count, np.inf)
        np.minimum.at(best, slot[on], via[on])
        fallback = np.full(count, np.inf)
        np.minimum.at(fallback, slot, via)
        pi[first:first + count] = np.where(np.isfinite(best), best, fallback)

    pi_root = float(pi[capd.root])
    # tails the root cannot reach give r = inf and no dual
    r = fdist[tail] + costs + pi[head] - pi_root
    neg = r < 0
    alpha = np.where(neg & capd.assign, r, 0.0)
    beta = np.where(neg & ~capd.assign, r, 0.0)
    return DualValues(pi=pi, pi_root=pi_root, alpha=alpha, beta=beta, enabled=enabled)


def _na_terms(capd, keep: np.ndarray):
    """(arc, 0-based job) of every job of U_a of the non-assignment arcs
    where ``keep`` (per arc) holds, in arc order, jobs ascending."""
    rows, jobs = np.nonzero(capd.na_jobs & keep[capd.na_arcs, None])
    return capd.na_arcs[rows], jobs


def basic_payload(duals: DualValues, capd):
    """(constant, per-job coefficients) of the plain flow cut: each alpha
    goes on its job; each beta goes on the constant and, negated, on every
    job of U_a, once per job."""
    capd = layered(capd)
    a_arcs = np.flatnonzero(duals.alpha)
    b_arcs, b_jobs = _na_terms(capd, duals.beta != 0.0)
    order = np.argsort(np.concatenate((a_arcs, b_arcs)), kind="stable")
    jobs = np.concatenate((capd.arc_job[a_arcs] - 1, b_jobs))
    terms = np.concatenate((duals.alpha[a_arcs], -duals.beta[b_arcs]))
    coef = np.zeros(capd.n_jobs)
    np.add.at(coef, jobs[order], terms[order])
    return _running_sum(duals.pi_root, duals.beta[b_arcs]), coef


def strengthen_layers(duals: DualValues, capd):
    """Strategy-1 payload: every path uses at most one assignment arc per
    decision layer, so per (job, layer) only the best reduction may count;
    non-assignment arcs all enter the terminal, so one minimum per job.
    The minima are added in the order their key first goes negative."""
    capd = layered(capd)
    n = capd.n_jobs
    a_arcs = np.flatnonzero(duals.alpha < 0)
    keys = (capd.arc_job[a_arcs] - 1) * n + capd.arc_layer[a_arcs]
    gamma_keys, gamma = _first_seen_minima(keys, duals.alpha[a_arcs], n * n)
    b_arcs, b_jobs = _na_terms(capd, duals.beta < 0)
    delta_jobs, delta = _first_seen_minima(b_jobs, duals.beta[b_arcs], n)
    coef = np.zeros(n)
    np.add.at(coef, np.concatenate((gamma_keys // n, delta_jobs)),
              np.concatenate((gamma, -delta)))
    return _running_sum(duals.pi_root, delta), coef


def full_arrays(capd, duals, x_col: np.ndarray, t: np.ndarray, d: np.ndarray):
    """(pi, alpha, beta) over every node and arc for the compact ``duals``
    that ``ccpmsp.netflow.extract_duals`` returned for this column: pi from
    the layered pass, alpha and beta expanded from (arcs, r), 0 elsewhere."""
    pi = extract_duals(capd, x_col, t, d).pi
    on = capd.arc_kind[duals.arcs] == ASSIGN
    alpha = np.zeros(capd.n_arcs)
    alpha[duals.arcs[on]] = duals.r[on]
    beta = np.zeros(capd.n_arcs)
    beta[duals.arcs[~on]] = duals.r[~on]
    return pi, alpha, beta

"""Capacitated-arc diagrams over the full job set and Benders-style cuts.

These diagrams encode every possible machine schedule at once: assignment
arcs are traversable only when their job is assigned to the machine at hand,
non-assignment arcs only when their whole job set is unassigned, so fixing a
master column turns feasibility into a plain shortest-path problem.  Duals
of that flow yield cuts linking the column to the schedule-length budget.

The diagram is multivalued, with one decision layer per sequence position.
It is experimental and gated to desk scale.  The dual pass and the cut
payloads run numpy over the arc arrays, one step per decision layer, and
add their sums in the order a loop over the arcs would.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BENDERS,
    Cut,
    Instance,
    LimitExceeded,
    StructuralError,
)

ASSIGN = 1
NONASSIGN = 2

MDD_MAX_JOBS = 12


def check_scale(n_jobs: int) -> None:
    if n_jobs > MDD_MAX_JOBS:
        raise LimitExceeded(
            f"capacitated diagram supports at most {MDD_MAX_JOBS} jobs, got {n_jobs}"
        )


@dataclass
class CapDiagram:
    n_jobs: int
    layers: list[list[int]]
    arc_tail: np.ndarray = field(repr=False)
    arc_head: np.ndarray = field(repr=False)
    arc_job: np.ndarray = field(repr=False)  # job placed by an assignment arc
    arc_last: np.ndarray = field(repr=False)
    arc_kind: np.ndarray = field(repr=False)
    arc_cap: np.ndarray = field(repr=False)  # bitmask of U_a
    arc_layer: np.ndarray = field(repr=False)  # tail's decision layer
    # Structure the dual pass reads on every cut, derived once.  Node ids
    # follow layer order and arcs are sorted by their tail's layer, so a
    # decision layer is an arc range whose tails form a node-id range.
    layer_spans: list = field(init=False, repr=False)
    assign: np.ndarray = field(init=False, repr=False)
    assign_arcs: np.ndarray = field(init=False, repr=False)
    lead_setup: tuple = field(init=False, repr=False)
    closing_setup: tuple = field(init=False, repr=False)
    ending_setup: tuple = field(init=False, repr=False)
    na_arcs: np.ndarray = field(init=False, repr=False)
    na_jobs: np.ndarray = field(init=False, repr=False)  # (n_na, n_jobs) U_a bits

    def __post_init__(self):
        def where(mask):  # int32 indices: half the memory of the default
            return np.flatnonzero(mask).astype(np.int32)

        assign = self.arc_kind == ASSIGN
        nonassign = self.arc_kind == NONASSIGN
        job, last = self.arc_job, self.arc_last
        after = last >= 1
        self.assign = assign
        self.assign_arcs = where(assign)
        # (arcs, flat cell of the (n_jobs + 1)-square setup matrix) per setup
        # term of cap_arc_costs
        width = self.n_jobs + 1
        lead = where(assign & after)
        closing = where(assign & (self.arc_head == self.terminal))
        ending = where(nonassign & after)
        self.lead_setup = (lead, last[lead] * width + job[lead])
        self.closing_setup = (closing, job[closing] * width)
        self.ending_setup = (ending, last[ending] * width)
        self.na_arcs = where(nonassign)
        bits = np.int64(1) << np.arange(self.n_jobs, dtype=np.int64)
        self.na_jobs = (self.arc_cap[self.na_arcs, None] & bits) != 0
        bounds = np.searchsorted(self.arc_layer, np.arange(len(self.layers)))
        # (arc start, arc end, first node, node count) per decision layer
        self.layer_spans = [
            (int(bounds[li]), int(bounds[li + 1]), layer[0], len(layer))
            for li, layer in enumerate(self.layers[:-1])
        ]
        # one instance is shared by every solve of its size (build_mdd_cap)
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.terminal + 1

    @property
    def n_arcs(self) -> int:
        return len(self.arc_tail)

    @property
    def root(self) -> int:
        return 0

    @property
    def terminal(self) -> int:
        return self.layers[-1][0]


class _CapBuilder:
    def __init__(self, n_jobs: int):
        self.n = n_jobs
        self.n_nodes = 1  # the root
        self.layers: list[list[int]] = []
        # typed buffers: half the memory of lists, and no int objects
        self.tail, self.head, self.job = array("i"), array("i"), array("i")
        self.last, self.layer_of = array("i"), array("i")
        self.kind, self.cap = array("b"), array("q")

    def arc(self, tail, head, job, last, kind, cap, layer):
        self.tail.append(tail)
        self.head.append(head)
        self.job.append(job)
        self.last.append(last)
        self.kind.append(kind)
        self.cap.append(cap)
        self.layer_of.append(layer)

    def finish(self) -> CapDiagram:
        """Renumber nodes so ids follow layer order with the terminal last."""
        order = [nid for layer in self.layers for nid in layer]
        new_id = np.empty(len(order), dtype=np.int32)
        new_id[order] = np.arange(len(order), dtype=np.int32)
        return CapDiagram(
            n_jobs=self.n,
            layers=[new_id[layer].tolist() for layer in self.layers],
            arc_tail=new_id[np.asarray(self.tail)],
            arc_head=new_id[np.asarray(self.head)],
            arc_job=np.array(self.job, dtype=np.int32),
            arc_last=np.array(self.last, dtype=np.int32),
            arc_kind=np.array(self.kind, dtype=np.int8),
            arc_cap=np.array(self.cap, dtype=np.int64),
            arc_layer=np.array(self.layer_of, dtype=np.int32),
        )


@functools.lru_cache(maxsize=1)
def build_mdd_cap(n_jobs: int) -> CapDiagram:
    """One decision layer per sequence position; an arc places a job, or
    (job -1) jumps to the end of the schedule and pins the rest unassigned.
    The last diagram built is cached and returned read-only."""
    if n_jobs < 1:
        raise StructuralError("n_jobs must be >= 1")
    check_scale(n_jobs)
    b = _CapBuilder(n_jobs)
    full = (1 << n_jobs) - 1
    current = {(0, -1): 0}
    b.layers.append([0])
    terminal = b.n_nodes
    b.n_nodes += 1

    for p in range(1, n_jobs + 1):
        nxt: dict[tuple, int] = {}
        for state, nid in sorted(current.items()):
            mask, last = state
            # ending here: everything unplaced must be unassigned
            b.arc(nid, terminal, -1, last, NONASSIGN, full & ~mask, p - 1)
            for j in range(1, n_jobs + 1):
                bit = 1 << (j - 1)
                if mask & bit:
                    continue
                new_state = (mask | bit, j)
                if p == n_jobs:
                    target = terminal
                else:
                    target = nxt.get(new_state)
                    if target is None:
                        target = nxt[new_state] = b.n_nodes
                        b.n_nodes += 1
                b.arc(nid, target, j, last, ASSIGN, bit, p - 1)
        if p < n_jobs:
            current = nxt
            b.layers.append([nid for _, nid in sorted(nxt.items())])
    b.layers.append([terminal])
    return b.finish()


def full_times(inst: Instance, w: int):
    """Identity-remap time arrays over the whole job set for scenario w."""
    sc = inst.scenarios[w]
    return np.concatenate(([0.0], sc.exec)), sc.setup


def cap_arc_costs(capd: CapDiagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-arc costs for one scenario: an assignment arc pays its job's time,
    the setup from the previous job and, into the terminal, the closing
    setup; a non-assignment arc pays the closing setup of the last job."""
    setup = np.ravel(d)
    costs = np.zeros(capd.n_arcs)
    costs[capd.assign_arcs] = t[capd.arc_job[capd.assign_arcs]]
    for arcs, cells in (capd.lead_setup, capd.closing_setup):
        costs[arcs] += setup[cells]
    arcs, cells = capd.ending_setup
    costs[arcs] = setup[cells]
    return costs


def _enabled(capd: CapDiagram, x_col: np.ndarray) -> np.ndarray:
    xmask = 0
    for j in np.flatnonzero(np.asarray(x_col)):
        xmask |= 1 << int(j)
    held = capd.arc_cap & xmask
    return np.where(capd.assign, held == capd.arc_cap, held == 0)


@dataclass
class DualValues:
    pi: np.ndarray
    pi_root: float
    alpha: np.ndarray  # per arc; nonzero only on assignment arcs
    beta: np.ndarray  # per arc; nonzero only on non-assignment arcs
    enabled: np.ndarray = field(repr=False)


def extract_duals(capd: CapDiagram, x_col: np.ndarray, t: np.ndarray,
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


# Float sums round differently in another order, so the payloads below add
# their terms one at a time (np.add.at, in index order) in the order a loop
# over the arcs would: arc order, jobs ascending within a non-assignment arc.
def _running_sum(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., left to right."""
    acc = np.array([start])
    np.add.at(acc, np.zeros(len(terms), dtype=np.intp), terms)
    return float(acc[0])


def _na_terms(capd: CapDiagram, keep: np.ndarray):
    """(arc, 0-based job) of every job of U_a of the non-assignment arcs
    where ``keep`` (per arc) holds, in arc order, jobs ascending."""
    rows, jobs = np.nonzero(capd.na_jobs & keep[capd.na_arcs, None])
    return capd.na_arcs[rows], jobs


def basic_payload(duals: DualValues, capd: CapDiagram):
    """(constant, per-job coefficients) of the plain flow cut: each alpha
    goes on its job; each beta goes on the constant and, negated, on every
    job of U_a, once per job."""
    a_arcs = np.flatnonzero(duals.alpha)
    b_arcs, b_jobs = _na_terms(capd, duals.beta != 0.0)
    order = np.argsort(np.concatenate((a_arcs, b_arcs)), kind="stable")
    jobs = np.concatenate((capd.arc_job[a_arcs] - 1, b_jobs))
    terms = np.concatenate((duals.alpha[a_arcs], -duals.beta[b_arcs]))
    coef = np.zeros(capd.n_jobs)
    np.add.at(coef, jobs[order], terms[order])
    return _running_sum(duals.pi_root, duals.beta[b_arcs]), coef


def _first_seen_minima(keys: np.ndarray, values: np.ndarray, size: int):
    """Distinct keys (all < size) in order of first occurrence, and the
    minimum value of each."""
    low = np.full(size, np.inf)
    np.minimum.at(low, keys, values)
    first = np.full(size, len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    seen = np.flatnonzero(first < len(keys))
    seen = seen[np.argsort(first[seen])]
    return seen, low[seen]


def strengthen_layers(duals: DualValues, capd: CapDiagram):
    """Strategy-1 payload: every path uses at most one assignment arc per
    decision layer, so per (job, layer) only the best reduction may count;
    non-assignment arcs all enter the terminal, so one minimum per job.
    The minima are added in the order their key first goes negative."""
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


def benders_cut(duals: DualValues, capd: CapDiagram, scenario: int,
                job_set, strategy: int = 0) -> Cut:
    """Render the flow cut for a scenario as a master Cut (quantified over
    all machines; machines are homogeneous)."""
    if strategy == 0:
        const, coef = basic_payload(duals, capd)
    elif strategy == 1:
        const, coef = strengthen_layers(duals, capd)
    else:
        raise StructuralError(f"unknown strengthening strategy {strategy}")
    return Cut(
        job_set=frozenset(job_set),
        scenario=scenario,
        kind=BENDERS,
        benders_payload=(float(const), np.asarray(coef, float)),
    )


class FlowContext:
    """Per-instance holder of the capacitated diagram and cut settings.

    The diagram comes from ``build_mdd_cap``'s cache, so ``build_time``
    reads near 0 when the previous solve had the same number of jobs.
    """

    def __init__(self, inst: Instance, strategy: int = 1):
        t0 = time.perf_counter()
        self.strategy = strategy
        self.capd = build_mdd_cap(inst.n_jobs)
        self.build_time = time.perf_counter() - t0

    def cut_for(self, inst: Instance, x_col: np.ndarray, scenario: int,
                job_set) -> Cut:
        t, d = full_times(inst, scenario)
        duals = extract_duals(self.capd, x_col, t, d)
        return benders_cut(duals, self.capd, scenario, job_set, self.strategy)

"""Capacitated-arc diagrams over the full job set and Benders-style cuts.

These diagrams encode every possible machine schedule at once: assignment
arcs are traversable only when their job is assigned to the machine at hand,
non-assignment arcs only when their whole job set is unassigned, so fixing a
master column turns feasibility into a plain shortest-path problem.  Duals
of that flow yield cuts linking the column to the schedule-length budget.

The diagram is multivalued, with one decision layer per sequence position.
It is experimental and gated to desk scale.
"""

from __future__ import annotations

import time
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
    states: list
    node_in: list[list[int]]
    node_out: list[list[int]]
    arc_tail: np.ndarray = field(repr=False)
    arc_head: np.ndarray = field(repr=False)
    arc_value: np.ndarray = field(repr=False)
    arc_job: np.ndarray = field(repr=False)  # job placed by an assignment arc
    arc_last: np.ndarray = field(repr=False)
    arc_kind: np.ndarray = field(repr=False)
    arc_cap: np.ndarray = field(repr=False)  # bitmask of U_a
    arc_layer: np.ndarray = field(repr=False)  # tail's decision layer

    @property
    def n_nodes(self) -> int:
        return len(self.states)

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
        self.states = [(0, -1)]
        self.layers: list[list[int]] = []
        self.tail, self.head, self.value, self.job = [], [], [], []
        self.last, self.kind, self.cap, self.layer_of = [], [], [], []
        self.terminal = None

    def arc(self, tail, head, value, job, last, kind, cap, layer):
        self.tail.append(tail)
        self.head.append(head)
        self.value.append(value)
        self.job.append(job)
        self.last.append(last)
        self.kind.append(kind)
        self.cap.append(cap)
        self.layer_of.append(layer)

    def finish(self) -> CapDiagram:
        node_in = [[] for _ in self.states]
        node_out = [[] for _ in self.states]
        for a, (t, h) in enumerate(zip(self.tail, self.head)):
            node_out[t].append(a)
            node_in[h].append(a)
        return CapDiagram(
            n_jobs=self.n,
            layers=self.layers,
            states=self.states,
            node_in=node_in,
            node_out=node_out,
            arc_tail=np.array(self.tail, dtype=np.int32),
            arc_head=np.array(self.head, dtype=np.int32),
            arc_value=np.array(self.value, dtype=np.int32),
            arc_job=np.array(self.job, dtype=np.int32),
            arc_last=np.array(self.last, dtype=np.int32),
            arc_kind=np.array(self.kind, dtype=np.int8),
            arc_cap=np.array(self.cap, dtype=np.int64),
            arc_layer=np.array(self.layer_of, dtype=np.int32),
        )


def build_mdd_cap(n_jobs: int) -> CapDiagram:
    """One decision layer per sequence position; arc values are job indices
    or -1 for the jump that ends the schedule and pins the rest unassigned."""
    if n_jobs < 1:
        raise StructuralError("n_jobs must be >= 1")
    check_scale(n_jobs)
    b = _CapBuilder(n_jobs)
    full = (1 << n_jobs) - 1
    current = {(0, -1): 0}
    b.layers.append([0])
    terminal = len(b.states)
    b.states.append((full, -2))

    for p in range(1, n_jobs + 1):
        nxt: dict[tuple, int] = {}
        for state, nid in sorted(current.items()):
            mask, last = state
            # ending here: everything unplaced must be unassigned
            b.arc(nid, terminal, -1, -1, last, NONASSIGN, full & ~mask, p - 1)
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
                        target = len(b.states)
                        b.states.append(new_state)
                        nxt[new_state] = target
                b.arc(nid, target, j, j, last, ASSIGN, bit, p - 1)
        if p < n_jobs:
            current = nxt
            b.layers.append([nid for _, nid in sorted(nxt.items())])
    b.layers.append([terminal])
    return _reorder_terminal_last(b)


def _reorder_terminal_last(b: _CapBuilder) -> CapDiagram:
    """Renumber nodes so ids follow layer order with the terminal last."""
    order = [nid for layer in b.layers for nid in layer]
    new_id = {old: new for new, old in enumerate(order)}
    b.layers = [[new_id[nid] for nid in layer] for layer in b.layers]
    b.states = [b.states[old] for old in order]
    b.tail = [new_id[t] for t in b.tail]
    b.head = [new_id[h] for h in b.head]
    return b.finish()


def full_times(inst: Instance, w: int):
    """Identity-remap time arrays over the whole job set for scenario w."""
    sc = inst.scenarios[w]
    return np.concatenate(([0.0], sc.exec)), sc.setup


def cap_arc_costs(capd: CapDiagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    costs = np.zeros(capd.n_arcs)
    job = capd.arc_job
    last = capd.arc_last
    kind = capd.arc_kind
    assign = kind == ASSIGN
    costs[assign] = t[job[assign]]
    lead = assign & (last >= 1)
    costs[lead] += d[last[lead], job[lead]]
    closing = assign & (capd.arc_head == capd.terminal)
    costs[closing] += d[job[closing], 0]
    nonassign = (kind == NONASSIGN) & (last >= 1)
    costs[nonassign] = d[last[nonassign], 0]
    return costs


def _enabled(capd: CapDiagram, x_col: np.ndarray) -> np.ndarray:
    xmask = 0
    for j in np.flatnonzero(np.asarray(x_col)):
        xmask |= 1 << int(j)
    out = np.ones(capd.n_arcs, dtype=bool)
    assign = capd.arc_kind == ASSIGN
    out[assign] = (capd.arc_cap[assign] & xmask) == capd.arc_cap[assign]
    nonassign = capd.arc_kind == NONASSIGN
    out[nonassign] = (capd.arc_cap[nonassign] & xmask) == 0
    return out


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
    better, get zero.
    """
    costs = cap_arc_costs(capd, t, d)
    enabled = _enabled(capd, x_col)

    fdist = np.full(capd.n_nodes, np.inf)
    fdist[capd.root] = 0.0
    for a in range(capd.n_arcs):
        if enabled[a]:
            tail, head = capd.arc_tail[a], capd.arc_head[a]
            nd = fdist[tail] + costs[a]
            if nd < fdist[head]:
                fdist[head] = nd

    pi = np.full(capd.n_nodes, np.inf)
    pi[capd.terminal] = 0.0
    for n in range(capd.n_nodes - 2, -1, -1):
        out = capd.node_out[n]
        if not out:
            continue
        best = np.inf
        for a in out:
            if enabled[a]:
                v = costs[a] + pi[capd.arc_head[a]]
                if v < best:
                    best = v
        if not np.isfinite(best):
            for a in out:
                v = costs[a] + pi[capd.arc_head[a]]
                if v < best:
                    best = v
        pi[n] = best

    pi_root = float(pi[capd.root])
    alpha = np.zeros(capd.n_arcs)
    beta = np.zeros(capd.n_arcs)
    for a in range(capd.n_arcs):
        kind = capd.arc_kind[a]
        tail, head = capd.arc_tail[a], capd.arc_head[a]
        if not np.isfinite(fdist[tail]):
            continue
        r = fdist[tail] + costs[a] + pi[head] - pi_root
        if r < 0:
            if kind == ASSIGN:
                alpha[a] = r
            else:
                beta[a] = r
    return DualValues(pi=pi, pi_root=pi_root, alpha=alpha, beta=beta, enabled=enabled)


def _mask_jobs(mask: int, n: int):
    return [q for q in range(1, n + 1) if mask >> (q - 1) & 1]


def basic_payload(duals: DualValues, capd: CapDiagram):
    """(constant, per-job coefficients) of the plain flow cut."""
    n = capd.n_jobs
    coef = np.zeros(n)
    const = duals.pi_root
    for a in range(capd.n_arcs):
        kind = capd.arc_kind[a]
        if kind == ASSIGN:
            if duals.alpha[a] != 0.0:
                coef[capd.arc_job[a] - 1] += duals.alpha[a]
        elif kind == NONASSIGN and duals.beta[a] != 0.0:
            for q in _mask_jobs(int(capd.arc_cap[a]), n):
                const += duals.beta[a]
                coef[q - 1] -= duals.beta[a]
    return const, coef


def strengthen_layers(duals: DualValues, capd: CapDiagram):
    """Strategy-1 payload: every path uses at most one assignment arc per
    decision layer, so per (job, layer) only the best reduction may count;
    non-assignment arcs all enter the terminal, so one minimum per job."""
    n = capd.n_jobs
    gamma: dict[tuple[int, int], float] = {}
    delta: dict[int, float] = {}
    for a in range(capd.n_arcs):
        kind = capd.arc_kind[a]
        if kind == ASSIGN:
            q = int(capd.arc_job[a])
            key = (q, int(capd.arc_layer[a]))
            cur = gamma.get(key, 0.0)
            if duals.alpha[a] < cur:
                gamma[key] = duals.alpha[a]
        elif kind == NONASSIGN:
            for q in _mask_jobs(int(capd.arc_cap[a]), n):
                cur = delta.get(q, 0.0)
                if duals.beta[a] < cur:
                    delta[q] = duals.beta[a]
    coef = np.zeros(n)
    const = duals.pi_root
    for (q, _), g in gamma.items():
        coef[q - 1] += g
    for q, dl in delta.items():
        const += dl
        coef[q - 1] -= dl
    return const, coef


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
    """Per-instance holder of the capacitated diagram and cut settings."""

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

"""Capacitated-arc diagrams over the full job set and Benders-style cuts.

These diagrams encode every possible machine schedule at once: assignment
arcs are traversable only when their job is assigned to the machine at hand,
non-assignment arcs only when their whole job set is unassigned, so fixing a
master column turns feasibility into a plain shortest-path problem.  Duals
of that flow yield cuts linking the column to the schedule-length budget.

The diagram is multivalued, with one decision layer per sequence position.
It is experimental and gated to desk scale.  A column with jobs x reaches
only the states whose job set is a subset of x, and what is left to place
from any state is a subset of x, so the dual pass is two Held-Karp passes
over the subsets of x, forward and backward, plus the out-arcs of the
states x reaches: 2^|x| table rows instead of every arc.  It takes the same
minima of the same sums as a pass over the arcs.  It returns the duals
compactly: pi at the root, and the reached arcs with a negative reduction
with their duals, reading pi only at those arcs' heads; no per-node or
per-arc array is allocated.  The cut payloads read only those arcs and add
their terms in the order a loop over the arcs would, so every value is
bitwise that loop's.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .lastjob import cost_table
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
    layers: list[range]  # node ids of each layer, the terminal's last
    arc_tail: np.ndarray = field(repr=False)
    arc_head: np.ndarray = field(repr=False)
    arc_job: np.ndarray = field(repr=False)  # job placed by an assignment arc
    arc_last: np.ndarray = field(repr=False)
    arc_kind: np.ndarray = field(repr=False)
    arc_cap: np.ndarray = field(repr=False)  # bitmask of U_a
    arc_layer: np.ndarray = field(repr=False)  # tail's decision layer
    # Lookups the dual pass reads on every cut, derived once, all int32.  A
    # non-terminal node is the state (job mask, last job), last 0 at the
    # root; the terminal reads (all jobs, 0).  Arcs are sorted by tail.
    arc_cell: np.ndarray = field(init=False, repr=False)  # lastjob.cost_table cell
    node_mask: np.ndarray = field(init=False, repr=False)
    node_last: np.ndarray = field(init=False, repr=False)
    node_of: np.ndarray = field(init=False, repr=False)  # (mask, last) -> node id
    # node v's out-arcs are first_out[v]:first_out[v + 1]
    first_out: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, width = self.n_jobs, self.n_jobs + 1
        assign = self.arc_kind == ASSIGN
        last = np.maximum(self.arc_last, 0)
        closing = assign & (self.arc_head == self.terminal)
        self.arc_cell = ((closing * width + last) * width
                         + np.where(assign, self.arc_job, 0)).astype(np.int32)
        # every non-terminal node has one non-assignment arc, whose U_a is
        # the jobs its state has not placed
        na = np.flatnonzero(~assign)
        full = (1 << n) - 1
        self.node_mask = np.full(self.n_nodes, full, dtype=np.int32)
        self.node_mask[self.arc_tail[na]] = full & ~self.arc_cap[na]
        self.node_last = np.zeros(self.n_nodes, dtype=np.int32)
        self.node_last[self.arc_tail[na]] = last[na]
        self.node_of = np.full((1 << n, width), -1, dtype=np.int32)
        self.node_of[self.node_mask, self.node_last] = np.arange(
            self.n_nodes, dtype=np.int32)
        self.first_out = np.searchsorted(
            self.arc_tail, np.arange(self.n_nodes + 1)).astype(np.int32)
        # one instance is shared by every solve of its size (build_mdd_cap)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

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
        return self.layers[-1].start


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
        bounds = list(itertools.accumulate(map(len, self.layers), initial=0))
        return CapDiagram(
            n_jobs=self.n,
            layers=[range(a, b) for a, b in zip(bounds, bounds[1:])],
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


@functools.lru_cache(maxsize=MDD_MAX_JOBS + 1)
def _subsets(k: int):
    """The subsets of k items, as read-only int32 bitmasks over their
    positions: per size s = 1..k, (masks, members, rests), the s-subsets
    ascending, each one's member positions ascending and the subset without
    that member; then every (subset, member position) pair in the same
    order, after (0, k), which stands for the root."""
    layers, pair_mask, pair_pos = [], [np.zeros(1, np.int32)], [np.full(1, k, np.int32)]
    for s in range(1, k + 1):
        members = np.array(list(itertools.combinations(range(k), s)),
                           dtype=np.int32).reshape(-1, s)
        bits = np.int32(1) << members
        masks = bits.sum(axis=1, dtype=np.int32)
        order = np.argsort(masks)
        masks, members, bits = masks[order], members[order], bits[order]
        layers.append((masks, members, masks[:, None] ^ bits))
        pair_mask.append(np.repeat(masks, s))
        pair_pos.append(members.ravel())
    pairs = (np.concatenate(pair_mask), np.concatenate(pair_pos))
    for arr in (*itertools.chain(*layers), *pairs):
        arr.setflags(write=False)
    return tuple(layers), pairs


@dataclass
class DualValues:
    pi_root: float
    # the reached arcs with a negative reduction, ascending, and their duals
    # r: alpha on an assignment arc, beta on a non-assignment arc; every
    # other arc's dual is 0
    arcs: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)


def extract_duals(capd: CapDiagram, x_col: np.ndarray, t: np.ndarray,
                  d: np.ndarray) -> DualValues:
    """Shortest-path duals of the column's flow problem.

    pi is the enabled to-terminal distance; a capacitated arc's dual is the
    negative part of the reduction the cheapest path forced through it
    would bring: fdist(tail) + cost + pi(head) - pi(root).  Arcs on the
    current shortest path, and arcs whose forced path is no better, get
    zero.  Arc costs are cells of ``lastjob.cost_table`` (t[0] is the
    dummy's 0).  Only pi(root) and the nonzero duals are returned.

    Both passes run over the subsets of the column's jobs x, not the arcs:
    - an assignment arc is enabled when its job is in x, a non-assignment
      arc when its state holds all of x.  So the tails the root reaches are
      the states (S, last) with S a subset of x, fdist there is a
      Held-Karp over those subsets, and every other arc has r = inf;
    - every state has an enabled out-arc, and from (mask, last) the enabled
      paths place exactly x minus mask before ending, so pi(mask, last) is
      a backward Held-Karp over (subset of x, last), read at the heads of
      the reached arcs.  A last job into the terminal pays its closing
      setup on its own arc instead of on a non-assignment arc, which adds
      the same two terms.
    Each distance takes the minimum of the same candidate sums, added in
    the same order, as a pass over the arcs would, so every value is
    bitwise that pass's.
    """
    n, width = capd.n_jobs, capd.n_jobs + 1
    costs = cost_table(t, d)
    # to_job[j, last]: the cost of placing j after last, not into the terminal
    to_job = np.ascontiguousarray(costs[:width * width].reshape(width, width).T)
    jobs = np.flatnonzero(np.asarray(x_col)) + 1
    k = len(jobs)
    # tables are indexed by subsets of x over positions in ``jobs``, and by
    # last job; sub maps such a subset to its job mask, pos_bit a job to
    # its position's bit (0 for a job outside x and for the dummy)
    sub = np.zeros(1 << k, dtype=np.int64)
    for i, j in enumerate(jobs.tolist()):
        sub[1 << i:2 << i] = sub[:1 << i] | 1 << (j - 1)
    pos_bit = np.zeros(width, dtype=np.int32)
    pos_bit[jobs] = np.int32(1) << np.arange(k, dtype=np.int32)
    layers, (pair_mask, pair_pos) = _subsets(k)

    # fdist[S, last] from the root; togo[R, last]: the cheapest way to
    # place R after last, then end.  Both build a subset from the subset
    # without one of its jobs.
    fdist = np.full((1 << k, width), np.inf)
    fdist[0, 0] = 0.0
    togo = np.empty((1 << k, width))
    togo[0] = to_job[0] + 0.0  # the non-assignment arc into the terminal
    for s, (masks, members, rests) in enumerate(layers, 1):
        placed = jobs[members]
        step = to_job[placed]
        if s < n:  # x itself is the terminal when it holds every job
            fdist[masks[:, None], placed] = (fdist[rests] + step).min(axis=2)
        togo[masks] = (step + togo[rests, placed][..., None]).min(axis=1)
    everything = (1 << k) - 1
    pi_root = float(togo[everything, 0])

    # every out-arc of the reached tails, in arc order; the root is the
    # first pair, and the full job set is the terminal, not a tail
    if k == n:
        pair_mask, pair_pos = pair_mask[:-k], pair_pos[:-k]
    tail_job = np.append(jobs, 0)[pair_pos]
    tails = capd.node_of[sub[pair_mask], tail_job]
    first = capd.first_out[tails]
    count = capd.first_out[tails + 1] - first
    ends = np.cumsum(count)
    arcs = np.arange(ends[-1]) + np.repeat(first - (ends - count), count)
    pair = np.repeat(np.arange(len(tails)), count)  # each arc's tail
    # a non-terminal head holds the tail's subset plus the arc's job, which
    # is its last job; pi there places the rest of x
    head = capd.arc_head[arcs]
    head_last = capd.node_last[head]
    rest = everything ^ (pair_mask[pair] | pos_bit[head_last])
    pi_head = np.where(head == capd.terminal, 0.0, togo[rest, head_last])
    r = (fdist[pair_mask, tail_job][pair] + costs[capd.arc_cell[arcs]]
         + pi_head - pi_root)
    neg = r < 0
    return DualValues(pi_root=pi_root, arcs=arcs[neg], r=r[neg])


# Float sums round differently in another order, so the payloads below add
# their terms one at a time (np.add.at, in index order) in the order a loop
# over the arcs would: arc order, jobs ascending within a non-assignment arc.
def _running_sum(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., left to right."""
    acc = np.array([start])
    np.add.at(acc, np.zeros(len(terms), dtype=np.intp), terms)
    return float(acc[0])


def _na_terms(capd: CapDiagram, arcs: np.ndarray, r: np.ndarray):
    """(arc, dual, 0-based job) of every job of U_a of the non-assignment
    ``arcs`` (ascending) with duals ``r``, in arc order, jobs ascending."""
    bits = np.int64(1) << np.arange(capd.n_jobs, dtype=np.int64)
    rows, jobs = np.nonzero((capd.arc_cap[arcs, None] & bits) != 0)
    return arcs[rows], r[rows], jobs


def _split(duals: DualValues, capd: CapDiagram):
    """(arcs, alpha) of the assignment arcs and (arcs, beta) of the
    non-assignment arcs with a nonzero dual."""
    on = capd.arc_kind[duals.arcs] == ASSIGN
    return ((duals.arcs[on], duals.r[on]), (duals.arcs[~on], duals.r[~on]))


def basic_payload(duals: DualValues, capd: CapDiagram):
    """(constant, per-job coefficients) of the plain flow cut: each alpha
    goes on its job; each beta goes on the constant and, negated, on every
    job of U_a, once per job."""
    (a_arcs, alpha), (b_arcs, beta) = _split(duals, capd)
    b_arcs, beta, b_jobs = _na_terms(capd, b_arcs, beta)
    order = np.argsort(np.concatenate((a_arcs, b_arcs)), kind="stable")
    jobs = np.concatenate((capd.arc_job[a_arcs] - 1, b_jobs))
    terms = np.concatenate((alpha, -beta))
    coef = np.zeros(capd.n_jobs)
    np.add.at(coef, jobs[order], terms[order])
    return _running_sum(duals.pi_root, beta), coef


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
    (a_arcs, alpha), (b_arcs, beta) = _split(duals, capd)
    keys = (capd.arc_job[a_arcs] - 1) * n + capd.arc_layer[a_arcs]
    gamma_keys, gamma = _first_seen_minima(keys, alpha, n * n)
    _, beta, b_jobs = _na_terms(capd, b_arcs, beta)
    delta_jobs, delta = _first_seen_minima(b_jobs, beta, n)
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

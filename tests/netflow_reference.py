"""The explicit capacitated diagram and the layered flow-dual pass that
``ccpmsp.netflow`` replaced, kept as its bitwise reference.

``build_mdd_cap`` expands the diagram state by state into arc arrays, with
the lookups the column-subset pass once read from it (``node_of``,
``first_out``, ``node_last``, ``arc_cell``).  ``ccpmsp.netflow.out_arcs``
lists the same arcs in closed form, and ``arc_ids`` maps the compact duals
of ``ccpmsp.netflow.extract_duals`` onto this diagram's arc ids.

``extract_duals`` here runs over the whole diagram, one decision layer at
a time: a forward pass over the arcs the column enables, then a backward
pass with an any-arc fallback.  The structure it reads per diagram
(``layer_spans``, the setup cells, the non-assignment job rows) is derived
by ``layered`` from the diagram's arc arrays.  The payloads here read every
non-assignment arc, and ``full_arrays`` rebuilds the per-node and per-arc
dual arrays that the compact duals leave out.
"""

import functools
import itertools
from array import array
from dataclasses import dataclass, field

import numpy as np

from ccpmsp.model import StructuralError
from ccpmsp.netflow import _first_seen_minima, _running_sums, check_scale

ASSIGN = 1
NONASSIGN = 2


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
    # Lookups derived once, all int32, which ``arc_ids`` reads.  A
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


def _running_sum(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., left to right."""
    return float(_running_sums([start], np.zeros(len(terms), np.intp), terms)[0])


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


def arc_ids(capd: CapDiagram, duals) -> np.ndarray:
    """The arc id of each arc of the compact ``duals``: its tail's first
    out-arc, then, for an assignment arc, one more for the non-assignment
    arc and one per job outside the tail set below its job."""
    tails = capd.node_of[duals.tail_set, duals.tail_last]
    below = (duals.tail_set[:, None] >> np.arange(capd.n_jobs)) & 1 == 0
    below &= np.arange(1, capd.n_jobs + 1) < duals.job[:, None]
    offset = np.where(duals.job > 0, 1 + below.sum(axis=1), 0)
    return capd.first_out[tails] + offset


def full_arrays(capd, duals, x_col: np.ndarray, t: np.ndarray, d: np.ndarray):
    """(pi, alpha, beta) over every node and arc for the compact ``duals``
    that ``ccpmsp.netflow.extract_duals`` returned for this column: pi from
    the layered pass, alpha and beta expanded from the duals' arcs, 0
    elsewhere."""
    pi = extract_duals(capd, x_col, t, d).pi
    arcs, on = arc_ids(capd, duals), duals.job > 0
    alpha = np.zeros(capd.n_arcs)
    alpha[arcs[on]] = duals.r[on]
    beta = np.zeros(capd.n_arcs)
    beta[arcs[~on]] = duals.r[~on]
    return pi, alpha, beta

"""Benders-style cuts from a capacitated-arc diagram over the full job set.

The diagram encodes every possible machine schedule at once: assignment
arcs are traversable only when their job is assigned to the machine at hand,
non-assignment arcs only when their whole job set is unassigned, so fixing a
master column turns feasibility into a plain shortest-path problem.  Duals
of that flow yield cuts linking the column to the schedule-length budget.

The diagram is multivalued, with one decision layer per sequence position.
Its states are (job set S, last job): the root (no job, 0), one state per
placed set and last job, and the terminal.  Its arcs are in tail order (|S|,
then S, then the last job), and a tail's out-arcs in job order: first the
non-assignment arc, which ends the schedule with every job outside S
unassigned, then one assignment arc per job outside S, ascending.  All of
that is closed form, so the diagram is never built: ``out_arcs`` lists the
out-arcs of any states directly.  It is experimental and gated to desk
scale (``MDD_MAX_JOBS``).

A column with jobs x reaches only the states whose job set is a subset of
x, and what is left to place from any state is a subset of x, so the dual
pass is two Held-Karp passes over the subsets of x, forward and backward,
plus the out-arcs of the states x reaches: 2^|x| table rows instead of
every arc.  It takes the same minima of the same sums as a pass over the
arcs.  It returns the duals compactly: pi at the root, and the reached arcs
with a negative reduction, each as its tail state, job and layer, with its
dual, reading pi only at those arcs' heads; no per-node or per-arc array is
allocated.  The cut payload reads only those arcs and adds its terms in
the order a loop over the arcs would, so every value is bitwise that
loop's.

Everything but the arc costs depends on the column alone, so a machine
failing in several scenarios gets one pass for all of them: its times
carry a trailing scenario axis, as in the diagram sweeps, and the pass
returns one set of duals per scenario.  The payload renders such a list of
duals at once, each cut bitwise as it would be alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .diagram import subset_lattice
from .lastjob import cost_table
from .model import BENDERS, Cut, Instance, LimitExceeded

# The gate does not bound a diagram's size, since none is built: it stays
# because ``master.flow_lhs`` sums the flow rows bitwise only for at most 15
# jobs per machine, and no flow-cut solve above 12 jobs has been measured.
MDD_MAX_JOBS = 12


def check_scale(n_jobs: int) -> None:
    if n_jobs > MDD_MAX_JOBS:
        raise LimitExceeded(
            f"capacitated diagram supports at most {MDD_MAX_JOBS} jobs, got {n_jobs}"
        )


@functools.lru_cache(maxsize=MDD_MAX_JOBS + 1)
def _subsets(k: int):
    """The subsets of k items, as read-only int32 bitmasks over their
    positions, read off ``diagram.subset_lattice(k)``: per size s = 1..k,
    (masks, members, rests), the s-subsets ascending, each one's member
    positions ascending and the subset without that member; then every
    (subset, member position, size) triple in the same order, after
    (0, k, 0), which stands for the root."""
    lattice = subset_lattice(k)
    layers = tuple(zip(lattice.masks[1:], lattice.members[1:], lattice.rests[1:]))
    pair_mask, pair_pos = [np.zeros(1, np.int32)], [np.full(1, k, np.int32)]
    pair_size = [np.zeros(1, np.int32)]
    for s, (masks, members, _) in enumerate(layers, 1):
        pair_mask.append(np.repeat(masks, s))
        pair_pos.append(members.ravel())
        pair_size.append(np.full(members.size, s, np.int32))
    pairs = tuple(map(np.concatenate, (pair_mask, pair_pos, pair_size)))
    for arr in pairs:
        arr.setflags(write=False)
    return layers, pairs


def out_arcs(n: int, sets: np.ndarray, lasts: np.ndarray, sizes: np.ndarray):
    """Every out-arc of the states (job mask ``sets``, last job ``lasts``,
    0 at the root; ``sizes`` jobs placed), listed state after state, each
    state's in arc order: first the non-assignment arc, then one
    assignment arc per job outside the set, ascending.

    Returns per arc its state's index, its job (0 on the non-assignment
    arc), whether its head is the terminal (the non-assignment arc, and
    every arc of a state with n - 1 jobs) and its ``lastjob.cost_table``
    cell (into the terminal by an assignment arc, last job, job)."""
    width = n + 1
    free = np.ones((len(sets), width), dtype=bool)
    free[:, 1:] = (sets[:, None] >> np.arange(n)) & 1 == 0
    state, job = np.nonzero(free)
    into_terminal = (job == 0) | (sizes[state] == n - 1)
    cell = (((job > 0) & into_terminal) * width + lasts[state]) * width + job
    return state, job, into_terminal, cell


@dataclass
class DualValues:
    n_jobs: int
    pi_root: float
    # the reached arcs with a negative reduction, in arc order, each as its
    # tail state (job mask, last job), its job (0 on the non-assignment
    # arc), its tail's decision layer (the set's size) and its dual r:
    # alpha on an assignment arc, beta on a non-assignment arc; every other
    # arc's dual is 0
    tail_set: np.ndarray = field(repr=False)
    tail_last: np.ndarray = field(repr=False)
    job: np.ndarray = field(repr=False)
    layer: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)


def extract_duals(x_col: np.ndarray, t: np.ndarray,
                  d: np.ndarray) -> list[DualValues]:
    """Shortest-path duals of the column's flow problem, one ``DualValues``
    per scenario: t has shape (n + 1, W) and d (n + 1, n + 1, W), the
    scenario axis last, as in the diagram sweeps.

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
      the reached tails' out-arcs, which ``out_arcs`` lists.  A last job
      into the terminal pays its closing setup on its own arc instead of
      on a non-assignment arc, which adds the same two terms.
    The subset tables, the out-arcs and their heads depend on x alone, so
    the W scenarios share them and every distance carries the scenario
    axis.  Each distance takes the minimum of the same candidate sums,
    added in the same order, as a pass over the arcs of one scenario would,
    so every value is bitwise that pass's.
    """
    n = len(x_col)
    width = n + 1
    costs = cost_table(t, d)
    # to_job[j, last]: the cost of placing j after last, not into the terminal
    to_job = np.ascontiguousarray(
        costs[:width * width].reshape(width, width, -1).transpose(1, 0, 2))
    jobs = np.flatnonzero(np.asarray(x_col)) + 1
    k = len(jobs)
    # tables are indexed by subsets of x over positions in ``jobs``, by
    # last job and by scenario; sub maps such a subset to its job mask,
    # pos_bit a job to its position's bit (0 for a job outside x and for
    # the dummy)
    sub = np.zeros(1 << k, dtype=np.int64)
    for i, j in enumerate(jobs.tolist()):
        sub[1 << i:2 << i] = sub[:1 << i] | 1 << (j - 1)
    pos_bit = np.zeros(width, dtype=np.int32)
    pos_bit[jobs] = np.int32(1) << np.arange(k, dtype=np.int32)
    layers, (pair_mask, pair_pos, pair_size) = _subsets(k)

    # fdist[S, last] from the root; togo[R, last]: the cheapest way to
    # place R after last, then end.  Both build a subset from the subset
    # without one of its jobs.
    fdist = np.full((1 << k, *to_job.shape[1:]), np.inf)
    fdist[0, 0] = 0.0
    togo = np.empty_like(fdist)
    togo[0] = to_job[0] + 0.0  # the non-assignment arc into the terminal
    for s, (masks, members, rests) in enumerate(layers, 1):
        placed = jobs[members]
        step = to_job[placed]
        if s < n:  # x itself is the terminal when it holds every job
            fdist[masks[:, None], placed] = (fdist[rests] + step).min(axis=2)
        togo[masks] = (step + togo[rests, placed][:, :, None]).min(axis=1)
    everything = (1 << k) - 1
    pi_root = togo[everything, 0]

    # the reached tails are the pairs, in arc order: the root first, and
    # the full job set is the terminal, not a tail
    if k == n:
        pair_mask, pair_pos, pair_size = pair_mask[:-k], pair_pos[:-k], pair_size[:-k]
    tail_set = sub[pair_mask]
    tail_last = np.append(jobs, 0)[pair_pos]
    pair, job, into_terminal, cell = out_arcs(n, tail_set, tail_last, pair_size)
    # a non-terminal head holds the tail's subset plus the arc's job, which
    # is its last job; pi there places the rest of x
    rest = everything ^ (pair_mask[pair] | pos_bit[job])
    pi_head = np.where(into_terminal[:, None], 0.0, togo[rest, job])
    r = fdist[pair_mask, tail_last][pair] + costs[cell] + pi_head - pi_root
    # the negative reductions, scenario by scenario, each in arc order
    scenario, arc = np.nonzero(r.T < 0)
    bounds = np.searchsorted(scenario, np.arange(len(pi_root) + 1))
    pair = pair[arc]
    fields = (tail_set[pair], tail_last[pair], job[arc], pair_size[pair],
              r[arc, scenario])
    return [DualValues(n, root, *(f[lo:hi] for f in fields))
            for root, lo, hi in zip(pi_root.tolist(), bounds[:-1], bounds[1:])]


# Float sums round differently in another order, so the payload below adds
# its terms one at a time (np.add.at, in index order) in the order a loop
# over the arcs would: arc order, jobs ascending within a non-assignment arc.
# It renders a list of duals at once: their arcs are stacked, and
# every key is offset by its duals' index, so each cut's terms still meet
# only each other, in their own order.
def _running_sums(starts: np.ndarray, owner: np.ndarray,
                  terms: np.ndarray) -> np.ndarray:
    """starts[c] + each term of owner c, left to right, per c."""
    acc = np.array(starts, dtype=float)
    np.add.at(acc, owner, terms)
    return acc


def _stacked(duals_list: list[DualValues]):
    """(index into the list, job, tail set, layer, r) of every listed arc,
    the duals one after another, and each duals' pi(root)."""
    owner = np.repeat(np.arange(len(duals_list)), [len(du.r) for du in duals_list])
    arrays = (np.concatenate([getattr(du, name) for du in duals_list])
              for name in ("job", "tail_set", "layer", "r"))
    return (owner, *arrays), np.array([du.pi_root for du in duals_list])


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


def strengthen_layers(duals_list: list[DualValues]):
    """(constant, per-job coefficients) of the layer-strengthened flow cut
    of each duals: every path uses at most one assignment arc per decision
    layer, so per (job, layer) only the best alpha may count; non-assignment
    arcs all enter the terminal, so one minimum beta per job outside the
    arc's tail set, which goes on the constant and, negated, on the job.
    The minima are added in the order their key first goes negative."""
    n = duals_list[0].n_jobs
    size = len(duals_list) * n  # (duals, job) keys
    (owner, job, tail_set, layer, r), pi_root = _stacked(duals_list)
    assign = job > 0
    keys = (owner[assign] * n + job[assign] - 1) * n + layer[assign]
    gamma_keys, gamma = _first_seen_minima(keys, r[assign], size * n)
    # every job of a non-assignment arc's U_a, arcs in order, jobs ascending
    unassign = np.flatnonzero(~assign)
    rows, jobs = np.nonzero((tail_set[unassign, None] >> np.arange(n)) & 1 == 0)
    rows = unassign[rows]
    delta_keys, delta = _first_seen_minima(owner[rows] * n + jobs, r[rows], size)
    coef = np.zeros(size)
    np.add.at(coef, np.concatenate((gamma_keys // n, delta_keys)),
              np.concatenate((gamma, -delta)))
    const = _running_sums(pi_root, delta_keys // n, delta)
    return list(zip(const.tolist(), coef.reshape(len(duals_list), -1)))


def benders_cuts(duals_list: list[DualValues], scenarios, jobs: int) -> list[Cut]:
    """Render the layer-strengthened flow cut of each duals, for its
    scenario, as a master Cut on the job mask ``jobs`` (quantified over all
    machines; machines are homogeneous)."""
    return [Cut(jobs=jobs, scenario=w, kind=BENDERS, benders_payload=payload)
            for w, payload in zip(scenarios, strengthen_layers(duals_list))]


class FlowContext:
    """Per-solve flow-cut context: the instance's size checked against
    ``MDD_MAX_JOBS``.  It holds no diagram; each dual pass lists the arcs it
    reaches in closed form."""

    def __init__(self, inst: Instance):
        check_scale(inst.n_jobs)

    def cut_for(self, inst: Instance, x_col: np.ndarray, scenarios,
                jobs: int) -> list[Cut]:
        """The flow cuts of one failing machine with column ``x_col``, one
        per listed scenario, in that order, from one dual pass."""
        exec_, setup = inst.scenario_stack
        duals = extract_duals(x_col, exec_[:, scenarios], setup[:, :, scenarios])
        return benders_cuts(duals, scenarios, jobs)

"""Master assignment model and the depth-first search that solves it.

The master maximizes assigned utility subject to per-job assignment rows,
machine capacities, the chance row over scenario flags z, optional symmetry
and scenario-relaxation valid inequalities, and an accumulating cut pool.
The scenario relaxation has two row families: an additive optimistic load
per (machine, scenario), each job charged its time plus its cheapest
outgoing setup over all jobs, and a row per full machine set and scenario
whose own-successor bound (each job's time plus its cheapest setup to a
job of the set or closing to the dummy) exceeds T.  A set's rows are taken
cheapest first, the additive ones, then the successor rows, then the cuts,
and the search stops taking them once they force more scenarios than the
chance row allows: such a set is dead, and no more rows change that.

``solve_master`` is a branch and check search specialized to this
structure (Thorsteinsson, CP 2001): a depth-first branch and bound over
job-to-machine assignments that calls a lazy-cut hook at each leaf and
prunes the rest of the search with the cuts it returns.  It holds the rows
as machine bits and load sums, not as an LP; the tests keep the LP row
model as their exhaustive reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import (
    BENDERS,
    Candidate,
    Cut,
    EPS,
    Instance,
    TOL,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
LIMIT = "limit"

# Entries of each of the search's job-set memos before it is emptied: the
# fail memo (the scenarios a set forces to zero, its prefixes' rows
# included) and the relaxation memo's blocks (``LoadBlocks``), both local
# to one solve.  Instances of 12-22 jobs stay below 1000 entries, but a
# minute on 30 jobs visits about 500k distinct job sets: unbounded, a memo
# then held about 130 MB; at this size peak RSS stays below 50 MB.
FAIL_MEMO_MAX = 1 << 15
# The relaxation memo's size in float64 cells (2 MB).  A block costs its
# loads, one cell per (child, scenario), plus about 6 cells (48 B) per
# child for its bits, its list slot and its own bits' int, and 40 cells
# (320 B) for the array header, integer, list, tuple and dict slot;
# the memo is emptied before a block would take it past this size, so it
# stays near 2 MB at any number of jobs and scenarios.
LOAD_MEMO_CELLS = 1 << 18
BLOCK_ROW_CELLS = 6
BLOCK_CELLS = 40


@dataclass
class MasterModel:
    inst: Instance
    # lexicographic machine order: job j may only use machines m <= j, and
    # machine m+1 only once machine m already holds a lower-indexed job
    symmetry: bool = False
    cuts: list[Cut] = field(default_factory=list)
    # optimistic load rows, one per (machine, scenario), or None without
    # them: each assigned job contributes its execution time plus its
    # cheapest outgoing setup (closing to the dummy included), a lower bound
    # on any schedule containing it; None also turns off the full-set
    # successor rows
    relax_coef: Optional[np.ndarray] = None  # (n_scenarios, n_jobs)

    @property
    def scenario_relaxation(self) -> bool:
        return self.relax_coef is not None


@dataclass
class BackendSolution:
    status: str
    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    objective: Optional[float] = None
    bound: Optional[float] = None
    n_nodes: int = 0  # search nodes entered

    @property
    def candidate(self) -> Candidate:
        return Candidate(x=self.x, z=self.z)


def build_master(inst: Instance, symmetry: bool = True,
                 scenario_relaxation: bool = True) -> MasterModel:
    relax_coef = optimistic_load_coefficients(inst) if scenario_relaxation else None
    return MasterModel(inst=inst, symmetry=symmetry, relax_coef=relax_coef)


def optimistic_load_coefficients(inst: Instance) -> np.ndarray:
    """t_j plus the cheapest setup from j to another job or to the dummy,
    at [w, j - 1] for job j in scenario w, from ``Instance.scenario_stack``
    with j -> j masked."""
    exec_, setup = inst.scenario_stack
    d = setup[1:].copy()
    d[np.arange(inst.n_jobs), np.arange(1, inst.n_jobs + 1)] = np.inf
    return (exec_[1:] + d.min(axis=1)).T


def utility_bounds(inst: Instance) -> list[list[float]]:
    """``bounds[j][used]``, for used = 0..min(j, M B): the largest utility
    the jobs from j on can still add with ``used`` of the M B machine
    places taken, the sum of the min(M B - used, n - j) largest of f[j:]."""
    f, n = inst.utilities, inst.n_jobs
    full = inst.n_machines * inst.capacity
    j = np.arange(n + 1)[:, None]
    # row j: f[j:] largest first, then -inf in place of the jobs before j
    tails = -np.sort(np.where(np.arange(n) >= j, -f, np.inf), axis=1)
    top = np.zeros((n + 1, n + 1))
    np.cumsum(tails, axis=1, out=top[:, 1:])
    used = np.arange(min(n, full) + 1)
    table = top[j, np.minimum(full - used, n - j)].tolist()
    return [row[:min(j, full) + 1] for j, row in enumerate(table)]


def successor_costs(inst: Instance) -> np.ndarray:
    """t_i + d_ik at [k, i - 1, w] for job i followed by k (0 the dummy) in
    scenario w, from ``Instance.scenario_stack``; i -> i is infinite.  The
    successor axis comes first, so a set's minima reduce the outer axis of
    its gather."""
    exec_, setup = inst.scenario_stack
    cost = (exec_[1:, None] + setup[1:]).transpose(1, 0, 2).copy()
    cost[np.arange(1, inst.n_jobs + 1), np.arange(inst.n_jobs)] = np.inf
    return cost


def successor_over(cost: np.ndarray, jobs, limit) -> np.ndarray:
    """Per scenario, whether the own-successor bound of the set ``jobs``
    (0-based, ascending) proves that a set-time sweep finds its full-set
    time > ``limit``; ``cost`` is ``successor_costs``'s.

    Each job of a schedule pays its time and one outgoing setup, to the
    next job or, last, closing to the dummy, so g = sum over i of
    min_{k in jobs + {0}, k != i} (t_i + d_ik) bounds every schedule of
    exactly this set (the successor half of the assignment relaxation of
    the asymmetric TSP; Balas & Toth, 1985).

    The sweep times a schedule as a rounded sum of at most 2k + 1
    nonnegative terms whose exact sum is at least the exact bound L, so its
    time is at least L (1 - gamma_2k), with gamma_m = m u / (1 - m u) and
    unit roundoff u = eps / 2.  The rounded g adds k rounded terms, so
    g <= L (1 + gamma_k).  A rounded g (1 - 3 k eps) > limit then means
    g (1 - 6 k u) (1 + u) > limit, and since (1 - 6 k u) (1 + u) <=
    1 - gamma_3k <= (1 - gamma_2k) / (1 + gamma_k) for any k below 10^15,
    the sweep's time exceeds limit too, at any magnitude of the times.
    """
    rows = np.array(jobs)
    cols = np.concatenate(([0], rows + 1))
    g = cost[cols[:, None], rows].min(axis=0).sum(axis=0)
    return g * (1 - 3 * len(jobs) * EPS) > limit


def scenario_bits(over: np.ndarray) -> int:
    """A boolean per-scenario array as a bitmask, bit w for scenario w; a
    2-D array's rows follow one another, bit i n_sc + w for row i."""
    return int.from_bytes(np.packbits(over, bitorder="little").tobytes(), "little")


class LoadBlocks:
    """The search's relaxation memo, keyed by parent job set.

    Jobs join a set in index order, so a set P can grow into P + j for
    every j from ``P.bit_length()`` on.  The load of P + j is the load of P
    plus j's row of ``relax`` (one row per job): the running sum of its
    jobs' rows in index order, which is bitwise what numpy's axis-0 sum of
    those rows gives whenever there are two or more scenarios.  P + j
    violates its additive relaxation row in the scenarios where that load
    exceeds ``limit``.  P's block holds both for all of its children at
    once, made with one broadcast add, one comparison and one
    ``packbits``: ``(loads, over, own)``, where ``loads[i]`` and bits
    i * n_sc to (i + 1) * n_sc - 1 of the integer ``over`` belong to the
    child of j = P.bit_length() + i.  ``own[i]`` is a slot for that child's
    own relaxation bits, which the search fills on the child's first
    fail-memo miss and which outlives the fail memo's clears.

    Only blocks are held: a set's load is its row of its parent's block
    or, where that block is gone, its running sum taken afresh with
    ``cumsum``, so no kept row can pin an evicted block.  The memo is
    emptied before it would hold more than ``FAIL_MEMO_MAX`` blocks or
    ``LOAD_MEMO_CELLS`` cells, so one block is the most it can exceed the
    cap by."""

    def __init__(self, relax: np.ndarray, limit: float):
        self.relax = relax
        self.limit = limit
        self.n_sc = relax.shape[1]
        self.blocks: dict[int, tuple[np.ndarray, int, list]] = {}
        self.cells = 0

    def load(self, mask: int) -> np.ndarray:
        """The load of the nonempty set ``mask``."""
        j = mask.bit_length() - 1
        parent = mask ^ 1 << j
        block = self.blocks.get(parent)
        if block is None:
            jobs = [i for i in range(j + 1) if mask >> i & 1]
            return self.relax[jobs].cumsum(axis=0)[-1]
        return block[0][j - parent.bit_length()]

    def block(self, parent: int) -> tuple[np.ndarray, int, list]:
        """Make ``parent``'s block and hold it."""
        loads = self.relax[parent.bit_length():]
        if parent:
            loads = self.load(parent) + loads
        block = loads, scenario_bits(loads > self.limit), [None] * len(loads)
        cells = loads.size + len(loads) * BLOCK_ROW_CELLS + BLOCK_CELLS
        if (len(self.blocks) >= FAIL_MEMO_MAX
                or self.cells + cells > LOAD_MEMO_CELLS):
            self.blocks.clear()
            self.cells = 0
        self.blocks[parent] = block
        self.cells += cells
        return block

    def additive(self, block: tuple[np.ndarray, int, list], i: int) -> int:
        """The scenarios whose additive row child i of ``block`` violates,
        as a bitmask."""
        return block[1] >> i * self.n_sc & (1 << self.n_sc) - 1


def flow_block(cuts, n_jobs: int):
    """Flow cuts, in order, as one block: their scenario indices, constants
    and (rows, n_jobs) coefficient matrix."""
    scenarios = np.array([cut.scenario for cut in cuts], dtype=np.intp)
    const = np.array([cut.benders_payload[0] for cut in cuts], dtype=float)
    coef = np.array([cut.benders_payload[1] for cut in cuts],
                    dtype=float).reshape(len(cuts), n_jobs)
    return scenarios, const, coef


def flow_lhs(const: np.ndarray, coef: np.ndarray, jobs) -> np.ndarray:
    """Left-hand side of every flow row of a block on a machine holding
    ``jobs`` (0-based, ascending, at most 15): const + the jobs'
    coefficients.  A row is violated where it exceeds T + TOL; the leaf
    test and the cut batch's exclusion test both read it from here.

    Each value is bitwise ``const[i] + coef[i, jobs].sum()``.  numpy adds
    up to 7 terms one at a time in any layout, but 8 to 15 terms of one
    array as a tree over the first eight, then the rest one at a time,
    onto the identity 0.0, while a row reduction of a 2-D array adds them
    all one at a time."""
    part = coef[:, jobs]
    if len(jobs) < 8:
        return const + part.sum(axis=1)
    pairs = part[:, 0:8:2] + part[:, 1:8:2]
    quads = pairs[:, 0::2] + pairs[:, 1::2]
    total = quads[:, 0] + quads[:, 1]
    for c in range(8, len(jobs)):
        total += part[:, c]
    return const + (0.0 + total)


def solve_master(model: MasterModel, time_budget: Optional[float] = None,
                 hook: Optional[Callable] = None) -> BackendSolution:
    """Solve the master to proven optimality, or until ``time_budget``
    seconds have passed, by depth-first search over job-to-machine
    assignments.

    Jobs are branched in index order, machines tried in index order before
    "unassigned", which realizes (job, machine)-lexicographic branching of
    the x variables.  Pruning uses the utility bound (largest remaining
    utilities that fit the residual capacity) and chance propagation: each
    machine holds its job set as an integer bitmask together with the
    bitmask of scenarios that pool cuts and relaxation rows force to zero on
    it, so a partial assignment whose surviving probability mass already
    misses 1 - epsilon is abandoned.  A job joining a machine adds to the
    machine's bits only its new set's own relaxation rows and the job-set
    cuts whose highest job it is (each cut is indexed under that job alone),
    as the bits already hold every row the set covered before.  The machine
    masks are also the assignment that x is read from.  A parent makes both
    tests on each child before it descends, so the search enters (and its
    time budget counts) only the nodes that pass them;
    ``BackendSolution.n_nodes`` is their number.  z is assigned greedily
    maximal at each leaf, which is optimal since z carries no objective.

    ``hook``, when given, is called with (x, z) at each leaf that meets the
    chance row and returns the cuts (x, z) violates, or nothing to accept
    it.  Its cuts enter the search as the pool's do: a job-set cut sets its
    scenario bit on every machine whose job set covers it, from here on,
    which prunes interior nodes and drops the flag at leaves; flow cuts
    join one block of rows, which each leaf tests with one gather and row
    sum per machine that holds jobs (``flow_lhs``).
    """
    inst = model.inst
    n, M, B = inst.n_jobs, inst.n_machines, inst.capacity
    n_sc = inst.n_scenarios
    f = inst.utilities.tolist()
    p = inst.scenario_prob
    need = 1.0 - inst.epsilon - 1e-12
    T = inst.time_limit
    deadline = None if time_budget is None else time.monotonic() + time_budget

    bounds = utility_bounds(inst)
    # the chance row as a count: a path meets it while at most max_fail
    # scenarios are forced to zero, by the row's own float test
    max_fail = -1
    while max_fail < n_sc and (n_sc - max_fail - 1) * p >= need:
        max_fail += 1
    symmetry = model.symmetry
    full = M * B  # jobs that fill every machine

    # one row of optimistic loads per job; a set's load is the running
    # sum of its jobs' rows in index order
    relax = (np.ascontiguousarray(model.relax_coef.T)
             if model.scenario_relaxation else None)
    # and the costs of a full set's own successors
    succ = successor_costs(inst) if relax is not None else None
    # job-set mask -> bitmask of the scenarios that set forces to zero
    fail_memo: dict[int, int] = {}
    # parent job set -> the loads and relaxation bits of every set it may
    # grow into (``LoadBlocks``)
    memo = LoadBlocks(relax, T + TOL) if relax is not None else None
    blocks = memo.blocks if memo is not None else None
    # job j -> {mask of a cut job set whose highest job is j: its cuts'
    # scenario bits}
    cuts_by_last: list[dict[int, int]] = [{} for _ in range(n)]

    def jobs_of(mask: int) -> list[int]:
        return [i for i in range(n) if mask >> i & 1]

    def fail_of(mask: int, j: int, parent: int) -> int:
        """Forced scenarios of ``mask``, whose highest job is j.
        ``parent``, the bits of ``mask`` without j, holds every row that
        set covers, so only ``mask``'s own relaxation rows and the cuts
        whose highest job is j remain.  A scenario stays forced once
        forced, as the cuts and the additive relaxation rows only tighten
        when jobs join.  A set that fills its machine also forces the
        scenarios its own successors bound above T (``successor_over``);
        that row is not additive, but the search never grows a full set,
        so no larger set inherits it.  It is taken on the set's first miss
        and kept in its slot of its parent's block (``LoadBlocks``).

        The rows are taken cheapest first: the parent's bits and the
        additive row, then the successor row while those bits stay within
        ``max_fail``, then the cut scan while they still do.  So a memo
        entry, of either memo, may leave rows out only where the bits it
        holds with its parent's already exceed ``max_fail``.  Such a set
        is dead, and stays dead: rows only add bits, and its parent's bits
        only grow as cuts arrive.  The search never enters a dead set, and
        sets grow only through sets it entered, so a dead set is never a
        parent either.  The child test ``(failed | new).bit_count() <=
        max_fail`` thus decides as it would on the complete bits, and
        every set the search enters holds complete bits."""
        bits = parent
        if memo is not None:
            base = mask ^ 1 << j
            block = blocks.get(base)
            if block is None:
                block = memo.block(base)
            i = j - base.bit_length()
            own = block[2][i]
            if own is None:
                own = memo.additive(block, i)
                if (mask.bit_count() == B
                        and (parent | own).bit_count() <= max_fail):
                    own |= scenario_bits(successor_over(succ, jobs_of(mask),
                                                        T + TOL))
                block[2][i] = own
            bits |= own
        if bits.bit_count() <= max_fail:
            for cmask, wbits in cuts_by_last[j].items():
                if cmask & mask == cmask:
                    bits |= wbits
        if len(fail_memo) >= FAIL_MEMO_MAX:
            fail_memo.clear()
        fail_memo[mask] = bits
        return bits

    mach_mask = [0] * M
    mach_fail = [0] * M

    # job-set cuts in arrival order, (jobmask, scenario), and the flow
    # rows as one block (``flow_block``)
    job_cuts: list[tuple[int, int]] = []
    flow_w, flow_const, flow_coef = flow_block((), n)

    def add_lazy(new_cuts) -> None:
        """Enter cuts into the search: the pool before it starts, hook
        cuts as they come.  A job-set cut joins ``cuts_by_last`` under
        its highest job and sets its scenario bit on every machine of
        the current path whose job set covers it, so the path's bits
        stay exact; the fail memo, whose entries predate the cut, is
        emptied and refills from them.  Flow cuts extend the block of
        rows the leaves test."""
        nonlocal flow_w, flow_const, flow_coef
        flows = []
        for cut in new_cuts:
            if cut.kind == BENDERS:
                flows.append(cut)
                continue
            cmask, wbit = cut.jobs, 1 << cut.scenario
            job_cuts.append((cmask, cut.scenario))
            sets = cuts_by_last[cmask.bit_length() - 1]
            sets[cmask] = sets.get(cmask, 0) | wbit
            for m, mk in enumerate(mach_mask):
                if mk & cmask == cmask:
                    mach_fail[m] |= wbit
            fail_memo.clear()
        if flows:
            w, const, coef = flow_block(flows, n)
            flow_w = np.concatenate((flow_w, w))
            flow_const = np.concatenate((flow_const, const))
            flow_coef = np.concatenate((flow_coef, coef))

    add_lazy(model.cuts)

    best_obj = -np.inf
    best_x = None
    best_z = None
    limit = False
    open_bound = -np.inf
    n_nodes = 0

    def note_open(j: int, util: float, used: int) -> None:
        nonlocal open_bound
        open_bound = max(open_bound, util + bounds[j][used])

    def leaf_z() -> np.ndarray:
        failed = 0
        for bits in mach_fail:
            failed |= bits
        z = np.array([not failed >> w & 1 for w in range(n_sc)])
        if len(flow_w):
            # a flow row drops its scenario when some machine violates it
            over = np.zeros(len(flow_w), dtype=bool)
            for mk in mach_mask:
                if mk:
                    over |= flow_lhs(flow_const, flow_coef, jobs_of(mk)) > T + TOL
            z[flow_w[over]] = False
        return z

    def current_x() -> np.ndarray:
        x = np.zeros((n, M), dtype=np.int8)
        for m, mk in enumerate(mach_mask):
            x[jobs_of(mk), m] = 1
        return x

    def handle_leaf(util: float) -> None:
        nonlocal best_obj, best_x, best_z
        z = leaf_z()
        if n_sc - z.sum() > max_fail:
            return
        if hook is not None:
            x = current_x()
            verified = False
            for _ in range(n_sc + 2):
                new_cuts = hook(x, z.astype(np.int8))
                if not new_cuts:
                    verified = True
                    break
                add_lazy(new_cuts)
                z = leaf_z()
                # a returned cut's scenario is a failing one for this x,
                # so its flag must drop here even if the cut row itself
                # does not bind at this candidate; z shrinks every round
                for cut in new_cuts:
                    z[cut.scenario] = False
                if n_sc - z.sum() > max_fail:
                    return
            if not verified:
                return
        if util > best_obj + TOL:
            best_obj = util
            best_x = current_x()
            best_z = z.astype(np.int8)

    def dfs(j: int, util: float, used: int, failed: int) -> None:
        """Enter a node its parent has tested: ``failed`` meets the
        chance row and the utility bound beats the incumbent."""
        nonlocal n_nodes, limit
        n_nodes += 1
        if (deadline is not None and not n_nodes % 64
                and time.monotonic() > deadline):
            limit = True
            note_open(j, util, used)
            return
        if j == n:
            handle_leaf(util)
            return
        child_bounds = bounds[j + 1]
        # the children that assign j share one utility bound, tested
        # again after each descent as the incumbent moves; with every
        # machine full there are none
        grown_util = util + f[j]
        grown_bound = (grown_util + child_bounds[used + 1] if used < full
                       else -np.inf)
        if grown_bound > best_obj + TOL:
            bit = 1 << j
            seen = len(job_cuts)
            for m, mask in enumerate(mach_mask):
                if mask.bit_count() < B:
                    old = mach_fail[m]
                    grown = mask | bit
                    new = fail_memo.get(grown)
                    if new is None:
                        new = fail_of(grown, j, old)
                    path = failed | new
                    if path.bit_count() <= max_fail:
                        mach_mask[m], mach_fail[m] = grown, new
                        dfs(j + 1, grown_util, used + 1, path)
                        mach_mask[m], mach_fail[m] = mask, old
                        if len(job_cuts) > seen:
                            # hook cuts that arrived in the subtree: the
                            # restored bits miss those ``mask`` covers,
                            # and ``failed`` those the path covers
                            for cmask, w in job_cuts[seen:]:
                                if cmask & mask == cmask:
                                    mach_fail[m] |= 1 << w
                            seen = len(job_cuts)
                            failed = 0
                            for bits in mach_fail:
                                failed |= bits
                        if limit:
                            note_open(j, util, used)
                            return
                        if grown_bound <= best_obj + TOL:
                            break
                if symmetry and not mask:
                    # machines after the first empty one are empty too,
                    # and the lexicographic order leaves them to it
                    break
        if (failed.bit_count() <= max_fail
                and util + child_bounds[used] > best_obj + TOL):
            dfs(j + 1, util, used, failed)

    try:
        if max_fail >= 0:
            dfs(0, 0.0, 0, 0)
    finally:
        # the recursive closure holds itself through its cell; unlinking
        # it frees the search state on return instead of in a later
        # cyclic collection
        dfs = None

    if best_x is None:
        if limit:
            return BackendSolution(status=LIMIT, bound=max(open_bound, 0.0),
                                   n_nodes=n_nodes)
        return BackendSolution(status=INFEASIBLE, n_nodes=n_nodes)
    status = LIMIT if limit else OPTIMAL
    bound = best_obj if status == OPTIMAL else max(open_bound, best_obj)
    return BackendSolution(
        status=status, x=best_x, z=best_z, objective=float(best_obj),
        bound=float(bound), n_nodes=n_nodes,
    )

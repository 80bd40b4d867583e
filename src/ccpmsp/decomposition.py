"""Outer solve loop: propose a master candidate, check every (machine,
scenario) sequencing subproblem on the cached diagrams, emit cuts, repeat.

A check groups the candidate's machines by job count k and gathers the
times of every (machine, claimed scenario) pair of a group at once from the
instance's scenario-stacked arrays.  On machines of at least
``CERTIFY_MIN_JOBS`` jobs, a pair whose nearest-neighbour schedule fits T
is feasible without the sweep; the other pairs go through the size-k
diagram in set-time sweeps chunked to bound their memory, and the diagram
is built only then.  Each failure carries its scenario's per-job-set time
table, from which IIS cuts are read without a second sweep, the tables of
one size filtered together.

A candidate becomes the answer only after every scenario it claims (z = 1)
has been verified feasible on all machines, so the returned objective is
exact whenever the status says optimal.  The solve makes one
``solve_master`` call with a lazy-cut hook that checks each candidate and
returns its cuts: the master search calls it at its leaves, and the cuts
prune the rest of that search (branch and check).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jobset, lastjob, netflow
from .diagram import (
    JOBSET,
    LASTJOB,
    DiagramCache,
    minimal_over_limit,
    schedule_fits,
)
from .master import (
    OPTIMAL,
    build_master,
    flow_block,
    flow_lhs,
    solve_master,
)
from .model import (
    BENDERS,
    CUT_KINDS,
    Candidate,
    ConfigurationError,
    Cut,
    IIS,
    Instance,
    NOGOOD,
    StructuralError,
    TOL,
    jobs_mask,
)
from .oracle import verify_candidate

# The variant modules, called as ``module.set_times`` so that a function
# replaced on the module is the one that runs.
VARIANT_MODULES = {LASTJOB: lastjob, JOBSET: jobset}

# Working-set bound of one set-time sweep in float64 cells (512 KB): the
# pairs of a size group that no schedule certified are split into balanced
# chunks so that no sweep array (``Diagram.sweep_cells`` per pair) exceeds
# it.  Per pair the sweep runs slower on chunks of one or two pairs than on
# wider ones, and at k = 11 it is no faster at 2^17 cells than here, while
# a solve's peak memory grows with the bound.
SWEEP_CHUNK_CELLS = 1 << 16

# Machines of fewer jobs go straight to the sweep.  Timed on the size
# groups of the benchmark workloads' checks, in both variants, with every
# size certified, ``schedule_fits`` plus the sweep of the pairs it leaves
# cost 1.7-2.4 times the plain sweep at k = 2-5 and 0.0-0.6 times it at
# k = 8-12; the one group of 7 jobs cost 1.2-1.3 times, and no check met
# a machine of 6.
CERTIFY_MIN_JOBS = 7


@dataclass
class SolveOptions:
    variant: str = JOBSET
    cut_kind: str = IIS
    symmetry: bool = True
    scenario_relaxation: bool = True
    time_budget: float = 1200.0
    benders_strategy: int = 1  # 0 = basic cut, 1 = layer-strengthened

    def check(self, inst: Optional[Instance] = None) -> None:
        """Raise ConfigurationError on an option no solve accepts and, given
        an instance, on its ``violations`` (those ``validate_instance``
        lists, broken triangles included) or an option it rejects."""
        if not self.time_budget >= 0.0:  # NaN included
            raise ConfigurationError(
                f"time budget must be a number >= 0, got {self.time_budget!r}"
            )
        if self.variant not in VARIANT_MODULES:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.cut_kind not in CUT_KINDS:
            raise ConfigurationError(f"unknown cut kind {self.cut_kind!r}")
        if self.benders_strategy not in (0, 1):
            raise ConfigurationError(
                f"unknown benders strategy {self.benders_strategy!r}"
            )
        if inst is not None and inst.violations:
            raise ConfigurationError("invalid instance: " + "; ".join(inst.violations))
        if inst is not None and self.cut_kind == BENDERS:
            netflow.check_scale(inst.n_jobs)


@dataclass
class SolveReport:
    """A solve's outcome and counters; ``check_candidate`` and
    ``emit_cuts`` add to the counters of the report they are given."""

    objective: Optional[float] = None
    bound: Optional[float] = None
    status: str = "unknown"
    n_callbacks: int = 0  # subproblem checks (check_candidate calls)
    n_cuts: int = 0
    # cut batches whose own cuts did not exclude their candidate, so that
    # the failures' no-goods joined them
    n_fallbacks: int = 0
    subproblem_resolution_time: float = 0.0
    cut_creation_time: float = 0.0
    subproblem_creation_time: float = 0.0  # constructing the netflow context
    wall_time: float = 0.0
    master_time: float = 0.0  # inside solve_master, callback hook time excluded
    verify_time: float = 0.0  # post-solve oracle check, after wall_time stops
    build_time: float = 0.0  # diagram builds
    n_master_nodes: int = 0  # nodes the master search entered
    n_certified: int = 0  # checked pairs a schedule proved, without a sweep
    check_counts: Optional[np.ndarray] = None  # (n_machines, n_scenarios)
    cuts: Optional[list] = None  # final pool (diagnostics)

    @property
    def gap(self) -> float:
        return compute_gap(self.objective, self.bound)

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL and self.gap == 0.0

    @property
    def resolution_time_per_callback(self) -> float:
        if not self.n_callbacks:
            return 0.0
        return self.subproblem_resolution_time / self.n_callbacks


def compute_gap(objective: Optional[float], bound: Optional[float]) -> float:
    """Relative optimality gap; infinite without an incumbent."""
    if objective is None or bound is None:
        return float("inf")
    diff = bound - objective
    if diff <= TOL:
        return 0.0
    if objective <= TOL:
        return float("inf")
    return diff / objective


class Failure(tuple):
    """A failing (machine, scenario, jobs) triple, equal to the plain tuple.

    ``times`` is the scenario's per-job-set time table from the check that
    found the failure, so IIS extraction reads it instead of sweeping the
    diagram again.
    """

    def __new__(cls, machine: int, scenario: int, jobs: tuple, times):
        failure = super().__new__(cls, (machine, scenario, jobs))
        failure.times = times
        return failure


def check_candidate(inst: Instance, cand: Candidate, cache: DiagramCache,
                    variant: str, report: Optional[SolveReport] = None
                    ) -> list[Failure]:
    """Sequencing check of every (machine, scenario) the candidate claims.

    Only scenarios with z = 1 are checked (cuts bind through z); machines
    without jobs are trivially fine.  Machines of equal job count k form
    one group, whose (machine, claimed scenario) columns are gathered
    together.  From ``CERTIFY_MIN_JOBS`` jobs on, a column whose best
    nearest-neighbour schedule over all start jobs proves that the sweep
    would pass it is feasible without the sweep (``schedule_fits``, which
    walks one start per column and all k starts only on the columns that
    start leaves uncertified); every other column
    goes through the size-k diagram in one ``set_times`` call per chunk,
    and fails when the full set's time exceeds T + TOL.  A diagram is built
    only when some column reaches its sweep.  Returns failures sorted by
    (scenario, machine).
    Diagram builds triggered here count as creation time
    (``cache.build_time``), not resolution time.
    """
    t0 = time.perf_counter()
    build0 = cache.build_time
    active = np.flatnonzero(cand.z)
    mod = VARIANT_MODULES[variant]
    exec_all, setup_all = inst.scenario_stack
    limit = inst.time_limit + TOL
    counts = np.count_nonzero(cand.x, axis=0)
    over = np.flatnonzero(counts > inst.capacity)
    if len(over):
        m = int(over[0])
        raise StructuralError(
            f"machine {m} holds {counts[m]} jobs, capacity {inst.capacity}"
        )
    sizes = sorted(set(counts.tolist()) - {0}) if len(active) else []
    failures = []
    for k in sizes:
        machines = np.flatnonzero(counts == k)
        # row g: machines[g]'s job ids, ascending
        jobs = np.nonzero(cand.x[:, machines].T)[1].reshape(-1, k) + 1
        job_ids = [tuple(row) for row in jobs.tolist()]
        # column g: the dummy, then machines[g]'s jobs, in canonical order
        remaps = np.concatenate((np.zeros((1, len(machines)), np.intp), jobs.T))
        # column c holds the pair (machines[g], active[a]), g, a = divmod(c, A)
        # for A = len(active)
        t = exec_all[remaps[:, :, None], active].reshape(k + 1, -1)
        d = setup_all[remaps[:, None, :, None], remaps[None, :, :, None],
                      active].reshape(k + 1, k + 1, -1)
        if k >= CERTIFY_MIN_JOBS:
            sweep = np.flatnonzero(~schedule_fits(t, d, limit))
        else:
            sweep = np.arange(t.shape[1])
        if report is not None:
            report.check_counts[machines[:, None], active] += 1
            report.n_certified += t.shape[1] - len(sweep)
        if len(sweep) == 0:
            continue
        diag = cache.get_or_build(variant, k)
        n_chunks = min(len(sweep),
                       -(-len(sweep) * diag.sweep_cells // SWEEP_CHUNK_CELLS))
        bounds = np.arange(n_chunks + 1) * len(sweep) // n_chunks
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = sweep[lo:hi]
            table = mod.set_times(diag, t[:, part], d[:, :, part])
            over = np.flatnonzero(table[-1] > limit)
            for c, times in zip(part[over].tolist(), table.T[over]):
                g, a = divmod(c, len(active))
                failures.append(
                    Failure(int(machines[g]), int(active[a]), job_ids[g], times))
    failures.sort(key=lambda f: (f[1], f[0], f[2]))
    if report is not None:
        report.subproblem_resolution_time += (
            time.perf_counter() - t0 - (cache.build_time - build0)
        )
    return failures


def emit_cuts(failures, cut_kind: str, inst: Instance,
              cand: Optional[Candidate] = None,
              report: Optional[SolveReport] = None,
              flow_ctx: Optional["netflow.FlowContext"] = None,
              keys: Optional[list] = None) -> list[Cut]:
    """Render the cut batch for a list of failures, deduplicated by key.
    ``keys``, a list, when given, receives each returned cut's ``key()``
    in order, so that the pool need not key a cut again.

    IIS cuts need ``Failure``s from ``check_candidate`` and are read from
    their time tables: canonical bit i of an IIS mask is the failing
    machine's i-th smallest job.  No-goods and flow cuts take any (machine,
    scenario, jobs) triples; the flow cuts of one (machine, jobs) come from
    one dual pass over all of its failing scenarios.
    """
    t0 = time.perf_counter()
    seen: dict = {}  # key -> the first cut of that key, in order

    def push(cut: Cut):
        seen.setdefault(cut.key(), cut)

    if cut_kind == NOGOOD:
        for _, w, jobs in failures:
            push(Cut(jobs=jobs_mask(jobs), scenario=w, kind=NOGOOD))
    elif cut_kind == IIS:
        # the tables of equally many jobs go through the filter together
        tabled: dict[int, list[int]] = {}
        for i, failure in enumerate(failures):
            tabled.setdefault(len(failure[2]), []).append(i)
        iis_sets = {}
        for group in tabled.values():
            table = np.stack([failures[i].times for i in group], axis=-1)
            iis_sets.update(zip(group, minimal_over_limit(table, inst.time_limit)))
        for i, (_, w, jobs) in enumerate(failures):
            bits = [1 << (j - 1) for j in jobs]  # a failure's jobs ascend
            for s in iis_sets[i]:
                push(Cut(jobs=sum(b for c, b in enumerate(bits) if s >> c & 1),
                         scenario=w, kind=IIS))
    elif cut_kind == BENDERS:
        if flow_ctx is None or cand is None:
            raise ConfigurationError("benders cuts need a flow context and candidate")
        # one dual pass per failing machine: the failures of one (machine,
        # jobs) share the column, and their cuts are pushed in failure order
        groups: dict[tuple, list[int]] = {}
        for i, (m, _, jobs) in enumerate(failures):
            groups.setdefault((m, jobs), []).append(i)
        flow_cuts = [None] * len(failures)
        for (m, jobs), group in groups.items():
            scenarios = [failures[i][1] for i in group]
            for i, cut in zip(group, flow_ctx.cut_for(
                    inst, cand.x[:, m], scenarios, jobs_mask(jobs))):
                flow_cuts[i] = cut
        for cut in flow_cuts:
            push(cut)
    else:
        raise ConfigurationError(f"unknown cut kind {cut_kind!r}")
    if keys is not None:
        keys.extend(seen)
    if report is not None:
        report.cut_creation_time += time.perf_counter() - t0
    return list(seen.values())


def solve_ccpmsp(inst: Instance, opts: Optional[SolveOptions] = None):
    """Solve an instance; returns (Candidate or None, SolveReport)."""
    opts = opts or SolveOptions()
    opts.check(inst)
    start = time.perf_counter()
    deadline = start + opts.time_budget

    cache = DiagramCache(max_depth=inst.capacity)
    report = SolveReport(
        check_counts=np.zeros((inst.n_machines, inst.n_scenarios), dtype=np.int64)
    )
    t0 = time.perf_counter()
    flow_ctx = (
        netflow.FlowContext(inst, opts.benders_strategy)
        if opts.cut_kind == BENDERS
        else None
    )
    report.subproblem_creation_time = time.perf_counter() - t0
    model = build_master(
        inst, symmetry=opts.symmetry, scenario_relaxation=opts.scenario_relaxation
    )
    pool_keys = set()

    def pool_cuts(failures, cut_kind: str, cand=None) -> list[Cut]:
        """Emit the failures' cuts and pool the new ones; returns those."""
        keys = []
        cuts = emit_cuts(failures, cut_kind, inst, cand, report, flow_ctx, keys)
        fresh = []
        for cut, key in zip(cuts, keys):
            if key not in pool_keys:
                pool_keys.add(key)
                model.cuts.append(cut)
                fresh.append(cut)
        return fresh

    def cut_batch(failures, cand: Candidate) -> list[Cut]:
        """Pool the cuts of a failing candidate.  When the fresh batch does
        not exclude the candidate (possible for weak flow cuts), the
        failures' no-goods join it; one of them is always new."""
        fresh = pool_cuts(failures, opts.cut_kind, cand)
        if not _batch_excludes(inst, fresh, cand):
            report.n_fallbacks += 1
            nogoods = pool_cuts(failures, NOGOOD)
            if not nogoods:
                raise StructuralError("cut pool failed to exclude a candidate")
            fresh += nogoods
        return fresh

    def hook(x, z):
        # the hook runs inside solve_master; its time is not master time
        t0 = time.perf_counter()
        try:
            cand = Candidate(x=x, z=z)
            report.n_callbacks += 1
            failures = check_candidate(inst, cand, cache, opts.variant, report)
            return cut_batch(failures, cand) if failures else []
        finally:
            report.master_time -= time.perf_counter() - t0

    t0 = time.perf_counter()
    sol = solve_master(model, time_budget=deadline - t0, hook=hook)
    report.master_time += time.perf_counter() - t0
    report.status, report.objective, report.bound = (
        sol.status, sol.objective, sol.bound
    )
    report.n_master_nodes = sol.n_nodes
    cand = sol.candidate if sol.x is not None else None
    report.wall_time = time.perf_counter() - start
    report.n_cuts = len(model.cuts)
    report.build_time = cache.build_time
    report.cuts = list(model.cuts)

    if cand is not None:
        t0 = time.perf_counter()
        problems = verify_candidate(inst, cand)
        report.verify_time = time.perf_counter() - t0
        if problems:
            raise StructuralError(
                f"solver produced an infeasible candidate: {problems[:3]}"
            )
    return cand, report


def _batch_excludes(inst: Instance, fresh_cuts, cand: Candidate) -> bool:
    """True if some fresh cut row is violated by the candidate as-is: a
    job-set row where a machine's mask covers the cut's, a flow row as the
    search's leaves test it (``flow_lhs`` on each machine that holds jobs)."""
    held = [np.flatnonzero(cand.x[:, m]) for m in range(inst.n_machines)]
    masks = [jobs_mask(jobs + 1) for jobs in held]
    flows = []
    for cut in fresh_cuts:
        if cand.z[cut.scenario] == 0:
            continue
        if cut.kind == BENDERS:
            flows.append(cut)
        elif any(mask & cut.jobs == cut.jobs for mask in masks):
            return True
    if flows:
        _, const, coef = flow_block(flows, inst.n_jobs)
        for jobs in held:
            if len(jobs) and np.any(
                    flow_lhs(const, coef, jobs) > inst.time_limit + TOL):
                return True
    return False

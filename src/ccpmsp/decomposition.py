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
exact whenever the status says optimal.  Two driving modes exist: the
default callback mode runs one master search whose lazy-cut hook checks each
candidate and returns cuts that prune the rest of that search, and the
iterative loop re-solves the master after each cut batch (the only mode of
a backend without a hook); both finish with the same objective.
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
    canonical_remap,
    minimal_over_limit,
    schedule_fits,
)
from .master import (
    BuiltinBackend,
    ExternalBackend,
    LIMIT,
    OPTIMAL,
    build_master,
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

# Machines of fewer jobs go straight to the sweep.  Timed per check on the
# single machines of the benchmark workloads' candidates, in both variants,
# the nearest-neighbour pass plus the sweep of the pairs it leaves cost
# 0.7-1.6 times the plain sweep at k = 2-6 (1.3-1.6 at the most frequent
# sizes, 3 and 4), and 0.04-1.0 times it at k = 7-12.
CERTIFY_MIN_JOBS = 7


@dataclass
class SolveOptions:
    variant: str = JOBSET
    cut_kind: str = IIS
    symmetry: bool = True
    scenario_relaxation: bool = True
    time_budget: float = 1200.0
    backend: str = "builtin"  # or "external"
    external_cmd: Optional[str] = None
    mode: str = "callback"  # or "iterative"
    benders_strategy: int = 1  # 0 = basic cut, 1 = layer-strengthened
    verify_with_oracle: bool = True

    def check(self, inst: Instance) -> None:
        if self.variant not in VARIANT_MODULES:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.cut_kind not in CUT_KINDS:
            raise ConfigurationError(f"unknown cut kind {self.cut_kind!r}")
        if self.mode not in ("iterative", "callback"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.benders_strategy not in (0, 1):
            raise ConfigurationError(
                f"unknown benders strategy {self.benders_strategy!r}"
            )
        if self.cut_kind == BENDERS:
            netflow.check_scale(inst.n_jobs)


@dataclass
class SolveReport:
    objective: Optional[float] = None
    bound: Optional[float] = None
    gap: float = float("inf")
    optimal: bool = False
    status: str = "unknown"
    n_callbacks: int = 0  # subproblem checks (check_candidate calls)
    n_cuts: int = 0
    subproblem_resolution_time: float = 0.0
    resolution_time_per_callback: float = 0.0
    cut_creation_time: float = 0.0
    subproblem_creation_time: float = 0.0  # the netflow context
    wall_time: float = 0.0
    master_time: float = 0.0  # inside solve_master, callback hook time excluded
    verify_time: float = 0.0  # post-solve oracle check, after wall_time stops
    build_time: float = 0.0  # diagram builds
    n_master_solves: int = 0  # solve_master calls, 1 in callback mode
    n_certified: int = 0  # checked pairs a schedule proved, without a sweep
    check_counts: Optional[np.ndarray] = None  # (n_machines, n_scenarios)
    cuts: Optional[list] = None  # final pool (diagnostics)


@dataclass
class _Counters:
    n_callbacks: int = 0
    n_master_solves: int = 0
    n_certified: int = 0
    resolution_time: float = 0.0
    cut_time: float = 0.0
    master_time: float = 0.0
    check_counts: np.ndarray = None


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


def collect_report(objective, bound, status, counters: _Counters,
                   cache: DiagramCache, netflow_build_time: float,
                   wall_time: float, n_cuts: int) -> SolveReport:
    per_cb = (
        counters.resolution_time / counters.n_callbacks
        if counters.n_callbacks else 0.0
    )
    gap = compute_gap(objective, bound)
    return SolveReport(
        objective=objective,
        bound=bound,
        gap=gap,
        optimal=status == OPTIMAL and gap == 0.0,
        status=status,
        n_callbacks=counters.n_callbacks,
        n_cuts=n_cuts,
        subproblem_resolution_time=counters.resolution_time,
        resolution_time_per_callback=per_cb,
        cut_creation_time=counters.cut_time,
        subproblem_creation_time=netflow_build_time,
        wall_time=wall_time,
        master_time=counters.master_time,
        build_time=cache.build_time,
        n_master_solves=counters.n_master_solves,
        n_certified=counters.n_certified,
        check_counts=counters.check_counts,
    )


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
                    variant: str, counters: Optional[_Counters] = None
                    ) -> list[Failure]:
    """Sequencing check of every (machine, scenario) the candidate claims.

    Only scenarios with z = 1 are checked (cuts bind through z); machines
    without jobs are trivially fine.  Machines of equal job count k form
    one group, whose (machine, claimed scenario) columns are gathered
    together.  From ``CERTIFY_MIN_JOBS`` jobs on, a column whose
    nearest-neighbour schedule proves that the sweep would pass it
    (``schedule_fits``) is feasible without the sweep; every other column
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
    groups: dict[int, list[int]] = {}
    for m in range(inst.n_machines):
        n_jobs = np.count_nonzero(cand.x[:, m])
        if n_jobs > inst.capacity:
            raise StructuralError(
                f"machine {m} holds {n_jobs} jobs, capacity {inst.capacity}"
            )
        if n_jobs and len(active):
            groups.setdefault(n_jobs, []).append(m)
    failures = []
    for k, machines in sorted(groups.items()):
        job_ids = [tuple(int(j) for j in cand.machine_jobs(m)) for m in machines]
        remaps = np.stack([canonical_remap(jobs) for jobs in job_ids], axis=1)
        # column c holds the pair (machines[g], active[a]), g, a = divmod(c, A)
        # for A = len(active)
        t = exec_all[remaps[:, :, None], active].reshape(k + 1, -1)
        d = setup_all[remaps[:, None, :, None], remaps[None, :, :, None],
                      active].reshape(k + 1, k + 1, -1)
        if k >= CERTIFY_MIN_JOBS:
            sweep = np.flatnonzero(~schedule_fits(t, d, limit))
        else:
            sweep = np.arange(t.shape[1])
        if counters is not None:
            counters.check_counts[np.ix_(machines, active)] += 1
            counters.n_certified += t.shape[1] - len(sweep)
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
                failures.append(Failure(machines[g], int(active[a]), job_ids[g], times))
    failures.sort(key=lambda f: (f[1], f[0], f[2]))
    if counters is not None:
        counters.resolution_time += (
            time.perf_counter() - t0 - (cache.build_time - build0)
        )
    return failures


def emit_cuts(failures, cut_kind: str, inst: Instance,
              cand: Optional[Candidate] = None,
              counters: Optional[_Counters] = None,
              flow_ctx: Optional["netflow.FlowContext"] = None,
              job_sets: Optional[dict] = None) -> list[Cut]:
    """Render the cut batch for a list of failures, deduplicated by key.

    IIS cuts need ``Failure``s from ``check_candidate`` and are read from
    their time tables; no-goods and flow cuts take any (machine, scenario,
    jobs) triples.  Cuts on equal job sets share one frozenset, kept in
    ``job_sets`` (sorted job tuple -> frozenset; pass one dict to every call
    of a solve to share across batches): a pool keeps every cut, and a set
    fails in many scenarios and iterations.
    """
    t0 = time.perf_counter()
    cuts: list[Cut] = []
    seen = set()
    job_sets = {} if job_sets is None else job_sets

    def push(cut: Cut):
        key = cut.key()
        if key not in seen:
            seen.add(key)
            cuts.append(cut)

    def job_set(jobs: tuple) -> frozenset:
        interned = job_sets.get(jobs)
        if interned is None:
            interned = job_sets[jobs] = frozenset(jobs)
        return interned

    if cut_kind == NOGOOD:
        for _, w, jobs in failures:
            push(Cut(job_set=job_set(jobs), scenario=w, kind=NOGOOD))
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
            remap = canonical_remap(jobs)
            for s in iis_sets[i]:
                orig = job_set(tuple(int(remap[c]) for c in sorted(s)))
                push(Cut(job_set=orig, scenario=w, kind=IIS))
    elif cut_kind == BENDERS:
        if flow_ctx is None or cand is None:
            raise ConfigurationError("benders cuts need a flow context and candidate")
        for m, w, jobs in failures:
            push(flow_ctx.cut_for(inst, cand.x[:, m], w, job_set(jobs)))
    else:
        raise ConfigurationError(f"unknown cut kind {cut_kind!r}")
    if counters is not None:
        counters.cut_time += time.perf_counter() - t0
    return cuts


def _make_backend(opts: SolveOptions):
    if opts.backend == "builtin":
        return BuiltinBackend()
    if opts.backend == "external":
        return ExternalBackend(opts.external_cmd)
    raise ConfigurationError(f"unknown backend {opts.backend!r}")


def solve_ccpmsp(inst: Instance, opts: Optional[SolveOptions] = None):
    """Solve an instance; returns (Candidate or None, SolveReport)."""
    opts = opts or SolveOptions()
    opts.check(inst)
    start = time.perf_counter()
    deadline = start + opts.time_budget

    cache = DiagramCache(max_depth=inst.capacity)
    counters = _Counters(
        check_counts=np.zeros((inst.n_machines, inst.n_scenarios), dtype=np.int64)
    )
    flow_ctx = (
        netflow.FlowContext(inst, opts.benders_strategy)
        if opts.cut_kind == BENDERS
        else None
    )
    model = build_master(
        inst, symmetry=opts.symmetry, scenario_relaxation=opts.scenario_relaxation
    )
    backend = _make_backend(opts)
    pool_keys = set()
    job_sets: dict[tuple, frozenset] = {}

    def remaining() -> float:
        return deadline - time.perf_counter()

    def append_cuts(new_cuts) -> list[Cut]:
        fresh = []
        for cut in new_cuts:
            if cut.key() not in pool_keys:
                pool_keys.add(cut.key())
                model.cuts.append(cut)
                fresh.append(cut)
        return fresh

    def check(cand: Candidate) -> list[Failure]:
        counters.n_callbacks += 1
        return check_candidate(inst, cand, cache, opts.variant, counters)

    def cut_batch(failures, cand: Candidate) -> list[Cut]:
        """Pool the cuts of a failing candidate.  When the fresh batch does
        not exclude the candidate (possible for weak flow cuts), the
        failures' no-goods join it; one of them is always new."""
        fresh = append_cuts(emit_cuts(
            failures, opts.cut_kind, inst, cand, counters, flow_ctx, job_sets,
        ))
        if not _batch_excludes(inst, model, fresh, cand):
            nogoods = append_cuts(emit_cuts(failures, NOGOOD, inst,
                                            job_sets=job_sets))
            if not nogoods:
                raise StructuralError("cut pool failed to exclude a candidate")
            fresh += nogoods
        return fresh

    def run_master(**kwargs):
        t0 = time.perf_counter()
        sol = solve_master(model, backend, time_budget=remaining(), **kwargs)
        counters.master_time += time.perf_counter() - t0
        counters.n_master_solves += 1
        return sol

    if opts.mode == "callback" and backend.supports_callback:

        def hook(x, z):
            # the hook runs inside solve_master; its time is not master time
            t0 = time.perf_counter()
            try:
                cand = Candidate(x=x, z=z)
                failures = check(cand)
                return cut_batch(failures, cand) if failures else []
            finally:
                counters.master_time -= time.perf_counter() - t0

        sol = run_master(hook=hook)
        wall = time.perf_counter() - start
        status = sol.status
        objective = sol.objective
        bound = sol.bound
        cand = sol.candidate if sol.x is not None else None
    else:
        objective = None
        bound = None
        cand = None
        status = LIMIT
        upper_bound = None
        while True:
            sol = run_master(upper_bound=upper_bound)
            if sol.x is None:
                status = sol.status
                bound = sol.bound
                break
            bound = sol.bound
            failures = check(sol.candidate)
            if not failures:
                cand = sol.candidate
                objective = sol.objective
                status = sol.status
                break
            if sol.status == OPTIMAL:
                # cuts only ever add rows, so this optimum bounds every later one
                upper_bound = sol.objective
            cut_batch(failures, sol.candidate)
            if remaining() <= 0:
                status = LIMIT
                break
        wall = time.perf_counter() - start

    verify_time = 0.0
    if cand is not None and opts.verify_with_oracle:
        t0 = time.perf_counter()
        problems = verify_candidate(inst, cand)
        verify_time = time.perf_counter() - t0
        if problems:
            raise StructuralError(
                f"solver produced an infeasible candidate: {problems[:3]}"
            )

    report = collect_report(
        objective, bound, status, counters, cache,
        flow_ctx.build_time if flow_ctx else 0.0,
        wall, len(model.cuts),
    )
    report.verify_time = verify_time
    report.cuts = list(model.cuts)
    return cand, report


def _batch_excludes(inst: Instance, model, fresh_cuts, cand: Candidate) -> bool:
    """True if some fresh cut row is violated by the candidate as-is."""
    for cut in fresh_cuts:
        w = cut.scenario
        if cand.z[w] == 0:
            continue
        if cut.kind == BENDERS:
            const, coefs = cut.benders_payload
            coefs = np.asarray(coefs, float)
            for m in range(inst.n_machines):
                if const + float(coefs @ cand.x[:, m]) > inst.time_limit + TOL:
                    return True
        else:
            mask_jobs = np.array(sorted(cut.job_set)) - 1
            for m in range(inst.n_machines):
                if cand.x[mask_jobs, m].sum() >= len(cut.job_set):
                    return True
    return False

import dataclasses
import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from ccpmsp import decomposition, jobset, lastjob, master, netflow
from ccpmsp.decomposition import (
    SolveOptions,
    check_candidate,
    compute_gap,
    emit_cuts,
    solve_ccpmsp,
)
from ccpmsp.diagram import (
    JOBSET,
    LASTJOB,
    DiagramCache,
    canonical_remap,
    schedule_fits,
)
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import (
    Candidate,
    ConfigurationError,
    Cut,
    Instance,
    Scenario,
    TOL,
    candidate_objective,
    chance_satisfied,
)
from ccpmsp.oracle import brute_optimal, verify_candidate
from conftest import B10_CONFIG, overloaded_b10_x, regression_configs


def uniform_instance(uniform_scenario, machines=1, T=5.0, eps=0.4):
    return Instance(
        n_jobs=3, n_machines=machines, capacity=3, time_limit=T, epsilon=eps,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario],
    )


def test_check_candidate_worked_example(uniform_scenario):
    inst = uniform_instance(uniform_scenario)
    cache = DiagramCache(max_depth=3)
    x = np.ones((3, 1), dtype=np.int8)
    failures = check_candidate(inst, Candidate(x=x, z=np.array([1])), cache, JOBSET)
    assert failures == [(0, 0, (1, 2, 3))]


def test_check_candidate_exact_fit_passes(uniform_scenario):
    inst = uniform_instance(uniform_scenario, T=14.0)
    cache = DiagramCache(max_depth=3)
    x = np.ones((3, 1), dtype=np.int8)
    assert check_candidate(inst, Candidate(x=x, z=np.array([1])), cache, JOBSET) == []


def test_check_candidate_skips_empty_machines_and_dropped_scenarios(uniform_scenario):
    inst = uniform_instance(uniform_scenario, machines=2)
    cache = DiagramCache(max_depth=3)
    x = np.zeros((3, 2), dtype=np.int8)
    assert check_candidate(inst, Candidate(x=x, z=np.array([1])), cache, JOBSET) == []
    x[:, 0] = 1
    assert check_candidate(inst, Candidate(x=x, z=np.array([0])), cache, JOBSET) == []


def counting_set_times(monkeypatch):
    """Record the scenario count of every set_times call of both variants."""
    widths = []
    for mod in (jobset, lastjob):
        def counted(diag, t, d, original=mod.set_times):
            widths.append(t.shape[1])
            return original(diag, t, d)

        monkeypatch.setattr(mod, "set_times", counted)
    return widths


def test_check_candidate_sweeps_no_empty_machine_or_dropped_scenario(
        uniform_scenario, monkeypatch):
    inst = Instance(
        n_jobs=3, n_machines=2, capacity=3, time_limit=5.0, epsilon=0.4,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario] * 3,
    )
    cache = DiagramCache(max_depth=3)
    widths = counting_set_times(monkeypatch)
    x = np.zeros((3, 2), dtype=np.int8)
    x[:, 0] = 1
    assert check_candidate(inst, Candidate(x=x, z=np.zeros(3, dtype=np.int8)),
                           cache, JOBSET) == []
    assert widths == []
    z = np.array([1, 0, 1], dtype=np.int8)
    failures = check_candidate(inst, Candidate(x=x, z=z), cache, JOBSET)
    assert failures == [(0, 0, (1, 2, 3)), (0, 2, (1, 2, 3))]
    assert widths == [2]  # one sweep: machine 0, both claimed scenarios


def n_uncertified(inst, cand, variant):
    """The claimed (machine, scenario) pairs whose nearest-neighbour
    schedule does not fit T on machines the check certifies, all of them
    on the others: the pairs that reach a check's sweep."""
    active = np.flatnonzero(cand.z)
    count = 0
    for m in range(inst.n_machines):
        jobs = cand.machine_jobs(m)
        if len(jobs) == 0 or len(active) == 0:
            continue
        if len(jobs) < decomposition.CERTIFY_MIN_JOBS:
            count += len(active)
            continue
        remap = canonical_remap(jobs)
        exec_all, setup_all = inst.scenario_stack
        t = exec_all[np.ix_(remap, active)]
        d = setup_all[np.ix_(remap, remap, active)]
        count += int((~schedule_fits(t, d, inst.time_limit + TOL)).sum())
    return count


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_check_tables_do_not_depend_on_the_chunk_split(monkeypatch, variant):
    inst = make_instance(B10_CONFIG)
    x = overloaded_b10_x(inst)
    cand = Candidate(x=x, z=np.ones(inst.n_scenarios, dtype=np.int8))
    swept = n_uncertified(inst, cand, variant)
    assert 2 <= swept < 2 * inst.n_scenarios  # some certified, some swept
    per_scenario = DiagramCache(max_depth=10).get_or_build(variant, 10).sweep_cells
    splits = {}
    for width in (1, 2, inst.n_scenarios):
        monkeypatch.setattr(decomposition, "SWEEP_CHUNK_CELLS", width * per_scenario)
        widths = counting_set_times(monkeypatch)
        cache = DiagramCache(max_depth=inst.capacity)
        failures = check_candidate(inst, cand, cache, variant)
        assert sum(widths) == swept
        assert len(widths) == -(-swept // width) and max(widths) <= width
        splits[width] = failures
    want, *others = splits.values()
    assert want
    for failures in others:
        assert failures == want
        for got, ref in zip(failures, want):
            assert got.times.tobytes() == ref.times.tobytes()


def reference_check(inst, cand, variant):
    """Failures of one unchunked sweep per machine over every claimed
    scenario, without certificates, as (machine, scenario, jobs, table
    bytes) sorted like ``check_candidate``'s."""
    active = np.flatnonzero(cand.z)
    exec_all, setup_all = inst.scenario_stack
    mod = decomposition.VARIANT_MODULES[variant]
    cache = DiagramCache(max_depth=inst.capacity)
    out = []
    for m in range(inst.n_machines):
        jobs = cand.machine_jobs(m)
        if len(jobs) == 0 or len(active) == 0:
            continue
        remap = canonical_remap(jobs)
        table = mod.set_times(cache.get_or_build(variant, len(jobs)),
                              exec_all[np.ix_(remap, active)],
                              setup_all[np.ix_(remap, remap, active)])
        for col in np.flatnonzero(table[-1] > inst.time_limit + TOL):
            out.append((m, int(active[col]), tuple(int(j) for j in jobs),
                        table[:, col].tobytes()))
    return sorted(out, key=lambda f: (f[1], f[0], f[2]))


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_check_equals_a_per_machine_sweep_of_every_claimed_scenario(variant):
    # machines of mixed sizes, sizes shared by several machines, sizes that
    # certify and sizes that do not, dropped scenarios, and limits from
    # tight to loose
    rng = np.random.default_rng(7)
    n_failures = n_certified = n_passed_sweeps = 0
    for i in range(12):
        inst = make_instance(GenConfig(
            dataset_kind=("ors", "vrp", "equal")[i % 3], n_jobs=30, n_machines=4,
            n_scenarios=12, dif=-2.0, seed=40 + i, capacity=11))
        inst = dataclasses.replace(
            inst, time_limit=inst.time_limit * (0.75, 0.85, 1.0, 1.2)[i % 4])
        x = np.zeros((inst.n_jobs, inst.n_machines), dtype=np.int8)
        jobs = rng.permutation(inst.n_jobs)
        sizes = rng.choice([1, 3, 7, 10, 11], size=inst.n_machines)
        for m, hi in enumerate(np.cumsum(sizes)):
            x[jobs[hi - sizes[m]:min(hi, inst.n_jobs)], m] = 1
        z = (rng.random(inst.n_scenarios) < 0.8).astype(np.int8)
        cand = Candidate(x=x, z=z)
        counters = decomposition._Counters(
            check_counts=np.zeros((inst.n_machines, inst.n_scenarios), dtype=np.int64))
        cache = DiagramCache(max_depth=inst.capacity)
        failures = check_candidate(inst, cand, cache, variant, counters)
        got = [(*f, f.times.tobytes()) for f in failures]
        assert got == reference_check(inst, cand, variant)
        claimed = sum(len(cand.machine_jobs(m)) > 0 for m in range(inst.n_machines))
        assert counters.check_counts.sum() == claimed * z.sum()
        swept = counters.check_counts.sum() - counters.n_certified
        assert swept == n_uncertified(inst, cand, variant)
        n_failures += len(failures)
        n_certified += counters.n_certified
        n_passed_sweeps += swept - len(failures)
    assert min(n_failures, n_certified, n_passed_sweeps) > 0


def line_instance(k, time_limit):
    """One scenario whose k jobs sit at 1..k on a line, with the dummy at
    0, setups the distances and unit execution times.  The best schedule
    runs k, k - 1, ..., 1 and takes 2k, and the nearest-neighbour schedule
    from job k is that one."""
    pos = np.arange(k + 1, dtype=float)
    setup = np.abs(pos[:, None] - pos[None, :])
    return Instance(
        n_jobs=k, n_machines=2, capacity=k, time_limit=time_limit, epsilon=0.0,
        utilities=np.ones(k), scenarios=[Scenario(exec=np.ones(k), setup=setup)],
    )


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_all_certified_check_builds_no_diagram(monkeypatch, variant):
    k = 10
    inst = line_instance(k, time_limit=2.0 * k)  # an exact fit
    x = np.zeros((k, 2), dtype=np.int8)
    x[:, 0] = 1
    cand = Candidate(x=x, z=np.ones(1, dtype=np.int8))
    counters = decomposition._Counters(check_counts=np.zeros((2, 1), dtype=np.int64))
    widths = counting_set_times(monkeypatch)
    cache = DiagramCache(max_depth=k)
    assert k >= decomposition.CERTIFY_MIN_JOBS
    assert check_candidate(inst, cand, cache, variant, counters) == []
    assert widths == [] and cache.count(variant) == 0 and cache.build_time == 0.0
    assert counters.n_certified == counters.check_counts.sum() == 1
    # just below the optimum the pair is refuted, through the sweep
    inst = line_instance(k, time_limit=2.0 * k - 1e-6)
    failures = check_candidate(inst, cand, cache, variant, counters)
    assert failures == [(0, 0, tuple(range(1, k + 1)))]
    assert widths == [1] and cache.count(variant) == 1
    assert failures[0].times[-1] == 2.0 * k
    assert counters.n_certified == 1 and counters.check_counts.sum() == 2


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
@pytest.mark.parametrize("certify", [True, False])
def test_single_job_machines_are_certified_or_swept_exactly(monkeypatch, variant,
                                                            certify):
    # at k = 1 the certificate is the only schedule.  The check sweeps
    # single jobs, and certifying them instead changes only what is swept:
    # a pair over T still gets its table, and an exact fit passes
    if certify:
        monkeypatch.setattr(decomposition, "CERTIFY_MIN_JOBS", 1)
    setup = np.array([[0.0, 2.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    scenario = Scenario(exec=np.array([4.0, 2.5]), setup=setup)
    inst = Instance(n_jobs=2, n_machines=2, capacity=1, time_limit=5.0,
                    epsilon=0.0, utilities=np.ones(2), scenarios=[scenario])
    cand = Candidate(x=np.eye(2, dtype=np.int8), z=np.ones(1, dtype=np.int8))
    widths = counting_set_times(monkeypatch)
    cache = DiagramCache(max_depth=1)
    failures = check_candidate(inst, cand, cache, variant)
    # job 1 takes 4 + 3 = 7 > 5; job 2 takes 2.5 + 1 = 3.5
    assert failures == [(0, 0, (1,))] and widths == [1 if certify else 2]
    assert failures[0].times.tolist() == [0.0, 7.0]
    inst = Instance(n_jobs=2, n_machines=2, capacity=1, time_limit=7.0,
                    epsilon=0.0, utilities=np.ones(2), scenarios=[scenario])
    assert check_candidate(inst, cand, DiagramCache(max_depth=1), variant) == []
    assert widths == ([1] if certify else [2, 2])


def test_check_candidate_memory_is_bounded_by_the_chunk_cap(monkeypatch):
    # the hard-tier shape: two full machines of 10 jobs checked against 100
    # scenarios, first as the check runs (52 pairs reach the sweep), then
    # with no pair certified, so that all 200 do.  Then the check peaks at
    # about 7.9 MB (jobset) and 23.5 MB (lastjob) unchunked, and at about
    # 2.8 MB and 1.8 MB chunked at 2^16 cells, failing tables included.
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=20, n_machines=2,
                                   n_scenarios=100, dif=-2.0, seed=1))
    assert inst.capacity == 10
    cache = DiagramCache(max_depth=inst.capacity)
    x = np.zeros((inst.n_jobs, inst.n_machines), dtype=np.int8)
    x[:10, 0] = x[10:, 1] = 1
    cand = Candidate(x=x, z=np.ones(inst.n_scenarios, dtype=np.int8))
    check_candidate(inst, cand, cache, JOBSET)  # builds the diagram
    for certify in (True, False):
        if not certify:
            monkeypatch.setattr(decomposition, "schedule_fits",
                                lambda t, d, limit: np.zeros(t.shape[1], dtype=bool))
        for variant in (JOBSET, LASTJOB):
            check_candidate(inst, cand, cache, variant)
            counters = decomposition._Counters(
                check_counts=np.zeros((2, inst.n_scenarios), dtype=np.int64))
            tracemalloc.start()
            try:
                failures = check_candidate(inst, cand, cache, variant, counters)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert failures
            assert peak <= 3 * 2**20, (variant, certify)
            assert (counters.n_certified == 0) == (not certify)


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_a_solve_sweeps_once_per_machine_chunk(monkeypatch, variant):
    # IIS cuts are read from the check's tables: no second sweep, and no
    # single-scenario call at all.  A cap of 64 cells splits each check of
    # this instance into chunks of a few scenarios.
    monkeypatch.setattr(decomposition, "SWEEP_CHUNK_CELLS", 64)
    batches = []
    original_check = decomposition.check_candidate

    def check(inst, cand, cache, variant, counters=None):
        for m in range(inst.n_machines):
            k = len(cand.machine_jobs(m))
            if k and cand.z.any():
                cells = cache.get_or_build(variant, k).sweep_cells
                n_claimed = int(cand.z.sum())
                batches.append(min(n_claimed, -(-n_claimed * cells
                                                // decomposition.SWEEP_CHUNK_CELLS)))
        return original_check(inst, cand, cache, variant, counters)

    def refuse(*args):
        raise AssertionError("single-scenario call in the solve path")

    monkeypatch.setattr(decomposition, "check_candidate", check)
    widths = counting_set_times(monkeypatch)
    for mod in (jobset, lastjob):
        monkeypatch.setattr(mod, "iis", refuse)
        monkeypatch.setattr(mod, "min_time", refuse)
    inst = make_instance(regression_configs()[11])
    _, report = solve_ccpmsp(inst, SolveOptions(variant=variant, cut_kind="iis"))
    assert report.optimal and report.n_cuts > 0
    assert len(widths) == sum(batches) > report.n_callbacks
    assert sum(widths) == report.check_counts.sum()


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_checked_pairs_not_certified_are_the_swept_ones(monkeypatch, variant):
    widths = counting_set_times(monkeypatch)
    inst = make_instance(B10_CONFIG)
    _, report = solve_ccpmsp(inst, SolveOptions(variant=variant, time_budget=60))
    assert report.optimal
    assert 0 < report.n_certified < report.check_counts.sum()
    assert sum(widths) == report.check_counts.sum() - report.n_certified


def test_emit_nogood_cut(uniform_scenario):
    inst = uniform_instance(uniform_scenario)
    cuts = emit_cuts([(0, 0, (1, 2, 3))], "nogood", inst)
    assert len(cuts) == 1
    assert cuts[0].job_set == frozenset({1, 2, 3})
    assert cuts[0].kind == "nogood" and cuts[0].scenario == 0


def test_emit_iis_cuts_worked_example(uniform_scenario):
    inst = uniform_instance(uniform_scenario)
    cache = DiagramCache(max_depth=3)
    cand = Candidate(x=np.ones((3, 1), dtype=np.int8), z=np.array([1]))
    failures = check_candidate(inst, cand, cache, LASTJOB)
    assert failures == [(0, 0, (1, 2, 3))]
    cuts = emit_cuts(failures, "iis", inst)
    got = sorted((sorted(c.job_set) for c in cuts))
    assert got == [[1, 3], [2]]


def test_emit_cuts_deduplicates_across_machines(uniform_scenario):
    # both machines hold all three jobs, which fail alike on each
    inst = uniform_instance(uniform_scenario, machines=2)
    cache = DiagramCache(max_depth=3)
    cand = Candidate(x=np.ones((3, 2), dtype=np.int8), z=np.array([1]))
    failures = check_candidate(inst, cand, cache, JOBSET)
    assert failures == [(0, 0, (1, 2, 3)), (1, 0, (1, 2, 3))]
    cuts = emit_cuts(failures, "iis", inst)
    assert len(cuts) == 2  # {2} and {1,3} once each, not twice


def test_emit_cuts_share_one_job_set_per_failing_tuple(uniform_scenario):
    # one machine's job tuple fails in three scenarios: the failures share
    # one tuple, and the no-good and flow cuts one frozenset
    inst = Instance(
        n_jobs=3, n_machines=1, capacity=3, time_limit=5.0, epsilon=0.4,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario] * 3,
    )
    cache = DiagramCache(max_depth=3)
    cand = Candidate(x=np.ones((3, 1), dtype=np.int8), z=np.ones(3, dtype=np.int8))
    failures = check_candidate(inst, cand, cache, JOBSET)
    assert failures == [(0, w, (1, 2, 3)) for w in range(3)]
    assert all(f[2] is failures[0][2] for f in failures)
    flow_ctx = netflow.FlowContext(inst, 1)
    job_sets = {}  # as solve_ccpmsp passes one dict to every call
    for kind in ("nogood", "benders"):
        cuts = emit_cuts(failures, kind, inst, cand, flow_ctx=flow_ctx)
        assert len(cuts) == 3
        assert all(c.job_set is cuts[0].job_set for c in cuts)
        again = emit_cuts(failures, kind, inst, cand, flow_ctx=flow_ctx,
                          job_sets=job_sets)
        assert all(c.job_set is job_sets[(1, 2, 3)] for c in again)
        if kind == "nogood":
            want = [Cut(job_set={1, 2, 3}, scenario=w, kind=kind) for w in range(3)]
        else:
            want = [flow_ctx.cut_for(inst, cand.x[:, 0], w, {1, 2, 3})
                    for w in range(3)]
        assert [c.key() for c in cuts] == [c.key() for c in want]
        assert [c.job_set for c in cuts] == [c.job_set for c in want]


def test_iis_cuts_on_equal_job_sets_share_one_frozenset(uniform_scenario):
    # {2} and {1,3} fail in each of three scenarios: six cuts, two sets
    inst = Instance(
        n_jobs=3, n_machines=1, capacity=3, time_limit=5.0, epsilon=0.4,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario] * 3,
    )
    cache = DiagramCache(max_depth=3)
    cand = Candidate(x=np.ones((3, 1), dtype=np.int8), z=np.ones(3, dtype=np.int8))
    failures = check_candidate(inst, cand, cache, JOBSET)
    job_sets = {}
    cuts = emit_cuts(failures, "iis", inst, job_sets=job_sets)
    assert [(c.scenario, sorted(c.job_set)) for c in cuts] == [
        (w, s) for w in range(3) for s in ([2], [1, 3])]
    assert set(job_sets) == {(2,), (1, 3)}
    assert all(c.job_set is job_sets[tuple(sorted(c.job_set))] for c in cuts)


def test_interned_job_sets_build_no_frozenset(uniform_scenario, monkeypatch):
    # a job tuple already in ``job_sets`` reuses its frozenset; only a miss
    # builds one
    inst = uniform_instance(uniform_scenario)
    built = []

    def counting(jobs):
        built.append(tuple(jobs))
        return frozenset(jobs)

    monkeypatch.setattr(decomposition, "frozenset", counting, raising=False)
    job_sets = {}
    emit_cuts([(0, 0, (1, 2, 3))], "nogood", inst, job_sets=job_sets)
    assert built == [(1, 2, 3)]
    cuts = emit_cuts([(0, w, (1, 2, 3)) for w in range(3)], "nogood", inst,
                     job_sets=job_sets)
    assert built == [(1, 2, 3)]
    assert all(c.job_set is job_sets[(1, 2, 3)] for c in cuts)


@pytest.mark.parametrize("dif", [30.0, -3.0])
@pytest.mark.parametrize("strategy", [-1, 2, 7])
def test_unknown_benders_strategy_rejected_up_front(dif, strategy):
    # at dif 30 no check fails, so no cut would ever reach the strategy
    inst = make_instance(GenConfig(
        dataset_kind="equal", n_jobs=5, n_machines=2, n_scenarios=4,
        dif=dif, seed=600, capacity=3,
    ))
    opts = SolveOptions(cut_kind="benders", benders_strategy=strategy)
    with pytest.raises(ConfigurationError, match="benders strategy"):
        solve_ccpmsp(inst, opts)


def test_solve_trivial_instance_assigns_everything():
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=6, n_machines=2,
                                   n_scenarios=5, dif=40.0, seed=5))
    cand, report = solve_ccpmsp(inst, SolveOptions(time_budget=30))
    assert report.optimal and report.gap == 0.0
    assert report.objective == pytest.approx(float(inst.utilities.sum()))
    assert report.n_cuts == 0


def test_solve_excludes_job_too_big_for_limit(uniform_scenario):
    # job 2 exceeds T alone, single scenario forces z = 1
    inst = uniform_instance(uniform_scenario, machines=2, T=5.0, eps=0.4)
    cand, report = solve_ccpmsp(inst, SolveOptions(time_budget=30))
    assert report.optimal
    assert report.objective == pytest.approx(5.0)
    assert cand.x[1].sum() == 0  # job 2 unassigned


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
@pytest.mark.parametrize("cut", ["nogood", "iis"])
def test_solve_matches_oracle_sample(regression_set, regression_optima, variant, cut):
    for inst, want in list(zip(regression_set, regression_optima))[:20]:
        cand, report = solve_ccpmsp(
            inst, SolveOptions(variant=variant, cut_kind=cut, time_budget=60)
        )
        assert report.optimal
        assert report.objective == pytest.approx(want, abs=1e-9)


def test_callback_and_iterative_agree(regression_set, regression_optima):
    for inst, want in list(zip(regression_set, regression_optima))[20:32]:
        for variant, cut in ((JOBSET, "iis"), (LASTJOB, "iis"), (JOBSET, "nogood")):
            opts = dict(variant=variant, cut_kind=cut, time_budget=60)
            it = solve_ccpmsp(inst, SolveOptions(mode="iterative", **opts))[1]
            cb = solve_ccpmsp(inst, SolveOptions(mode="callback", **opts))[1]
            assert it.status == cb.status == "optimal"
            assert it.objective == pytest.approx(cb.objective, abs=1e-9)
            assert it.objective == pytest.approx(want, abs=1e-9)
            assert cb.n_master_solves == 1
            assert it.n_master_solves == it.n_callbacks


def test_callback_mode_finds_an_incumbent_where_one_hook_call_stalled():
    # unless hook cuts prune interior nodes, callback mode makes one hook
    # call here and spends the whole budget rejecting leaves at the leaf
    # check
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=24, n_machines=3,
                                   n_scenarios=50, dif=-1.0, seed=2))
    cand, report = solve_ccpmsp(inst, SolveOptions(time_budget=5.0))
    assert cand is not None and report.n_callbacks > 1
    assert verify_candidate(inst, cand) == []
    assert report.objective == pytest.approx(candidate_objective(inst, cand))
    assert report.bound >= report.objective and report.gap < float("inf")


def test_variant_independence(regression_set):
    for inst in regression_set[32:44]:
        a = solve_ccpmsp(inst, SolveOptions(variant=LASTJOB, time_budget=60))[1]
        b = solve_ccpmsp(inst, SolveOptions(variant=JOBSET, time_budget=60))[1]
        assert a.objective == pytest.approx(b.objective, abs=1e-9)


def test_iis_sets_contained_in_nogood_sets(regression_set):
    # every IIS cut's job set is a subset of the corresponding failing set
    from ccpmsp.diagram import DiagramCache

    for inst in regression_set[44:52]:
        cache = DiagramCache(max_depth=inst.capacity)
        cand, _ = solve_ccpmsp(inst, SolveOptions(time_budget=60))
        # rebuild the first candidate's failures by claiming everything
        x = cand.x if cand is not None else np.zeros(
            (inst.n_jobs, inst.n_machines), dtype=np.int8)
        z = np.ones(inst.n_scenarios, dtype=np.int8)
        failures = check_candidate(inst, Candidate(x=x, z=z), cache, JOBSET)
        if not failures:
            continue
        nogood = emit_cuts(failures, "nogood", inst)
        iis = emit_cuts(failures, "iis", inst)
        for ic in iis:
            assert any(
                ic.scenario == nc.scenario and ic.job_set <= nc.job_set
                for nc in nogood
            )


def test_no_candidate_repeats_and_finite_iterations():
    # instrument the loop via the report counters: callbacks are bounded and
    # the final answer is verified optimal
    inst = make_instance(GenConfig(dataset_kind="equal", n_jobs=8, n_machines=2,
                                   n_scenarios=8, dif=-5.0, seed=77, capacity=4))
    cand, report = solve_ccpmsp(inst, SolveOptions(time_budget=120))
    assert report.optimal
    assert 1 <= report.n_callbacks < 2000
    want = brute_optimal(inst)[1]
    assert report.objective == pytest.approx(want)


def test_iterative_loop_never_repeats_a_candidate():
    # drive the loop by hand: every accepted batch must exclude the proposed
    # candidate, so (x, z) pairs never recur
    from ccpmsp.master import build_master, solve_master

    inst = make_instance(GenConfig(dataset_kind="vrp", n_jobs=7, n_machines=2,
                                   n_scenarios=6, dif=-5.0, seed=55, capacity=4))
    cache = DiagramCache(max_depth=inst.capacity)
    model = build_master(inst)
    seen = set()
    for rounds in range(4000):
        sol = solve_master(model)
        key = (sol.x.tobytes(), sol.z.tobytes())
        assert key not in seen, "candidate repeated: cuts failed to exclude it"
        seen.add(key)
        failures = check_candidate(inst, sol.candidate, cache, JOBSET)
        if not failures:
            break
        for cut in emit_cuts(failures, "iis", inst):
            model.cuts.append(cut)
    else:
        pytest.fail("loop did not terminate")
    assert rounds < 2 ** (inst.n_jobs * inst.n_machines + inst.n_scenarios)


def test_cut_soundness_none_cuts_the_optimum(regression_set, regression_optima):
    # exact agreement with the oracle implies no cut removed the optimum
    for inst, want in list(zip(regression_set, regression_optima))[52:60]:
        opts = SolveOptions(variant=JOBSET, cut_kind="iis", time_budget=60)
        cand, report = solve_ccpmsp(inst, opts)
        assert report.objective == pytest.approx(want, abs=1e-9)


def test_single_job_instance_all_cut_kinds():
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=1, n_machines=1,
                                   n_scenarios=3, dif=10.0, seed=1))
    want = brute_optimal(inst)[1]
    assert want > 0
    for cut in ("nogood", "iis", "benders"):
        _, rep = solve_ccpmsp(inst, SolveOptions(cut_kind=cut, time_budget=30))
        assert rep.objective == pytest.approx(want), cut


def test_more_machines_than_jobs():
    inst = make_instance(GenConfig(dataset_kind="vrp", n_jobs=2, n_machines=3,
                                   n_scenarios=2, dif=4.0, seed=2, capacity=1))
    want = brute_optimal(inst)[1]
    _, rep = solve_ccpmsp(inst, SolveOptions(time_budget=30))
    assert rep.objective == pytest.approx(want)


def test_never_fitting_job_left_unassigned():
    setup = np.ones((2, 2))
    np.fill_diagonal(setup, 0.0)
    from ccpmsp.model import Scenario

    sc = Scenario(exec=np.array([99.0]), setup=setup)
    inst = Instance(n_jobs=1, n_machines=1, capacity=1, time_limit=5.0,
                    epsilon=0.4, utilities=np.array([7.0]), scenarios=[sc, sc])
    cand, rep = solve_ccpmsp(inst, SolveOptions(time_budget=30))
    assert rep.objective == 0.0 and cand.x.sum() == 0


def test_budget_exhaustion_reports_inf_gap():
    inst = make_instance(GenConfig(dataset_kind="vrp", n_jobs=12, n_machines=3,
                                   n_scenarios=10, dif=-6.0, seed=13))
    cand, report = solve_ccpmsp(inst, SolveOptions(time_budget=0.0))
    assert report.status in ("limit", "infeasible")
    assert report.gap == float("inf") or report.gap >= 0.0
    assert report.wall_time >= 0.0


def test_gap_definition():
    assert compute_gap(None, 10.0) == float("inf")
    assert compute_gap(10.0, 10.0) == 0.0
    assert compute_gap(8.0, 10.0) == pytest.approx(0.25)
    assert compute_gap(0.0, 5.0) == float("inf")


def test_report_counters_consistent(uniform_scenario):
    inst = uniform_instance(uniform_scenario, machines=2)
    cand, report = solve_ccpmsp(
        inst,
        SolveOptions(cut_kind="nogood", scenario_relaxation=False, time_budget=30),
    )
    assert report.n_cuts >= 1
    assert report.n_callbacks >= 2
    assert report.check_counts.sum() >= 1
    assert report.subproblem_resolution_time >= 0.0
    assert report.resolution_time_per_callback >= 0.0
    # chance constraint of the answer verified
    assert chance_satisfied(inst, cand.z)


@pytest.mark.parametrize("mode", ["iterative", "callback"])
def test_master_time_overlaps_no_other_phase(mode):
    # in callback mode the hook's checks and cuts run inside solve_master;
    # master_time leaves them out, so the phase timers add up to at most
    # the wall time
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=9, n_machines=3,
                                   n_scenarios=8, dif=-1.0, seed=4))
    _, report = solve_ccpmsp(inst, SolveOptions(mode=mode, time_budget=60))
    assert report.optimal and report.master_time > 0.0
    phases = (report.master_time + report.subproblem_resolution_time
              + report.cut_creation_time + report.subproblem_creation_time
              + report.build_time)
    assert phases <= report.wall_time


def test_check_time_excludes_diagram_builds():
    # a fresh cache builds the k = 10 diagram inside check_candidate; that
    # time is creation time only, so the two timers add up to at most the
    # time the call took
    inst = make_instance(B10_CONFIG)
    cache = DiagramCache(max_depth=inst.capacity)
    counters = decomposition._Counters(
        check_counts=np.zeros((inst.n_machines, inst.n_scenarios), dtype=np.int64)
    )
    x = np.zeros((inst.n_jobs, inst.n_machines), dtype=np.int8)
    x[:10, 0] = x[10:, 1] = 1
    cand = Candidate(x=x, z=np.ones(inst.n_scenarios, dtype=np.int8))
    t0 = time.perf_counter()
    check_candidate(inst, cand, cache, JOBSET, counters)
    elapsed = time.perf_counter() - t0
    assert cache.build_time > 0.0
    assert 0.0 <= counters.resolution_time
    assert counters.resolution_time + cache.build_time <= elapsed


def test_solve_verifies_above_brute_force_capacity(monkeypatch):
    calls = []
    original = decomposition.verify_candidate

    def counting(inst, cand):
        calls.append(inst.capacity)
        return original(inst, cand)

    monkeypatch.setattr(decomposition, "verify_candidate", counting)
    inst = make_instance(B10_CONFIG)
    cand, report = solve_ccpmsp(inst, SolveOptions(time_budget=60))
    assert report.optimal and cand is not None
    assert calls == [10]
    assert report.verify_time > 0.0


# Final IIS pools of regression instances (conftest.regression_configs),
# reduced to (scenario, sorted job set, kind) rows in pool order: index ->
# (pool size, sha256 of the rows as JSON).  Both variants yield these pools.
IIS_POOLS = {
    1: (8, "2eeecab69ceaf51d98e19e8291484a8d92fb2745c8fe41d6e1d4cb4591d3c5c0"),
    2: (2, "7dbd6ba779cfe69aa59d0ee3e7901b036cc2643a9a3842911ec762ff1f3f1f61"),
    4: (8, "37b59127177905a401d74a714ee108189801b6ca5b0c70426e287580edd706e6"),
    5: (27, "2c15c284adfad021870cacbfe2f9b1a5a1d2f3547ef09a706682534d2da54f72"),
    7: (37, "d1665a244e18135a7596fb745b16fa72476728cb645a189a2b6095e35a81a59a"),
    8: (51, "97816d1479967d5d6e19211b5120ff16208befb1f7387a52ac1d405b87a4b1b9"),
    11: (265, "303a3863873635817b567ca7f8f4524168005326bb563dc180219991ac2abb6d"),
}


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_iis_pools_pinned(variant):
    configs = regression_configs()
    for index, (size, digest) in IIS_POOLS.items():
        inst = make_instance(configs[index])
        opts = SolveOptions(variant=variant, cut_kind="iis", time_budget=120,
                            mode="iterative")
        _, report = solve_ccpmsp(inst, opts)
        rows = [[c.scenario, sorted(c.job_set), c.kind] for c in report.cuts]
        assert len(rows) == size, index
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, index


# The same pools from one callback-mode solve each.  A hook cut reaches the
# search only as bits on the machines whose job sets cover it, which drop a
# leaf's flag exactly where the cut's row forces it to zero; pruning on them
# drops only subtrees whose every leaf then misses the chance row.  So the
# hook sees the candidates a search that re-tested every cut at each leaf
# would show it, in the same order, and a missed or stale bit moves a pool.
CALLBACK_IIS_POOLS = {
    1: (8, "2eeecab69ceaf51d98e19e8291484a8d92fb2745c8fe41d6e1d4cb4591d3c5c0"),
    2: (2, "7dbd6ba779cfe69aa59d0ee3e7901b036cc2643a9a3842911ec762ff1f3f1f61"),
    4: (8, "37b59127177905a401d74a714ee108189801b6ca5b0c70426e287580edd706e6"),
    5: (27, "d1f8342a8679abe542d27ad09fc33994a2043729225a69eb1f816dca4f2820e3"),
    7: (37, "d1665a244e18135a7596fb745b16fa72476728cb645a189a2b6095e35a81a59a"),
    8: (55, "8fa330667d03a21e4df4b7f0b2cdf559b7cb7b4b3fecab8b5ebeefae45d792fb"),
    11: (206, "01ca51e8f24f2005c7a95956c1c0d7fa2ab3f61ab85d7b769e886e0d049a6699"),
}


# with the job-set memo emptied every few entries, the search still sees
# every hook cut and proposes the same candidates
@pytest.mark.parametrize("variant, memo_max", [
    (LASTJOB, master.FAIL_MEMO_MAX), (JOBSET, master.FAIL_MEMO_MAX), (JOBSET, 4),
])
def test_iis_pools_pinned_in_callback_mode(monkeypatch, variant, memo_max):
    monkeypatch.setattr(master, "FAIL_MEMO_MAX", memo_max)
    configs = regression_configs()
    for index, (size, digest) in CALLBACK_IIS_POOLS.items():
        inst = make_instance(configs[index])
        opts = SolveOptions(variant=variant, cut_kind="iis", time_budget=120,
                            mode="callback")
        _, report = solve_ccpmsp(inst, opts)
        assert report.n_master_solves == 1
        rows = [[c.scenario, sorted(c.job_set), c.kind] for c in report.cuts]
        assert len(rows) == size, index
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, index

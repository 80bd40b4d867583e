import dataclasses
import hashlib
import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from ccpmsp import decomposition, jobset, lastjob, master, netflow
from ccpmsp.decomposition import (
    SolveOptions,
    SolveReport,
    check_candidate,
    compute_gap,
    emit_cuts,
    solve_ccpmsp,
)
from ccpmsp.diagram import (
    JOBSET,
    LASTJOB,
    DiagramCache,
    schedule_fits,
)
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import (
    Candidate,
    ConfigurationError,
    Instance,
    Scenario,
    TOL,
    candidate_objective,
    chance_satisfied,
    jobs_mask,
    validate_instance,
)
from ccpmsp.oracle import verify_candidate
from conftest import (
    B10_CONFIG,
    mask_jobs,
    overloaded_b10_x,
    random_scenario,
    regression_configs,
    solve_iteratively,
)
from diagram_reference import canonical_remap
from oracle_reference import brute_iis, brute_min_time, brute_optimal


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
        report = SolveReport(
            check_counts=np.zeros((inst.n_machines, inst.n_scenarios), dtype=np.int64))
        cache = DiagramCache(max_depth=inst.capacity)
        failures = check_candidate(inst, cand, cache, variant, report)
        got = [(*f, f.times.tobytes()) for f in failures]
        assert got == reference_check(inst, cand, variant)
        claimed = sum(len(cand.machine_jobs(m)) > 0 for m in range(inst.n_machines))
        assert report.check_counts.sum() == claimed * z.sum()
        swept = report.check_counts.sum() - report.n_certified
        assert swept == n_uncertified(inst, cand, variant)
        n_failures += len(failures)
        n_certified += report.n_certified
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
    report = SolveReport(check_counts=np.zeros((2, 1), dtype=np.int64))
    widths = counting_set_times(monkeypatch)
    cache = DiagramCache(max_depth=k)
    assert k >= decomposition.CERTIFY_MIN_JOBS
    assert check_candidate(inst, cand, cache, variant, report) == []
    assert widths == [] and cache.count(variant) == 0 and cache.build_time == 0.0
    assert report.n_certified == report.check_counts.sum() == 1
    # just below the optimum the pair is refuted, through the sweep
    inst = line_instance(k, time_limit=2.0 * k - 1e-6)
    failures = check_candidate(inst, cand, cache, variant, report)
    assert failures == [(0, 0, tuple(range(1, k + 1)))]
    assert widths == [1] and cache.count(variant) == 1
    assert failures[0].times[-1] == 2.0 * k
    assert report.n_certified == 1 and report.check_counts.sum() == 2


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
            report = SolveReport(
                check_counts=np.zeros((2, inst.n_scenarios), dtype=np.int64))
            tracemalloc.start()
            try:
                failures = check_candidate(inst, cand, cache, variant, report)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert failures
            assert peak <= 3 * 2**20, (variant, certify)
            assert (report.n_certified == 0) == (not certify)


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_a_solve_sweeps_once_per_machine_chunk(monkeypatch, variant):
    # IIS cuts are read from the check's tables: no second sweep, and no
    # single-scenario call at all.  A cap of 64 cells splits each check of
    # this instance into chunks of a few scenarios.
    monkeypatch.setattr(decomposition, "SWEEP_CHUNK_CELLS", 64)
    batches = []
    original_check = decomposition.check_candidate

    def check(inst, cand, cache, variant, report=None):
        for m in range(inst.n_machines):
            k = len(cand.machine_jobs(m))
            if k and cand.z.any():
                cells = cache.get_or_build(variant, k).sweep_cells
                n_claimed = int(cand.z.sum())
                batches.append(min(n_claimed, -(-n_claimed * cells
                                                // decomposition.SWEEP_CHUNK_CELLS)))
        return original_check(inst, cand, cache, variant, report)

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


# The benchmark's subproblem instance (ors 22x2x14 dif -2 seed 13): the
# pairs its checks certify without a sweep, and the pairs they check.  The
# two variants make the same checks, and the start of each column's first
# walk changes only how fast a pair is certified, never whether.
@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_certified_pairs_pinned(variant):
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=22, n_machines=2,
                                   n_scenarios=14, dif=-2.0, seed=13))
    _, report = solve_ccpmsp(inst, SolveOptions(variant=variant, time_budget=120))
    assert report.optimal and report.objective == 113
    assert (report.n_certified, report.check_counts.sum()) == (1085, 1204)


def test_emit_nogood_cut(uniform_scenario):
    inst = uniform_instance(uniform_scenario)
    cuts = emit_cuts([(0, 0, (1, 2, 3))], "nogood", inst)
    assert len(cuts) == 1
    assert cuts[0].jobs == 0b111
    assert cuts[0].kind == "nogood" and cuts[0].scenario == 0


def test_emit_iis_cuts_worked_example(uniform_scenario):
    inst = uniform_instance(uniform_scenario)
    cache = DiagramCache(max_depth=3)
    cand = Candidate(x=np.ones((3, 1), dtype=np.int8), z=np.array([1]))
    failures = check_candidate(inst, cand, cache, LASTJOB)
    assert failures == [(0, 0, (1, 2, 3))]
    cuts = emit_cuts(failures, "iis", inst)
    assert [sorted(mask_jobs(c.jobs)) for c in cuts] == [[2], [1, 3]]


def test_emit_cuts_deduplicates_across_machines(uniform_scenario):
    # both machines hold all three jobs, which fail alike on each
    inst = uniform_instance(uniform_scenario, machines=2)
    cache = DiagramCache(max_depth=3)
    cand = Candidate(x=np.ones((3, 2), dtype=np.int8), z=np.array([1]))
    failures = check_candidate(inst, cand, cache, JOBSET)
    assert failures == [(0, 0, (1, 2, 3)), (1, 0, (1, 2, 3))]
    cuts = emit_cuts(failures, "iis", inst)
    assert len(cuts) == 2  # {2} and {1,3} once each, not twice


def test_emit_cuts_keep_failure_order_per_kind(uniform_scenario):
    # one machine's job tuple fails in three scenarios: each kind's cuts
    # follow the failures, and a failure's IIS cuts run in (size, mask) order
    inst = Instance(
        n_jobs=3, n_machines=1, capacity=3, time_limit=5.0, epsilon=0.4,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario] * 3,
    )
    cache = DiagramCache(max_depth=3)
    cand = Candidate(x=np.ones((3, 1), dtype=np.int8), z=np.ones(3, dtype=np.int8))
    failures = check_candidate(inst, cand, cache, JOBSET)
    assert failures == [(0, w, (1, 2, 3)) for w in range(3)]
    cuts = emit_cuts(failures, "nogood", inst)
    assert [c.key() for c in cuts] == [("nogood", w, 0b111) for w in range(3)]
    flow_ctx = netflow.FlowContext(inst, 1)
    cuts = emit_cuts(failures, "benders", inst, cand, flow_ctx=flow_ctx)
    want = [flow_ctx.cut_for(inst, cand.x[:, 0], [w], 0b111)[0] for w in range(3)]
    assert [c.key() for c in cuts] == [c.key() for c in want]
    assert [c.jobs for c in cuts] == [0b111] * 3
    cuts = emit_cuts(failures, "iis", inst)
    assert [(c.scenario, c.jobs) for c in cuts] == [
        (w, s) for w in range(3) for s in (0b010, 0b101)]


def flow_cut_bytes(cut):
    const, coef = cut.benders_payload
    return cut.kind, cut.scenario, cut.jobs, repr(const), coef.tobytes()


def test_emit_cuts_make_one_flow_pass_per_failing_machine(monkeypatch):
    # two machines fail in every scenario, so check_candidate returns them
    # interleaved, (scenario, machine); the flow cuts come from one dual
    # pass per machine, yet follow the failures and equal one
    # single-scenario pass per failure
    rng = np.random.default_rng(71)
    inst = Instance(
        n_jobs=4, n_machines=2, capacity=2, time_limit=1.0, epsilon=0.5,
        utilities=np.ones(4), scenarios=[random_scenario(rng, 4) for _ in range(4)],
    )
    x = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.int8)
    cand = Candidate(x=x, z=np.ones(4, dtype=np.int8))
    failures = check_candidate(inst, cand, DiagramCache(max_depth=2), JOBSET)
    assert failures == [(m, w, ((1, 3), (2, 4))[m]) for w in range(4) for m in range(2)]
    flow_ctx = netflow.FlowContext(inst, 1)
    passes = []
    cut_for = flow_ctx.cut_for

    def recording(inst, x_col, scenarios, jobs):
        passes.append((list(scenarios), jobs))
        return cut_for(inst, x_col, scenarios, jobs)

    monkeypatch.setattr(flow_ctx, "cut_for", recording)
    cuts = emit_cuts(failures, "benders", inst, cand, flow_ctx=flow_ctx)
    assert passes == [([0, 1, 2, 3], 0b0101), ([0, 1, 2, 3], 0b1010)]
    want = [cut_for(inst, x[:, m], [w], jobs_mask(jobs))[0] for m, w, jobs in failures]
    assert [flow_cut_bytes(c) for c in cuts] == [flow_cut_bytes(c) for c in want]

    # plain triples of one machine with different job tuples form separate
    # groups: each cut keeps its failure's jobs
    passes.clear()
    triples = [(0, 0, (1, 3)), (0, 1, (1,)), (0, 2, (1, 3))]
    cuts = emit_cuts(triples, "benders", inst, cand, flow_ctx=flow_ctx)
    assert passes == [([0, 2], 0b0101), ([1], 0b0001)]
    assert [(c.scenario, c.jobs) for c in cuts] == [(0, 0b0101), (1, 0b0001), (2, 0b0101)]
    want = [cut_for(inst, x[:, 0], [w], jobs_mask(jobs))[0] for _, w, jobs in triples]
    assert [flow_cut_bytes(c) for c in cuts] == [flow_cut_bytes(c) for c in want]


def test_iis_cuts_map_canonical_bits_onto_the_machines_jobs():
    # a machine holding jobs (2, 5, 7): canonical bit i of an IIS is the
    # machine's i-th smallest job, so the cut masks are the oracle's sets
    rng = np.random.default_rng(57)
    jobs = (2, 5, 7)
    x = np.zeros((7, 1), dtype=np.int8)
    x[[j - 1 for j in jobs]] = 1
    proper = 0
    for _ in range(6):
        sc = random_scenario(rng, 7)
        full = brute_min_time(jobs, sc, True)
        limit = float(rng.uniform(0.3, 0.95)) * full
        inst = Instance(
            n_jobs=7, n_machines=1, capacity=3, time_limit=limit, epsilon=0.4,
            utilities=np.ones(7), scenarios=[sc],
        )
        cache = DiagramCache(max_depth=3)
        failures = check_candidate(inst, Candidate(x=x, z=np.array([1])), cache, JOBSET)
        assert failures == [(0, 0, jobs)]
        got = [c.jobs for c in emit_cuts(failures, "iis", inst)]
        want = [jobs_mask(s) for s in brute_iis(jobs, sc, limit)]
        assert sorted(got) == sorted(want)
        proper += sum(m != jobs_mask(jobs) for m in got)
    assert proper  # some cut is a proper subset, so the bit mapping shows


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_solve_refuses_setups_that_break_the_triangle_inequality(variant):
    # {1, 2, 3} fits T = 3.5 in the order 1, 3, 2, but the IIS {1, 2}
    # (setup 10 between them) also forbids that set: without the triangle
    # inequality a job-set cut may cut off the optimum (3, against 2)
    setup = np.zeros((5, 5))
    setup[1, 2] = setup[2, 1] = 10.0
    setup[4, 1:4] = setup[1:4, 4] = 5.0
    inst = Instance(
        n_jobs=4, n_machines=1, capacity=4, time_limit=3.5, epsilon=0.5,
        utilities=np.ones(4),
        scenarios=[Scenario(np.array([1.0, 1.0, 1.0, 0.5]), setup)],
    )
    assert brute_optimal(inst)[1] == 3
    assert any("triangle" in p for p in validate_instance(inst))
    with pytest.raises(ConfigurationError, match="triangle"):
        solve_ccpmsp(inst, SolveOptions(variant=variant, cut_kind="iis"))


@pytest.mark.parametrize("broken, message", [
    ({"epsilon": 1.5}, "epsilon outside (0, 1)"),
    ({"scenarios": []}, "no scenarios"),
])
def test_solve_refuses_every_violation_validate_instance_lists(broken, message):
    # at epsilon 1.5 the chance row holds with no scenario at all, and with
    # no scenarios there is nothing to stack: the library refuses both, as
    # the command line does, from the instance's one cached list
    fields = dict(n_jobs=2, n_machines=1, capacity=2, time_limit=10.0,
                  epsilon=0.1, utilities=np.ones(2),
                  scenarios=[Scenario(np.ones(2), 1.0 - np.eye(3))])
    inst = Instance(**{**fields, **broken})
    assert validate_instance(inst) == [message]
    assert inst.violations is inst.violations
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        solve_ccpmsp(inst)


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
@pytest.mark.parametrize("cut", ["nogood", "iis", "benders"])
def test_solve_matches_oracle_sample(regression_set, regression_optima, wide_set,
                                     variant, cut):
    # the regression sample (B <= 4), then capacities 5-7
    sample = list(zip(regression_set, regression_optima))[:20]
    for inst, want in sample + wide_set:
        cand, report = solve_ccpmsp(
            inst, SolveOptions(variant=variant, cut_kind=cut, time_budget=60)
        )
        assert report.optimal
        assert report.objective == pytest.approx(want, abs=1e-9)


def test_callback_and_iterative_agree(regression_set, regression_optima):
    for inst, want in list(zip(regression_set, regression_optima))[20:32]:
        for variant, cut in ((JOBSET, "iis"), (LASTJOB, "iis"), (JOBSET, "nogood")):
            opts = dict(variant=variant, cut_kind=cut, time_budget=60)
            solves = []
            it = solve_iteratively(inst, SolveOptions(**opts), solves)[1]
            cb = solve_ccpmsp(inst, SolveOptions(**opts))[1]
            assert it.status == cb.status == "optimal"
            assert it.objective == pytest.approx(cb.objective, abs=1e-9)
            assert it.objective == pytest.approx(want, abs=1e-9)
            assert solves == [it.n_callbacks]


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
                ic.scenario == nc.scenario and ic.jobs & nc.jobs == ic.jobs
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


@pytest.mark.parametrize("solve", [solve_iteratively, solve_ccpmsp],
                         ids=["iterative", "callback"])
def test_fallbacks_count_the_batches_their_own_cuts_did_not_exclude(solve):
    # the Benders benchmark instance: IIS cuts always exclude their
    # candidate; flow cuts there never do, so every batch falls back on the
    # failures' no-goods (one batch per failing check)
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=10, n_machines=2,
                                   n_scenarios=10, dif=-1.0, seed=504))
    _, iis = solve(inst, SolveOptions(cut_kind="iis", time_budget=60))
    assert iis.optimal and iis.n_fallbacks == 0
    _, flow = solve(inst, SolveOptions(cut_kind="benders", time_budget=60))
    assert flow.optimal
    assert 0 < flow.n_fallbacks <= flow.n_callbacks
    assert sum(c.kind == "nogood" for c in flow.cuts) >= flow.n_fallbacks


@pytest.mark.parametrize("solve", [solve_iteratively, solve_ccpmsp],
                         ids=["iterative", "callback"])
def test_master_time_overlaps_no_other_phase(solve):
    # with the hook, its checks and cuts run inside solve_master;
    # master_time leaves them out, so the phase timers add up to at most
    # the wall time
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=9, n_machines=3,
                                   n_scenarios=8, dif=-1.0, seed=4))
    _, report = solve(inst, SolveOptions(time_budget=60))
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
    report = SolveReport(
        check_counts=np.zeros((inst.n_machines, inst.n_scenarios), dtype=np.int64)
    )
    x = np.zeros((inst.n_jobs, inst.n_machines), dtype=np.int8)
    x[:10, 0] = x[10:, 1] = 1
    cand = Candidate(x=x, z=np.ones(inst.n_scenarios, dtype=np.int8))
    t0 = time.perf_counter()
    check_candidate(inst, cand, cache, JOBSET, report)
    elapsed = time.perf_counter() - t0
    assert cache.build_time > 0.0
    assert 0.0 <= report.subproblem_resolution_time
    assert report.subproblem_resolution_time + cache.build_time <= elapsed


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
# with the master re-solved after each cut batch, reduced to (scenario,
# sorted job set, kind) rows in pool order: index -> (pool size, sha256 of
# the rows as JSON).  Both variants yield these pools.
IIS_POOLS = {
    1: (7, "cdcfb50434602716f92800e3af9d6bcdd2e4c496be8a55db21f58385e1df4ea8"),
    2: (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    4: (1, "c85de821294a19f9c4c251a4b023d64676c84167e44ed621f19de147c12130d8"),
    5: (2, "f06690c8ec52419ba6879adffd93acda747230d2b5258299f526e905a90886f3"),
    7: (11, "40367a1485ed714881d893840b900f761eff6b9204bacff770a47a28c384cd49"),
    8: (7, "b27dc4d9c2fc08b4f23baad4e6218a9b9637c38ac40147b8413b36abdaca2931"),
    11: (25, "d9a6b87b00f6b760d7ed9397cb6dad08b9d8b727fcb165230bfc7b1e50cdeb60"),
}


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_iis_pools_pinned(variant):
    configs = regression_configs()
    for index, (size, digest) in IIS_POOLS.items():
        inst = make_instance(configs[index])
        opts = SolveOptions(variant=variant, cut_kind="iis", time_budget=120)
        _, report = solve_iteratively(inst, opts)
        rows = [[c.scenario, sorted(mask_jobs(c.jobs)), c.kind] for c in report.cuts]
        assert len(rows) == size, index
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, index


# The same pools from one hooked master search each.  A hook cut reaches the
# search only as bits on the machines whose job sets cover it, which drop a
# leaf's flag exactly where the cut's row forces it to zero; pruning on them
# drops only subtrees whose every leaf then misses the chance row.  So the
# hook sees the candidates a search that re-tested every cut at each leaf
# would show it, in the same order, and a missed or stale bit moves a pool.
CALLBACK_IIS_POOLS = {
    1: (7, "cdcfb50434602716f92800e3af9d6bcdd2e4c496be8a55db21f58385e1df4ea8"),
    2: (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    4: (1, "c85de821294a19f9c4c251a4b023d64676c84167e44ed621f19de147c12130d8"),
    5: (2, "f06690c8ec52419ba6879adffd93acda747230d2b5258299f526e905a90886f3"),
    7: (11, "40367a1485ed714881d893840b900f761eff6b9204bacff770a47a28c384cd49"),
    8: (9, "8c820ea8c2536a57eafd4d696aaf84f738b882cbb811ea3d7660f3ed64ba9453"),
    11: (25, "74c46819dbddfe0c86df9beb4030daa17555671103ef2e088cc3d3f355bedd3d"),
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
        opts = SolveOptions(variant=variant, cut_kind="iis", time_budget=120)
        _, report = solve_ccpmsp(inst, opts)
        rows = [[c.scenario, sorted(mask_jobs(c.jobs)), c.kind] for c in report.cuts]
        assert len(rows) == size, index
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, index


# The pools of the same instances without the relaxation rows, additive and
# own-successor, which leave the IIS filter and the pool order most of the
# cuts to make: 586 iterative and 587 hooked, against 53 with the rows.
# Both variants yield these pools.
NORELAX_IIS_POOLS = {
    1: (8, "2eeecab69ceaf51d98e19e8291484a8d92fb2745c8fe41d6e1d4cb4591d3c5c0"),
    2: (2, "7dbd6ba779cfe69aa59d0ee3e7901b036cc2643a9a3842911ec762ff1f3f1f61"),
    4: (10, "fdfe26b35ebe620fdb2a6f97b1aeb3cb16f15a81887f88d05ee36ae6186e4017"),
    5: (32, "5ff50fa94e503689d3aa3f503ccfbbb7561d9702a01f64090416f2e937d117a6"),
    7: (37, "d1665a244e18135a7596fb745b16fa72476728cb645a189a2b6095e35a81a59a"),
    8: (74, "2815d910736a294f9d2c940eb40b8675e469e82705681ae2439f1d636a92fae4"),
    11: (423, "0fdce2488c17a9a4a98804f5aba1f1b7b1e5603539469ba339d53a6c6d215443"),
}
NORELAX_CALLBACK_IIS_POOLS = {
    1: (8, "2eeecab69ceaf51d98e19e8291484a8d92fb2745c8fe41d6e1d4cb4591d3c5c0"),
    2: (2, "7dbd6ba779cfe69aa59d0ee3e7901b036cc2643a9a3842911ec762ff1f3f1f61"),
    4: (10, "fdfe26b35ebe620fdb2a6f97b1aeb3cb16f15a81887f88d05ee36ae6186e4017"),
    5: (32, "7c9bc0d40848c334463bad5c3b9d6885d79beefc35f64f8661dc6461990a0804"),
    7: (37, "d1665a244e18135a7596fb745b16fa72476728cb645a189a2b6095e35a81a59a"),
    8: (75, "a8208027591554526cc507da4da2b852d4d69acfde19dbcca9801ec8480d3654"),
    11: (423, "940bc9d527c29997f268c9e5108324438f309e44ca97aece882fd23f38cf9210"),
}


@pytest.mark.parametrize("solve, pools, memo_max", [
    (solve_iteratively, NORELAX_IIS_POOLS, master.FAIL_MEMO_MAX),
    (solve_ccpmsp, NORELAX_CALLBACK_IIS_POOLS, master.FAIL_MEMO_MAX),
    (solve_ccpmsp, NORELAX_CALLBACK_IIS_POOLS, 4),
], ids=["iterative", "callback", "callback-small-memo"])
@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_iis_pools_pinned_without_relaxation(monkeypatch, solve, pools,
                                             memo_max, variant):
    monkeypatch.setattr(master, "FAIL_MEMO_MAX", memo_max)
    configs = regression_configs()
    for index, (size, digest) in pools.items():
        inst = make_instance(configs[index])
        opts = SolveOptions(variant=variant, cut_kind="iis", time_budget=120,
                            scenario_relaxation=False)
        _, report = solve(inst, opts)
        rows = [[c.scenario, sorted(mask_jobs(c.jobs)), c.kind] for c in report.cuts]
        assert len(rows) == size, index
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, index

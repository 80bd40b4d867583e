import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccpmsp import decomposition, master, netflow
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.master import build_master, optimistic_load_coefficients, solve_master
from ccpmsp.decomposition import SolveOptions, solve_ccpmsp
from ccpmsp.diagram import JOBSET, LASTJOB
from ccpmsp.model import BENDERS, IIS, NOGOOD, Cut, Instance, Scenario, jobs_mask
from ccpmsp.oracle import held_karp_min_times
from conftest import mask_jobs
from master_reference import (
    brute_master,
    check_rows,
    compute_big_m,
    iter_rows,
    load_bits,
    reference_load_coefficients,
    reference_utility_bounds,
    resolve,
    running_load,
)
from oracle_reference import brute_optimal


def small_instance(**kw):
    defaults = dict(dataset_kind="equal", n_jobs=6, n_machines=2, n_scenarios=3,
                    dif=-3.0, seed=21)
    defaults.update(kw)
    return make_instance(GenConfig(**defaults))


def uniform_instance(uniform_scenario, machines=1, T=5.0, eps=0.4):
    return Instance(
        n_jobs=3, n_machines=machines, capacity=3, time_limit=T, epsilon=eps,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario],
    )


def test_base_model_row_and_variable_counts():
    inst = small_instance(n_jobs=3, n_machines=2, n_scenarios=2, capacity=3)
    model = build_master(inst, symmetry=False, scenario_relaxation=False)
    rows = list(iter_rows(model))
    assert len(rows) == 3 + 2 + 1
    names = [r[0] for r in rows]
    assert names == ["assign_1", "assign_2", "assign_3", "cap_1", "cap_2", "chance"]


def test_chance_row_allows_one_failure_at_half_epsilon():
    inst = small_instance(n_scenarios=2, epsilon=0.5)
    model = build_master(inst, symmetry=False, scenario_relaxation=False)
    x = np.zeros((inst.n_jobs, inst.n_machines), dtype=np.int8)
    ok = check_rows(model, x, np.array([1, 0]))
    assert ok == []
    bad = check_rows(model, x, np.array([0, 0]))
    assert bad == ["chance"]


def test_symmetry_rows_appendix_example():
    # 5 jobs, 3 machines: x1 is the lexicographic representative, x2 swaps
    # machines 1 and 3 and must break both row families
    inst = small_instance(n_jobs=5, n_machines=3, n_scenarios=2, capacity=2,
                          dif=30.0)
    model = build_master(inst, symmetry=True, scenario_relaxation=False)
    x1 = np.array([
        [1, 0, 0],
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 1],
        [0, 1, 0],
    ], dtype=np.int8)
    x2 = np.array([
        [0, 0, 1],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
        [0, 1, 0],
    ], dtype=np.int8)
    z = np.ones(2, dtype=np.int8)
    assert check_rows(model, x1, z) == []
    violated = check_rows(model, x2, z)
    assert "sym_zero_1_3" in violated
    assert "sym_lex_2_1" in violated


@pytest.mark.parametrize("seed", range(5))
def test_every_assignment_has_a_symmetric_representative(seed):
    # brute force over small assignments: some machine permutation of each
    # feasible x satisfies the symmetry rows
    from itertools import permutations, product

    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    inst = small_instance(n_jobs=n, n_machines=m, n_scenarios=2, capacity=n)
    model = build_master(inst, symmetry=True, scenario_relaxation=False)
    z = np.ones(2, dtype=np.int8)
    for choices in product(range(m + 1), repeat=n):
        x = np.zeros((n, m), dtype=np.int8)
        for j, c in enumerate(choices):
            if c:
                x[j, c - 1] = 1
        found = False
        for perm in permutations(range(m)):
            xp = x[:, perm]
            if not [v for v in check_rows(model, xp, z) if v.startswith("sym")]:
                found = True
                break
        assert found


@st.composite
def setup_case(draw):
    """An instance for the master's set-up tables: utilities drawn from a
    few values, so ties are common and their sums round, any capacity, so
    M B < n often and min(M B - used, n - j) binds, and setups with a
    nonzero diagonal and rounded values, so the masked j -> j cell would
    win and cheapest setups tie."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    utilities = draw(st.lists(
        st.sampled_from([0.1, 0.7, 1 / 3, 2.0, 1e6 + 0.1]) | st.floats(0.01, 100.0),
        min_size=n, max_size=n))
    scenarios = [Scenario(exec=rng.uniform(0.0, 10.0, size=n),
                          setup=np.round(rng.uniform(0.0, 10.0, size=(n + 1, n + 1)),
                                         draw(st.integers(0, 3))))
                 for _ in range(draw(st.integers(1, 4)))]
    return Instance(
        n_jobs=n, n_machines=draw(st.integers(1, 4)),
        capacity=draw(st.integers(1, n)), time_limit=10.0, epsilon=0.5,
        utilities=np.array(utilities), scenarios=scenarios,
    )


def tied_low_capacity_case():
    # 3 machines of 2 places for 9 jobs, utilities tied in threes
    rng = np.random.default_rng(3)
    return Instance(
        n_jobs=9, n_machines=3, capacity=2, time_limit=10.0, epsilon=0.5,
        utilities=np.array([0.1, 0.7, 0.1, 1 / 3, 0.7, 1 / 3, 0.1, 0.7, 1 / 3]),
        scenarios=[Scenario(exec=rng.uniform(0.0, 10.0, size=9),
                            setup=rng.uniform(0.0, 10.0, size=(10, 10)))],
    )


@settings(max_examples=80, deadline=None)
@given(setup_case())
@example(tied_low_capacity_case())
def test_setup_tables_are_bitwise_the_reference_loops(inst):
    assert master.utility_bounds(inst) == reference_utility_bounds(inst)
    coef = optimistic_load_coefficients(inst)
    want = reference_load_coefficients(inst)
    assert coef.shape == want.shape and coef.tobytes() == want.tobytes()


def test_scenario_relaxation_coefficients(uniform_scenario):
    inst = uniform_instance(uniform_scenario)
    coef = optimistic_load_coefficients(inst)
    assert np.allclose(coef[0], [3.0, 7.0, 4.0])
    model = build_master(inst, symmetry=False, scenario_relaxation=True)
    # z = 1 activates the row: job 2 alone (coefficient 7) breaks T = 5
    x = np.zeros((3, 1), dtype=np.int8)
    x[1, 0] = 1
    assert "relax_0_1" in check_rows(model, x, np.array([1]))
    # z = 0 deactivates it
    assert check_rows(model, x, np.array([0])) == ["chance"]


@pytest.mark.parametrize("seed", range(25))
def test_relaxation_never_cuts_a_feasible_optimum(seed):
    rng = np.random.default_rng(1234 + seed)
    inst = make_instance(GenConfig(
        dataset_kind=["ors", "vrp", "equal"][seed % 3],
        n_jobs=int(rng.integers(3, 7)), n_machines=2,
        n_scenarios=int(rng.integers(2, 6)),
        dif=float(rng.choice([-5.0, -2.0, 0.0])), seed=int(rng.integers(1, 10**6)),
        capacity=3, epsilon=float(rng.choice([0.05, 0.3])),
    ))
    cand, obj = brute_optimal(inst)
    model = build_master(inst, symmetry=False, scenario_relaxation=True)
    relax_rows = [v for v in check_rows(model, cand.x, cand.z)
                  if v.startswith(("relax_", "succ_"))]
    assert relax_rows == []


def test_builtin_backend_packs_everything_when_unconstrained():
    inst = small_instance(dif=50.0)
    model = build_master(inst)
    sol = solve_master(model)
    assert sol.status == master.OPTIMAL
    assert sol.objective == pytest.approx(float(inst.utilities.sum()))
    assert check_rows(model, sol.x, sol.z) == []


def two_scenario_instance(uniform_scenario, eps):
    return Instance(
        n_jobs=3, n_machines=2, capacity=3, time_limit=5.0, epsilon=eps,
        utilities=np.array([2.0, 6.0, 3.0]),
        scenarios=[uniform_scenario, uniform_scenario],
    )


def test_builtin_backend_respects_cut_pool(uniform_scenario):
    # cuts forbid job 2 (and the full set) on scenario 0 unless its flag drops
    inst = two_scenario_instance(uniform_scenario, eps=0.5)
    model = build_master(inst, symmetry=False, scenario_relaxation=False)
    sol0 = solve_master(model)
    assert sol0.objective == pytest.approx(11.0)
    model.cuts.append(Cut(jobs=jobs_mask({1, 2, 3}), scenario=0, kind="nogood"))
    model.cuts.append(Cut(jobs=jobs_mask({2}), scenario=0, kind="iis"))
    sol = solve_master(model)
    # eps = 0.5 tolerates dropping scenario 0, so the pool only binds z
    assert sol.objective == pytest.approx(11.0)
    assert sol.z[0] == 0
    assert check_rows(model, sol.x, sol.z) == []
    # eps = 0.05 pins both flags to 1, so job 2 cannot be assigned at all
    inst2 = two_scenario_instance(uniform_scenario, eps=0.05)
    model2 = build_master(inst2, symmetry=False, scenario_relaxation=False)
    model2.cuts.extend(model.cuts)
    sol2 = solve_master(model2)
    assert sol2.z[0] == 1
    assert sol2.objective == pytest.approx(5.0)  # jobs 1 and 3
    assert check_rows(model2, sol2.x, sol2.z) == []


def test_callback_drops_flags_of_returned_cuts():
    # a hook cut names a scenario that fails for this x; even when its row
    # does not bind at the candidate, the scenario's flag must drop so the
    # candidate stays in play with fewer claims instead of looping
    inst = small_instance(n_jobs=3, n_machines=1, n_scenarios=2, dif=30.0,
                          capacity=3, epsilon=0.5)
    model = build_master(inst, symmetry=False, scenario_relaxation=False)
    calls = []

    def hook(x, z):
        calls.append(z.copy())
        if z[0] == 1:
            return [Cut(jobs=jobs_mask({1}), scenario=0, kind=BENDERS,
                        benders_payload=(0.0, np.zeros(inst.n_jobs)))]
        return []

    sol = solve_master(model, hook=hook)
    assert sol.status == master.OPTIMAL
    assert sol.objective == pytest.approx(float(inst.utilities.sum()))
    assert sol.z.tolist() == [0, 1]
    assert len(calls) == 2


@pytest.mark.parametrize("memo_max", [master.FAIL_MEMO_MAX, 4])
def test_hook_cut_prunes_the_rest_of_the_search(monkeypatch, memo_max):
    # the first hook call gets every job packed; its cut {1, 2} in scenario 0
    # must reach the search's bits: no later candidate may put both jobs on
    # one machine with that flag set, and the subtrees below the failing
    # leaf go without visiting their (3^20) leaves one by one, also when the
    # job-set memo is emptied every few entries
    monkeypatch.setattr(master, "FAIL_MEMO_MAX", memo_max)
    inst = small_instance(n_jobs=22, n_machines=2, n_scenarios=2, capacity=11)
    model = build_master(inst, symmetry=False, scenario_relaxation=False)
    cut = Cut(jobs=jobs_mask({1, 2}), scenario=0, kind=IIS)
    calls = []

    def hook(x, z):
        calls.append((x.copy(), z.copy()))
        return [cut] if len(calls) == 1 else []

    sol = solve_master(model, time_budget=5.0, hook=hook)
    assert sol.status == master.OPTIMAL
    assert sol.objective == pytest.approx(float(inst.utilities.sum()))
    assert len(calls) >= 2
    assert (calls[0][0][:2] == 1).all(axis=0).any()
    for x, z in calls[1:]:
        covered = (x[:2] == 1).all(axis=0).any()
        assert not (covered and z[0])


def test_builtin_deterministic():
    inst = small_instance()
    model = build_master(inst)
    a = solve_master(model)
    b = solve_master(model)
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)


@pytest.mark.parametrize("seed", range(10))
def test_builtin_solution_satisfies_all_rows(seed):
    rng = np.random.default_rng(5000 + seed)
    inst = make_instance(GenConfig(
        dataset_kind="equal", n_jobs=int(rng.integers(3, 7)), n_machines=2,
        n_scenarios=3, dif=float(rng.choice([-4.0, 0.0])),
        seed=int(rng.integers(1, 10**6)), capacity=3,
    ))
    model = build_master(inst)
    model.cuts.append(Cut(jobs=jobs_mask({1, 2}), scenario=0, kind="nogood"))
    sol = solve_master(model)
    assert sol.x is not None
    assert check_rows(model, sol.x, sol.z) == []


def test_symmetry_objective_invariance():
    for seed in range(6):
        inst = small_instance(seed=seed, dif=-2.0)
        with_sym = solve_master(build_master(inst, symmetry=True))
        without = solve_master(build_master(inst, symmetry=False))
        assert with_sym.objective == pytest.approx(without.objective)


def test_budget_limit_reports_bound():
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=12, n_machines=3,
                                   n_scenarios=8, dif=-4.0, seed=33))
    model = build_master(inst)
    sol = solve_master(model, time_budget=0.0)
    assert sol.status == master.LIMIT
    assert sol.bound >= (sol.objective or 0.0)


def test_budget_bound_never_understates_the_optimum():
    # a zero budget stops the search at its first deadline check, the 64th
    # node it enters; what it reports must hold against the exhaustive
    # optimum.  7 jobs on 2 machines of capacity 3, no scenario may fail and
    # ten random pair cuts: full searches of 56, 68 and 96 nodes, so at
    # least one of them stops
    limited = 0
    for seed in (0, 2, 6):
        inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=7,
                                       n_machines=2, n_scenarios=4, dif=-2.0,
                                       seed=seed, capacity=3, epsilon=0.05))
        model = build_master(inst)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            pair = rng.choice(np.arange(1, 8), size=2, replace=False)
            model.cuts.append(Cut(jobs=jobs_mask(pair),
                                  scenario=int(rng.integers(4)), kind=IIS))
        best = brute_over_assignments(model)
        sol = solve_master(model, time_budget=0.0)
        if sol.status == master.OPTIMAL:
            assert sol.objective == pytest.approx(best)
        else:
            assert sol.status == master.LIMIT
            assert sol.bound >= best - 1e-6
            assert sol.objective is None or sol.objective <= best + 1e-6
            limited += 1
    assert limited


# The benchmark's master workload (ors 12x3x12 dif -1, seeds 11-13), solved
# with the default options: per instance, the sha256 of the (x, z) bytes the
# hook receives, in order, and the nodes the search enters.  A search that
# reaches other leaves, or the same ones in another order, changes a digest.
MASTER_LEAVES = {
    11: ("793a7c7c70b4444146c7dd24f17132b235d2370bd7dc123ee600822b9ef7e6a3", 9023),
    12: ("c15e94863d082f2126430372b7c1318d0c4ab31a4274c13036c625c5b3614729", 6390),
    13: ("08b1750878fb731d048467679fd506dbf16acaf3ca89e22f5da00ec060b46db3", 4468),
}


@pytest.mark.parametrize("seed", sorted(MASTER_LEAVES))
def test_hook_receives_the_pinned_leaves(monkeypatch, seed):
    digest = hashlib.sha256()
    solves = []

    def recording(model, time_budget=None, hook=None):
        def recorded(x, z):
            digest.update(x.tobytes())
            digest.update(z.tobytes())
            return hook(x, z)

        solves.append(model)
        return solve_master(model, time_budget, recorded)

    monkeypatch.setattr(decomposition, "solve_master", recording)
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=12, n_machines=3,
                                   n_scenarios=12, dif=-1.0, seed=seed))
    _, report = solve_ccpmsp(inst, SolveOptions())
    assert len(solves) == 1
    assert (digest.hexdigest(), report.n_master_nodes) == MASTER_LEAVES[seed]


# The same three instances under each master option: per seed, the nodes
# the search enters (``n_master_nodes``), the subproblem checks
# (``n_callbacks``) and the pooled cuts (``n_cuts``).
MASTER_SEARCH = {
    (True, True): {11: (9023, 13, 9), 12: (6390, 15, 12), 13: (4468, 10, 9)},
    (False, True): {11: (51814, 13, 9), 12: (33174, 15, 12), 13: (26031, 10, 9)},
    (True, False): {11: (11155, 276, 2217), 12: (6112, 183, 1475),
                    13: (3921, 224, 1454)},
}


@pytest.mark.parametrize("symmetry, relaxation, memo_max", [
    (True, True, master.FAIL_MEMO_MAX), (False, True, master.FAIL_MEMO_MAX),
    (True, False, master.FAIL_MEMO_MAX), (True, True, 4),
])
def test_master_search_is_pinned(monkeypatch, symmetry, relaxation, memo_max):
    # with both memos emptied every few entries, most loads are summed
    # afresh instead of from the smaller set's; the search is the same
    monkeypatch.setattr(master, "FAIL_MEMO_MAX", memo_max)
    opts = SolveOptions(symmetry=symmetry, scenario_relaxation=relaxation)
    for seed, want in MASTER_SEARCH[symmetry, relaxation].items():
        inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=12, n_machines=3,
                                       n_scenarios=12, dif=-1.0, seed=seed))
        _, report = solve_ccpmsp(inst, opts)
        assert report.optimal
        assert (report.n_master_nodes, report.n_callbacks, report.n_cuts) == want, seed


# Searches on machines of five or more jobs: per instance (ors jobs,
# machines, scenarios, dif, seed, epsilon) and (variant, cut kind), the
# objective and (n_master_nodes, n_callbacks, n_cuts).  The first two instances are the
# benchmark's flow and subproblem ones (B = 5 and 11), where no scenario
# may fail; on the last (B = 6) two may.
SUCCESSOR_SEARCH = [
    ((10, 2, 10, -1.0, 504, 0.05), (JOBSET, BENDERS), 38, (397, 10, 20)),
    ((10, 2, 10, -1.0, 504, 0.05), (JOBSET, IIS), 38, (397, 10, 10)),
    ((22, 2, 14, -2.0, 13, 0.05), (JOBSET, IIS), 113, (379, 43, 87)),
    ((22, 2, 14, -2.0, 13, 0.05), (LASTJOB, IIS), 113, (379, 43, 87)),
    ((12, 2, 20, -1.0, 7, 0.1), (JOBSET, IIS), 48, (731, 16, 36)),
]


@pytest.mark.parametrize("memo_max", [master.FAIL_MEMO_MAX, 4])
@pytest.mark.parametrize("config, options, objective, counts", SUCCESSOR_SEARCH)
def test_successor_search_is_pinned(monkeypatch, memo_max, config, options,
                                    objective, counts):
    monkeypatch.setattr(master, "FAIL_MEMO_MAX", memo_max)
    n, m, n_sc, dif, seed, eps = config
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=n, n_machines=m,
                                   n_scenarios=n_sc, dif=dif, seed=seed,
                                   epsilon=eps))
    variant, cut_kind = options
    _, report = solve_ccpmsp(inst, SolveOptions(variant=variant, cut_kind=cut_kind))
    assert report.optimal and report.objective == pytest.approx(objective)
    assert (report.n_master_nodes, report.n_callbacks, report.n_cuts) == counts


@settings(max_examples=80, deadline=None)
@given(st.integers(65, 300), st.integers(1, 40), st.data())
def test_loads_from_the_smaller_set_are_bitwise_the_row_sum(n_sc, n, data):
    # the search sums a job set's load as the smaller set's load plus the
    # new job's row, and afresh with cumsum where its memo lost the smaller
    # set; both must be bitwise numpy's axis-0 sum of the set's rows
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    coef = rng.random((n_sc, n)) * 10.0 ** rng.integers(-3, 4, (n_sc, n))
    relax = np.ascontiguousarray(coef.T)  # as ``solve_master`` holds it
    jobs = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    load = relax[jobs[0]]
    for j in jobs[1:]:
        load = load + relax[j]
    want = relax[jobs].sum(axis=0).tobytes()
    assert load.tobytes() == want
    assert relax[jobs].cumsum(axis=0)[-1].tobytes() == want


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.just(1), st.integers(2, 64), st.integers(65, 200)),
       st.integers(1, 40), st.integers(1, 4), st.data())
def test_block_rows_are_bitwise_the_plain_loop(n_sc, n, max_blocks, data):
    # job sets grown one job at a time, in index order, as the search grows
    # them: each child's row of its parent's block, and its additive bits,
    # must be the plain loop's running sum and bits, bitwise, whether the
    # parent's load came from the grandparent's block or, where that block
    # was evicted (a cap of a few blocks, or a drawn clear), from cumsum
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    coef = rng.random((n_sc, n)) * 10.0 ** rng.integers(-3, 4, (n_sc, n))
    relax = np.ascontiguousarray(coef.T)
    sets = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                              min_size=1, max_size=4))
    # a limit some set's load meets exactly, or any limit up to the largest
    ends = [v for jobs in map(sorted, sets) for v in running_load(relax, jobs)]
    limit = data.draw(st.sampled_from(ends) | st.floats(0.0, max(ends)))
    memo = master.LoadBlocks(relax, limit)
    with mock.patch.object(master, "FAIL_MEMO_MAX", max_blocks):
        for jobs in map(sorted, sets):
            for r in range(1, len(jobs) + 1):
                if data.draw(st.booleans()):
                    memo.blocks.clear()
                    memo.cells = 0
                parent = jobs_mask(j + 1 for j in jobs[:r - 1])
                block = memo.blocks.get(parent) or memo.block(parent)
                i = jobs[r - 1] - parent.bit_length()
                want = running_load(relax, jobs[:r])
                assert block[0][i].tobytes() == np.array(want).tobytes()
                assert memo.additive(block, i) == load_bits(want, limit)
                assert memo.load(jobs_mask(j + 1 for j in jobs[:r])).tobytes() \
                    == np.array(want).tobytes()
                assert len(memo.blocks) <= max_blocks


@pytest.mark.parametrize("cells", [master.LOAD_MEMO_CELLS, 1 << 14])
def test_relaxation_memo_stays_within_its_cells(monkeypatch, cells):
    # a budgeted search on 30 jobs and 50 scenarios empties the memo again
    # and again, and its count of cells may pass the cap by one block at
    # most.  Right after a clear, the numpy memory the module's lines hold
    # is the two set-up tables and the new block: a row kept past its
    # block's eviction would pin the whole block
    import tracemalloc

    monkeypatch.setattr(master, "LOAD_MEMO_CELLS", cells)
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=30, n_machines=3,
                                   n_scenarios=50, dif=-1.0, seed=1))
    n, n_sc = inst.n_jobs, inst.n_scenarios
    block_cells = n * (n_sc + master.BLOCK_ROW_CELLS) + master.BLOCK_CELLS
    tables = n * n_sc + (n + 1) * n * n_sc  # relaxation rows, successor costs
    memos, held = [], []

    class Counted(master.LoadBlocks):
        def __init__(self, *args):
            super().__init__(*args)
            self.clears = self.most = 0
            memos.append(self)

        def block(self, parent):
            before = len(self.blocks)
            got = super().block(parent)
            self.most = max(self.most, self.cells)
            if len(self.blocks) <= before:
                self.clears += 1
                if len(held) < 4:
                    # numpy's buffers, allocated on a line of the module
                    snap = tracemalloc.take_snapshot().filter_traces([
                        tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain),
                    ]).filter_traces([tracemalloc.Filter(True, master.__file__)])
                    held.append(sum(s.size for s in snap.statistics("filename")))
            return got

    monkeypatch.setattr(master, "LoadBlocks", Counted)
    tracemalloc.start()
    try:
        _, report = solve_ccpmsp(inst, SolveOptions(time_budget=2.0))
    finally:
        tracemalloc.stop()
    assert report.status == master.LIMIT
    (memo,) = memos
    assert memo.clears >= 2 and len(held) == min(memo.clears, 4)
    assert memo.most <= cells + block_cells
    assert max(held) <= 8 * (tables + block_cells) + 64 * 1024


def scripted_solves(*solutions):
    """A ``solve_once`` for ``resolve`` that returns ``solutions`` in
    turn, and the (model, budget) of each call."""
    calls = []

    def solve_once(model, time_budget):
        calls.append((model, time_budget))
        return solutions[len(calls) - 1]

    return solve_once, calls


def one_solution(status, objective, bound, n_nodes=0):
    return master.BackendSolution(
        status=status, x=np.ones((2, 1), np.int8), z=np.ones(3, np.int8),
        objective=objective, bound=bound, n_nodes=n_nodes)


def test_resolve_solves_again_while_the_hook_returns_cuts():
    model = object()
    solve_once, calls = scripted_solves(
        one_solution(master.LIMIT, 5.0, 9.0, n_nodes=3),
        one_solution(master.OPTIMAL, 4.0, 4.0, n_nodes=2))
    batches, offered = [["cut"], []], []

    def hook(x, z):
        offered.append((x.tolist(), z.tolist()))
        return batches[len(offered) - 1]

    sol, n_solves = resolve(solve_once, model, 60.0, hook)
    assert (sol.status, sol.objective, sol.bound) == (master.OPTIMAL, 4.0, 4.0)
    assert sol.x is not None and (n_solves, sol.n_nodes) == (2, 5)
    assert offered == [([[1], [1]], [1, 1, 1])] * 2
    assert [m for m, _ in calls] == [model, model]
    assert 0.0 < calls[1][1] <= calls[0][1] <= 60.0


def test_resolve_stops_on_the_budget_after_a_cut_batch():
    # the cut batch leaves no budget: no candidate, the first solve's bound
    solve_once, calls = scripted_solves(
        one_solution(master.OPTIMAL, 5.0, 9.0, n_nodes=4),
        one_solution(master.OPTIMAL, 4.0, 4.0))
    sol, n_solves = resolve(solve_once, object(), 0.0, lambda x, z: ["cut"])
    assert sol.status == master.LIMIT
    assert sol.x is None and sol.z is None and sol.objective is None
    assert sol.bound == 9.0 and (n_solves, sol.n_nodes) == (1, 4)
    assert len(calls) == 1


def test_resolve_without_a_hook_solves_once():
    solve_once, calls = scripted_solves(one_solution(master.LIMIT, 5.0, None))
    sol, n_solves = resolve(solve_once, object())
    assert (sol.status, sol.objective, sol.bound) == (master.LIMIT, 5.0, None)
    assert n_solves == 1 and [b for _, b in calls] == [None]


def test_resolve_offers_the_hook_no_empty_solution():
    solve_once, _ = scripted_solves(master.BackendSolution(status=master.INFEASIBLE))
    sol, n_solves = resolve(solve_once, object(), 60.0, lambda x, z: pytest.fail())
    assert sol.status == master.INFEASIBLE and n_solves == 1


@st.composite
def tiny_master(draw):
    """A random model small enough for ``brute_master`` to enumerate every
    binary vector (n * M + S <= 11), with a random NOGOOD/IIS/Benders pool."""
    machines = draw(st.integers(1, 3))
    n = draw(st.integers(2, (10 - 1) // machines))
    n_sc = draw(st.integers(1, 11 - n * machines))
    inst = make_instance(GenConfig(
        dataset_kind=draw(st.sampled_from(["ors", "vrp", "equal"])),
        n_jobs=n, n_machines=machines, n_scenarios=n_sc,
        dif=draw(st.sampled_from([-4.0, -2.0, 0.0, 2.0])),
        seed=draw(st.integers(0, 10**6)), capacity=draw(st.integers(1, n)),
        epsilon=draw(st.sampled_from([0.05, 0.3, 0.5])),
    ))
    model = build_master(inst, symmetry=draw(st.booleans()),
                         scenario_relaxation=draw(st.booleans()))
    big_m = compute_big_m(inst.scenarios, inst.capacity).max()
    jobs = st.frozensets(st.integers(1, n), min_size=1)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([NOGOOD, IIS, BENDERS]))
        w = draw(st.integers(0, n_sc - 1))
        payload = None
        if kind == BENDERS:
            # const <= T and coefficients <= M / B keep the row slack at z = 0
            unit = st.floats(0.0, 1.0)
            payload = (
                draw(unit) * inst.time_limit,
                np.array([draw(unit) for _ in range(n)])
                * big_m / inst.capacity,
            )
        model.cuts.append(Cut(jobs=jobs_mask(draw(jobs)), scenario=w, kind=kind,
                              benders_payload=payload))
    return model


def successor_example() -> master.MasterModel:
    """One machine of capacity 5 (7 jobs, 4 scenarios, one may fail) where
    the own-successor rows bind: the exhaustive optimum is 40 with them and
    43 without."""
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=7, n_machines=1,
                                   n_scenarios=4, dif=-4.0, seed=3, capacity=5,
                                   epsilon=0.3))
    return build_master(inst)


@settings(max_examples=60, deadline=None)
@given(tiny_master())
@example(successor_example())
def test_builtin_reaches_exhaustive_optimum(model):
    got = solve_master(model)
    assert got.status == master.OPTIMAL
    assert got.objective == pytest.approx(brute_master(model), abs=1e-6)
    assert check_rows(model, got.x, got.z) == []


@st.composite
def hooked_master(draw):
    """A ``tiny_master`` with up to four more IIS cuts, and the job-set cuts
    of its pool that the search may learn only from the hook."""
    model = draw(tiny_master())
    inst = model.inst
    for _ in range(draw(st.integers(0, 4))):
        model.cuts.append(Cut(
            jobs=jobs_mask(draw(
                st.frozensets(st.integers(1, inst.n_jobs), min_size=1))),
            scenario=draw(st.integers(0, inst.n_scenarios - 1)), kind=IIS,
        ))
    job_cuts = [c for c in model.cuts if c.kind != BENDERS]
    hide = draw(st.lists(st.booleans(), min_size=len(job_cuts),
                         max_size=len(job_cuts)))
    return model, [c for c, h in zip(job_cuts, hide) if h]


def hooked_successor_example():
    """``successor_example`` with one IIS cut that only the hook knows."""
    model = successor_example()
    model.cuts.append(Cut(jobs=jobs_mask({1, 2}), scenario=2, kind=IIS))
    return model, list(model.cuts)


@settings(max_examples=60, deadline=None)
@given(hooked_master())
@example(hooked_successor_example())
def test_hook_cuts_reach_the_search_bits_exactly(case):
    # some job-set cuts of the pool reach the search only through the hook,
    # which returns exactly those (x, z) violates.  Job-set cuts have no
    # leaf check: at every hook call, no cut the search holds may be covered
    # by a machine of x while its flag is set, and z must be the maximal z
    # of the rows the search holds (relaxation rows, the pool, the hidden
    # cuts returned so far), also when the job-set memos are emptied every
    # few entries
    model, hidden = case
    inst = model.inst
    ref = brute_master(model)
    shown = [c for c in model.cuts if c.kind == BENDERS or c not in hidden]

    def violated(cuts, x, z):
        return [c for c in cuts if z[c.scenario]
                and (x[sorted(j - 1 for j in mask_jobs(c.jobs))] == 1).all(axis=0).any()]

    for memo_max in (master.FAIL_MEMO_MAX, 4):
        partial = build_master(inst, symmetry=model.symmetry,
                               scenario_relaxation=model.scenario_relaxation)
        partial.cuts.extend(shown)
        held = [c for c in shown if c.kind != BENDERS]
        rows = build_master(inst, symmetry=model.symmetry,
                            scenario_relaxation=model.scenario_relaxation)
        rows.cuts.extend(shown)

        def hook(x, z):
            assert violated(held, x, z) == []
            assert z.tolist() == maximal_z(rows, x)[0].tolist()
            found = violated(hidden, x, z)
            held.extend(found)
            rows.cuts.extend(found)
            return found

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(master, "FAIL_MEMO_MAX", memo_max)
            got = solve_master(partial, hook=hook)
        assert got.status == master.OPTIMAL
        assert got.objective == pytest.approx(ref, abs=1e-6)
        assert check_rows(model, got.x, got.z) == []


def maximal_z(model, x, rows=None):
    """The maximal z for x, by substitution: a scenario drops exactly when
    one of its relaxation, successor or cut rows is violated at z = 1.
    Also returns the rows violated at z = 1."""
    z = np.ones(model.inst.n_scenarios, dtype=np.int8)
    violated = check_rows(model, x, z, rows=rows)
    for v in violated:
        if v.startswith(("relax_", "succ_")):
            z[int(v.split("_")[1])] = 0
        elif v.startswith("cut_"):
            z[model.cuts[int(v.split("_")[1])].scenario] = 0
    return z, violated


def brute_over_assignments(model):
    """Best objective over every assignment respecting the assignment,
    capacity and symmetry rows, with z maximal: ``brute_master`` for
    models with too many binaries to enumerate them all."""
    from itertools import product

    inst = model.inst
    n, M = inst.n_jobs, inst.n_machines
    rows = list(iter_rows(model))
    best = None
    for choice in product(range(M + 1), repeat=n):
        x = np.zeros((n, M), dtype=np.int8)
        for j, c in enumerate(choice):
            if c:
                x[j, c - 1] = 1
        z, violated = maximal_z(model, x, rows)
        if any(v.startswith(("cap", "sym")) for v in violated):
            continue
        if check_rows(model, x, z, rows=rows):
            continue
        obj = float(inst.utilities @ x.sum(axis=1))
        best = obj if best is None else max(best, obj)
    return best


@pytest.mark.parametrize("size", range(1, netflow.MDD_MAX_JOBS + 1))
def test_flow_lhs_is_bitwise_the_per_row_sum(size):
    # numpy adds 8 or more terms of one array in another order than a row
    # reduction of a 2-D array; the block must give each row's own sum
    rng = np.random.default_rng(7000 + size)
    n = netflow.MDD_MAX_JOBS
    for _ in range(40):
        rows = int(rng.integers(1, 40))
        coef = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
        coef[rng.random((rows, n)) < 0.3] = 0.0
        const = rng.standard_normal(rows) * 100.0
        jobs = np.sort(rng.choice(n, size, replace=False)).tolist()
        want = np.array([const[i] + coef[i][jobs].sum() for i in range(rows)])
        assert master.flow_lhs(const, coef, jobs).tobytes() == want.tobytes()


def test_builtin_with_a_pool_of_flow_rows_matches_brute_force():
    # 32 flow cuts of failing columns and no relaxation rows, on one machine
    # that can take all 9 jobs: the flow rows reject leaves of 8 and 9 jobs
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=9, n_machines=1,
                                   n_scenarios=4, dif=-20.0, seed=5, capacity=9,
                                   epsilon=0.05))
    model = build_master(inst, scenario_relaxation=False)
    ctx = netflow.FlowContext(inst)
    rng = np.random.default_rng(17)
    exec_, setup = inst.scenario_stack
    while len(model.cuts) < 32:
        x = (rng.random(inst.n_jobs) < 0.9).astype(np.int8)
        w = int(rng.integers(inst.n_scenarios))
        t, d = exec_[:, [w]], setup[:, :, [w]]
        if netflow.extract_duals(x, t, d)[0].pi_root > inst.time_limit:
            model.cuts += ctx.cut_for(inst, x, [w], jobs_mask(np.flatnonzero(x) + 1))
    sol = solve_master(model)
    assert sol.status == master.OPTIMAL
    assert sol.objective < inst.utilities.sum()
    assert sol.objective == pytest.approx(brute_over_assignments(model))
    assert check_rows(model, sol.x, sol.z) == []


def test_builtin_beyond_64_scenarios():
    # failures that only scenarios 64..99 see must still count against the
    # chance row, so the scenario bitmask cannot be a 64-bit word
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=5, n_machines=2,
                                   n_scenarios=100, dif=-2.0, seed=3,
                                   capacity=3, epsilon=0.1))
    model = build_master(inst)
    for w in range(64, 100):
        pair = jobs_mask({w % 5 + 1, (w + 2) % 5 + 1})
        model.cuts.append(Cut(jobs=pair, scenario=w, kind=NOGOOD))
    sol = solve_master(model)
    assert sol.status == master.OPTIMAL
    assert check_rows(model, sol.x, sol.z) == []
    assert sol.z[64:].sum() < 36  # some high scenario had to drop
    assert sol.objective == pytest.approx(brute_over_assignments(model))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ors", "vrp", "equal"]), st.integers(1, 14),
       st.integers(1, 6), st.integers(-6, 6), st.data())
def test_successor_bound_never_exceeds_the_optimal_schedule(kind, n, n_sc, exp, data):
    # every schedule of exactly a set pays each job's time and one outgoing
    # setup, closing included, so the bound, rounding margin included, may
    # prove no scenario over the set's Held-Karp time, at any magnitude
    base = make_instance(GenConfig(
        dataset_kind=kind, n_jobs=n, n_machines=1, n_scenarios=n_sc, dif=0.0,
        seed=data.draw(st.integers(0, 10**6)), capacity=n))
    scale = 10.0 ** exp
    inst = Instance(
        n_jobs=n, n_machines=1, capacity=n, time_limit=base.time_limit * scale,
        epsilon=base.epsilon, utilities=base.utilities,
        scenarios=[Scenario(exec=sc.exec * scale, setup=sc.setup * scale)
                   for sc in base.scenarios])
    jobs = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=12)))
    fastest = held_karp_min_times(jobs, inst.scenarios)
    cost = master.successor_costs(inst)
    assert not master.successor_over(cost, [j - 1 for j in jobs], fastest).any()

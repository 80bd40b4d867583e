import ast
import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccpmsp import oracle
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import (
    TOL,
    Candidate,
    Instance,
    LimitExceeded,
    Scenario,
    StructuralError,
    candidate_objective,
    chance_satisfied,
)
from ccpmsp.oracle import held_karp_min_times, machine_witness_times, verify_candidate
from conftest import B10_CONFIG, overloaded_b10_x, random_scenario
from oracle_reference import (
    OracleLimits,
    brute_iis,
    brute_min_time,
    brute_optimal,
    loop_held_karp,
    per_machine_verify,
    per_machine_walks,
    per_machine_witness,
)


def test_min_time_worked_example(uniform_scenario):
    assert brute_min_time([1, 2, 3], uniform_scenario, True) == pytest.approx(14.0)
    assert brute_min_time([1, 3], uniform_scenario, False) == pytest.approx(6.0)
    assert brute_min_time([], uniform_scenario, True) == 0.0


def test_min_time_respects_limit():
    sc = random_scenario(np.random.default_rng(0), 9)
    with pytest.raises(LimitExceeded):
        brute_min_time(range(1, 10), sc, True)
    brute_min_time(range(1, 10), sc, True, OracleLimits(max_seq_jobs=9))


@pytest.mark.parametrize("seed", range(10))
def test_min_time_monotone_under_inclusion(seed):
    # triangle inequality means adding a job cannot shrink the open time
    rng = np.random.default_rng(seed)
    n = 7
    sc = random_scenario(rng, n)
    jobs = sorted(rng.choice(np.arange(1, n + 1), size=5, replace=False).tolist())
    t_small = brute_min_time(jobs[:-1], sc, False)
    t_big = brute_min_time(jobs, sc, False)
    assert t_big >= t_small - 1e-9


def test_iis_worked_example(uniform_scenario):
    got = brute_iis([1, 2, 3], uniform_scenario, 5.0)
    assert sorted(got, key=sorted) == [frozenset({1, 3}), frozenset({2})]
    assert brute_iis([1, 2, 3], uniform_scenario, 14.0) == []


@pytest.mark.parametrize("seed", range(8))
def test_iis_antichain(seed):
    rng = np.random.default_rng(40 + seed)
    n = int(rng.integers(2, 7))
    sc = random_scenario(rng, n)
    limit = 0.6 * brute_min_time(range(1, n + 1), sc, True)
    sets = brute_iis(range(1, n + 1), sc, limit)
    for a in sets:
        for b in sets:
            if a is not b:
                assert not a <= b


def test_optimal_when_everything_fits():
    inst = make_instance(
        GenConfig(dataset_kind="ors", n_jobs=6, n_machines=2, n_scenarios=4,
                  dif=40.0, seed=3)
    )
    cand, obj = brute_optimal(inst)
    assert obj == pytest.approx(float(inst.utilities.sum()))
    assert cand.x.sum() == inst.n_jobs


def test_optimal_candidate_is_feasible_and_chance_satisfied():
    inst = make_instance(
        GenConfig(dataset_kind="equal", n_jobs=6, n_machines=2, n_scenarios=5,
                  dif=-3.0, seed=8)
    )
    cand, obj = brute_optimal(inst)
    assert verify_candidate(inst, cand) == []
    assert chance_satisfied(inst, cand.z)
    assert candidate_objective(inst, cand) == pytest.approx(obj)


def test_optimal_single_machine_uniform_example(uniform_scenario):
    # f = t = (2,6,3), T = 5, one machine, one scenario: job 2 never fits
    # (6 + closing 1), {1,3} together need 7, so {3} alone wins with value 3
    from ccpmsp.model import Instance

    inst = Instance(
        n_jobs=3, n_machines=1, capacity=3, time_limit=5.0, epsilon=0.4,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario],
    )
    cand, obj = brute_optimal(inst)
    assert obj == pytest.approx(3.0)
    assert cand.machine_jobs(0).tolist() == [3]


def test_optimal_enum_guard():
    inst = make_instance(
        GenConfig(dataset_kind="ors", n_jobs=9, n_machines=3, n_scenarios=2, seed=1)
    )
    with pytest.raises(LimitExceeded):
        brute_optimal(inst)


def test_verify_reports_specific_violations(uniform_scenario):
    from ccpmsp.model import Candidate, Instance

    inst = Instance(
        n_jobs=3, n_machines=2, capacity=3, time_limit=5.0, epsilon=0.4,
        utilities=np.array([2.0, 6.0, 3.0]), scenarios=[uniform_scenario],
    )
    # job 2 alone exceeds T = 5, so claiming the scenario is a violation
    x = np.zeros((3, 2), dtype=np.int8)
    x[1, 0] = 1
    problems = verify_candidate(inst, Candidate(x=x, z=np.array([1])))
    assert any("machine 0" in p and "scenario 0" in p for p in problems)
    # capacity and double-assignment are caught too
    x2 = np.ones((3, 2), dtype=np.int8)
    problems = verify_candidate(
        inst, Candidate(x=x2, z=np.array([0]))
    )
    assert any("several machines" in p for p in problems)
    assert any("chance constraint" in p for p in problems)


def asymmetric_scenario(rng, n):
    """A random scenario whose setups differ by direction."""
    sym = random_scenario(rng, n)
    setup = sym.setup + rng.uniform(0.0, 2.0, size=sym.setup.shape)
    np.fill_diagonal(setup, 0.0)
    return Scenario(exec=sym.exec, setup=setup)


@st.composite
def sequencing_case(draw):
    """2-3 random scenarios over n <= 9 jobs, with asymmetric setup times so
    that the direction of every setup matters, and a subset of at most 8 of
    the jobs (possibly empty)."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenarios = [asymmetric_scenario(rng, n)
                 for _ in range(draw(st.integers(2, 3)))]
    jobs = draw(st.lists(st.integers(1, n), unique=True, max_size=min(n, 8)))
    return jobs, scenarios


@settings(max_examples=60, deadline=None)
@given(sequencing_case(), st.booleans())
def test_held_karp_matches_brute_force(case, include_closing):
    jobs, scenarios = case
    got = held_karp_min_times(jobs, scenarios, include_closing)
    want = [brute_min_time(jobs, sc, include_closing) for sc in scenarios]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_held_karp_worked_example_and_edges(uniform_scenario):
    assert held_karp_min_times([1, 2, 3], [uniform_scenario]).tolist() == [14.0]
    assert held_karp_min_times([3, 1], [uniform_scenario], False).tolist() == [6.0]
    assert held_karp_min_times([], [uniform_scenario] * 2).tolist() == [0.0, 0.0]
    assert held_karp_min_times([1, 2], []).shape == (0,)
    for bad in ([1, 1], [0, 2], [4]):
        with pytest.raises(StructuralError):
            held_karp_min_times(bad, [uniform_scenario])


def test_held_karp_scenario_chunks_agree():
    # at k = 10, 30 scenarios span several chunks and the middle layers
    # several blocks; each scenario's result must not depend on its chunk
    rng = np.random.default_rng(7)
    scenarios = [random_scenario(rng, 11) for _ in range(30)]
    jobs = list(range(2, 12))
    per_chunk = oracle.HK_CHUNK_CELLS // ((1 << 10) * 10)
    assert 1 < per_chunk < len(scenarios)
    assert any(oracle.HK_CHUNK_CELLS // (2 * per_chunk * len(members) * len(absent))
               < len(sets) for sets, members, absent, _ in oracle._hk_plan(10))
    together = held_karp_min_times(jobs, scenarios)
    alone = [held_karp_min_times(jobs, [sc])[0] for sc in scenarios]
    assert together.tolist() == alone


@pytest.mark.parametrize("k", range(1, 11))
def test_held_karp_is_the_plain_loop_bitwise(k):
    rng = np.random.default_rng(100 + k)
    for n_scenarios in range(1, 5):
        scenarios = [asymmetric_scenario(rng, k + 2) for _ in range(n_scenarios)]
        jobs = sorted(rng.choice(np.arange(1, k + 3), size=k, replace=False).tolist())
        for include_closing in (True, False):
            got = held_karp_min_times(jobs, scenarios, include_closing)
            want = loop_held_karp(jobs, scenarios, include_closing)
            assert got.tobytes() == want.tobytes()


def test_held_karp_in_small_chunks_and_blocks_is_the_plain_loop(monkeypatch):
    # with 64 cells every scenario is a chunk of its own and the wide
    # layers split into several blocks
    monkeypatch.setattr(oracle, "HK_CHUNK_CELLS", 64)
    rng = np.random.default_rng(17)
    for k in range(1, 9):
        if k >= 5:
            assert any(len(sets) > 64 // (2 * len(members) * len(absent))
                       for sets, members, absent, _ in oracle._hk_plan(k))
        scenarios = [asymmetric_scenario(rng, k + 1) for _ in range(3)]
        jobs = list(range(2, k + 2))
        for include_closing in (True, False):
            got = held_karp_min_times(jobs, scenarios, include_closing)
            want = loop_held_karp(jobs, scenarios, include_closing)
            assert got.tobytes() == want.tobytes()


def test_held_karp_plan_stays_small():
    # each layer lists every predecessor set once, with its members and
    # the jobs it lacks: (1.5 k + 1) 2^k int32 entries or so, no k^2 2^k
    for k in range(1, 13):
        plan = oracle._hk_plan(k)
        entries = sum(a.size for layer in plan for a in layer)
        assert entries <= (1.5 * k + 1) * (1 << k)
        assert all(a.dtype == np.int32 and not a.flags.writeable
                   for layer in plan for a in layer)


def test_held_karp_shares_no_code_with_the_diagrams():
    tree = ast.parse(inspect.getsource(oracle))
    package_imports = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert package_imports == {"model"}
    assert "ccpmsp" not in inspect.getsource(oracle)


def test_verify_reports_sequencing_violation_at_b10():
    inst = make_instance(B10_CONFIG)
    assert inst.capacity == 10
    cand = Candidate(x=overloaded_b10_x(inst),
                     z=np.ones(inst.n_scenarios, dtype=np.int8))
    problems = verify_candidate(inst, cand)
    assert any(p.startswith("machine 0 infeasible in scenario 0") for p in problems)
    assert all("infeasible in scenario" in p for p in problems)


def one_machine(jobs, scenarios):
    """An instance over ``scenarios`` and a candidate that puts ``jobs`` on
    its one machine and claims every scenario."""
    n = scenarios[0].n_jobs
    inst = Instance(n_jobs=n, n_machines=1, capacity=max(1, len(jobs)),
                    time_limit=1.0, epsilon=0.5, utilities=np.ones(n),
                    scenarios=scenarios)
    x = np.zeros((n, 1))
    x[np.asarray(jobs, dtype=np.intp) - 1, 0] = 1
    return inst, Candidate(x=x, z=np.ones(len(scenarios)))


def every_start(inst):
    """``inst`` at T = -inf, where no first walk fits, so that
    ``machine_witness_times`` gives every column its best over all starts."""
    return replace(inst, time_limit=-np.inf)


def witness_times(jobs, scenarios):
    """``machine_witness_times`` of ``jobs`` on one machine, every start
    walked, in each of ``scenarios``."""
    inst, cand = one_machine(jobs, scenarios)
    return machine_witness_times(every_start(inst), cand, np.arange(len(scenarios)))[0]


def running_sum(perm, sc):
    """``brute_min_time``'s sum for one permutation, closing setup included."""
    t, d = sc.exec, sc.setup
    total = t[perm[0] - 1]
    for prev, cur in zip(perm, perm[1:]):
        total += d[prev, cur] + t[cur - 1]
    return total + d[perm[-1], 0]


def nearest_neighbour_orders(jobs, sc):
    """Plain-Python witness rule: from every start, the unvisited job of
    least setup, the lowest id on ties."""
    for first in jobs:
        order = [first]
        while len(order) < len(jobs):
            left = [j for j in jobs if j not in order]
            order.append(min(left, key=lambda j: (sc.setup[order[-1], j], j)))
        yield order


@settings(max_examples=40, deadline=None)
@given(sequencing_case(), st.integers(0, 2))
def test_witness_time_is_the_brute_force_sum_of_its_order(case, ties):
    jobs, scenarios = case
    if ties:  # integer setups, so nearest-neighbour steps tie often
        scenarios = [Scenario(exec=sc.exec, setup=np.round(sc.setup * ties))
                     for sc in scenarios]
    orders, times = per_machine_witness(jobs, scenarios)
    assert orders.shape == (len(scenarios), len(jobs))
    assert times.shape == (len(scenarios),)
    assert witness_times(jobs, scenarios).tobytes() == times.tobytes()
    for order, time, sc in zip(orders.tolist(), times, scenarios):
        if not jobs:
            assert time == 0.0
            continue
        assert sorted(order) == sorted(jobs)
        assert time == running_sum(order, sc)  # bitwise
        assert time == min(running_sum(o, sc)
                           for o in nearest_neighbour_orders(sorted(jobs), sc))
        assert time >= brute_min_time(jobs, sc, True) - 1e-9


def test_witness_time_equals_brute_force_on_a_forced_chain():
    # setups are cheap only along 2 -> 3 -> ... -> 8 -> 1, so that chain is
    # both the witness and the brute-force optimum, summed in one order
    rng = np.random.default_rng(11)
    n = 8
    setup = 50.0 + rng.uniform(0.0, 1.0, size=(n + 1, n + 1))
    chain = [2, 3, 4, 5, 6, 7, 8, 1]
    for a, b in zip(chain, chain[1:] + [0]):
        setup[a, b] = rng.uniform(0.0, 0.1)
    np.fill_diagonal(setup, 0.0)
    sc = Scenario(exec=rng.uniform(0.1, 1.0, size=n), setup=setup)
    orders, times = per_machine_witness(range(1, n + 1), [sc])
    assert orders[0].tolist() == chain
    assert times[0] == brute_min_time(range(1, n + 1), sc, True)
    assert witness_times(range(1, n + 1), [sc]).tolist() == times.tolist()


def trap_instance(time_limit):
    """Jobs 1-3 on one machine, two scenarios.  In scenario 0 every
    nearest-neighbour order (1-2-3, 2-3-1, 3-2-1) takes at least 14, while
    1-3-2 takes 8; in scenario 1 (all setups 1) every order takes 6."""
    trap = np.array([[0, 1, 1, 1],
                     [9, 0, 1, 2],
                     [1, 5, 0, 1],
                     [9, 3, 2, 0]], dtype=float)
    flat = np.ones((4, 4))
    np.fill_diagonal(flat, 0.0)
    return Instance(
        n_jobs=3, n_machines=1, capacity=3, time_limit=time_limit,
        epsilon=0.4, utilities=np.ones(3),
        scenarios=[Scenario(exec=np.ones(3), setup=trap),
                   Scenario(exec=np.ones(3), setup=flat)],
    )


@pytest.fixture
def held_karp_spy(monkeypatch):
    calls = []

    def spy(jobs, scenarios, *args):
        calls.append((np.asarray(jobs).tolist(), list(scenarios)))
        return held_karp_min_times(jobs, scenarios, *args)

    monkeypatch.setattr(oracle, "held_karp_min_times", spy)
    return calls


def test_verify_falls_back_to_held_karp_where_no_witness_fits(held_karp_spy):
    inst = trap_instance(8.0)
    trap = inst.scenarios[0]
    assert witness_times([1, 2, 3], inst.scenarios).tolist() == [14.0, 6.0]
    assert brute_min_time([1, 2, 3], trap, True) == 8.0
    cand = Candidate(x=np.ones((3, 1)), z=np.ones(2))
    assert verify_candidate(inst, cand) == []
    assert len(held_karp_spy) == 1
    jobs, scenarios = held_karp_spy[0]
    assert jobs == [1, 2, 3] and scenarios == [trap]

    held_karp_spy.clear()
    assert verify_candidate(trap_instance(7.5), cand) == [
        "machine 0 infeasible in scenario 0: min time 8.000000 > T = 7.5"
    ]
    assert len(held_karp_spy) == 1


def test_verify_skips_held_karp_when_every_witness_fits(held_karp_spy):
    from ccpmsp.decomposition import SolveOptions, solve_ccpmsp

    inst = make_instance(GenConfig(dataset_kind="equal", n_jobs=24, n_machines=2,
                                   n_scenarios=20, dif=-3.5, seed=516))
    cand, report = solve_ccpmsp(inst)
    held_karp_spy.clear()
    assert report.objective == 139
    assert all(len(cand.machine_jobs(m)) == 12 for m in range(2))
    assert verify_candidate(inst, cand) == []
    assert held_karp_spy == []


def test_witness_scenario_chunks_agree():
    # at k = 10, the 4000 walkers of 400 scenarios span two chunks; each
    # scenario's witness must not depend on its chunk
    rng = np.random.default_rng(5)
    scenarios = [asymmetric_scenario(rng, 11) for _ in range(400)]
    jobs = list(range(2, 12))
    per_chunk = oracle.HK_CHUNK_CELLS // 10
    assert len(scenarios) < per_chunk < 10 * len(scenarios)
    times = witness_times(jobs, scenarios)
    assert times.tobytes() == per_machine_witness(jobs, scenarios)[1].tobytes()
    for w, sc in enumerate(scenarios[::7]):
        assert times[7 * w] == witness_times(jobs, [sc])[0]


def test_witness_edges(uniform_scenario, held_karp_spy):
    inst, cand = one_machine([1, 2], [uniform_scenario])
    assert machine_witness_times(inst, cand, []).shape == (1, 0)
    assert witness_times([], [uniform_scenario]).tolist() == [0.0]
    orders, times = per_machine_witness([], [uniform_scenario])
    assert orders.shape == (1, 0) and times.tolist() == [0.0]
    # one job: its time plus the closing setup
    orders, times = per_machine_witness([2], [uniform_scenario])
    assert orders.tolist() == [[2]] and times.tolist() == [7.0]
    assert witness_times([2], [uniform_scenario]).tolist() == [7.0]

    inst = Instance(
        n_jobs=3, n_machines=2, capacity=3, time_limit=5.0, epsilon=1.0,
        utilities=np.ones(3), scenarios=[uniform_scenario] * 2,
    )
    # job 3 alone takes 4 and fits; job 2 alone takes 7 and does not
    x = np.zeros((3, 2))
    x[2, 0] = 1
    assert verify_candidate(inst, Candidate(x=x, z=[1, 1])) == []
    assert held_karp_spy == []
    x[1, 1] = 1
    assert verify_candidate(inst, Candidate(x=x, z=[1, 0])) == [
        "machine 1 infeasible in scenario 0: min time 7.000000 > T = 5.0"
    ]
    assert [jobs for jobs, _ in held_karp_spy] == [[2]]
    # no claimed scenario: nothing to sequence, only the chance constraint
    held_karp_spy.clear()
    assert verify_candidate(inst, Candidate(x=x, z=[0, 0])) == []
    strict = Instance(
        n_jobs=3, n_machines=2, capacity=3, time_limit=5.0, epsilon=0.4,
        utilities=np.ones(3), scenarios=[uniform_scenario] * 2,
    )
    assert verify_candidate(strict, Candidate(x=x, z=[0, 0])) == [
        "chance constraint violated"
    ]
    assert held_karp_spy == []


def test_verify_rejects_entries_outside_zero_one():
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=10, n_machines=2,
                                   n_scenarios=10, dif=-1.0, seed=504))
    x = np.zeros((10, 2))
    x[:3, 0] = 1
    assert verify_candidate(inst, Candidate(x=x, z=[1] * 10)) == []
    doubled = Candidate(x=x, z=[2] * 5 + [0] * 5)
    assert verify_candidate(inst, doubled) == ["z has entries outside {0, 1}"]
    negative = x.copy()
    negative[5, 1] = -1
    assert verify_candidate(inst, Candidate(x=negative, z=[1] * 10)) == [
        "x has entries outside {0, 1}"
    ]
    assert verify_candidate(inst, Candidate(x=x, z=[1] * 9)) == [
        "z shape (9,) does not match the instance"
    ]
    assert verify_candidate(inst, Candidate(x=x[:, :1], z=[1] * 9)) == [
        "x shape (10, 1) does not match the instance",
        "z shape (9,) does not match the instance",
    ]


def random_verify_case(seed, scale):
    """A random instance with 1-3 machines and 1-4 asymmetric scenarios, a
    candidate assigning up to 10 jobs per machine, and T at ``scale`` times
    the median exact minimum of its (machine, scenario) pairs."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m, 13))
    scenarios = [asymmetric_scenario(rng, n) for _ in range(rng.integers(1, 5))]
    choice = rng.integers(-1, m, size=n)  # -1 leaves the job unassigned
    loads = np.bincount(choice[choice >= 0], minlength=m)
    while loads.max() > 10:
        choice[np.flatnonzero(choice == loads.argmax())[0]] = -1
        loads = np.bincount(choice[choice >= 0], minlength=m)
    x = np.zeros((n, m))
    x[choice >= 0, choice[choice >= 0]] = 1
    z = rng.integers(0, 2, size=len(scenarios))
    minima = [held_karp_min_times(np.flatnonzero(x[:, k]) + 1, scenarios)
              for k in range(m) if x[:, k].any()]
    limit = scale * float(np.median(minima)) if minima else 1.0
    inst = Instance(
        n_jobs=n, n_machines=m, capacity=max(1, int(loads.max())),
        time_limit=limit, epsilon=0.5, utilities=np.ones(n),
        scenarios=scenarios,
    )
    return inst, Candidate(x=x, z=z)


def held_karp_only_violations(inst, cand):
    """The sequencing check timed by Held-Karp alone, on every claimed pair."""
    problems = [] if chance_satisfied(inst, cand.z) else ["chance constraint violated"]
    active = np.flatnonzero(cand.z)
    for m in range(inst.n_machines):
        jobs = cand.machine_jobs(m)
        if len(jobs) == 0:
            continue
        times = held_karp_min_times(jobs, [inst.scenarios[w] for w in active])
        problems += [
            f"machine {m} infeasible in scenario {w}: "
            f"min time {t:.6f} > T = {inst.time_limit}"
            for w, t in zip(active, times) if t > inst.time_limit + TOL
        ]
    return problems


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.7, 1.3))
def test_verify_matches_held_karp_alone(seed, scale):
    inst, cand = random_verify_case(seed, scale)
    assert verify_candidate(inst, cand) == held_karp_only_violations(inst, cand)


def test_random_verify_cases_cover_every_kind_of_pair():
    # the property above sees pairs a witness proves, pairs only Held-Karp
    # proves, and infeasible pairs
    kinds = set()
    for seed in range(30):
        inst, cand = random_verify_case(seed, 0.7 + 0.6 * seed / 29)
        limit = inst.time_limit + TOL
        for m in range(inst.n_machines):
            jobs = cand.machine_jobs(m)
            if len(jobs) == 0:
                continue
            _, witness = per_machine_witness(jobs, inst.scenarios)
            exact = held_karp_min_times(jobs, inst.scenarios)
            kinds.update(np.where(witness <= limit, "witness",
                                  np.where(exact <= limit, "held-karp",
                                           "infeasible")).tolist())
    assert kinds == {"witness", "held-karp", "infeasible"}


def batched_verify_case(seed, scale, nan):
    """A random instance with 2-5 machines of 0-7 jobs each, so sizes mix
    and repeat and some machines stay empty; 1-4 asymmetric scenarios, of
    which any subset is claimed, none included; and T at ``scale`` times
    the median finite exact minimum of the (machine, scenario) pairs.  With
    ``nan``, one scenario carries a NaN execution and setup time."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    sizes = rng.integers(0, 8, size=m)
    n = int(sizes.sum()) + int(rng.integers(1, 4))
    order = rng.permutation(n)
    x = np.zeros((n, m))
    for k, held in enumerate(np.split(order, np.cumsum(sizes))[:m]):
        x[held, k] = 1
    scenarios = [asymmetric_scenario(rng, n) for _ in range(rng.integers(1, 5))]
    if nan:
        w = int(rng.integers(len(scenarios)))
        exec_, setup = scenarios[w].exec.copy(), scenarios[w].setup.copy()
        exec_[rng.integers(n)] = np.nan
        setup[rng.integers(n + 1), rng.integers(n + 1)] = np.nan
        scenarios[w] = Scenario(exec=exec_, setup=setup)
    minima = np.concatenate([
        held_karp_min_times(np.flatnonzero(x[:, k]) + 1, scenarios)
        for k in range(m) if x[:, k].any()] or [[]])
    minima = minima[np.isfinite(minima)]
    inst = Instance(
        n_jobs=n, n_machines=m, capacity=max(1, int(sizes.max())),
        time_limit=scale * float(np.median(minima)) if len(minima) else 1.0,
        epsilon=0.5, utilities=np.ones(n), scenarios=scenarios,
    )
    return inst, Candidate(x=x, z=rng.integers(0, 2, size=len(scenarios)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.7, 1.3), st.booleans())
def test_batched_verify_matches_the_per_machine_loop(seed, scale, nan):
    inst, cand = batched_verify_case(seed, scale, nan)
    assert verify_candidate(inst, cand) == per_machine_verify(inst, cand)


def test_nan_self_setup_is_never_read(uniform_scenario):
    # no schedule reads d[j, j], and Held-Karp does not either: a NaN there
    # leaves the minimum of {1, 2, 3} at 14, so T = 13 is a violation.  A
    # walker that leaves job 2 does step through it, so the first walk is
    # NaN; the witness is the walk from job 3, which ends at job 2
    setup = uniform_scenario.setup.copy()
    setup[2, 2] = np.nan
    sc = Scenario(exec=uniform_scenario.exec, setup=setup)
    assert held_karp_min_times([1, 2, 3], [sc]).tolist() == [14.0]
    inst, cand = one_machine([1, 2, 3], [sc])
    _, walks = per_machine_walks([1, 2, 3], [sc])
    assert np.isnan(walks[:2]).all() and walks[2].tolist() == [14.0]
    assert machine_witness_times(inst, cand, [0]).tolist() == [[14.0]]
    for T, problems in ((13.0, ["machine 0 infeasible in scenario 0: "
                                "min time 14.000000 > T = 13.0"]),
                        (14.0, [])):
        tight = replace(inst, time_limit=T)
        assert verify_candidate(tight, cand) == problems
        assert per_machine_verify(tight, cand) == problems


def test_nan_time_on_a_loaded_machine_is_a_violation(uniform_scenario):
    # every schedule of a set holding job 2 reads its NaN time, so neither a
    # witness nor Held-Karp proves the pair, and a verifier reports what it
    # cannot prove; with job 2 unassigned the NaN is never read
    exec_ = uniform_scenario.exec.copy()
    exec_[1] = np.nan
    sc = Scenario(exec=exec_, setup=uniform_scenario.setup)
    inst, cand = one_machine([1, 2, 3], [uniform_scenario, sc])
    inst = replace(inst, time_limit=20.0)
    assert inst.violations  # only a library call reaches it unvalidated
    assert np.isnan(held_karp_min_times([1, 2, 3], [sc])).all()
    want = ["machine 0 infeasible in scenario 1: min time nan > T = 20.0"]
    assert verify_candidate(inst, cand) == want
    assert per_machine_verify(inst, cand) == want
    _, without = one_machine([1, 3], [uniform_scenario, sc])
    assert verify_candidate(inst, without) == []
    assert per_machine_verify(inst, without) == []


def test_a_later_start_that_fits_proves_its_pair_past_a_nan_walk():
    # d[3, 1] is NaN, so the walk from 3, which moves to 1, is NaN.  The
    # first walk, 1 -> 2 -> 3 from the job of largest closing setup, takes
    # 15 > T = 12, but 2 -> 1 -> 3 takes 10 and proves the pair, which
    # Held-Karp (NaN, as the NaN setup reaches every full set) cannot
    setup = np.zeros((4, 4))
    setup[1:, 0] = [5.0, 1.0, 1.0]
    setup[1, 2:] = [1.0, 5.0]
    setup[2, [1, 3]] = [1.0, 10.0]
    setup[3, 1:3] = [np.nan, 5.0]
    sc = Scenario(exec=np.ones(3), setup=setup)
    _, walks = per_machine_walks([1, 2, 3], [sc])
    assert walks[:2, 0].tolist() == [15.0, 10.0] and np.isnan(walks[2, 0])
    assert np.isnan(held_karp_min_times([1, 2, 3], [sc])).all()
    inst, cand = one_machine([1, 2, 3], [sc])
    inst = replace(inst, time_limit=12.0)
    assert machine_witness_times(inst, cand, [0]).tolist() == [[10.0]]
    assert verify_candidate(inst, cand) == []
    assert per_machine_verify(inst, cand) == []
    inst = replace(inst, time_limit=9.0)
    want = ["machine 0 infeasible in scenario 0: min time nan > T = 9.0"]
    assert verify_candidate(inst, cand) == want
    assert per_machine_verify(inst, cand) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_batched_witnesses_are_witness_schedules_bitwise(seed, nan):
    inst, cand = batched_verify_case(seed, 1.0, nan)
    every = np.arange(inst.n_scenarios)
    got = oracle.machine_witness_times(every_start(inst), cand, every)
    assert got.shape == (inst.n_machines, inst.n_scenarios)
    for m in range(inst.n_machines):
        jobs = cand.machine_jobs(m)
        ref_times = per_machine_witness(jobs, inst.scenarios)[1]
        assert got[m].tobytes() == ref_times.tobytes()


def first_walks(jobs, scenarios):
    """Each scenario's walk from the job of largest closing setup (the
    lowest id on ties), and the best of every start, from the reference."""
    _, walks = per_machine_walks(jobs, scenarios)
    first = np.stack([sc.setup[np.asarray(jobs, dtype=np.intp), 0]
                      for sc in scenarios]).argmax(axis=1)
    return walks[first, np.arange(len(scenarios))], per_machine_witness(jobs, scenarios)[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.7, 1.3), st.booleans())
def test_one_walker_first_keeps_the_all_starts_verdict(seed, scale, nan):
    # a column whose first walker fits keeps that walker's time, bitwise;
    # every other column takes the best over all starts, NaN walks skipped,
    # so the verdicts agree everywhere
    inst, cand = batched_verify_case(seed, scale, nan)
    limit = inst.time_limit + TOL
    every = np.arange(inst.n_scenarios)
    got = machine_witness_times(inst, cand, every)
    for m in np.flatnonzero(cand.x.sum(axis=0)):
        first, best = first_walks(cand.machine_jobs(m), inst.scenarios)
        kept = first <= limit
        assert got[m][kept].tobytes() == first[kept].tobytes()
        assert got[m][~kept].tobytes() == best[~kept].tobytes()
        assert np.array_equal(got[m] <= limit, best <= limit)


def tight_limits(inst, cand):
    """Every time a pair of ``cand`` could be decided at: its first walk,
    its best witness and its exact minimum, over the claimed scenarios."""
    claimed = [inst.scenarios[w] for w in np.flatnonzero(cand.z)]
    values = []
    for m in np.flatnonzero(cand.x.sum(axis=0)):
        jobs = cand.machine_jobs(m)
        if claimed:
            values += [*first_walks(jobs, claimed),
                       held_karp_min_times(jobs, claimed)]
    values = np.concatenate(values) if values else np.zeros(0)
    return np.unique(values[np.isfinite(values)])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2**16),
       st.integers(-2, 2))
def test_batched_verify_at_a_tight_limit_matches_the_per_machine_loop(seed, nan, pick, ulps):
    # T + TOL lands on, or a few ulps off, a time that decides a pair, so
    # the first walk, the all-starts walk and Held-Karp each meet a limit
    # they touch
    inst, cand = batched_verify_case(seed, 1.0, nan)
    values = tight_limits(inst, cand)
    if len(values) == 0:
        return
    limit = values[pick % len(values)]
    for _ in range(abs(ulps)):
        limit = np.nextafter(limit, np.sign(ulps) * np.inf)
    tight = replace(inst, time_limit=float(limit) - TOL)
    assert verify_candidate(tight, cand) == per_machine_verify(tight, cand)


def test_tight_limits_split_first_walk_from_all_starts():
    # the property above sees pairs whose first walk fails but whose
    # all-starts witness fits, and pairs Held-Karp decides
    seen = set()
    for seed in range(40):
        inst, cand = batched_verify_case(seed, 1.0, seed % 2)
        for limit in tight_limits(inst, cand):
            tight = replace(inst, time_limit=float(limit) - TOL)
            lim = tight.time_limit + TOL
            for m in np.flatnonzero(cand.x.sum(axis=0)):
                first, best = first_walks(cand.machine_jobs(m), inst.scenarios)
                seen.update(np.where(first <= lim, "first",
                                     np.where(best <= lim, "all starts",
                                              "held-karp")).tolist())
    assert seen == {"first", "all starts", "held-karp"}


def test_batched_verify_cases_cover_every_shape():
    # the properties above see mixed and repeated machine sizes, empty
    # machines, candidates that claim no scenario, NaN times, and pairs a
    # witness proves, pairs only Held-Karp proves and infeasible pairs
    seen = set()
    for seed in range(40):
        inst, cand = batched_verify_case(seed, 0.7 + 0.6 * seed / 39, seed % 2)
        sizes = cand.x.sum(axis=0)
        held = sizes[sizes > 0].tolist()
        flags = {"mixed": len(set(held)) > 1,
                 "repeated": len(set(held)) < len(held),
                 "empty": 0 in sizes, "no claim": not cand.z.any()}
        seen.update(name for name, on in flags.items() if on)
        limit = inst.time_limit + TOL
        for m in np.flatnonzero(sizes):
            jobs = cand.machine_jobs(m)
            _, witness = per_machine_witness(jobs, inst.scenarios)
            exact = held_karp_min_times(jobs, inst.scenarios)
            if np.isnan(witness).any():
                seen.add("nan")
            seen.update(np.where(witness <= limit, "witness",
                                 np.where(exact <= limit, "held-karp",
                                          "infeasible")).tolist())
    assert seen == {"mixed", "repeated", "empty", "no claim", "nan",
                    "witness", "held-karp", "infeasible"}


def test_batched_witness_chunks_split_a_machine():
    # two machines of 10 jobs in 200 scenarios are 400 columns of one
    # group, whose 4000 walkers from every start span two chunks; each
    # time must not depend on its chunk
    rng = np.random.default_rng(9)
    scenarios = [asymmetric_scenario(rng, 20) for _ in range(200)]
    inst = Instance(n_jobs=20, n_machines=2, capacity=10, time_limit=1.0,
                    epsilon=0.5, utilities=np.ones(20), scenarios=scenarios)
    x = np.zeros((20, 2))
    x[rng.permutation(20)[:10], 0] = 1
    x[:, 1] = 1 - x[:, 0]
    per_chunk = oracle.HK_CHUNK_CELLS // 10
    assert 2 * len(scenarios) < per_chunk < 20 * len(scenarios)
    got = oracle.machine_witness_times(every_start(inst), Candidate(x=x, z=np.ones(200)),
                                       np.arange(200))
    for m in range(2):
        want = per_machine_witness(np.flatnonzero(x[:, m]) + 1, scenarios)[1]
        assert got[m].tobytes() == want.tobytes()

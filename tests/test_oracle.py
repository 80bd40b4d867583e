import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccpmsp import oracle
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import (
    Candidate,
    LimitExceeded,
    Scenario,
    StructuralError,
    candidate_objective,
    chance_satisfied,
)
from ccpmsp.oracle import (
    OracleLimits,
    brute_iis,
    brute_min_time,
    brute_optimal,
    held_karp_min_times,
    verify_candidate,
)
from conftest import B10_CONFIG, overloaded_b10_x, random_scenario


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


@st.composite
def sequencing_case(draw):
    """2-3 random scenarios over n <= 9 jobs, with asymmetric setup times so
    that the direction of every setup matters, and a subset of at most 8 of
    the jobs (possibly empty)."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenarios = []
    for _ in range(draw(st.integers(2, 3))):
        sym = random_scenario(rng, n)
        setup = sym.setup + rng.uniform(0.0, 2.0, size=sym.setup.shape)
        np.fill_diagonal(setup, 0.0)
        scenarios.append(Scenario(exec=sym.exec, setup=setup))
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
    widest_layer = max(len(pred) for pred, _ in oracle._hk_plan(10))
    assert oracle.HK_CHUNK_CELLS // (2 * per_chunk * 10) < widest_layer
    together = held_karp_min_times(jobs, scenarios)
    alone = [held_karp_min_times(jobs, [sc])[0] for sc in scenarios]
    assert together.tolist() == alone


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

import numpy as np
import pytest

from ccpmsp import jobset, lastjob, oracle
from ccpmsp.diagram import JOBSET, LASTJOB, build_top_down, canonical_remap
from conftest import random_scenario
from diagram_reference import sub_times


def test_cumulative_costs_worked_example(uniform_scenario):
    remap = canonical_remap([1, 2, 3])
    t, d = sub_times(uniform_scenario, remap)
    diag = build_top_down(JOBSET, 3)
    costs = jobset.arc_costs(diag, t, d)
    root_costs = sorted(costs[np.flatnonzero(diag.arc_tail == diag.root)])
    assert root_costs == [2.0, 3.0, 6.0]
    # both arcs into {1,3} carry min(t1+d13+t3, t3+d31+t1) = 6
    for a in range(diag.n_arcs):
        head = int(diag.arc_head[a])
        if head != diag.terminal and diag.node_mask[head] == 0b101:
            assert costs[a] == pytest.approx(6.0)
    # all terminal arcs accumulate to the full completion time 14
    term = costs[np.flatnonzero(diag.arc_head == diag.terminal)]
    assert np.allclose(term, 14.0)


def test_min_time_matches_lastjob(uniform_scenario):
    remap = canonical_remap([1, 2, 3])
    t, d = sub_times(uniform_scenario, remap)
    js = build_top_down(JOBSET, 3)
    assert jobset.min_time(js, t, d) == pytest.approx(14.0)


def test_iis_worked_example(uniform_scenario):
    remap = canonical_remap([1, 2, 3])
    t, d = sub_times(uniform_scenario, remap)
    diag = build_top_down(JOBSET, 3)
    sets = jobset.iis(diag, 5.0, t, d)
    assert sorted(sets, key=sorted) == [frozenset({1, 3}), frozenset({2})]
    assert jobset.iis(diag, 100.0, t, d) == []


@pytest.mark.parametrize("seed", range(12))
def test_iis_agrees_with_oracle_and_lastjob(seed):
    rng = np.random.default_rng(800 + seed)
    k = int(rng.integers(2, 7))
    sc = random_scenario(rng, k)
    remap = canonical_remap(range(1, k + 1))
    t, d = sub_times(sc, remap)
    js = build_top_down(JOBSET, k)
    lj = build_top_down(LASTJOB, k)
    full = oracle.brute_min_time(range(1, k + 1), sc, True)
    limit = float(rng.uniform(0.3, 1.0) * full)
    got = set(jobset.iis(js, limit, t, d))
    assert got == set(oracle.brute_iis(range(1, k + 1), sc, limit))
    assert got == set(lastjob.iis(lj, limit, t, d))


@pytest.mark.parametrize("seed", range(10))
def test_iis_lists_equal_across_variants(seed):
    # equal lists, order included, not just equal sets
    rng = np.random.default_rng(900 + seed)
    k = int(rng.integers(2, 9))
    sc = random_scenario(rng, k)
    t, d = sub_times(sc, canonical_remap(range(1, k + 1)))
    js = build_top_down(JOBSET, k)
    lj = build_top_down(LASTJOB, k)
    full = oracle.brute_min_time(range(1, k + 1), sc, True)
    for share in (0.2, 0.5, 0.8, 1.1):
        limit = share * full
        assert jobset.iis(js, limit, t, d) == lastjob.iis(lj, limit, t, d)


def test_terminal_cumulative_equals_min_completion(seed=0):
    rng = np.random.default_rng(seed)
    k = 6
    sc = random_scenario(rng, k)
    remap = canonical_remap(range(1, k + 1))
    t, d = sub_times(sc, remap)
    js = build_top_down(JOBSET, k)
    want = oracle.brute_min_time(range(1, k + 1), sc, True)
    costs = jobset.arc_costs(js, t, d)
    into_terminal = np.flatnonzero(js.arc_head == js.terminal)
    assert costs[into_terminal].min() == pytest.approx(want, abs=1e-9)

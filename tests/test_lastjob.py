from itertools import combinations

import numpy as np
import pytest

from ccpmsp import jobset, lastjob, oracle
from ccpmsp.diagram import (
    JOBSET,
    LASTJOB,
    build_top_down,
    canonical_remap,
    node_min_times,
)
from ccpmsp.model import Scenario
from conftest import random_scenario
from diagram_reference import sub_times


def example_arrays(uniform_scenario):
    remap = canonical_remap([1, 2, 3])
    return sub_times(uniform_scenario, remap)


def test_arc_costs_worked_example(uniform_scenario):
    t, d = example_arrays(uniform_scenario)
    diag = build_top_down(LASTJOB, 3)
    costs = lastjob.arc_costs(diag, t, d)
    # root arcs carry the execution times
    root_costs = sorted(costs[np.flatnonzero(diag.arc_tail == diag.root)])
    assert root_costs == [2.0, 3.0, 6.0]
    # the arc ({1},1) -> ({1,2},2) costs d12 + t2 = 7
    for a in range(diag.n_arcs):
        tail = int(diag.arc_tail[a])
        state = (diag.node_mask[tail], diag.arc_last[a])
        if state == (0b001, 1) and int(diag.arc_value[a]) == 2:
            assert costs[a] == pytest.approx(7.0)
    # terminal arcs close the schedule: d + t + d_back
    for a in np.flatnonzero(diag.arc_head == diag.terminal):
        tail = int(diag.arc_tail[a])
        state = (diag.node_mask[tail], diag.arc_last[a])
        if state == (0b011, 2) and int(diag.arc_value[a]) == 3:
            assert costs[a] == pytest.approx(5.0)  # 1 + 3 + 1


def test_set_times_worked_example(uniform_scenario):
    t, d = example_arrays(uniform_scenario)
    diag = build_top_down(LASTJOB, 3)
    table = lastjob.set_times(diag, t, d)
    assert table[0b000] == 0.0
    assert table[0b001] == 2.0 and table[0b010] == 6.0 and table[0b100] == 3.0
    assert table[0b011] == 9.0 and table[0b101] == 6.0 and table[0b110] == 10.0
    assert table[0b111] == 14.0


def test_full_set_time_equals_min_completion(uniform_scenario):
    t, d = example_arrays(uniform_scenario)
    diag = build_top_down(LASTJOB, 3)
    table = lastjob.set_times(diag, t, d)
    assert table[0b111] == pytest.approx(lastjob.min_time(diag, t, d))


def test_iis_worked_example(uniform_scenario):
    t, d = example_arrays(uniform_scenario)
    diag = build_top_down(LASTJOB, 3)
    sets = lastjob.iis(diag, 5.0, t, d)
    assert sorted(sets, key=sorted) == [frozenset({1, 3}), frozenset({2})]


def test_iis_empty_when_limit_generous(uniform_scenario):
    t, d = example_arrays(uniform_scenario)
    diag = build_top_down(LASTJOB, 3)
    assert lastjob.iis(diag, 14.0, t, d) == []
    assert lastjob.iis(diag, 100.0, t, d) == []


@pytest.mark.parametrize("seed", range(12))
def test_iis_matches_brute_force(seed):
    rng = np.random.default_rng(300 + seed)
    k = int(rng.integers(2, 7))
    sc = random_scenario(rng, k)
    remap = canonical_remap(range(1, k + 1))
    t, d = sub_times(sc, remap)
    diag = build_top_down(LASTJOB, k)
    full = oracle.brute_min_time(range(1, k + 1), sc, True)
    limit = float(rng.uniform(0.3, 1.0) * full)
    got = set(lastjob.iis(diag, limit, t, d))
    want = set(oracle.brute_iis(range(1, k + 1), sc, limit))
    assert got == want


VARIANT_SEEDS = [(LASTJOB, s) for s in range(6)] + [(JOBSET, s) for s in range(6)]


@pytest.mark.parametrize("variant, seed", VARIANT_SEEDS, ids=[
    str(s) if v == LASTJOB else f"{v}-{s}" for v, s in VARIANT_SEEDS
])
def test_reach_table_equals_partial_sequence_minima(variant, seed):
    # every subset's entry is the cheapest ordering without the closing
    # setup, except the full set which includes it
    rng = np.random.default_rng(700 + seed)
    k = int(rng.integers(2, 6))
    sc = random_scenario(rng, k)
    remap = canonical_remap(range(1, k + 1))
    t, d = sub_times(sc, remap)
    if variant == LASTJOB:
        table = lastjob.set_times(build_top_down(LASTJOB, k), t, d)
    else:
        table = jobset.set_times(build_top_down(JOBSET, k), t, d)
    universe = list(range(1, k + 1))
    assert len(table) == 2**k
    for size in range(0, k + 1):
        for subset in combinations(universe, size):
            mask = sum(1 << (j - 1) for j in subset)
            closing = size == k
            want = oracle.brute_min_time(subset, sc, closing)
            assert table[mask] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_iis_outputs_are_minimal_and_incomparable(seed):
    rng = np.random.default_rng(1000 + seed)
    k = int(rng.integers(2, 7))
    sc = random_scenario(rng, k)
    remap = canonical_remap(range(1, k + 1))
    t, d = sub_times(sc, remap)
    diag = build_top_down(LASTJOB, k)
    full = oracle.brute_min_time(range(1, k + 1), sc, True)
    limit = 0.75 * full
    sets = lastjob.iis(diag, limit, t, d)
    universe = frozenset(range(1, k + 1))
    for s in sets:
        closing = s == universe
        assert oracle.brute_min_time(s, sc, closing) > limit
        for j in s:  # every proper subset fits
            smaller = s - {j}
            if smaller:
                assert oracle.brute_min_time(smaller, sc, False) <= limit + 1e-9
    for a in sets:
        for b in sets:
            if a is not b:
                assert not a <= b


def asymmetric_times(rng, k, count):
    """Canonical (t, d) of ``count`` scenarios whose setups carry random
    one-way surcharges, so d[i, j] != d[j, i]."""
    pairs = []
    for _ in range(count):
        sc = random_scenario(rng, k)
        skew = rng.uniform(0.0, 2.0, size=sc.setup.shape)
        np.fill_diagonal(skew, 0.0)
        skewed = Scenario(exec=sc.exec, setup=sc.setup + skew)
        pairs.append(sub_times(skewed, canonical_remap(range(1, k + 1))))
    return pairs


def reference_table(diag, t, d):
    """The set-time table from per-arc costs and node minima, as a plain
    loop over arcs would compute it."""
    if diag.variant == LASTJOB:
        table = np.full(1 << diag.depth, np.inf)
        np.minimum.at(table, diag.node_mask,
                      node_min_times(diag, lastjob.arc_costs(diag, t, d)))
        return table
    best = np.full(diag.n_nodes, np.inf)
    best[diag.root] = 0.0
    np.minimum.at(best, diag.arc_head, jobset.arc_costs(diag, t, d))
    table = np.empty(1 << diag.depth)
    table[diag.node_mask] = best
    return table


@pytest.mark.parametrize("k", range(1, 12))
@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_batched_set_times_equal_a_per_scenario_loop(variant, k):
    # bit for bit: each scenario goes through the same float operations
    # whether alone or stacked with others
    mod = lastjob if variant == LASTJOB else jobset
    diag = build_top_down(variant, k)
    pairs = asymmetric_times(np.random.default_rng(1200 + k), k, 3)
    assert any(not np.array_equal(d, d.T) for _, d in pairs)
    for width in (1, 3):
        t = np.stack([tw for tw, _ in pairs[:width]], axis=-1)
        d = np.stack([dw for _, dw in pairs[:width]], axis=-1)
        table = mod.set_times(diag, t, d)
        assert table.shape == (1 << k, width)
        for w, (tw, dw) in enumerate(pairs[:width]):
            alone = mod.set_times(diag, tw, dw)
            assert table[:, w].tobytes() == alone.tobytes()
            assert alone.tobytes() == reference_table(diag, tw, dw).tobytes()


@pytest.mark.parametrize("k", range(1, 9))
def test_arc_costs_equal_the_per_arc_formula(k):
    diag = build_top_down(LASTJOB, k)
    ((t, d),) = asymmetric_times(np.random.default_rng(1300 + k), k, 1)
    val, last = diag.arc_value, diag.arc_last
    want = t[val]
    interior = slice(diag.layer_arc_ranges[0][1], None)
    closing = slice(*diag.layer_arc_ranges[-1])
    want[interior] += d[last[interior], val[interior]]
    want[closing] += d[val[closing], 0]
    assert lastjob.arc_costs(diag, t, d).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(1, 12))
def test_both_variants_time_every_set_alike(monkeypatch, k):
    # the job-set sweep adds the last-job cost table's entries in the same
    # order, so the tables agree bit for bit, however many in-arc slots go
    # into one step of its minimum
    pairs = asymmetric_times(np.random.default_rng(1400 + k), k, 3)
    t = np.stack([tw for tw, _ in pairs], axis=-1)
    d = np.stack([dw for _, dw in pairs], axis=-1)
    want = lastjob.set_times(build_top_down(LASTJOB, k), t, d)
    js = build_top_down(JOBSET, k)
    for cells in (jobset.SLOT_BLOCK_CELLS, 1):
        monkeypatch.setattr(jobset, "SLOT_BLOCK_CELLS", cells)
        assert jobset.set_times(js, t, d).tobytes() == want.tobytes()

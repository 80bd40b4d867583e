from itertools import permutations
from math import comb

import numpy as np
import pytest

from ccpmsp import jobset, lastjob, oracle
from ccpmsp.diagram import (
    JOBSET,
    LASTJOB,
    DiagramCache,
    build_top_down,
    canonical_remap,
    minimal_over_limit,
    nearest_neighbour_times,
    node_min_times,
    schedule_fits,
)
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import TOL, ConfigurationError, StructuralError
from conftest import random_scenario
from diagram_reference import sub_times


def test_worked_example_layer_shapes(uniform_scenario):
    assert build_top_down(LASTJOB, 3).layer_sizes() == [1, 3, 6, 1]
    assert build_top_down(JOBSET, 3).layer_sizes() == [1, 3, 3, 1]


def test_depth_one_single_arc():
    for variant in (LASTJOB, JOBSET):
        d = build_top_down(variant, 1)
        assert d.layer_sizes() == [1, 1]
        assert d.n_arcs == 1


@pytest.mark.parametrize("k", range(1, 11))
def test_closed_form_layer_sizes(k):
    lj = build_top_down(LASTJOB, k)
    js = build_top_down(JOBSET, k)
    for p in range(1, k + 1):
        assert len(lj.layers[p - 1]) == comb(k, p - 1) * max(1, p - 1)
        assert len(js.layers[p - 1]) == comb(k, p - 1)
    assert len(lj.layers[k]) == 1 and len(js.layers[k]) == 1
    assert js.n_nodes <= lj.n_nodes
    if k >= 3:
        assert js.n_nodes < lj.n_nodes


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_paths_are_exactly_the_permutations(k, variant):
    d = build_top_down(variant, k)
    paths = []

    def walk(node, seq):
        if node == d.terminal:
            paths.append(tuple(seq))
            return
        for a in np.flatnonzero(d.arc_tail == node):
            walk(int(d.arc_head[a]), seq + [int(d.arc_value[a])])

    walk(d.root, [])
    assert sorted(paths) == sorted(permutations(range(1, k + 1)))


def test_no_duplicate_values_leaving_a_node():
    for variant in (LASTJOB, JOBSET):
        d = build_top_down(variant, 5)
        for n in range(d.n_nodes):
            vals = [int(d.arc_value[a]) for a in np.flatnonzero(d.arc_tail == n)]
            assert len(vals) == len(set(vals))


def test_states_distinct_within_layer():
    d = build_top_down(JOBSET, 6)
    for layer in d.layers:
        masks = [int(d.node_mask[n]) for n in layer]
        assert len(masks) == len(set(masks))


def test_worked_example_min_time(uniform_scenario):
    remap = canonical_remap([1, 2, 3])
    t, d = sub_times(uniform_scenario, remap)
    lj = build_top_down(LASTJOB, 3)
    js = build_top_down(JOBSET, 3)
    lj_times = node_min_times(lj, lastjob.arc_costs(lj, t, d))
    assert lj_times[lj.terminal] == pytest.approx(14.0)
    into_terminal = np.flatnonzero(js.arc_head == js.terminal)
    assert jobset.arc_costs(js, t, d)[into_terminal].min() == pytest.approx(14.0)


def test_depth_one_includes_closing_setup():
    sc = random_scenario(np.random.default_rng(0), 1)
    t = np.array([0.0, 4.0])
    d = sc.setup.copy()
    lj = build_top_down(LASTJOB, 1)
    expect = 4.0 + d[1, 0]
    assert lastjob.min_time(lj, t, d) == pytest.approx(expect)
    js = build_top_down(JOBSET, 1)
    assert jobset.min_time(js, t, d) == pytest.approx(expect)


@pytest.mark.parametrize("seed", range(8))
def test_min_time_equals_permutation_enumeration(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 8))
    sc = random_scenario(rng, k)
    remap = canonical_remap(range(1, k + 1))
    t, d = sub_times(sc, remap)
    want = oracle.brute_min_time(range(1, k + 1), sc, True)
    lj = build_top_down(LASTJOB, k)
    js = build_top_down(JOBSET, k)
    assert lastjob.min_time(lj, t, d) == pytest.approx(want, abs=1e-9)
    assert jobset.min_time(js, t, d) == pytest.approx(want, abs=1e-9)


def test_canonical_remap_sorts():
    remap = canonical_remap([4, 9, 2])
    assert remap.tolist() == [0, 2, 4, 9]
    assert canonical_remap([1, 2, 3]).tolist() == [0, 1, 2, 3]


def test_canonical_remap_rejects_duplicates():
    with pytest.raises(StructuralError):
        canonical_remap([3, 3, 1])


@pytest.mark.parametrize("seed", range(5))
def test_remapped_evaluation_matches_direct_subset(seed):
    # evaluating a subset through the canonical diagram equals brute force
    # over the original ids
    rng = np.random.default_rng(100 + seed)
    n = 9
    sc = random_scenario(rng, n)
    jobs = sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(2, 7),
                             replace=False).tolist())
    remap = canonical_remap(jobs)
    t, d = sub_times(sc, remap)
    k = len(jobs)
    lj = build_top_down(LASTJOB, k)
    want = oracle.brute_min_time(jobs, sc, True)
    assert lastjob.min_time(lj, t, d) == pytest.approx(want, abs=1e-9)


def test_cache_returns_identical_structure():
    cache = DiagramCache(max_depth=6)
    a = cache.get_or_build(LASTJOB, 5)
    b = cache.get_or_build(LASTJOB, 5)
    assert a is b


def test_cache_depth_guard_and_variant_isolation():
    cache = DiagramCache(max_depth=4)
    with pytest.raises(ConfigurationError):
        cache.get_or_build(LASTJOB, 5)
    cache.get_or_build(LASTJOB, 3)
    cache.get_or_build(JOBSET, 3)
    assert cache.count(LASTJOB) == 1 and cache.count(JOBSET) == 1
    for k in range(1, 5):
        cache.get_or_build(LASTJOB, k)
        cache.get_or_build(JOBSET, k)
    assert cache.count(LASTJOB) == 4 and cache.count(JOBSET) == 4


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_arrays_are_read_only_and_layers_are_id_ranges(variant):
    d = build_top_down(variant, 4)
    assert [n for layer in d.layers for n in layer] == list(range(d.n_nodes))
    for p, layer in enumerate(d.layers):
        assert all(bin(int(d.node_mask[n])).count("1") == p for n in layer)
    assert len(d.layer_in) == len(d.layer_masks) == 4
    assert len(d.layer_cells) == (3 if variant == JOBSET else 4)
    assert len(d.arc_cell) == (d.n_arcs if variant == LASTJOB else 0)
    for arr in (d.node_mask, d.arc_tail, d.arc_head, d.arc_value, d.arc_last,
                d.arc_cell, *d.layer_masks, *d.layer_in, *d.layer_cells):
        assert not arr.flags.writeable


def sweep_nodes(d, p):
    """Node ids of layer p in the diagram's sweep order."""
    layer = d.layers[p]
    n_sets = len(d.layer_masks[p - 1]) if p else 1
    group = len(layer) // n_sets
    return [layer.start + (r % n_sets) * group + r // n_sets for r in range(len(layer))]


@pytest.mark.parametrize("k", [1, 2, 4, 6])
@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_sweep_plan_lists_each_nodes_in_arcs(variant, k):
    d = build_top_down(variant, k)
    for p in range(1, k + 1):
        start, end = d.layer_arc_ranges[p - 1]
        masks, a_in = d.layer_masks[p - 1], d.layer_in[p - 1]
        layer = d.node_mask[d.layers[p].start:d.layers[p].stop]
        assert masks.tolist() == sorted(set(layer.tolist()))
        nodes, tails = sweep_nodes(d, p), sweep_nodes(d, p - 1)
        assert a_in.shape[1] == len(nodes)
        for r, n in enumerate(nodes):
            assert d.node_mask[n] == masks[r % len(masks)]
            arcs = np.flatnonzero(d.arc_head == n)
            if variant == JOBSET:
                assert sorted(start + a_in[:, r].astype(int)) == arcs.tolist()
            else:
                got = sorted(zip([tails[i] for i in a_in[:, r]],
                                 d.layer_cells[p - 1][:, r].tolist()))
                assert got == sorted(zip(d.arc_tail[arcs].tolist(),
                                         d.arc_cell[arcs].tolist()))
        if variant == JOBSET and p < k:
            cells = d.layer_cells[p - 1]
            out = d.arc_value[slice(*d.layer_arc_ranges[p])].reshape(len(nodes), -1)
            vals_in = d.arc_value[start + a_in.astype(int)]
            assert np.array_equal(cells, vals_in[:, :, None] * (k + 1) + out[None])
    assert d.sweep_cells == max([1 << k, *(a.size for a in d.layer_in)])


def test_minimal_over_limit_keeps_minimal_sets_in_size_then_mask_order():
    # sets over 5: {2}, {1,3}, and every superset of either
    times = np.array([0, 2, 6, 9, 3, 6, 10, 14], dtype=float)
    times = times[:, None]
    assert minimal_over_limit(times, 5.0) == [[frozenset({2}), frozenset({1, 3})]]
    assert minimal_over_limit(times, 14.0) == [[]]
    assert minimal_over_limit(times, 13.0) == [[frozenset({1, 2, 3})]]


def plain_minimal_over_limit(times, limit):
    """The filter's definition, one set at a time in (cardinality, mask)
    order: a set over the limit is kept unless it contains a kept set."""
    k = len(times).bit_length() - 1
    kept = []
    for m in sorted(range(1, 1 << k), key=lambda m: (bin(m).count("1"), m)):
        if times[m] > limit + TOL and not any(m & s == s for s in kept):
            kept.append(m)
    return [frozenset(j + 1 for j in range(k) if m >> j & 1) for m in kept]


def test_minimal_over_limit_filters_columns_together():
    rng = np.random.default_rng(3)
    for k in (1, 3, 6, 9):
        mod = jobset if k % 2 else lastjob
        variant = JOBSET if k % 2 else LASTJOB
        diag = DiagramCache(max_depth=k).get_or_build(variant, k)
        scenarios = [random_scenario(rng, k) for _ in range(7)]
        t = np.stack([sub_times(sc, np.arange(k + 1))[0] for sc in scenarios], axis=-1)
        d = np.stack([sc.setup for sc in scenarios], axis=-1)
        table = mod.set_times(diag, t, d)
        for limit in np.quantile(table[-1], [0.0, 0.3, 0.7]) * 0.8:
            want = [plain_minimal_over_limit(col, limit) for col in table.T]
            assert minimal_over_limit(table, limit) == want
            assert [minimal_over_limit(col[:, None], limit)[0] for col in table.T] == want
            assert any(want)
    assert minimal_over_limit(np.zeros((8, 2)), 1.0) == [[], []]


def plain_nearest_neighbour(t, d):
    """Nearest-neighbour schedules of one column, one start job at a time."""
    k = len(t) - 1
    best = np.inf
    for start in range(1, k + 1):
        seq = [start]
        while len(seq) < k:
            seq.append(min((v for v in range(1, k + 1) if v not in seq),
                           key=lambda v: (d[seq[-1], v], v)))
        time = sum(t[v] for v in seq) + sum(d[u, v] for u, v in zip(seq, seq[1:]))
        best = min(best, time + d[seq[-1], 0])
    return best


def test_nearest_neighbour_matches_a_plain_schedule():
    rng = np.random.default_rng(11)
    for k in range(1, 7):
        scenarios = [random_scenario(rng, k) for _ in range(5)]
        t = np.stack([sub_times(sc, np.arange(k + 1))[0] for sc in scenarios], axis=-1)
        d = np.stack([sc.setup for sc in scenarios], axis=-1)
        d[1:, 1:] = np.round(d[1:, 1:], 1)  # ties, broken toward the lower job
        want = [plain_nearest_neighbour(t[:, c], d[:, :, c]) for c in range(5)]
        assert np.allclose(nearest_neighbour_times(t, d), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
@pytest.mark.parametrize("kind", ["ors", "vrp", "equal"])
def test_nearest_neighbour_bounds_the_diagram_time(kind, variant):
    # a pair the schedule certifies at T + TOL is one the sweep passes
    # (time <= T + TOL), and the schedule is never faster than the optimum
    mod = jobset if variant == JOBSET else lastjob
    cache = DiagramCache(max_depth=10)
    rng = np.random.default_rng(5)
    n_certified = n_refuted = 0
    for seed in range(3):
        inst = make_instance(GenConfig(dataset_kind=kind, n_jobs=20, n_machines=2,
                                       n_scenarios=10, dif=-2.0, seed=seed))
        exec_all, setup_all = inst.scenario_stack
        for k in range(1, 11):
            remap = np.concatenate(([0], np.sort(rng.choice(20, k, replace=False)) + 1))
            t = exec_all[remap]
            d = setup_all[np.ix_(remap, remap)]
            greedy = nearest_neighbour_times(t, d)
            best = mod.set_times(cache.get_or_build(variant, k), t, d)[-1]
            assert np.all(greedy + TOL >= best)
            for limit in (inst.time_limit, *greedy):
                fits = schedule_fits(t, d, limit + TOL)
                assert np.all(best[fits] <= limit + TOL)
                n_certified += fits.sum()
                n_refuted += (best > limit + TOL).sum()
            if k == 1:  # the one schedule, summed like the diagrams
                assert greedy.tobytes() == best.tobytes()
    assert n_certified and n_refuted


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_schedule_fits_only_what_the_sweep_passes_at_any_magnitude(variant):
    # random points on a line, where the nearest-neighbour schedule from
    # the far end is optimal, so the schedule time and the sweep's time
    # differ only in summation order.  From times of about 1e6 on that
    # difference exceeds TOL, so certifying at g <= T would pass pairs the
    # sweep fails; the test puts limits in the few eps of g where that lies.
    mod = jobset if variant == JOBSET else lastjob
    rng = np.random.default_rng(8)
    cache = DiagramCache(max_depth=10)
    eps = np.finfo(float).eps
    n_certified = n_rounding_over = 0
    for scale in (1.0, 1e6, 1e8, 1e10):
        for k in (1, 3, 6, 10):
            pos = np.sort(rng.random((k + 1, 200)) * scale, axis=0)
            pos[0] = 0.0
            d = np.abs(pos[:, None] - pos[None, :])
            t = rng.random((k + 1, 200)) * scale
            t[0] = 0.0
            greedy = nearest_neighbour_times(t, d)
            best = mod.set_times(cache.get_or_build(variant, k), t, d)[-1]
            n_rounding_over += (best > greedy + TOL).sum()
            for j in range(0, 4 * k + 2):
                limit = greedy * (1 + j * eps) + TOL
                fits = schedule_fits(t, d, limit)
                assert np.all(best[fits] <= limit[fits])
                n_certified += fits.sum()
    assert n_certified and n_rounding_over


@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_nearest_neighbour_finds_an_optimal_line_schedule(variant):
    # jobs 1..k at 1..k on a line, dummy at 0: running k down to 1 takes
    # k executions, k - 1 unit setups and a closing setup of 1
    mod = jobset if variant == JOBSET else lastjob
    for k in (2, 7, 10):
        pos = np.arange(k + 1, dtype=float)
        t = np.concatenate(([0.0], np.ones(k)))[:, None]
        d = np.abs(pos[:, None] - pos[None, :])[..., None]
        best = mod.set_times(DiagramCache(max_depth=k).get_or_build(variant, k), t, d)
        assert nearest_neighbour_times(t, d).tolist() == best[-1].tolist() == [2.0 * k]

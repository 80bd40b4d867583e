from itertools import product

import numpy as np
import pytest

from ccpmsp import netflow, oracle
from ccpmsp.decomposition import SolveOptions, solve_ccpmsp
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import LimitExceeded
from ccpmsp.oracle import brute_optimal
from conftest import random_scenario

UNIFORM_T = np.array([0.0, 2.0, 6.0, 3.0])


def uniform_arrays(uniform_scenario):
    return np.concatenate(([0.0], uniform_scenario.exec)), uniform_scenario.setup


def enumerate_chance_feasible(inst):
    """All (x, z_true) pairs: z_true claims exactly the feasible scenarios."""
    n, m = inst.n_jobs, inst.n_machines
    feas = {}
    out = []
    for choices in product(range(m + 1), repeat=n):
        x = np.zeros((n, m), dtype=np.int8)
        for j, c in enumerate(choices):
            if c:
                x[j, c - 1] = 1
        if np.any(x.sum(axis=0) > inst.capacity):
            continue
        z = np.ones(inst.n_scenarios, dtype=np.int8)
        for mi in range(m):
            jobs = tuple(np.flatnonzero(x[:, mi]) + 1)
            if not jobs:
                continue
            bits = feas.get(jobs)
            if bits is None:
                bits = oracle.machine_feasibility(inst, jobs)
                feas[jobs] = bits
            z &= bits
        if z.sum() * inst.scenario_prob >= 1.0 - inst.epsilon - 1e-12:
            out.append((x, z))
    return out


def test_mdd_structure():
    mdd = netflow.build_mdd_cap(3)
    assert [len(layer) for layer in mdd.layers] == [1, 3, 6, 1]
    # root arcs: three assignments plus one non-assignment over all jobs
    root_arcs = mdd.node_out[mdd.root]
    vals = sorted(int(mdd.arc_value[a]) for a in root_arcs)
    assert vals == [-1, 1, 2, 3]
    na = next(a for a in root_arcs if mdd.arc_kind[a] == netflow.NONASSIGN)
    assert int(mdd.arc_cap[na]) == 0b111


@pytest.mark.parametrize("n", range(1, 6))
def test_structural_invariants(n):
    capd = netflow.build_mdd_cap(n)
    # ids follow layer order with the terminal last; arcs point forward and
    # are emitted in topological tail order
    seen = [nid for layer in capd.layers for nid in layer]
    assert seen == list(range(capd.n_nodes))
    assert capd.terminal == capd.n_nodes - 1
    order = {nid: li for li, layer in enumerate(capd.layers) for nid in layer}
    for a in range(capd.n_arcs):
        assert order[capd.arc_tail[a]] < order[capd.arc_head[a]]
        if capd.arc_kind[a] == netflow.ASSIGN:
            assert bin(int(capd.arc_cap[a])).count("1") == 1
        else:
            assert capd.arc_kind[a] == netflow.NONASSIGN
            assert capd.arc_head[a] == capd.terminal
    for a in range(capd.n_arcs - 1):
        assert order[capd.arc_tail[a]] <= order[capd.arc_tail[a + 1]]


def test_scale_guard():
    with pytest.raises(LimitExceeded):
        netflow.build_mdd_cap(netflow.MDD_MAX_JOBS + 1)


def test_shortest_path_worked_example(uniform_scenario):
    t, d = uniform_arrays(uniform_scenario)
    capd = netflow.build_mdd_cap(3)

    def cost(x):
        return netflow.extract_duals(capd, np.array(x), t, d).pi_root

    assert cost([1, 1, 1]) == pytest.approx(14.0)
    assert cost([0, 1, 0]) == pytest.approx(7.0)  # t2 + closing setup
    assert cost([0, 0, 0]) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_shortest_path_equals_oracle_all_columns(seed):
    rng = np.random.default_rng(2000 + seed)
    k = int(rng.integers(2, 7))
    sc = random_scenario(rng, k)
    t = np.concatenate(([0.0], sc.exec))
    capd = netflow.build_mdd_cap(k)
    for bits in range(2**k):
        x = np.array([(bits >> j) & 1 for j in range(k)], dtype=np.int8)
        jobs = [j + 1 for j in range(k) if x[j]]
        want = oracle.brute_min_time(jobs, sc, True)
        got = netflow.extract_duals(capd, x, t, sc.setup).pi_root
        assert got == pytest.approx(want, abs=1e-9)


def test_duals_zero_on_shortest_path_and_nonpositive(uniform_scenario):
    t, d = uniform_arrays(uniform_scenario)
    capd = netflow.build_mdd_cap(3)
    x = np.array([1, 1, 1])
    duals = netflow.extract_duals(capd, x, t, d)
    assert duals.pi_root == pytest.approx(14.0)
    assert np.all(duals.alpha <= 0) and np.all(duals.beta <= 0)
    # follow a cheapest enabled path by the to-terminal distances pi: its
    # arcs have reduction zero, so their duals must be zero
    costs = netflow.cap_arc_costs(capd, t, d)
    node, length = capd.root, 0.0
    while node != capd.terminal:
        a = next(a for a in capd.node_out[node] if duals.enabled[a]
                 and costs[a] + duals.pi[capd.arc_head[a]] == duals.pi[node])
        assert duals.alpha[a] == 0.0 and duals.beta[a] == 0.0
        length += costs[a]
        node = capd.arc_head[a]
    assert length == pytest.approx(duals.pi_root)


@pytest.mark.parametrize("seed", range(6))
def test_dual_feasibility_rows_on_enabled_arcs(seed):
    rng = np.random.default_rng(2100 + seed)
    k = int(rng.integers(2, 6))
    sc = random_scenario(rng, k)
    t = np.concatenate(([0.0], sc.exec))
    d = sc.setup
    capd = netflow.build_mdd_cap(k)
    x = (rng.random(k) < 0.5).astype(np.int8)
    duals = netflow.extract_duals(capd, x, t, d)
    costs = netflow.cap_arc_costs(capd, t, d)
    for a in range(capd.n_arcs):
        if not duals.enabled[a]:
            continue
        lhs = duals.pi[capd.arc_tail[a]] - duals.pi[capd.arc_head[a]]
        if capd.arc_kind[a] == netflow.ASSIGN:
            lhs += duals.alpha[a]
        else:
            lhs += duals.beta[a] * bin(int(capd.arc_cap[a])).count("1")
        assert lhs <= costs[a] + 1e-9


def test_cut_forces_scenario_off_at_incumbent(uniform_scenario):
    t, d = uniform_arrays(uniform_scenario)
    capd = netflow.build_mdd_cap(3)
    x = np.array([1, 1, 1])
    duals = netflow.extract_duals(capd, x, t, d)
    cut = netflow.benders_cut(duals, capd, 0, {1, 2, 3}, strategy=0)
    const, coef = cut.benders_payload
    # alpha/beta terms vanish at the incumbent: lhs reduces to pi_root = 14
    lhs = const + coef @ x
    assert lhs == pytest.approx(14.0)
    assert lhs > 5.0  # forces z = 0 for T = 5


def test_strategy1_dominates_basic(uniform_scenario):
    rng = np.random.default_rng(7)
    for trial in range(6):
        k = int(rng.integers(2, 6))
        sc = random_scenario(rng, k)
        t = np.concatenate(([0.0], sc.exec))
        capd = netflow.build_mdd_cap(k)
        x = (rng.random(k) < 0.5).astype(np.int8)
        duals = netflow.extract_duals(capd, x, t, sc.setup)
        c0, k0 = netflow.basic_payload(duals, capd)
        c1, k1 = netflow.strengthen_layers(duals, capd)
        # pointwise: the strengthened row's lhs is >= the basic row's lhs
        for bits in range(2**k):
            xe = np.array([(bits >> j) & 1 for j in range(k)])
            assert c1 + k1 @ xe >= c0 + k0 @ xe - 1e-9


def test_single_layer_strategy1_equals_basic():
    capd = netflow.build_mdd_cap(1)
    t = np.array([0.0, 4.0])
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    duals = netflow.extract_duals(capd, np.array([1]), t, d)
    assert netflow.strengthen_layers(duals, capd) == netflow.basic_payload(duals, capd)


def sweep_instances():
    cfgs = []
    rng = np.random.default_rng(31)
    for i in range(10):
        cfgs.append(GenConfig(
            dataset_kind=["ors", "vrp", "equal"][i % 3],
            n_jobs=int(rng.integers(3, 6)), n_machines=2,
            n_scenarios=int(rng.integers(2, 5)),
            dif=float(rng.choice([-5.0, -2.0])), seed=400 + i,
            capacity=3, epsilon=float(rng.choice([0.05, 0.3])),
        ))
    return [make_instance(c) for c in cfgs]


@pytest.mark.parametrize("strategy", [0, 1])
def test_cut_validity_sweep(strategy):
    # no chance-feasible (x, z) may violate any emitted flow cut
    for inst in sweep_instances():
        capd = netflow.build_mdd_cap(inst.n_jobs)
        cuts = []
        for w in range(inst.n_scenarios):
            t, d = netflow.full_times(inst, w)
            for bits in range(1, 2**inst.n_jobs):
                x = np.array([(bits >> j) & 1 for j in range(inst.n_jobs)],
                             dtype=np.int8)
                if x.sum() > inst.capacity:
                    continue
                duals = netflow.extract_duals(capd, x, t, d)
                cuts.append(netflow.benders_cut(
                    duals, capd, w, {1}, strategy=strategy))
        for x, z in enumerate_chance_feasible(inst):
            for cut in cuts:
                if z[cut.scenario] == 0:
                    continue
                const, coef = cut.benders_payload
                for m in range(inst.n_machines):
                    lhs = const + coef @ x[:, m]
                    assert lhs <= inst.time_limit + 1e-6, (
                        cut.scenario, x.tolist(), lhs, inst.time_limit)


def test_end_to_end_benders_solve_matches_oracle():
    for seed in range(5):
        inst = make_instance(GenConfig(
            dataset_kind="equal", n_jobs=5, n_machines=2, n_scenarios=4,
            dif=-3.0, seed=600 + seed, capacity=3,
        ))
        want = brute_optimal(inst)[1]
        opts = SolveOptions(cut_kind="benders", time_budget=120)
        cand, report = solve_ccpmsp(inst, opts)
        assert report.objective == pytest.approx(want, abs=1e-9), seed


def test_benders_callback_mode_matches_oracle():
    # in-search ingestion must keep exactness even when flow cuts are weak
    for seed in range(3):
        inst = make_instance(GenConfig(
            dataset_kind="vrp", n_jobs=5, n_machines=2, n_scenarios=4,
            dif=-4.0, seed=700 + seed, capacity=3,
        ))
        want = brute_optimal(inst)[1]
        opts = SolveOptions(cut_kind="benders", mode="callback", time_budget=120)
        cand, report = solve_ccpmsp(inst, opts)
        assert report.objective == pytest.approx(want, abs=1e-9), seed


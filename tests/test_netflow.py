import hashlib
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ccpmsp import netflow
from ccpmsp.decomposition import SolveOptions, solve_ccpmsp
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import LimitExceeded
from conftest import flow_duals, mask_jobs, random_scenario, solve_iteratively
import netflow_reference
import oracle_reference
from oracle_reference import brute_optimal

UNIFORM_T = np.array([0.0, 2.0, 6.0, 3.0])


def uniform_arrays(uniform_scenario):
    return np.concatenate(([0.0], uniform_scenario.exec)), uniform_scenario.setup


def basic_payload(x, t, d):
    """(constant, per-job coefficients) of the plain flow cut of column x
    in one scenario, from the arc-level reference: each alpha on its job,
    each beta on the constant and, negated, on every job of U_a."""
    capd = netflow_reference.build_mdd_cap(len(x))
    duals = netflow_reference.extract_duals(capd, x, t, d)
    return netflow_reference.basic_payload(duals, capd)


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
                bits = oracle_reference.machine_feasibility(inst, jobs)
                feas[jobs] = bits
            z &= bits
        if z.sum() * inst.scenario_prob >= 1.0 - inst.epsilon - 1e-12:
            out.append((x, z))
    return out


def test_mdd_structure():
    mdd = netflow_reference.build_mdd_cap(3)
    assert [len(layer) for layer in mdd.layers] == [1, 3, 6, 1]
    # root arcs: three assignments plus one non-assignment over all jobs
    root_arcs = np.flatnonzero(mdd.arc_tail == mdd.root)
    assert sorted(mdd.arc_job[root_arcs].tolist()) == [-1, 1, 2, 3]
    na = next(a for a in root_arcs if mdd.arc_kind[a] == netflow_reference.NONASSIGN)
    assert int(mdd.arc_cap[na]) == 0b111


@pytest.mark.parametrize("n", range(1, 6))
def test_structural_invariants(n):
    capd = netflow_reference.build_mdd_cap(n)
    # ids follow layer order with the terminal last; arcs point forward and
    # are emitted in topological tail order
    seen = [nid for layer in capd.layers for nid in layer]
    assert seen == list(range(capd.n_nodes))
    assert capd.terminal == capd.n_nodes - 1
    order = {nid: li for li, layer in enumerate(capd.layers) for nid in layer}
    for a in range(capd.n_arcs):
        assert order[capd.arc_tail[a]] < order[capd.arc_head[a]]
        if capd.arc_kind[a] == netflow_reference.ASSIGN:
            assert bin(int(capd.arc_cap[a])).count("1") == 1
        else:
            assert capd.arc_kind[a] == netflow_reference.NONASSIGN
            assert capd.arc_head[a] == capd.terminal
    for a in range(capd.n_arcs - 1):
        assert order[capd.arc_tail[a]] <= order[capd.arc_tail[a + 1]]
    # the layout the layered reference pass relies on: arcs sorted by
    # arc_layer; a layer's tails lie in its contiguous node-id range and
    # its heads in later layers
    ref = netflow_reference.layered(capd)
    assert np.all(np.diff(capd.arc_layer) >= 0)
    assert len(ref.layer_spans) == len(capd.layers) - 1 == n
    for li, (start, end, first, count) in enumerate(ref.layer_spans):
        assert capd.layers[li] == range(first, first + count)
        assert np.all(capd.arc_layer[start:end] == li)
        tails = capd.arc_tail[start:end]
        assert np.all((tails >= first) & (tails < first + count))
        assert np.all(capd.arc_head[start:end] >= first + count)
    assert ref.layer_spans[0][0] == 0 and ref.layer_spans[-1][1] == capd.n_arcs
    na_masks = [sum(1 << int(q) for q in np.flatnonzero(row)) for row in ref.na_jobs]
    assert na_masks == capd.arc_cap[ref.na_arcs].tolist()
    for prev, nxt in zip(ref.layer_spans, ref.layer_spans[1:]):
        assert prev[1] == nxt[0]


@pytest.mark.parametrize("n", range(1, 8))
def test_out_arcs_list_the_reference_diagram_arc_by_arc(n):
    # with every job in the column every state is reached: the (subset,
    # last job) pairs of _subsets(n) but the full set, which is the
    # terminal, in the order extract_duals lists them; their out-arcs must
    # be the reference diagram's arcs in arc order
    capd = netflow_reference.build_mdd_cap(n)
    _, (sets, pos, sizes) = netflow._subsets(n)
    sets, pos, sizes = sets[:-n], pos[:-n], sizes[:-n]
    lasts = np.append(np.arange(1, n + 1), 0)[pos]
    state, job, into_terminal, cell = netflow.out_arcs(n, sets, lasts, sizes)
    assert len(job) == capd.n_arcs
    assert capd.node_of[sets, lasts][state].tolist() == capd.arc_tail.tolist()
    assert ((job > 0) == (capd.arc_kind == netflow_reference.ASSIGN)).all()
    assert np.where(job > 0, job, -1).tolist() == capd.arc_job.tolist()
    # U_a: an assignment arc's job, a non-assignment arc's jobs outside S
    u = np.where(job > 0, 1 << np.maximum(job - 1, 0), ((1 << n) - 1) & ~sets[state])
    assert u.tolist() == capd.arc_cap.tolist()
    assert sizes[state].tolist() == capd.arc_layer.tolist()
    assert into_terminal.tolist() == (capd.arc_head == capd.terminal).tolist()
    assert cell.tolist() == capd.arc_cell.tolist()
    # arc_ids, which full_arrays reads, maps each listed arc to its id
    arcs = netflow.DualValues(
        n_jobs=n, pi_root=0.0, tail_set=sets[state], tail_last=lasts[state],
        job=job, layer=sizes[state], r=np.zeros(len(job)))
    assert netflow_reference.arc_ids(capd, arcs).tolist() == list(range(capd.n_arcs))


def test_scale_guard():
    with pytest.raises(LimitExceeded):
        netflow.check_scale(netflow.MDD_MAX_JOBS + 1)
    netflow.check_scale(netflow.MDD_MAX_JOBS)
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=netflow.MDD_MAX_JOBS + 1,
                                   n_machines=2, n_scenarios=2, seed=1, capacity=7))
    with pytest.raises(LimitExceeded):
        netflow.FlowContext(inst)
    with pytest.raises(LimitExceeded):
        SolveOptions(cut_kind="benders").check(inst)
    SolveOptions().check(inst)  # only flow cuts are gated


def test_shortest_path_worked_example(uniform_scenario):
    t, d = uniform_arrays(uniform_scenario)

    def cost(x):
        return flow_duals(np.array(x), t, d).pi_root

    assert cost([1, 1, 1]) == pytest.approx(14.0)
    assert cost([0, 1, 0]) == pytest.approx(7.0)  # t2 + closing setup
    assert cost([0, 0, 0]) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_shortest_path_equals_oracle_all_columns(seed):
    rng = np.random.default_rng(2000 + seed)
    k = int(rng.integers(2, 7))
    sc = random_scenario(rng, k)
    t = np.concatenate(([0.0], sc.exec))
    for bits in range(2**k):
        x = np.array([(bits >> j) & 1 for j in range(k)], dtype=np.int8)
        jobs = [j + 1 for j in range(k) if x[j]]
        want = oracle_reference.brute_min_time(jobs, sc, True)
        got = flow_duals(x, t, sc.setup).pi_root
        assert got == pytest.approx(want, abs=1e-9)


def test_duals_zero_on_shortest_path_and_nonpositive(uniform_scenario):
    t, d = uniform_arrays(uniform_scenario)
    capd = netflow_reference.build_mdd_cap(3)
    x = np.array([1, 1, 1])
    duals = flow_duals(x, t, d)
    pi, alpha, beta = netflow_reference.full_arrays(capd, duals, x, t, d)
    assert duals.pi_root == pytest.approx(14.0)
    assert np.all(alpha <= 0) and np.all(beta <= 0)
    # follow a cheapest enabled path by the to-terminal distances pi: its
    # arcs have reduction zero, so their duals must be zero
    costs = netflow_reference.cap_arc_costs(capd, t, d)
    enabled = netflow_reference._enabled(capd, x)
    node, length = capd.root, 0.0
    while node != capd.terminal:
        a = next(a for a in np.flatnonzero(capd.arc_tail == node) if enabled[a]
                 and costs[a] + pi[capd.arc_head[a]] == pi[node])
        assert alpha[a] == 0.0 and beta[a] == 0.0
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
    capd = netflow_reference.build_mdd_cap(k)
    x = (rng.random(k) < 0.5).astype(np.int8)
    duals = flow_duals(x, t, d)
    pi, alpha, beta = netflow_reference.full_arrays(capd, duals, x, t, d)
    costs = netflow_reference.cap_arc_costs(capd, t, d)
    enabled = netflow_reference._enabled(capd, x)
    for a in range(capd.n_arcs):
        if not enabled[a]:
            continue
        lhs = pi[capd.arc_tail[a]] - pi[capd.arc_head[a]]
        if capd.arc_kind[a] == netflow_reference.ASSIGN:
            lhs += alpha[a]
        else:
            lhs += beta[a] * bin(int(capd.arc_cap[a])).count("1")
        assert lhs <= costs[a] + 1e-9


def test_cut_forces_scenario_off_at_incumbent(uniform_scenario):
    t, d = uniform_arrays(uniform_scenario)
    x = np.array([1, 1, 1])
    const, coef = basic_payload(x, t, d)
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
        x = (rng.random(k) < 0.5).astype(np.int8)
        c0, k0 = basic_payload(x, t, sc.setup)
        (c1, k1), = netflow.strengthen_layers([flow_duals(x, t, sc.setup)])
        # pointwise: the strengthened row's lhs is >= the basic row's lhs
        for bits in range(2**k):
            xe = np.array([(bits >> j) & 1 for j in range(k)])
            assert c1 + k1 @ xe >= c0 + k0 @ xe - 1e-9


def test_single_layer_strategy1_equals_basic():
    t = np.array([0.0, 4.0])
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    (c1, k1), = netflow.strengthen_layers([flow_duals(np.array([1]), t, d)])
    c0, k0 = basic_payload(np.array([1]), t, d)
    assert c1 == c0 and k1.tobytes() == k0.tobytes()


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


def test_cut_validity_sweep():
    # no chance-feasible (x, z) may violate any emitted flow cut
    for inst in sweep_instances():
        cuts = []
        exec_, setup = inst.scenario_stack
        for w in range(inst.n_scenarios):
            t, d = exec_[:, w], setup[:, :, w]
            for bits in range(1, 2**inst.n_jobs):
                x = np.array([(bits >> j) & 1 for j in range(inst.n_jobs)],
                             dtype=np.int8)
                if x.sum() > inst.capacity:
                    continue
                duals = flow_duals(x, t, d)
                cuts += netflow.benders_cuts([duals], [w], 0b1)
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
        opts = SolveOptions(cut_kind="benders", time_budget=120)
        cand, report = solve_ccpmsp(inst, opts)
        assert report.objective == pytest.approx(want, abs=1e-9), seed



def loop_flow_cut(capd, x, t, d):
    """The dual pass and both payloads as plain loops over the arcs in arc
    order: the reference the layer-batched numpy pass must match bit for
    bit.  Returns (pi, pi_root, alpha, beta, basic payload, layer payload)."""
    n, n_arcs = capd.n_jobs, capd.n_arcs
    tail, head = capd.arc_tail.tolist(), capd.arc_head.tolist()
    job, last = capd.arc_job.tolist(), capd.arc_last.tolist()
    assign = (capd.arc_kind == netflow_reference.ASSIGN).tolist()
    u = [[q for q in range(1, n + 1) if int(capd.arc_cap[a]) >> (q - 1) & 1]
         for a in range(n_arcs)]
    costs = np.zeros(n_arcs)
    on = []
    for a in range(n_arcs):
        if assign[a]:
            costs[a] = t[job[a]]
            if last[a] >= 1:
                costs[a] += d[last[a], job[a]]
            if head[a] == capd.terminal:
                costs[a] += d[job[a], 0]
            on.append(bool(x[job[a] - 1]))
        else:
            if last[a] >= 1:
                costs[a] = d[last[a], 0]
            on.append(not any(x[q - 1] for q in u[a]))
    fdist = np.full(capd.n_nodes, np.inf)
    fdist[capd.root] = 0.0
    for a in range(n_arcs):
        if on[a] and fdist[tail[a]] + costs[a] < fdist[head[a]]:
            fdist[head[a]] = fdist[tail[a]] + costs[a]
    pi = np.full(capd.n_nodes, np.inf)
    pi[capd.terminal] = 0.0
    for node in range(capd.n_nodes - 2, -1, -1):
        out = [a for a in range(n_arcs) if tail[a] == node]
        best = min((costs[a] + pi[head[a]] for a in out if on[a]), default=np.inf)
        if not np.isfinite(best):
            best = min(costs[a] + pi[head[a]] for a in out)
        pi[node] = best
    pi_root = float(pi[capd.root])
    alpha, beta = np.zeros(n_arcs), np.zeros(n_arcs)
    for a in range(n_arcs):
        r = fdist[tail[a]] + costs[a] + pi[head[a]] - pi_root
        if np.isfinite(fdist[tail[a]]) and r < 0:
            (alpha if assign[a] else beta)[a] = r
    const0, coef0 = pi_root, np.zeros(n)
    gamma, delta = {}, {}
    for a in range(n_arcs):
        if assign[a] and alpha[a] != 0.0:
            coef0[job[a] - 1] += alpha[a]
            key = (job[a], int(capd.arc_layer[a]))
            gamma[key] = min(gamma.get(key, 0.0), alpha[a])
        elif not assign[a] and beta[a] != 0.0:
            for q in u[a]:
                const0 += beta[a]
                coef0[q - 1] -= beta[a]
                delta[q] = min(delta.get(q, 0.0), beta[a])
    const1, coef1 = pi_root, np.zeros(n)
    for (q, _), g in gamma.items():
        coef1[q - 1] += g
    for q, dl in delta.items():
        const1 += dl
        coef1[q - 1] -= dl
    return pi, pi_root, alpha, beta, (const0, coef0), (const1, coef1)


@pytest.mark.parametrize("n", range(1, 8))
def test_vectorised_pass_matches_arc_loops_bitwise(n):
    rng = np.random.default_rng(2200 + n)
    capd = netflow_reference.build_mdd_cap(n)
    # six random columns, then no job and every job: with every job, the
    # full set is the terminal rather than a tail
    for edge in [None] * 6 + [np.zeros(n, np.int8), np.ones(n, np.int8)]:
        sc = random_scenario(rng, n)
        t = np.concatenate(([0.0], sc.exec))
        x = (rng.random(n) < rng.random()).astype(np.int8) if edge is None else edge
        pi, pi_root, alpha, beta, basic, layered = loop_flow_cut(capd, x, t, sc.setup)
        duals = flow_duals(x, t, sc.setup)
        full = netflow_reference.full_arrays(capd, duals, x, t, sc.setup)
        assert full[0].tobytes() == pi.tobytes()
        assert repr(duals.pi_root) == repr(pi_root)
        assert full[1].tobytes() == alpha.tobytes()
        assert full[2].tobytes() == beta.tobytes()
        for got, want in ((basic_payload(x, t, sc.setup), basic),
                          (netflow.strengthen_layers([duals])[0], layered)):
            assert repr(float(got[0])) == repr(float(want[0]))
            assert got[1].tobytes() == want[1].tobytes()


def sweep_columns(n):
    for bits in range(2**n):
        yield np.array([(bits >> j) & 1 for j in range(n)], dtype=np.int8)


def pool_bytes(cuts):
    out = []
    for cut in cuts:
        out.append(f"{cut.kind} {cut.scenario} {sorted(mask_jobs(cut.jobs))}".encode())
        if cut.benders_payload is not None:
            const, coef = cut.benders_payload
            out += [repr(float(const)).encode(), np.asarray(coef).tobytes()]
    return out


def test_batched_duals_are_the_single_scenario_duals_bitwise():
    # every column, |x| = 0, 1 and n among them, of every sweep instance, at
    # widths 1..S: each scenario of one pass gets the duals and payloads of
    # its own one-column pass
    names = ("tail_set", "tail_last", "job", "layer", "r")
    for inst in sweep_instances():
        exec_, setup = inst.scenario_stack
        for width in range(1, inst.n_scenarios + 1):
            t, d = exec_[:, :width], setup[:, :, :width]
            for x in sweep_columns(inst.n_jobs):
                batch = netflow.extract_duals(x, t, d)
                assert len(batch) == width
                singles = [netflow.extract_duals(x, exec_[:, [w]], setup[:, :, [w]])[0]
                           for w in range(width)]
                for got, want in zip(batch, singles):
                    assert got.n_jobs == want.n_jobs == inst.n_jobs
                    assert repr(got.pi_root) == repr(want.pi_root)
                    for name in names:
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                for (c, k), single in zip(netflow.strengthen_layers(batch), singles):
                    (want_c, want_k), = netflow.strengthen_layers([single])
                    assert repr(c) == repr(want_c)
                    assert k.tobytes() == want_k.tobytes()


# sha256 of the duals and payloads below, recorded before the arc loops were
# vectorised, and of the final Benders pools of the re-solve loop, recorded
# when the layer-strengthened cut became the only one: any one-ulp drift
# fails
DUALS_DIGEST = "f74f0fad16aea2b55f673e805ba9e7791ee63367f630b9a69409804561b42dc5"
POOLS_DIGEST = "423b41e062240ca3b6931dd90deea239612563bbe2eae18aac207ad85d77f3b2"
# the same pools from one hooked master search each
CALLBACK_POOLS_DIGEST = (
    "4fd236fdc49a5417d5de6205b8707c8b42a4a9847d6488be2d9abe7f987fb208"
)


def test_flow_duals_and_payloads_bitwise_pinned():
    h = hashlib.sha256()
    for inst in sweep_instances():
        capd = netflow_reference.build_mdd_cap(inst.n_jobs)
        exec_, setup = inst.scenario_stack
        for w in range(inst.n_scenarios):
            t, d = exec_[:, w], setup[:, :, w]
            for x in sweep_columns(inst.n_jobs):
                duals = flow_duals(x, t, d)
                for arr in netflow_reference.full_arrays(capd, duals, x, t, d):
                    h.update(arr.tobytes())
                h.update(repr(duals.pi_root).encode())
                for const, coef in (basic_payload(x, t, d),
                                    netflow.strengthen_layers([duals])[0]):
                    h.update(repr(float(const)).encode())
                    h.update(coef.tobytes())
    assert h.hexdigest() == DUALS_DIGEST


def benders_pools_digest(solve):
    h = hashlib.sha256()
    for seed in range(5):
        inst = make_instance(GenConfig(
            dataset_kind="equal", n_jobs=5, n_machines=2, n_scenarios=4,
            dif=-3.0, seed=600 + seed, capacity=3,
        ))
        _, report = solve(inst, SolveOptions(cut_kind="benders", time_budget=120))
        h.update(repr(report.objective).encode())
        for chunk in pool_bytes(report.cuts):
            h.update(chunk)
    return h.hexdigest()


def test_benders_pools_bitwise_pinned():
    assert benders_pools_digest(solve_iteratively) == POOLS_DIGEST


def test_benders_pools_bitwise_pinned_in_callback_mode():
    assert benders_pools_digest(solve_ccpmsp) == CALLBACK_POOLS_DIGEST


def test_benders_solve_leaves_numpy_ma_unimported():
    # np.unique and a few other helpers import numpy.ma on first use, about
    # 1-2 MB of resident memory; the dual pass must not need them
    code = (
        "import sys\n"
        "from ccpmsp.decomposition import SolveOptions, solve_ccpmsp\n"
        "from ccpmsp.instances import GenConfig, make_instance\n"
        "inst = make_instance(GenConfig(dataset_kind='equal', n_jobs=5, "
        "n_machines=2, n_scenarios=4, dif=-3.0, seed=600, capacity=3))\n"
        "_, report = solve_ccpmsp(inst, SolveOptions(cut_kind='benders'))\n"
        "assert any(c.kind == 'benders' for c in report.cuts)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(netflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_cached_subset_tables_are_read_only_int32():
    # _subsets keeps one table per size for the whole process, so no
    # caller may write to it
    layers, pairs = netflow._subsets(3)
    for arr in [arr for layer in layers for arr in layer] + list(pairs):
        assert arr.dtype == np.int32
        with pytest.raises(ValueError):
            arr[0] = 0

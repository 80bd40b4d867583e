"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import time
from itertools import product

import numpy as np
import pytest

from ccpmsp import jobset, lastjob, oracle
from ccpmsp.cli import main as cli_main
from ccpmsp.decomposition import SolveOptions, solve_ccpmsp
from ccpmsp.diagram import (
    JOBSET,
    LASTJOB,
    build_top_down,
    canonical_remap,
)
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.master import build_master, check_rows
from ccpmsp.model import LimitExceeded
from diagram_reference import sub_times


@contextlib.contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL ({time.perf_counter() - t0:.1f}s) {desc}")
        raise
    print(f"\n[criterion {num}] PASS ({time.perf_counter() - t0:.1f}s) {desc}")


def dataset_scenarios(n_jobs, n_scenarios, seed):
    """A few scenarios from each dataset kind."""
    out = []
    for kind in ("ors", "vrp", "equal"):
        inst = make_instance(GenConfig(
            dataset_kind=kind, n_jobs=n_jobs, n_machines=1, n_scenarios=n_scenarios,
            seed=seed, capacity=n_jobs,
        ))
        out.extend(inst.scenarios)
    return out


def test_criterion_1_worked_example(uniform_scenario):
    with criterion(1, "worked example: accumulations, min time 14, IIS {{2},{1,3}}"):
        t0 = time.perf_counter()
        remap = canonical_remap([1, 2, 3])
        t, d = sub_times(uniform_scenario, remap)
        lj = build_top_down(LASTJOB, 3)
        js = build_top_down(JOBSET, 3)
        assert abs(lastjob.min_time(lj, t, d) - 14.0) <= 1e-9
        assert abs(jobset.min_time(js, t, d) - 14.0) <= 1e-9
        want = {frozenset({2}), frozenset({1, 3})}
        assert set(lastjob.iis(lj, 5.0, t, d)) == want
        assert set(jobset.iis(js, 5.0, t, d)) == want
        # narrated per-layer accumulations (order-free per layer)
        from ccpmsp.diagram import node_min_times

        node_times = node_min_times(lj, lastjob.arc_costs(lj, t, d))
        layer1 = sorted(node_times[n] for n in lj.layers[1])
        layer2 = sorted(node_times[n] for n in lj.layers[2])
        assert np.allclose(layer1, [2.0, 3.0, 6.0], atol=1e-9)
        assert np.allclose(layer2, [6.0, 6.0, 9.0, 9.0, 10.0, 10.0], atol=1e-9)
        assert abs(node_times[lj.terminal] - 14.0) <= 1e-9
        # the job-set variant's cumulative costs agree per job set
        costs = jobset.arc_costs(js, t, d)
        js_times = {
            int(js.node_mask[n]): costs[np.flatnonzero(js.arc_head == n)].min()
            for layer in js.layers[1:] for n in layer
        }
        assert abs(js_times[0b111] - 14.0) <= 1e-9
        assert sorted(np.round(
            [v for s, v in js_times.items() if bin(s).count("1") == 1], 9
        )) == [2.0, 3.0, 6.0]
        assert sorted(np.round(
            [v for s, v in js_times.items() if bin(s).count("1") == 2], 9
        )) == [6.0, 9.0, 10.0]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_sequencing_oracle_equivalence():
    with criterion(2, "1000 random sequencing evaluations equal brute force"):
        t0 = time.perf_counter()
        scenarios = dataset_scenarios(n_jobs=7, n_scenarios=12, seed=101)
        rng = np.random.default_rng(2024)
        diagrams = {}
        checked = 0
        while checked < 1000:
            sc = scenarios[int(rng.integers(len(scenarios)))]
            k = int(rng.integers(1, 8))
            jobs = sorted(rng.choice(np.arange(1, 8), size=k, replace=False).tolist())
            remap = canonical_remap(jobs)
            t, d = sub_times(sc, remap)
            if k not in diagrams:
                diagrams[k] = (
                    build_top_down(LASTJOB, k),
                    build_top_down(JOBSET, k),
                )
            lj, js = diagrams[k]
            want = oracle.brute_min_time(jobs, sc, True)
            assert abs(lastjob.min_time(lj, t, d) - want) <= 1e-9
            assert abs(jobset.min_time(js, t, d) - want) <= 1e-9
            checked += 1
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_iis_oracle_equivalence():
    with criterion(3, "500 random IIS extractions equal brute force, both variants"):
        t0 = time.perf_counter()
        scenarios = dataset_scenarios(n_jobs=6, n_scenarios=10, seed=202)
        rng = np.random.default_rng(3030)
        diagrams = {}
        for _ in range(500):
            sc = scenarios[int(rng.integers(len(scenarios)))]
            k = int(rng.integers(2, 7))
            jobs = list(range(1, k + 1))
            remap = canonical_remap(jobs)
            t, d = sub_times(sc, remap)
            if k not in diagrams:
                diagrams[k] = (
                    build_top_down(LASTJOB, k),
                    build_top_down(JOBSET, k),
                )
            lj, js = diagrams[k]
            full = oracle.brute_min_time(jobs, sc, True)
            limit = float(rng.uniform(0.3, 1.05)) * full
            want = set(oracle.brute_iis(jobs, sc, limit))
            assert set(lastjob.iis(lj, limit, t, d)) == want
            assert set(jobset.iis(js, limit, t, d)) == want
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_end_to_end_optimality(regression_set, regression_optima):
    with criterion(4, "400 solves on 100 tiny instances match the oracle exactly"):
        t0 = time.perf_counter()
        for inst, want in zip(regression_set, regression_optima):
            for variant, cut in product((LASTJOB, JOBSET), ("nogood", "iis")):
                opts = SolveOptions(variant=variant, cut_kind=cut, time_budget=120)
                _, report = solve_ccpmsp(inst, opts)
                assert report.optimal, (variant, cut, inst.seed)
                assert abs(report.objective - want) <= 1e-9, (variant, cut, inst.seed)
        assert time.perf_counter() - t0 < 600.0


def test_criterion_5_structural_counts():
    with criterion(5, "layer sizes match closed forms for depth <= 10"):
        from math import comb

        assert build_top_down(LASTJOB, 3).layer_sizes() == [1, 3, 6, 1]
        assert build_top_down(JOBSET, 3).layer_sizes() == [1, 3, 3, 1]
        for k in range(1, 11):
            lj = build_top_down(LASTJOB, k)
            js = build_top_down(JOBSET, k)
            for p in range(1, k + 1):
                assert len(lj.layers[p - 1]) == comb(k, p - 1) * max(1, p - 1)
                assert len(js.layers[p - 1]) == comb(k, p - 1)
            assert len(lj.layers[k]) == len(js.layers[k]) == 1


def sweep_set():
    rng = np.random.default_rng(606)
    out = []
    for i in range(50):
        n = int(rng.integers(3, 7))
        out.append(make_instance(GenConfig(
            dataset_kind=["ors", "vrp", "equal"][i % 3],
            n_jobs=n, n_machines=2,
            n_scenarios=int(rng.integers(2, 6)),
            dif=float(rng.choice([-6.0, -4.0, -2.0, 0.0])),
            seed=7000 + i,
            capacity=min(n, int(rng.integers(2, 5))),
            epsilon=float(rng.choice([0.05, 0.25, 0.4])),
        )))
    return out


def chance_feasible_pairs(inst):
    """Every capacity-feasible x with its maximal z (claims exactly the truly
    feasible scenarios); any chance-feasible (x, z) is dominated by one of
    these for cut-violation purposes."""
    n, m = inst.n_jobs, inst.n_machines
    feas: dict[tuple, np.ndarray] = {}
    pairs = []
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
            if jobs:
                bits = feas.get(jobs)
                if bits is None:
                    bits = oracle.machine_feasibility(inst, jobs).astype(np.int8)
                    feas[jobs] = bits
                z &= bits
        if z.sum() * inst.scenario_prob >= 1.0 - inst.epsilon - 1e-12:
            pairs.append((x, z))
    return pairs


def test_criterion_6_cut_validity_sweep():
    with criterion(6, "no chance-feasible solution violates any emitted cut"):
        t0 = time.perf_counter()
        for inst in sweep_set():
            pools = []
            for cut_kind in ("nogood", "iis"):
                opts = SolveOptions(variant=JOBSET, cut_kind=cut_kind,
                                    scenario_relaxation=False, time_budget=60)
                pools.extend(solve_ccpmsp(inst, opts)[1].cuts)
            for strategy in (0, 1):
                opts = SolveOptions(variant=JOBSET, cut_kind="benders",
                                    benders_strategy=strategy,
                                    scenario_relaxation=False, time_budget=60)
                pools.extend(solve_ccpmsp(inst, opts)[1].cuts)
            if not pools:
                continue
            pairs = chance_feasible_pairs(inst)
            for cut in pools:
                w = cut.scenario
                if cut.kind == "benders":
                    const, coef = cut.benders_payload
                    for x, z in pairs:
                        if z[w]:
                            for mi in range(inst.n_machines):
                                assert const + coef @ x[:, mi] <= (
                                    inst.time_limit + 1e-6
                                ), (inst.seed, cut.kind, w)
                else:
                    jobs = np.array(sorted(cut.job_set)) - 1
                    size = len(jobs)
                    for x, z in pairs:
                        if z[w]:
                            assert int(x[jobs].sum(axis=0).max()) <= size - 1, (
                                inst.seed, cut.kind, sorted(cut.job_set), w)
        assert time.perf_counter() - t0 < 300.0


def test_criterion_7_symmetry_correctness(regression_set):
    with criterion(7, "symmetry rows change no objective; lexicographic checker"):
        for inst in regression_set:
            a = solve_ccpmsp(inst, SolveOptions(symmetry=True, time_budget=60))[1]
            b = solve_ccpmsp(inst, SolveOptions(symmetry=False, time_budget=60))[1]
            assert abs(a.objective - b.objective) <= 1e-9, inst.seed
        inst = make_instance(GenConfig(dataset_kind="equal", n_jobs=5, n_machines=3,
                                       n_scenarios=2, seed=1, capacity=2, dif=30.0))
        model = build_master(inst, symmetry=True, scenario_relaxation=False)
        x1 = np.array(
            [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int8)
        x2 = np.array(
            [[0, 0, 1], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int8)
        z = np.ones(2, dtype=np.int8)
        assert check_rows(model, x1, z) == []
        violated = check_rows(model, x2, z)
        assert "sym_zero_1_3" in violated and "sym_lex_2_1" in violated


MEDIUM_SET = [
    # (dataset, jobs, machines, scenarios, dif, seed)
    ("ors", 6, 2, 10, -2.0, 501),
    ("vrp", 8, 2, 10, -1.5, 502),
    ("equal", 8, 2, 12, -2.0, 503),
    ("ors", 10, 2, 10, -1.0, 504),
    ("equal", 10, 2, 12, -1.5, 505),
    ("vrp", 10, 2, 10, -2.0, 506),
    ("equal", 16, 2, 12, -2.5, 507),
    ("equal", 18, 2, 14, -4.0, 508),
    ("ors", 20, 2, 12, -1.5, 509),
    ("vrp", 20, 2, 14, -3.0, 510),
    ("equal", 20, 2, 14, -3.0, 511),
    ("equal", 22, 2, 16, -3.0, 512),
    ("ors", 22, 2, 14, -2.0, 13),
    ("vrp", 22, 2, 16, -2.0, 514),
    ("vrp", 24, 2, 18, -2.5, 515),
    ("equal", 24, 2, 20, -3.5, 516),
    ("equal", 21, 3, 15, -2.0, 517),
    ("vrp", 24, 3, 18, -3.0, 518),
    ("equal", 24, 2, 16, -4.0, 537),
    ("equal", 24, 3, 20, -2.5, 520),
]


def test_criterion_8_trend_reproduction():
    with criterion(8, "job-set variant no slower on average; diagrams beat flow cuts"):
        instances = [
            make_instance(GenConfig(dataset_kind=k, n_jobs=n, n_machines=m,
                                    n_scenarios=w, dif=dif, seed=seed))
            for (k, n, m, w, dif, seed) in MEDIUM_SET
        ]
        walls = {LASTJOB: [], JOBSET: []}
        solved = {LASTJOB: 0, JOBSET: 0, "benders": 0}
        for inst in instances:
            for variant in (LASTJOB, JOBSET):
                opts = SolveOptions(variant=variant, cut_kind="iis", time_budget=60)
                _, report = solve_ccpmsp(inst, opts)
                walls[variant].append(report.wall_time)
                solved[variant] += int(report.optimal)
            try:
                opts = SolveOptions(variant=JOBSET, cut_kind="benders",
                                    time_budget=60)
                _, report = solve_ccpmsp(inst, opts)
                solved["benders"] += int(report.optimal)
            except LimitExceeded:
                pass  # diagram scale guard: counts as unsolved
        mean_lj = float(np.mean(walls[LASTJOB]))
        mean_js = float(np.mean(walls[JOBSET]))
        print(f"\n  mean wall: lastjob {mean_lj:.2f}s, jobset {mean_js:.2f}s; "
              f"optimal: lastjob {solved[LASTJOB]}, jobset {solved[JOBSET]}, "
              f"benders {solved['benders']}")
        assert mean_js <= mean_lj
        assert solved[JOBSET] >= solved["benders"]
        assert solved[LASTJOB] >= solved["benders"]


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "same seed and flags give identical files and report rows"):
        args = ["generate", "--dataset", "equal", "--jobs", "8", "--machines", "2",
                "--scenarios", "6", "--dif", "-3.0", "--seed", "77"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(args + ["-o", str(a)]) == 0
        assert cli_main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        rows = []
        for _ in range(2):
            capsys.readouterr()
            assert cli_main(["solve", str(a), "--variant", "js", "--cut", "iis",
                             "--budget", "120"]) == 0
            out = capsys.readouterr().out.splitlines()
            row = out[2].split(",")
            # drop the wall-time columns: total_time, resol_time,
            # resol_time_per_cb, create_cut_time, create_sp_time
            rows.append([row[i] for i in (0, 1, 3, 4, 5, 6)])
        assert rows[0] == rows[1]

import json
import sys

import pytest

from ccpmsp import cli
from ccpmsp.cli import EXIT_OK, EXIT_VERIFY, main, read_runs
from ccpmsp.model import Instance
from conftest import B10_CONFIG, overloaded_b10_x


def run(args):
    return main([str(a) for a in args])


def gen_args(path, jobs=6, machines=2, scenarios=5, dif=-3.0, seed=1,
             dataset="ors", extra=()):
    return [
        "generate", "--dataset", dataset, "--jobs", jobs, "--machines", machines,
        "--scenarios", scenarios, "--dif", dif, "--seed", seed, "-o", path,
        *extra,
    ]


def test_generate_writes_valid_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert run(gen_args(path, jobs=60, machines=6, scenarios=10, dif=0.25)) == 0
    inst = Instance.load(path)
    assert inst.n_jobs == 60 and inst.capacity == 10
    assert inst.time_limit == pytest.approx(25.075)


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(gen_args(a, seed=5)) == 0
    assert run(gen_args(b, seed=5)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_config(tmp_path):
    assert run(gen_args(tmp_path / "x.json", jobs=7, machines=2)) == 2


def test_solve_and_verify_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    run(gen_args(inst_path))
    capsys.readouterr()
    code = run(["solve", inst_path, "--variant", "js", "--cut", "iis",
                "--budget", 60, "--solution", sol_path])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "# ccpmsp-csv v1"
    assert out[1].startswith("model,cut,total_time,gap,optimal")
    row = out[2].split(",")
    assert row[0] == "jobset" and row[1] == "iis"
    assert row[3] == "0" and row[4] == "1"  # gap 0, optimal
    assert out[1].endswith(",n_master_solves,n_certified")
    assert len(row) == len(out[1].split(","))
    assert run(["verify", inst_path, "--solution", sol_path]) == 0


def test_solve_variant_aliases_agree(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run(gen_args(inst_path, dataset="equal", seed=9))
    rows = {}
    for variant in ("lj", "js"):
        capsys.readouterr()
        assert run(["solve", inst_path, "--variant", variant, "--cut", "nogood",
                    "--budget", 60]) == 0
        rows[variant] = capsys.readouterr().out.splitlines()[2].split(",")
    # same gap/optimal and cut counters across variants
    assert rows["lj"][3:7] == rows["js"][3:7]


def test_solve_unreadable_instance(tmp_path):
    assert run(["solve", tmp_path / "missing.json"]) == 2


def test_solve_row_deterministic_excluding_times(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run(gen_args(inst_path, dataset="vrp", dif=-4.0, seed=31))
    seen = []
    for _ in range(2):
        capsys.readouterr()
        assert run(["solve", inst_path, "--variant", "js", "--cut", "iis",
                    "--budget", 60]) == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        # drop wall-time columns: total_time, resol_time, resol_time_per_cb,
        # create_cut_time, create_sp_time
        seen.append([row[i] for i in (0, 1, 3, 4, 5, 6)])
    assert seen[0] == seen[1]


def test_solve_budget_exhaustion_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "hard.json"
    run(gen_args(inst_path, jobs=12, machines=3, scenarios=10, dif=-6.0,
                 dataset="vrp", seed=13))
    capsys.readouterr()
    code = run(["solve", inst_path, "--budget", "0"])
    out = capsys.readouterr().out.splitlines()
    assert code == 3  # budget spent, no incumbent
    row = out[2].split(",")
    assert row[3] == "inf" and row[4] == "0"


def test_verify_catches_tampering(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    run(gen_args(inst_path, dif=-4.0, seed=3))
    run(["solve", inst_path, "--budget", 60, "--solution", sol_path])
    sol = json.loads(sol_path.read_text())

    flipped = dict(sol)
    z = list(sol["z"])
    if 0 in z:
        z[z.index(0)] = 1
        flipped["z"] = z
        (tmp_path / "bad_z.json").write_text(json.dumps(flipped))
        assert run(["verify", inst_path, "--solution", tmp_path / "bad_z.json"]) == 1

    wrong_obj = dict(sol)
    wrong_obj["objective"] = (sol["objective"] or 0) + 1.0
    (tmp_path / "bad_obj.json").write_text(json.dumps(wrong_obj))
    assert run(["verify", inst_path, "--solution", tmp_path / "bad_obj.json"]) == 1


def test_verify_reports_malformed_candidates(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run(gen_args(inst_path, jobs=10, machines=2, scenarios=10, dif=-1.0,
                 seed=504))
    x = [[0, 0] for _ in range(10)]
    x[0][0] = 1
    cases = {
        "z_two": (x, [2] * 5 + [0] * 5, "z has entries outside {0, 1}"),
        "x_negative": ([[1, 0]] + [[0, -1]] + x[2:], [1] * 10,
                       "x has entries outside {0, 1}"),
        "z_short": (x, [1] * 9, "z shape (9,) does not match the instance"),
        "x_narrow": ([row[:1] for row in x], [1] * 10,
                     "x shape (10, 1) does not match the instance"),
        # int8 would truncate 1.5 and wrap 257 to 1
        "z_fraction": (x, [1.5] * 10, "malformed candidate: x and z must "
                       "hold integers within int8 range"),
        "z_wrapping": (x, [257] * 10, "malformed candidate: x and z must "
                       "hold integers within int8 range"),
        "x_ragged": ([[1, 0], [0]] + x[2:], [1] * 10, "malformed candidate: "),
    }
    for name, (xs, zs, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"x": xs, "z": zs, "objective": 1.0}))
        capsys.readouterr()
        assert run(["verify", inst_path, "--solution", path]) == EXIT_VERIFY
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith(f"violation: {message}") for line in err)


def test_verify_at_capacity_ten(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    sol_path = tmp_path / "s.json"
    c = B10_CONFIG
    run(gen_args(inst_path, jobs=c.n_jobs, machines=c.n_machines,
                 scenarios=c.n_scenarios, dif=c.dif, seed=c.seed,
                 dataset=c.dataset_kind))
    inst = Instance.load(inst_path)
    assert inst.capacity == 10
    assert run(["solve", inst_path, "--budget", 60, "--solution", sol_path]) == 0
    assert run(["verify", inst_path, "--solution", sol_path]) == EXIT_OK

    sol = json.loads(sol_path.read_text())
    assert sum(map(sum, sol["x"])) == inst.n_jobs  # objective stays the same
    sol["x"] = overloaded_b10_x(inst).tolist()
    sol["z"] = [1] * inst.n_scenarios
    bad = tmp_path / "overloaded.json"
    bad.write_text(json.dumps(sol))
    capsys.readouterr()
    assert run(["verify", inst_path, "--solution", bad]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "machine 0 infeasible in scenario 0" in err


def test_external_backend_through_cli(tmp_path, capsys, monkeypatch):
    import os

    stub = os.path.join(os.path.dirname(__file__), "lp_stub.py")
    inst_path = tmp_path / "i.json"
    run(gen_args(inst_path, jobs=4, machines=2, scenarios=3, seed=2,
                 extra=("--capacity", "2")))
    capsys.readouterr()
    monkeypatch.setenv("CCPMSP_EXTERNAL_SOLVER", f"{sys.executable} {stub}")
    code = run(["solve", inst_path, "--backend", "external", "--budget", 120])
    ext_row = capsys.readouterr().out.splitlines()[2].split(",")
    assert code == 0
    monkeypatch.delenv("CCPMSP_EXTERNAL_SOLVER")
    assert run(["solve", inst_path, "--budget", 120]) == 0
    ref_row = capsys.readouterr().out.splitlines()[2].split(",")
    assert ext_row[3:5] == ref_row[3:5]  # same gap and optimality


def test_bench_and_report(tmp_path, capsys):
    paths = []
    for i in range(3):
        p = tmp_path / f"inst{i}.json"
        run(gen_args(p, dataset="equal", machines=2 + i % 2, dif=-(i + 2), seed=i))
        paths.append(p)
    out = tmp_path / "runs.csv"
    assert run(["bench", *paths, "--variants", "lj,js", "--cuts", "nogood,iis",
                "--budget", 60, "--out", out]) == 0
    runs = read_runs(out)
    assert len(runs) == 12
    assert {r["model"] for r in runs} == {"lastjob", "jobset"}
    agg = (tmp_path / "runs.agg.csv").read_text()
    assert "# table1: summary" in agg
    assert "# table4: by machine count" in agg
    # rerun aggregation through the report command
    agg2 = tmp_path / "again.agg.csv"
    assert run(["report", out, "--out", agg2]) == 0
    assert agg2.read_text() == (tmp_path / "runs.agg.csv").read_text()
    # optimal counts equal gap-0 rows per group
    table1 = agg.split("# table2")[0]
    for line in table1.splitlines():
        if line.startswith(("jobset,", "lastjob,")):
            model, cut, _, _, n_opt = line.split(",")
            want = sum(
                1 for r in runs
                if r["model"] == model and r["cut"] == cut and r["gap"] == "0"
            )
            assert int(n_opt) == want


def test_bench_records_failures_and_continues(tmp_path, capsys):
    # benders on a 24-job instance exceeds the diagram scale guard: the row
    # is recorded as failed and the batch proceeds
    big = tmp_path / "big.json"
    run(gen_args(big, jobs=24, machines=3, scenarios=3, dif=20.0, seed=4))
    small = tmp_path / "small.json"
    run(gen_args(small, jobs=4, machines=2, scenarios=3, seed=5,
                 extra=("--capacity", "2")))
    out = tmp_path / "runs.csv"
    assert run(["bench", big, small, "--variants", "js", "--cuts", "benders",
                "--budget", 60, "--out", out]) == 0
    runs = read_runs(out)
    assert len(runs) == 2
    by_name = {r["instance"]: r for r in runs}
    assert by_name["big"]["gap"] == "inf" and by_name["big"]["optimal"] == "0"
    assert by_name["small"]["optimal"] == "1"


def test_bench_rejects_unknown_names(tmp_path, capsys):
    # an unknown name is a configuration error (exit 2), not a crash, and
    # nothing is written
    inst_path = tmp_path / "i.json"
    run(gen_args(inst_path))
    capsys.readouterr()
    out = tmp_path / "runs.csv"
    assert run(["bench", inst_path, "--variants", "js,foo", "--out", out]) == 2
    assert "unknown variant 'foo'" in capsys.readouterr().err
    assert run(["bench", inst_path, "--cuts", "iis,foo", "--out", out]) == 2
    assert "unknown cut kind 'foo'" in capsys.readouterr().err
    assert not out.exists()


def test_bench_status_tells_errors_from_limits(tmp_path, monkeypatch):
    hard = tmp_path / "hard.json"
    run(gen_args(hard, jobs=12, machines=3, scenarios=10, dif=-6.0,
                 dataset="vrp", seed=13))
    small = tmp_path / "small.json"
    run(gen_args(small, dataset="equal", seed=9))
    out = tmp_path / "runs.csv"

    def bench(path, budget):
        assert run(["bench", path, "--variants", "js", "--cuts", "iis",
                    "--budget", budget, "--out", out]) == 0
        (row,) = read_runs(out)
        return row

    row = bench(small, 60)
    assert row["status"] == "optimal"
    assert 0.0 <= float(row["master_time"]) <= float(row["total_time"])
    assert float(row["verify_time"]) >= 0.0
    assert bench(hard, 0)["status"] == "limit"

    def crash(inst, opts):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(cli, "solve_ccpmsp", crash)
    row = bench(small, 60)
    assert row["status"] == "error" and row["gap"] == "inf"
    assert row["n_master_solves"] == row["n_certified"] == "0"


def test_bench_parallel_matches_serial(tmp_path):
    paths = []
    for i in range(2):
        p = tmp_path / f"p{i}.json"
        run(gen_args(p, dataset="vrp", dif=-3.0, seed=40 + i))
        paths.append(p)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert run(["bench", *paths, "--variants", "js", "--cuts", "iis",
                "--budget", 60, "--out", serial]) == 0
    assert run(["bench", *paths, "--variants", "js", "--cuts", "iis",
                "--budget", 60, "--parallel", 2, "--out", parallel]) == 0
    drop = {"total_time", "resol_time", "resol_time_per_cb",
            "create_cut_time", "create_sp_time", "master_time", "verify_time",
            "build_time"}
    a = [{k: v for k, v in r.items() if k not in drop} for r in read_runs(serial)]
    b = [{k: v for k, v in r.items() if k not in drop} for r in read_runs(parallel)]
    assert a == b


def test_group_gap_inf_propagates(tmp_path):
    out = tmp_path / "runs.csv"
    out.write_text(
        "# ccpmsp-csv v1\n"
        "instance,dataset,jobs,machines,scenarios,model,cut,total_time,gap,"
        "optimal,n_callbacks,n_cuts,resol_time,resol_time_per_cb,"
        "create_cut_time,create_sp_time\n"
        "a,ors,6,2,5,jobset,iis,1.0,0,1,1,0,0,0,0,0\n"
        "b,ors,6,2,5,jobset,iis,2.0,inf,0,1,0,0,0,0,0\n"
    )
    agg = tmp_path / "agg.csv"
    assert run(["report", out, "--out", agg]) == 0
    table1 = agg.read_text().split("# table2")[0]
    line = [l for l in table1.splitlines() if l.startswith("jobset,iis")][0]
    assert line.split(",")[3] == "inf"
    assert line.split(",")[4] == "1"

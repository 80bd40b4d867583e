"""Command-line front end: instance generation, solving, verification,
batch benchmarks, and CSV aggregation.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(an unknown option value, a negative or NaN budget, or an instance file that
cannot be read or breaks an invariant of ``validate_instance``), 3 budget
exhausted without an incumbent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .decomposition import SolveOptions, SolveReport, solve_ccpmsp
from .instances import GenConfig, make_instance
from .model import (
    Candidate,
    ConfigurationError,
    Instance,
    LimitExceeded,
    StructuralError,
    candidate_objective,
    validate_instance,
)
from .oracle import verify_candidate

CSV_VERSION = "# ccpmsp-csv v1"
SOLVE_COLUMNS = (
    "model,cut,total_time,gap,optimal,n_callbacks,n_cuts,"
    "resol_time,resol_time_per_cb,create_cut_time,create_sp_time,"
    "master_time,verify_time,status,build_time,n_certified,n_master_nodes,"
    "n_fallbacks"
)
BENCH_COLUMNS = "instance,dataset,jobs,machines,scenarios," + SOLVE_COLUMNS

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NO_INCUMBENT = 3

VARIANT_ALIASES = {
    "lj": "lastjob", "lastjob": "lastjob", "js": "jobset", "jobset": "jobset",
}
CUT_ALIASES = {
    "nogood": "nogood", "no-good": "nogood", "iis": "iis",
    "benders": "benders", "flow": "benders", "bendersflow": "benders",
}


def fmt_gap(gap: float) -> str:
    return "inf" if math.isinf(gap) else f"{gap:.6g}"


def solve_row(model_name: str, cut: str, report) -> str:
    return ",".join(
        [
            model_name,
            cut,
            f"{report.wall_time:.3f}",
            fmt_gap(report.gap),
            "1" if report.optimal else "0",
            str(report.n_callbacks),
            str(report.n_cuts),
            f"{report.subproblem_resolution_time:.3f}",
            f"{report.resolution_time_per_callback:.4f}",
            f"{report.cut_creation_time:.3f}",
            f"{report.subproblem_creation_time:.3f}",
            f"{report.master_time:.3f}",
            f"{report.verify_time:.3f}",
            report.status,
            f"{report.build_time:.3f}",
            str(report.n_certified),
            str(report.n_master_nodes),
            str(report.n_fallbacks),
        ]
    )


def _resolve(aliases: dict, name: str, what: str) -> str:
    resolved = aliases.get(name.lower())
    if resolved is None:
        raise ConfigurationError(f"unknown {what} {name!r}")
    return resolved


def _solve_options(args) -> SolveOptions:
    variant = _resolve(VARIANT_ALIASES, args.variant, "variant")
    cut = _resolve(CUT_ALIASES, args.cut, "cut kind")
    return SolveOptions(
        variant=variant,
        cut_kind=cut,
        symmetry=not args.no_symmetry,
        scenario_relaxation=not args.no_scenario_relaxation,
        time_budget=args.budget,
    )


def _load_instance(path) -> Instance:
    """Read an instance file and check its invariants; a file that cannot
    be read or breaks one raises ConfigurationError listing the problems."""
    try:
        inst = Instance.load(path)
        problems = validate_instance(inst)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigurationError(f"cannot read instance {path}: {exc}") from exc
    if problems:
        raise ConfigurationError(f"invalid instance {path}: " + "; ".join(problems))
    return inst


def _add_solve_flags(sp) -> None:
    sp.add_argument("--variant", default="js", help="diagram variant: lj | js")
    sp.add_argument("--cut", default="iis", help="cut kind: nogood | iis | benders")
    sp.add_argument("--budget", type=float, default=1200.0,
                    help="time budget in seconds (default 1200)")
    sp.add_argument("--no-symmetry", action="store_true")
    sp.add_argument("--no-scenario-relaxation", action="store_true",
                    help="drop the master's relaxation rows: the additive "
                         "optimistic loads and the own-successor bound of "
                         "each full machine")


def cmd_generate(args) -> int:
    cfg = GenConfig(
        dataset_kind=args.dataset,
        n_jobs=args.jobs,
        n_machines=args.machines,
        n_scenarios=args.scenarios,
        dif=args.dif,
        seed=args.seed,
        capacity=args.capacity,
        epsilon=args.epsilon,
        region=args.region,
    )
    inst = make_instance(cfg)
    problems = validate_instance(inst)
    if problems:
        print("generated instance failed validation:", problems, file=sys.stderr)
        return EXIT_CONFIG
    inst.save(args.output)
    print(f"wrote {args.output}: {inst.n_jobs} jobs, {inst.n_machines} machines, "
          f"{inst.n_scenarios} scenarios, B={inst.capacity}, T={inst.time_limit}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    opts = _solve_options(args)
    cand, report = solve_ccpmsp(inst, opts)
    print(CSV_VERSION)
    print(SOLVE_COLUMNS)
    print(solve_row(opts.variant, opts.cut_kind, report))
    if args.solution:
        payload = {
            "objective": report.objective,
            "bound": report.bound,
            "gap": None if math.isinf(report.gap) else report.gap,
            "status": report.status,
            "model": opts.variant,
            "cut": opts.cut_kind,
        }
        if cand is not None:
            payload.update(cand.to_dict())
        with open(args.solution, "w") as fh:
            json.dump(payload, fh)
    if cand is None:
        return EXIT_NO_INCUMBENT
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    try:
        with open(args.solution) as fh:
            sol = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read solution {args.solution}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(sol, dict) or "x" not in sol or "z" not in sol:
        print("solution file carries no candidate", file=sys.stderr)
        return EXIT_VERIFY
    try:
        cand = Candidate(x=np.array(sol["x"]), z=np.array(sol["z"]))
    except (TypeError, ValueError) as exc:
        print(f"violation: malformed candidate: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    problems = verify_candidate(inst, cand)
    reported = sol.get("objective")
    try:
        actual = candidate_objective(inst, cand)
    except StructuralError:  # a wrong x shape, already among the problems
        actual = None
    # a reported objective that is not a number matches no actual one
    if None not in (reported, actual) and not (
            isinstance(reported, (int, float)) and abs(actual - reported) <= 1e-6):
        problems.append(f"objective mismatch: reported {reported}, actual {actual}")
    if problems:
        for p in problems:
            print(f"violation: {p}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"ok: objective {actual}, chance constraint and all sequences verified")
    return EXIT_OK


def _bench_one(task) -> tuple[str, str]:
    """One bench run; module-level so worker processes can receive it.
    Returns (row, warning-or-empty)."""
    path, variant, cut, budget = task
    inst = Instance.load(path)
    name = os.path.splitext(os.path.basename(path))[0]
    prefix = (
        f"{name},{inst.dataset_kind},{inst.n_jobs},"
        f"{inst.n_machines},{inst.n_scenarios}"
    )
    opts = SolveOptions(variant=variant, cut_kind=cut, time_budget=budget)
    try:
        _, report = solve_ccpmsp(inst, opts)
        return f"{prefix},{solve_row(variant, cut, report)}", ""
    except Exception as exc:  # record the failure, keep the batch going
        row = solve_row(variant, cut, SolveReport(status="error"))
        return f"{prefix},{row}", f"{name} {variant}/{cut}: {exc}"


def cmd_bench(args) -> int:
    variants = [_resolve(VARIANT_ALIASES, v.strip(), "variant")
                for v in args.variants.split(",")]
    cuts = [_resolve(CUT_ALIASES, c.strip(), "cut kind") for c in args.cuts.split(",")]
    SolveOptions(time_budget=args.budget).check()
    tasks = []
    for path in args.instances:
        _load_instance(path)
        for variant in variants:
            for cut in cuts:
                for _ in range(args.repetitions):
                    tasks.append((path, variant, cut, args.budget))
    if args.parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(_bench_one, tasks))
    else:
        results = [_bench_one(t) for t in tasks]
    rows = []
    for row, warning in results:
        if warning:
            print(warning, file=sys.stderr)
        rows.append(row)
    with open(args.out, "w") as fh:
        fh.write(CSV_VERSION + "\n" + BENCH_COLUMNS + "\n")
        fh.write("\n".join(rows) + "\n")
    agg_path = os.path.splitext(args.out)[0] + ".agg.csv"
    write_aggregates(args.out, agg_path)
    print(f"wrote {args.out} and {agg_path} ({len(rows)} runs)")
    return EXIT_OK


def read_runs(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    lines = [l for l in lines if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _mean(vals) -> float:
    vals = list(vals)
    return sum(vals) / len(vals) if vals else 0.0


def _group_gap(gaps: list[str]) -> str:
    # any run without an incumbent poisons the group average
    if any(g == "inf" for g in gaps):
        return "inf"
    return f"{_mean(float(g) for g in gaps):.6g}"


def write_aggregates(runs_path: str, agg_path: str) -> None:
    """Aggregate tables over a runs CSV: overall summary, feasible-only
    summary, decomposition counters, and a by-machine-count breakdown."""
    runs = read_runs(runs_path)
    groups: dict[tuple, list[dict]] = {}
    for r in runs:
        groups.setdefault((r["model"], r["cut"]), []).append(r)
    out = [CSV_VERSION]

    out.append("# table1: summary")
    out.append("model,cut,total_time,gap,n_optimal")
    for (model, cut), rs in sorted(groups.items()):
        out.append(
            f"{model},{cut},{_mean(float(r['total_time']) for r in rs):.3f},"
            f"{_group_gap([r['gap'] for r in rs])},"
            f"{sum(int(r['optimal']) for r in rs)}"
        )

    out.append("# table2: feasible-only summary")
    out.append("model,cut,optimal_time,gap_without_inf,n_inf")
    for (model, cut), rs in sorted(groups.items()):
        opt = [r for r in rs if int(r["optimal"])]
        feas = [r for r in rs if r["gap"] != "inf"]
        out.append(
            f"{model},{cut},{_mean(float(r['total_time']) for r in opt):.3f},"
            f"{_mean(float(r['gap']) for r in feas):.6g},"
            f"{sum(1 for r in rs if r['gap'] == 'inf')}"
        )

    out.append("# table3: decomposition detail")
    out.append(
        "model,cut,n_callbacks,n_cuts,resol_time,resol_time_per_cb,"
        "create_cut_time,create_sp_time"
    )
    for (model, cut), rs in sorted(groups.items()):
        out.append(
            f"{model},{cut},{_mean(float(r['n_callbacks']) for r in rs):.1f},"
            f"{_mean(float(r['n_cuts']) for r in rs):.1f},"
            f"{_mean(float(r['resol_time']) for r in rs):.3f},"
            f"{_mean(float(r['resol_time_per_cb']) for r in rs):.4f},"
            f"{_mean(float(r['create_cut_time']) for r in rs):.3f},"
            f"{_mean(float(r['create_sp_time']) for r in rs):.3f}"
        )

    if runs and "machines" in runs[0]:
        out.append("# table4: by machine count")
        out.append("model,cut,machines,total_time,gap,n_optimal")
        by_m: dict[tuple, list[dict]] = {}
        for r in runs:
            by_m.setdefault((r["model"], r["cut"], int(r["machines"])), []).append(r)
        for (model, cut, m), rs in sorted(by_m.items()):
            out.append(
                f"{model},{cut},{m},{_mean(float(r['total_time']) for r in rs):.3f},"
                f"{_group_gap([r['gap'] for r in rs])},"
                f"{sum(int(r['optimal']) for r in rs)}"
            )

    with open(agg_path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def cmd_report(args) -> int:
    try:
        write_aggregates(args.runs, args.out)
    except (OSError, IndexError, KeyError, ValueError) as exc:
        print(f"cannot aggregate {args.runs}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccpmsp",
        description="chance-constrained parallel machine scheduling solver",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance file")
    g.add_argument("--dataset", default="ors", choices=["ors", "vrp", "equal"])
    g.add_argument("--jobs", type=int, required=True)
    g.add_argument("--machines", type=int, required=True)
    g.add_argument("--scenarios", type=int, default=100)
    g.add_argument("--dif", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--capacity", type=int, default=None)
    g.add_argument("--epsilon", type=float, default=0.05)
    g.add_argument("--region", default="square", choices=["square", "disc"])
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance, print a CSV row")
    s.add_argument("instance")
    s.add_argument("--solution", default=None, help="write the solution JSON here")
    _add_solve_flags(s)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="re-check a solution file against the oracle")
    v.add_argument("instance")
    v.add_argument("--solution", required=True)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="run an instance x variant x cut matrix")
    b.add_argument("instances", nargs="+")
    b.add_argument("--variants", default="lj,js")
    b.add_argument("--cuts", default="nogood,iis")
    b.add_argument("--budget", type=float, default=1200.0)
    b.add_argument("--parallel", type=int, default=1,
                   help="fan whole solves out over N processes")
    b.add_argument("--repetitions", type=int, default=1,
                   help="repeat every run N times (timing stability)")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("report", help="recompute aggregate tables from a runs CSV")
    r.add_argument("runs")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, LimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

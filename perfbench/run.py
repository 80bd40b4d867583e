#!/usr/bin/env python3
"""Solve benchmark for ccpmsp: caller-visible timing of ``solve_ccpmsp`` on
fixed workloads, with every answer checked, and a traced run that splits
the time by layer.

    python3 perfbench/run.py --workload master --seed 1 --seconds 22 --trace 0

Run it from the root of a checkout: the solver is imported from that
checkout's ``src/`` and from nowhere else.  The workloads, their reference
optima and why each was chosen are in ``perfbench/workloads.json``.  Each
workload is a closed loop with one caller and ``SolveOptions.workers`` at its
default of 1.

``--trace 0`` repeats the workload's solves for ``--seconds`` seconds, always
at least one full pass, and reports the end-to-end metrics:

  wall_s       one pass: the sum over the workload's solves of the median
               caller-visible ``solve_ccpmsp`` duration, which includes the
               post-solve verification that ``SolveReport.wall_time`` omits
  setup_s      median over fresh interpreters of the time to import ccpmsp
               and generate the workload's instances
  peak_rss_mb  peak resident memory of the benchmark process

Both times are scaled to a reference machine speed by ``speed.ScaledTimer``,
because the speed of a shared machine drifts too far within minutes for raw
seconds to compare two runs; the unscaled times are printed as well.

``--trace 1`` runs every solve untraced and traced and reports per-layer
counts and self times (see ``spans.py``); the spans are written to
``.perfbench-out/`` in the checkout.

``--seed`` sets the order of the solves within a pass.  ``--workload-seed``
adds its value to every instance seed; reference optima exist only for
workload seed 0, so on other seeds only internal consistency is checked.

A solve is ok when its status is optimal, its objective equals the reference
optimum, the candidate's utility equals the objective and the candidate
meets the chance constraint.  It is a timeout when its status is limit, and
failed otherwise, a solve that raises included.  The last line of output is
one JSON object: ``correct`` is false when any solve failed, ``attempted``
counts the solves run and ``failed`` those that were not ok.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from spans import Tracer
from speed import ScaledTimer

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench-out"
SETUP_RUNS = 7
TOL = 1e-6

OK, FAILED, TIMEOUT = "ok", "failed", "timeout"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNSCALED = {"unscaled_wall_s": "s", "unscaled_setup_s": "s"}

PER_LAYER = {
    "master.solves": "count",
    "master.self_s": "s",
    "jobset.min_time_calls": "count",
    "jobset.min_time_s": "s",
    "jobset.iis_calls": "count",
    "jobset.iis_s": "s",
    "jobset.iis_sets": "count",
    "lastjob.min_time_calls": "count",
    "lastjob.min_time_s": "s",
    "lastjob.iis_calls": "count",
    "lastjob.iis_s": "s",
    "lastjob.iis_sets": "count",
    "decomposition.check_self_s": "s",
    "decomposition.pairs_checked": "count",
    "decomposition.pairs_failed": "count",
    "decomposition.fail_ratio": "ratio",
    "decomposition.cut_self_s": "s",
    "decomposition.cuts_emitted": "count",
    "decomposition.cuts_pooled": "count",
    "decomposition.cut_yield": "ratio",
    "decomposition.other_s": "s",
    "decomposition.unreported_s": "s",
    "diagram.lookups": "count",
    "diagram.lookup_s": "s",
    "diagram.builds": "count",
    "diagram.build_s": "s",
    "oracle.verify_calls": "count",
    "oracle.verify_s": "s",
    "oracle.verify_skipped": "count",
    "netflow.context_s": "s",
    "netflow.cut_calls": "count",
    "netflow.cut_s": "s",
    "instances.gen_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
    "timeout_frac": "ratio",
}

# Self-time metrics of each layer.  Together they cover every traced
# second, so their sum is the traced wall time.
LAYER_TIMES = {
    "master": ("master.self_s",),
    "decomposition": (
        "decomposition.check_self_s",
        "decomposition.cut_self_s",
        "decomposition.other_s",
    ),
    "diagram": ("diagram.lookup_s", "diagram.build_s"),
    "jobset": ("jobset.min_time_s", "jobset.iis_s"),
    "lastjob": ("lastjob.min_time_s", "lastjob.iis_s"),
    "oracle": ("oracle.verify_s",),
    "netflow": ("netflow.context_s", "netflow.cut_s"),
}


def load_spec() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def import_solver() -> None:
    """Import ccpmsp from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import ccpmsp
    except ImportError as exc:
        raise SystemExit(f"cannot import ccpmsp from {SRC}: {exc}")
    found = Path(ccpmsp.__file__).resolve().parent
    if found != SRC / "ccpmsp":
        raise SystemExit(f"ccpmsp was imported from {found}, not from {SRC}")


def make_instances(solves: list[dict], shift: int) -> list:
    """One instance per solve entry; entries naming the same instance share it."""
    from ccpmsp.instances import GenConfig, make_instance

    built = {}
    for entry in solves:
        key = tuple(entry["instance"])
        if key not in built:
            kind, n_jobs, n_machines, n_scenarios, dif, seed = key
            built[key] = make_instance(GenConfig(
                dataset_kind=kind, n_jobs=n_jobs, n_machines=n_machines,
                n_scenarios=n_scenarios, dif=dif, seed=seed + shift,
            ))
    return [built[tuple(entry["instance"])] for entry in solves]


@dataclass
class Outcome:
    kind: str  # OK, FAILED or TIMEOUT
    seconds: float  # caller-visible solve_ccpmsp duration, probe time removed
    scaled_s: float  # the same at the reference machine speed
    report: object = None
    cand: object = None
    reason: str = ""


def classify(inst, entry: dict, cand, report, check_reference: bool):
    """(kind, reason) for one returned answer."""
    from ccpmsp.master import LIMIT, OPTIMAL
    from ccpmsp.model import candidate_objective, chance_satisfied

    if report.status == LIMIT:
        return TIMEOUT, "status limit"
    if report.status != OPTIMAL or cand is None:
        return FAILED, f"status {report.status}"
    if check_reference and abs(report.objective - entry["optimum"]) > TOL:
        return FAILED, f"objective {report.objective} != reference {entry['optimum']}"
    utility = candidate_objective(inst, cand)
    if abs(utility - report.objective) > TOL:
        return FAILED, f"candidate utility {utility} != objective {report.objective}"
    if not chance_satisfied(inst, cand.z):
        return FAILED, "chance constraint violated"
    return OK, ""


@dataclass
class Workload:
    solves: list[dict]  # entries of workloads.json
    instances: list
    check_reference: bool
    budget: float

    def solve(self, i: int, call: Callable) -> Outcome:
        """Run solve entry ``i`` through ``call`` (solve_ccpmsp or a traced
        wrapper of it) and check the answer."""
        from ccpmsp.decomposition import SolveOptions

        entry = self.solves[i]
        opts = SolveOptions(variant=entry["variant"], cut_kind=entry["cut"],
                            time_budget=self.budget)
        timer = ScaledTimer()
        try:
            with timer:
                cand, report = call(self.instances[i], opts)
            kind, reason = classify(self.instances[i], entry, cand, report,
                                    self.check_reference)
        except Exception as exc:  # a raising solve is a failure, never a timeout
            return Outcome(FAILED, timer.raw_s, timer.scaled_s,
                           reason=f"{type(exc).__name__}: {exc}")
        return Outcome(kind, timer.raw_s, timer.scaled_s, report, cand, reason)


def fractions(outcomes: list[Outcome]) -> dict:
    n = len(outcomes)
    return {
        "failed_frac": sum(o.kind == FAILED for o in outcomes) / n,
        "timeout_frac": sum(o.kind == TIMEOUT for o in outcomes) / n,
    }


def measure_setup(workload: str, workload_seed: int) -> dict:
    """Median over fresh interpreters of import plus instance generation,
    scaled and unscaled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--workload-seed", str(workload_seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True,
                              timeout=120, check=True)
        s, r = done.stdout.split()[-2:]
        scaled.append(float(s))
        raw.append(float(r))
    return {"setup_s": statistics.median(scaled),
            "unscaled_setup_s": statistics.median(raw)}


def timed_run(work: Workload, order: list[int], seconds: float):
    """Closed loop over ``order`` until ``seconds`` have passed, after at
    least one full pass; a further solve starts only if its median so far
    fits before the deadline."""
    from ccpmsp.decomposition import solve_ccpmsp

    durations = [[] for _ in work.solves]
    scaled = [[] for _ in work.solves]
    outcomes = []

    def run(i):
        outcome = work.solve(i, solve_ccpmsp)
        durations[i].append(outcome.seconds)
        scaled[i].append(outcome.scaled_s)
        outcomes.append(outcome)

    deadline = time.perf_counter() + seconds
    for i in order:
        run(i)
    for i in itertools.cycle(order):
        if time.perf_counter() + statistics.median(durations[i]) > deadline:
            break
        run(i)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": sum(statistics.median(s) for s in scaled),
        "unscaled_wall_s": sum(statistics.median(d) for d in durations),
        "peak_rss_mb": rss_kib / 1024,
    }
    return outcomes, metrics


def layer_metrics(tracer: Tracer, traced: list[Outcome]) -> dict:
    """Per-layer counts and self times of one traced pass; ``traced[i]`` is
    the outcome of the solve the tracer numbered i."""
    agg = tracer.by_name()

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def own(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def size(name):
        return agg.get(name, {}).get("size", 0)

    roots = [s for s in tracer.spans if s.parent < 0]
    reports = [o.report for o in traced if o.report is not None]
    pairs = sum(int(r.check_counts.sum()) for r in reports)
    pooled = sum(r.n_cuts for r in reports)
    verified = {s.solve for s in tracer.spans if s.name == "oracle.verify"}
    m = {
        "master.solves": calls("master.solve"),
        "master.self_s": own("master.solve"),
    }
    for variant in ("jobset", "lastjob"):
        m[f"{variant}.min_time_calls"] = calls(f"{variant}.min_time")
        m[f"{variant}.min_time_s"] = own(f"{variant}.min_time")
        m[f"{variant}.iis_calls"] = calls(f"{variant}.iis")
        m[f"{variant}.iis_s"] = own(f"{variant}.iis")
        m[f"{variant}.iis_sets"] = size(f"{variant}.iis")
    m.update({
        "decomposition.check_self_s": own("decomposition.check"),
        "decomposition.pairs_checked": pairs,
        "decomposition.pairs_failed": size("decomposition.check"),
        "decomposition.fail_ratio":
            size("decomposition.check") / pairs if pairs else 0.0,
        "decomposition.cut_self_s": own("decomposition.cut"),
        "decomposition.cuts_emitted": size("decomposition.cut"),
        "decomposition.cuts_pooled": pooled,
        "decomposition.cut_yield":
            pooled / size("decomposition.cut") if size("decomposition.cut") else 0.0,
        "decomposition.other_s": own("decomposition.solve"),
        "decomposition.unreported_s": sum(
            root.seconds - o.report.wall_time
            for root, o in zip(roots, traced) if o.report is not None
        ),
        "diagram.lookups": calls("diagram.lookup"),
        "diagram.lookup_s": own("diagram.lookup"),
        "diagram.builds": calls("diagram.build"),
        "diagram.build_s": own("diagram.build"),
        "oracle.verify_calls": calls("oracle.verify"),
        "oracle.verify_s": own("oracle.verify"),
        "oracle.verify_skipped": sum(
            o.cand is not None and i not in verified for i, o in enumerate(traced)
        ),
        "netflow.context_s": own("netflow.context"),
        "netflow.cut_calls": calls("netflow.cut"),
        "netflow.cut_s": own("netflow.cut"),
    })
    return m


def layer_shares(metrics: dict) -> dict:
    total = sum(metrics[k] for keys in LAYER_TIMES.values() for k in keys)
    return {layer: sum(metrics[k] for k in keys) / total
            for layer, keys in LAYER_TIMES.items()}


def traced_run(work: Workload, order: list[int]):
    """A pass in which each solve runs untraced and then at once traced.

    The overhead compares scaled times, as raw ones drift by more than it.
    A span costs about 2 us on the reference machine, so on these workloads
    the overhead is milliseconds and the reported difference is mostly the
    noise between two solves.  The speed probe runs inside whichever span
    is open and so adds about the same small share to every self time."""
    from ccpmsp.decomposition import solve_ccpmsp

    tracer = Tracer()
    call = functools.partial(tracer.call, solve_ccpmsp)
    untraced, traced = [], []
    for i in order:
        untraced.append(work.solve(i, solve_ccpmsp))
        with tracer.installed():
            traced.append(work.solve(i, call))
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead_s"] = (sum(o.scaled_s for o in traced)
                                   - sum(o.scaled_s for o in untraced))
    return untraced + traced, metrics, tracer


def print_counts(work: Workload, order: list[int], tracer: Tracer,
                 traced: list[Outcome]) -> None:
    """Per traced solve: master solves, pooled cuts and checked pairs,
    against the counts recorded for workload seed 0."""
    masters = [0] * len(traced)
    for span in tracer.spans:
        if span.name == "master.solve":
            masters[span.solve] += 1
    for n, (i, o) in enumerate(zip(order, traced)):
        entry = work.solves[i]
        kind, n_jobs, n_machines, n_scenarios, dif, _ = entry["instance"]
        line = (f"# solve {kind} {n_jobs}x{n_machines}x{n_scenarios} dif {dif}"
                f" seed {work.instances[i].seed} {entry['variant']}/{entry['cut']}:"
                f" {o.kind}")
        if o.report is not None:
            got = (masters[n], o.report.n_cuts, int(o.report.check_counts.sum()))
            line += (f" objective {o.report.objective}"
                     f" master_solves {got[0]} cuts {got[1]} pairs_checked {got[2]}")
            if work.check_reference:
                want = (entry["master_solves"], entry["cuts"], entry["pairs_checked"])
                line += " (as recorded)" if got == want else f" (recorded {want})"
        print(line)


def print_shares(shares: dict, expected: list[str]) -> None:
    """Each layer's share of the traced self time, and the combined share of
    the layers this workload was chosen for against the largest other one."""
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# share {layer} {share:.4f}")
    other = max((layer for layer in shares if layer not in expected), key=shares.get)
    print(f"# dominant {'+'.join(expected)} {sum(shares[l] for l in expected):.4f}"
          f" vs next {other} {shares[other]:.4f}")


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the solves within a pass")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="measuring time of --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="added to every instance seed; 0 = recorded instances")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    solves = spec["workloads"][args.workload]["solves"]

    if args.setup_probe:
        with ScaledTimer() as timer:
            import_solver()
            make_instances(solves, args.workload_seed)
        print(repr(timer.scaled_s), repr(timer.raw_s))
        return 0

    # One caller, one solver thread: without this, OpenBLAS starts a thread
    # per core when numpy is imported.  The solver's small array operations
    # do not use them, and their start-up added a varying 0.05-0.1 s to the
    # set-up time on a 2-vCPU machine.  Set-up children inherit the setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_solver()
    if not args.trace:
        setup = measure_setup(args.workload, args.workload_seed)
    t0 = time.perf_counter()
    instances = make_instances(solves, args.workload_seed)
    gen_s = time.perf_counter() - t0
    work = Workload(solves, instances, args.workload_seed == 0, spec["budget_s"])
    if not work.check_reference:
        print(f"# workload seed {args.workload_seed}: reference optima exist only "
              "for workload seed 0; checking internal consistency only")
    order = random.Random(args.seed).sample(range(len(solves)), len(solves))

    if args.trace:
        outcomes, metrics, tracer = traced_run(work, order)
        metrics["instances.gen_s"] = gen_s
        traced = outcomes[len(order):]
        print_counts(work, order, tracer, traced)
        print_shares(layer_shares(metrics), spec["workloads"][args.workload]["dominant"])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}"
                           f"-wseed{args.workload_seed}.jsonl")
        units = PER_LAYER
    else:
        outcomes, metrics = timed_run(work, order, args.seconds)
        metrics.update(setup)
        units = END_TO_END
    metrics.update(fractions(outcomes))

    for o in outcomes:
        if o.kind != OK:
            print(f"# {o.kind}: {o.reason}")
    all_units = {**END_TO_END, **UNSCALED, **PER_LAYER}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {all_units[name]}")
    result = {
        "correct": all(o.kind != FAILED for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.kind != OK for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

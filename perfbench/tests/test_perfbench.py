"""Tests of the solve benchmark: span accounting, restoring the patched
solver functions, answer classification and the metric list.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import functools
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer, patch_targets  # noqa: E402
from speed import REF_PROBE_S, ScaledTimer, typical  # noqa: E402

run.import_solver()

from ccpmsp.decomposition import solve_ccpmsp  # noqa: E402

JOBSET_IIS = {"instance": ["equal", 8, 2, 12, -2.0, 503], "variant": "jobset",
              "cut": "iis", "optimum": 41}
LASTJOB_IIS = dict(JOBSET_IIS, variant="lastjob")
BENDERS = {"instance": ["ors", 6, 2, 10, -2.0, 501], "variant": "jobset",
           "cut": "benders", "optimum": 32}


def workload(solves, budget=120.0):
    return run.Workload(solves, run.make_instances(solves, 0), True, budget)


@pytest.mark.parametrize("entry, layer_spans", [
    (JOBSET_IIS, {"jobset.min_time", "jobset.iis"}),
    (LASTJOB_IIS, {"lastjob.min_time", "lastjob.iis"}),
    (BENDERS, {"jobset.min_time", "netflow.context", "netflow.cut"}),
])
def test_self_times_add_up_to_the_traced_solve(entry, layer_spans):
    work = workload([entry])
    tracer = Tracer()
    with tracer.installed():
        call = functools.partial(tracer.call, solve_ccpmsp)
        outcome = work.solve(0, call)
    assert outcome.kind == run.OK
    names = {span.name for span in tracer.spans}
    assert layer_spans | {"decomposition.solve", "master.solve", "decomposition.check",
                          "decomposition.cut", "oracle.verify",
                          "diagram.lookup", "diagram.build"} == names
    metrics = run.layer_metrics(tracer, [outcome])
    (root,) = [span for span in tracer.spans if span.parent < 0]
    covered = sum(metrics[k] for keys in run.LAYER_TIMES.values() for k in keys)
    assert covered == pytest.approx(root.seconds, rel=1e-9, abs=1e-9)


def test_patched_attributes_are_restored_after_a_raising_solve():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patch_targets()]
    broken = dict(JOBSET_IIS, variant="no-such-variant")
    outcomes, metrics, tracer = run.traced_run(workload([JOBSET_IIS, broken]), [0, 1])
    assert [o.kind for o in outcomes] == [run.OK, run.FAILED] * 2
    assert "ConfigurationError" in outcomes[1].reason
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert metrics["master.solves"] > 0

    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_scaled_timer_restores_the_alarm_and_scales_by_the_probe():
    previous = signal.getsignal(signal.SIGALRM)
    timer = ScaledTimer()
    with pytest.raises(RuntimeError):
        with timer:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
            raise RuntimeError
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timer.samples) >= 4  # before, at least two alarms, after
    assert 0.3 < timer.raw_s < 0.35
    assert timer.scaled_s == pytest.approx(
        timer.raw_s * REF_PROBE_S / typical(timer.samples))
    assert typical([1.0, 2.0, 3.0, 4.0, 50.0]) == 2.5


def test_wrong_reference_objective_counts_as_failed():
    outcomes, _ = run.timed_run(workload([dict(JOBSET_IIS, optimum=40)]), [0], 0.0)
    assert run.fractions(outcomes) == {"failed_frac": 1.0, "timeout_frac": 0.0}
    assert "reference" in outcomes[0].reason


def test_tiny_budget_on_the_master_instance_counts_as_timeout():
    entry = run.load_spec()["workloads"]["master"]["solves"][0]
    outcomes, _ = run.timed_run(workload([entry], budget=0.01), [0], 0.0)
    assert run.fractions(outcomes) == {"failed_frac": 0.0, "timeout_frac": 1.0}


def test_benchmark_json_names_the_reported_metrics_and_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.load_spec()["workloads"])

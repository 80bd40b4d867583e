from dataclasses import replace

import numpy as np
import pytest

from ccpmsp.instances import (
    GenConfig,
    compute_time_limit,
    gen_base_points,
    gen_execution_times,
    gen_setup_times,
    make_instance,
)
from ccpmsp.model import ConfigurationError, validate_instance


def test_time_limit_formula():
    assert compute_time_limit(10, 0.2) == pytest.approx(25.06)
    assert compute_time_limit(12, -1.0) == pytest.approx(29.7)
    assert compute_time_limit(1, 0.0) == pytest.approx(2.5)


def test_execution_times_match_target_moments():
    cfg = GenConfig(dataset_kind="ors", n_jobs=100, n_machines=1, n_scenarios=1000,
                    seed=123)
    sample = gen_execution_times(cfg).ravel()
    assert len(sample) == 100_000
    assert abs(sample.mean() - 2.0) < 0.02
    assert abs(sample.std() - 0.6) < 0.02


def test_execution_times_deterministic():
    cfg = GenConfig(dataset_kind="equal", n_jobs=7, n_machines=1, n_scenarios=9,
                    seed=42)
    assert np.array_equal(gen_execution_times(cfg), gen_execution_times(cfg))


def test_base_points_mean_distance_exact():
    cfg = GenConfig(dataset_kind="vrp", n_jobs=99, n_machines=1, n_scenarios=1,
                    seed=7)
    pts = gen_base_points(cfg)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    n = len(pts)
    mean = d.sum() / (n * (n - 1))
    assert mean == pytest.approx(2.0, rel=1e-9)


def test_setup_times_metric_properties():
    cfg = GenConfig(dataset_kind="equal", n_jobs=8, n_machines=1, n_scenarios=5,
                    seed=3)
    setups = gen_setup_times(cfg)
    for w in range(setups.shape[0]):
        d = setups[w]
        assert np.all(np.diagonal(d) == 0.0)
        through = (d[:, :, None] + d[None, :, :]).min(axis=1)
        assert np.all(d <= through + 1e-12)  # exact Euclidean metric


def test_disc_region_supported():
    cfg = GenConfig(dataset_kind="ors", n_jobs=20, n_machines=1, n_scenarios=1,
                    seed=2, region="disc")
    pts = gen_base_points(cfg)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    assert d.sum() / (len(pts) * (len(pts) - 1)) == pytest.approx(0.5, rel=1e-9)


def test_equal_dataset_marginal_means():
    # exec marginal hits 1.25 within 2%; the setup guarantee lives on the
    # base points (scenario displacement adds a small upward drift)
    cfg = GenConfig(dataset_kind="equal", n_jobs=59, n_machines=1, n_scenarios=300,
                    seed=11)
    sample = gen_execution_times(cfg).ravel()
    assert abs(sample.mean() / 1.25 - 1.0) < 0.02
    pts = gen_base_points(cfg)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    base_mean = d.sum() / (len(pts) * (len(pts) - 1))
    assert abs(base_mean / 1.25 - 1.0) < 0.02
    assert abs((sample.mean() + base_mean) / 2.5 - 1.0) < 0.02


def test_make_instance_paper_scale():
    cfg = GenConfig(dataset_kind="ors", n_jobs=60, n_machines=6, n_scenarios=100,
                    dif=0.25, seed=7)
    inst = make_instance(cfg)
    assert inst.capacity == 10
    assert inst.time_limit == pytest.approx(25.075)
    assert validate_instance(inst) == []


def test_make_instance_deterministic(tmp_path):
    cfg = GenConfig(dataset_kind="equal", n_jobs=6, n_machines=2, n_scenarios=5,
                    dif=-0.25, seed=99)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    make_instance(cfg).save(p1)
    make_instance(cfg).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_make_instance_divisibility_guard():
    cfg = GenConfig(dataset_kind="ors", n_jobs=7, n_machines=2, n_scenarios=2, seed=0)
    with pytest.raises(ConfigurationError):
        make_instance(cfg)
    ok = make_instance(
        GenConfig(dataset_kind="ors", n_jobs=7, n_machines=2, n_scenarios=2, seed=0,
                  capacity=4)
    )
    assert ok.capacity == 4


def test_make_instance_reads_the_dataset_kind_once():
    cfg = GenConfig(dataset_kind="VRP", n_jobs=6, n_machines=2, n_scenarios=3, seed=4)
    upper, lower = make_instance(cfg), make_instance(replace(cfg, dataset_kind="vrp"))
    assert upper.dataset_kind == "vrp"
    assert all(np.array_equal(a.exec, b.exec) and np.array_equal(a.setup, b.setup)
               for a, b in zip(upper.scenarios, lower.scenarios))
    with pytest.raises(ConfigurationError, match="unknown dataset kind 'rsp'"):
        make_instance(replace(cfg, dataset_kind="RSP"))


def test_make_instance_tiny_smoke():
    inst = make_instance(
        GenConfig(dataset_kind="vrp", n_jobs=6, n_machines=2, n_scenarios=5, seed=4)
    )
    assert validate_instance(inst) == []
    assert inst.n_scenarios == 5 and inst.capacity == 3
    assert np.all(inst.utilities >= 1) and np.all(inst.utilities <= 10)


def test_utilities_are_integers_one_to_ten():
    cfg = GenConfig(dataset_kind="ors", n_jobs=200, n_machines=1, n_scenarios=1,
                    seed=6, capacity=1)
    inst = make_instance(cfg)
    assert np.array_equal(inst.utilities, np.round(inst.utilities))
    assert inst.utilities.min() >= 1 and inst.utilities.max() <= 10

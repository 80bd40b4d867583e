import json

import numpy as np
import pytest

from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.model import (
    Candidate,
    Instance,
    Scenario,
    StructuralError,
    candidate_objective,
    chance_satisfied,
    compute_big_m,
    validate_instance,
)


def tiny_instance(n=3, m=2, scenarios=2, **kw):
    sc = []
    for _ in range(scenarios):
        setup = np.ones((n + 1, n + 1))
        np.fill_diagonal(setup, 0.0)
        sc.append(Scenario(exec=np.linspace(1.0, 2.0, n), setup=setup))
    defaults = dict(
        n_jobs=n, n_machines=m, capacity=n, time_limit=10.0, epsilon=0.1,
        utilities=np.arange(1.0, n + 1.0), scenarios=sc,
    )
    defaults.update(kw)
    return Instance(**defaults)


def test_objective_direct_sum():
    inst = tiny_instance(utilities=np.array([5.0, 3.0, 2.0]))
    x = np.zeros((3, 2), dtype=int)
    x[0, 0] = 1
    x[2, 1] = 1
    assert candidate_objective(inst, Candidate(x=x, z=np.ones(2))) == 7.0


def test_objective_empty_assignment():
    inst = tiny_instance()
    x = np.zeros((3, 2), dtype=int)
    assert candidate_objective(inst, Candidate(x=x, z=np.ones(2))) == 0.0


def test_objective_single_machine_full():
    inst = tiny_instance(utilities=np.array([2.0, 6.0, 3.0]))
    x = np.zeros((3, 2), dtype=int)
    x[:, 0] = 1
    assert candidate_objective(inst, Candidate(x=x, z=np.ones(2))) == 11.0


def test_objective_dimension_mismatch():
    inst = tiny_instance()
    with pytest.raises(StructuralError):
        candidate_objective(inst, Candidate(x=np.zeros((2, 2)), z=np.ones(2)))


def test_candidate_refuses_a_lossy_cast():
    cand = Candidate(x=np.ones((2, 2)), z=[2, -1])
    assert cand.x.dtype == cand.z.dtype == np.int8
    assert cand.z.tolist() == [2, -1]  # kept for verification to reject
    for x, z in ((np.full((2, 2), 0.5), [1, 1]), (np.ones((2, 2)), [257, 1])):
        with pytest.raises(StructuralError):
            Candidate(x=x, z=z)


def test_objective_monotone_under_assignment():
    rng = np.random.default_rng(1)
    inst = tiny_instance(n=5, utilities=rng.uniform(0.5, 9.0, size=5))
    x = np.zeros((5, 2), dtype=int)
    prev = 0.0
    for j in range(5):
        x[j, j % 2] = 1
        cur = candidate_objective(inst, Candidate(x=x, z=np.ones(2)))
        assert cur > prev
        prev = cur


@pytest.mark.parametrize(
    "ones,expected", [(95, True), (94, False)]
)
def test_chance_threshold_hundred_scenarios(ones, expected):
    inst = tiny_instance(scenarios=100, epsilon=0.05)
    z = np.zeros(100)
    z[:ones] = 1
    assert chance_satisfied(inst, z) is expected


def test_chance_single_scenario():
    inst = tiny_instance(scenarios=1, epsilon=0.5)
    assert chance_satisfied(inst, np.array([1]))


def test_chance_monotone_in_z():
    inst = tiny_instance(scenarios=10, epsilon=0.3)
    z = np.zeros(10)
    was = chance_satisfied(inst, z)
    for w in range(10):
        z[w] = 1
        now = chance_satisfied(inst, z)
        assert now or not was  # flipping a 0 to 1 never breaks satisfaction
        was = now
    assert was


def test_validate_clean_generated_instance():
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=6, n_machines=2,
                                   n_scenarios=4, seed=1))
    assert validate_instance(inst) == []


def test_validate_flags_nonzero_diagonal():
    inst = tiny_instance()
    setup = inst.scenarios[0].setup.copy()
    setup[1, 1] = 0.5
    bad = Instance(
        n_jobs=3, n_machines=2, capacity=3, time_limit=10.0, epsilon=0.1,
        utilities=inst.utilities, scenarios=[Scenario(inst.scenarios[0].exec, setup)],
    )
    problems = validate_instance(bad)
    assert len(problems) == 1 and "setup[1][1]" in problems[0]


def test_validate_flags_triangle_violation():
    # Euclidean points, then corrupt one entry by a hair over tolerance
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 2, size=(4, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    setup = np.sqrt((diff**2).sum(axis=-1))
    setup[1, 3] = setup[1, 2] + setup[2, 3] + 1e-3
    bad = Instance(
        n_jobs=3, n_machines=1, capacity=3, time_limit=10.0, epsilon=0.1,
        utilities=np.ones(3), scenarios=[Scenario(np.ones(3), setup)],
    )
    problems = validate_instance(bad)
    assert len(problems) == 1
    assert "triangle" in problems[0] and "i=1" in problems[0] and "k=3" in problems[0]


def test_big_m_hand_computation():
    # t=(2,6,3), unit setups, B=2: worst per-job sums are (3,7,4), top two 11
    setup = np.ones((4, 4))
    np.fill_diagonal(setup, 0.0)
    sc = Scenario(exec=np.array([2.0, 6.0, 3.0]), setup=setup)
    assert compute_big_m([sc], 2)[0] == pytest.approx(11.0)
    assert compute_big_m([sc], 3)[0] == pytest.approx(14.0)  # B = |J|: sum of all


def test_big_m_zero_times():
    setup = np.zeros((4, 4))
    sc = Scenario(exec=np.zeros(3), setup=setup)
    assert compute_big_m([sc], 2)[0] == 0.0


def test_json_round_trip_bit_exact(tmp_path):
    inst = make_instance(GenConfig(dataset_kind="vrp", n_jobs=5, n_machines=1,
                                   n_scenarios=3, seed=17, capacity=5))
    path = tmp_path / "inst.json"
    inst.save(path)
    again = Instance.load(path)
    assert np.array_equal(inst.utilities, again.utilities)
    for a, b in zip(inst.scenarios, again.scenarios):
        assert np.array_equal(a.exec, b.exec)
        assert np.array_equal(a.setup, b.setup)
    # derived big-M identical after the round trip
    assert np.array_equal(inst.big_m, again.big_m)
    # byte-identical re-serialization
    path2 = tmp_path / "inst2.json"
    again.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_file_schema_fields(tmp_path):
    inst = make_instance(GenConfig(dataset_kind="ors", n_jobs=4, n_machines=2,
                                   n_scenarios=2, seed=5))
    path = tmp_path / "inst.json"
    inst.save(path)
    data = json.loads(path.read_text())
    assert set(data) == {
        "n_jobs", "n_machines", "capacity", "time_limit", "epsilon",
        "utilities", "scenarios", "seed", "dataset_kind", "dif",
    }
    assert set(data["scenarios"][0]) == {"exec", "setup"}
    assert len(data["scenarios"][0]["setup"]) == inst.n_jobs + 1

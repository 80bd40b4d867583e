import numpy as np
import pytest

from ccpmsp import decomposition, netflow
from ccpmsp.decomposition import solve_ccpmsp
from ccpmsp.instances import GenConfig, make_instance
from ccpmsp.master import solve_master
from ccpmsp.model import Scenario
from master_reference import resolve
from oracle_reference import brute_optimal


@pytest.fixture(scope="session")
def uniform_scenario():
    """Three jobs with t = (2, 6, 3) and every setup time 1: the hand-checked
    example used throughout the diagram tests (T = 5 makes {2} and {1,3} the
    minimal infeasible sets, total time 14)."""
    setup = np.ones((4, 4))
    np.fill_diagonal(setup, 0.0)
    return Scenario(exec=np.array([2.0, 6.0, 3.0]), setup=setup)


def mask_jobs(mask: int) -> frozenset:
    """The 1-based job ids of a job mask (bit j - 1 for job j), the form in
    which cuts and the IIS filter hold job sets."""
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def flow_duals(x, t, d):
    """The flow duals of one scenario's times t (n + 1) and d (n + 1, n + 1):
    ``netflow.extract_duals`` on them as one-column arrays."""
    return netflow.extract_duals(x, t[:, None], d[:, :, None])[0]


def random_scenario(rng, n):
    """Euclidean setup times (triangle inequality holds) and positive
    execution times."""
    pts = rng.uniform(0.0, 3.0, size=(n + 1, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    setup = np.sqrt((diff**2).sum(axis=-1))
    return Scenario(exec=rng.uniform(0.5, 3.0, size=n), setup=setup)


def regression_configs(count=100):
    rng = np.random.default_rng(20240817)
    kinds = ["ors", "vrp", "equal"]
    cfgs = []
    for i in range(count):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(2, 4))
        cfgs.append(
            GenConfig(
                dataset_kind=kinds[i % 3],
                n_jobs=n,
                n_machines=m,
                n_scenarios=int(rng.integers(3, 11)),
                dif=float(rng.choice([-6.0, -3.0, -1.0, 0.0, 2.0])),
                seed=9000 + i,
                capacity=-(-n // m),
                epsilon=float(rng.choice([0.05, 0.2, 0.34])),
            )
        )
    return cfgs


@pytest.fixture(scope="session")
def regression_set():
    """100 tiny instances with mixed datasets, sizes and difficulty."""
    return [make_instance(cfg) for cfg in regression_configs()]


@pytest.fixture(scope="session")
def regression_optima(regression_set):
    """Oracle optimum objective for every regression instance."""
    return [brute_optimal(inst)[1] for inst in regression_set]


def wide_configs(count=12):
    """Small instances at capacities 5-7, above the regression set's, where
    the oracle still brute-forces the optimum."""
    rng = np.random.default_rng(20261020)
    kinds = ["ors", "vrp", "equal"]
    cfgs = []
    for i in range(count):
        capacity = int(rng.integers(5, 8))
        cfgs.append(GenConfig(
            dataset_kind=kinds[i % 3],
            n_jobs=capacity + int(rng.integers(0, 2)),
            n_machines=int(rng.integers(1, 3)),
            n_scenarios=int(rng.integers(3, 7)),
            dif=float(rng.choice([-10.0, -8.0, -6.0, -4.0])),
            seed=9500 + i,
            capacity=capacity,
            epsilon=float(rng.choice([0.05, 0.2, 0.34])),
        ))
    return cfgs


@pytest.fixture(scope="session")
def wide_set():
    """``wide_configs`` instances with their oracle optima."""
    insts = [make_instance(cfg) for cfg in wide_configs()]
    return [(inst, brute_optimal(inst)[1]) for inst in insts]


# B = 10: above the 8-job limit of the permutation oracle.  Solves in one
# master iteration; the ten longest jobs of scenario 0 overrun T there.
B10_CONFIG = GenConfig(dataset_kind="ors", n_jobs=20, n_machines=2,
                       n_scenarios=6, dif=-2.0, seed=1)


def overloaded_b10_x(inst):
    """Machine 0 holds the ten jobs with the longest execution in scenario
    0, machine 1 the other ten: within capacity, but machine 0 cannot be
    sequenced within T in scenario 0."""
    x = np.zeros((inst.n_jobs, inst.n_machines), dtype=np.int8)
    longest = np.argsort(inst.scenarios[0].exec)[-inst.capacity:]
    x[:, 1] = 1
    x[longest, 0] = 1
    x[longest, 1] = 0
    return x


def resolving_master(solves=None):
    """A stand-in for ``master.solve_master`` that runs the search without
    its lazy-cut hook and re-solves after each cut batch
    (``master_reference.resolve``): one master solve per cut batch, and a
    last one that the hook accepts or that finds none.  ``solves``, a list,
    when given, receives the number of master solves of each call."""

    def resolving(model, time_budget=None, hook=None):
        sol, n_solves = resolve(solve_master, model, time_budget, hook)
        if solves is not None:
            solves.append(n_solves)
        return sol

    return resolving


def solve_iteratively(inst, opts, solves=None):
    """``solve_ccpmsp`` with ``resolving_master(solves)`` in place of the
    hooked master search."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "solve_master", resolving_master(solves))
        return solve_ccpmsp(inst, opts)

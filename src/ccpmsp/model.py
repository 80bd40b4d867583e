"""Problem data model for the CC-PMSP.

An instance assigns jobs 1..n to homogeneous machines, each with a capacity
of B jobs and a time budget T per scenario.  Execution and setup times are
uncertain and given as a finite list of scenarios; the chance constraint
requires the per-machine schedules to fit T with probability at least
1 - epsilon over those scenarios.

Index conventions
-----------------
* Jobs are 1-based everywhere in the public API.  Row/column 0 of a setup
  matrix is the dummy start/end job, so ``setup[j][k]`` is the setup time
  from job j to job k and ``setup[j][0]`` closes a schedule.
* Execution times are stored in a length-n vector where entry ``j - 1``
  belongs to job j.
* Scenarios and machines are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

TOL = 1e-9
PROB_TOL = 1e-12

NOGOOD = "nogood"
IIS = "iis"
BENDERS = "benders"
CUT_KINDS = (NOGOOD, IIS, BENDERS)


class StructuralError(ValueError):
    """Raised when data shapes or identifiers do not fit together."""


class ConfigurationError(ValueError):
    """Raised for invalid generator / solver configuration values."""


class LimitExceeded(RuntimeError):
    """Raised when an operation is asked to run beyond its supported scale."""


@dataclass(frozen=True)
class Scenario:
    """One realization of execution and setup times.

    ``exec`` has shape (n,) and ``setup`` shape (n+1, n+1) with a zero
    diagonal; index 0 is the dummy start/end job.
    """

    exec: np.ndarray
    setup: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "exec", np.asarray(self.exec, dtype=float))
        object.__setattr__(self, "setup", np.asarray(self.setup, dtype=float))
        self.exec.setflags(write=False)
        self.setup.setflags(write=False)

    @property
    def n_jobs(self) -> int:
        return len(self.exec)


@dataclass(frozen=True)
class Instance:
    """Immutable CC-PMSP instance; safe for concurrent reads."""

    n_jobs: int
    n_machines: int
    capacity: int
    time_limit: float
    epsilon: float
    utilities: np.ndarray
    scenarios: list[Scenario]
    big_m: np.ndarray = None
    seed: Optional[int] = None
    dataset_kind: Optional[str] = None
    dif: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "utilities", np.asarray(self.utilities, dtype=float))
        self.utilities.setflags(write=False)
        if self.big_m is None:
            object.__setattr__(
                self, "big_m", compute_big_m(self.scenarios, self.capacity)
            )
        else:
            object.__setattr__(self, "big_m", np.asarray(self.big_m, dtype=float))
        self.big_m.setflags(write=False)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def scenario_prob(self) -> float:
        return 1.0 / len(self.scenarios)

    @property
    def big_m_max(self) -> float:
        return float(self.big_m.max())

    @cached_property
    def scenario_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Every scenario's times with the scenario axis last, derived on
        first use: exec of shape (n + 1, S) with a zero row 0 for the dummy,
        and setup of shape (n + 1, n + 1, S).  Both read-only."""
        exec_ = np.zeros((self.n_jobs + 1, self.n_scenarios))
        exec_[1:] = np.stack([sc.exec for sc in self.scenarios], axis=-1)
        setup = np.stack([sc.setup for sc in self.scenarios], axis=-1)
        exec_.setflags(write=False)
        setup.setflags(write=False)
        return exec_, setup

    def to_dict(self) -> dict:
        return {
            "n_jobs": self.n_jobs,
            "n_machines": self.n_machines,
            "capacity": self.capacity,
            "time_limit": self.time_limit,
            "epsilon": self.epsilon,
            "utilities": self.utilities.tolist(),
            "scenarios": [
                {"exec": s.exec.tolist(), "setup": s.setup.tolist()}
                for s in self.scenarios
            ],
            "seed": self.seed,
            "dataset_kind": self.dataset_kind,
            "dif": self.dif,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        scenarios = [
            Scenario(exec=np.array(s["exec"]), setup=np.array(s["setup"]))
            for s in data["scenarios"]
        ]
        return cls(
            n_jobs=data["n_jobs"],
            n_machines=data["n_machines"],
            capacity=data["capacity"],
            time_limit=data["time_limit"],
            epsilon=data["epsilon"],
            utilities=np.array(data["utilities"]),
            scenarios=scenarios,
            seed=data.get("seed"),
            dataset_kind=data.get("dataset_kind"),
            dif=data.get("dif"),
        )

    def save(self, path) -> None:
        # json round-trips finite doubles exactly (repr is shortest-exact)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class Candidate:
    """A master-side solution: assignment matrix x (n x M) and scenario
    satisfaction flags z (one per scenario)."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x, z = np.asarray(self.x), np.asarray(self.z)
        self.x = x.astype(np.int8, copy=False)
        self.z = z.astype(np.int8, copy=False)
        # astype truncates fractions and wraps large integers silently
        if not (np.array_equal(self.x, x) and np.array_equal(self.z, z)):
            raise StructuralError("x and z must hold integers within int8 range")

    def machine_jobs(self, m: int) -> np.ndarray:
        """Sorted 1-based job ids assigned to machine m."""
        return np.flatnonzero(self.x[:, m]) + 1

    def to_dict(self) -> dict:
        return {"x": self.x.tolist(), "z": self.z.tolist()}


@dataclass(frozen=True, slots=True)
class Cut:
    """One cut for the master problem.

    ``job_set`` holds 1-based job ids; the rendered row is quantified over
    all machines (machines are homogeneous).  ``benders_payload`` is a pair
    (constant, per-job coefficient vector) present only for flow cuts, where
    the row for machine m reads
        M * z_w + sum_j coef[j-1] * x[j][m] <= T + M - constant.
    """

    job_set: frozenset
    scenario: int
    kind: str
    benders_payload: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "job_set", frozenset(self.job_set))
        if not self.job_set:
            raise StructuralError("cut with empty job set")
        if self.kind not in CUT_KINDS:
            raise StructuralError(f"unknown cut kind {self.kind!r}")
        if self.kind != BENDERS and self.benders_payload is not None:
            raise StructuralError(f"{self.kind} cut must not carry a benders payload")
        if self.scenario < 0:
            raise StructuralError("cut scenario index out of range")

    def job_mask(self) -> int:
        mask = 0
        for j in self.job_set:
            mask |= 1 << (j - 1)
        return mask

    def key(self):
        if self.kind == BENDERS:
            const, coefs = self.benders_payload
            return (self.kind, self.scenario, round(const, 12), tuple(np.round(coefs, 12)))
        return (self.kind, self.scenario, self.job_set)


def candidate_objective(inst: Instance, cand: Candidate) -> float:
    """Total utility of the assigned jobs: sum_j sum_m f_j * x_jm."""
    if cand.x.shape != (inst.n_jobs, inst.n_machines):
        raise StructuralError(
            f"x has shape {cand.x.shape}, expected {(inst.n_jobs, inst.n_machines)}"
        )
    return float(inst.utilities @ cand.x.sum(axis=1))


def chance_satisfied(inst: Instance, z) -> bool:
    """True iff sum_w p_w z_w >= 1 - epsilon (within 1e-12)."""
    z = np.asarray(z)
    if len(z) != inst.n_scenarios:
        raise StructuralError(f"z has length {len(z)}, expected {inst.n_scenarios}")
    return float(z.sum()) * inst.scenario_prob >= 1.0 - inst.epsilon - PROB_TOL


def compute_big_m(scenarios: list[Scenario], capacity: int) -> np.ndarray:
    """Per-scenario big-M: for each job, its execution time plus its worst
    outgoing setup (dummy included); sum the ``capacity`` largest of these.
    """
    if capacity < 1:
        raise ConfigurationError("capacity must be >= 1")
    values = []
    for sc in scenarios:
        n = sc.n_jobs
        if capacity > n:
            raise ConfigurationError("capacity exceeds the number of jobs")
        d = sc.setup[1:, :].copy()  # rows: jobs, cols: dummy + jobs
        np.fill_diagonal(d[:, 1:], -np.inf)  # exclude j -> j
        s = sc.exec + d.max(axis=1)
        top = np.sort(s)[-capacity:]
        values.append(float(top.sum()))
    return np.array(values)


def validate_instance(inst: Instance) -> list[str]:
    """Return a list of invariant violations (empty when well formed)."""
    v = []
    if inst.n_jobs < 1:
        v.append("n_jobs < 1")
    if inst.n_machines < 1:
        v.append("n_machines < 1")
    if not 1 <= inst.capacity <= max(inst.n_jobs, 1):
        v.append(f"capacity {inst.capacity} outside [1, n_jobs]")
    if not inst.time_limit > 0:
        v.append("time_limit <= 0")
    if not 0 < inst.epsilon < 1:
        v.append("epsilon outside (0, 1)")
    if len(inst.utilities) != inst.n_jobs:
        v.append("utilities length != n_jobs")
    elif not np.all(inst.utilities > 0):
        bad = np.flatnonzero(inst.utilities <= 0) + 1
        v.append(f"non-positive utility for jobs {bad.tolist()}")
    if len(inst.scenarios) < 1:
        v.append("no scenarios")
    if abs(inst.scenario_prob * inst.n_scenarios - 1.0) > PROB_TOL:
        v.append("scenario probabilities do not sum to 1")
    if len(inst.big_m) != inst.n_scenarios:
        v.append("big_m length != n_scenarios")
    for w, sc in enumerate(inst.scenarios):
        if len(sc.exec) != inst.n_jobs:
            v.append(f"scenario {w}: exec length != n_jobs")
            continue
        if sc.setup.shape != (inst.n_jobs + 1, inst.n_jobs + 1):
            v.append(f"scenario {w}: setup shape {sc.setup.shape}")
            continue
        if not np.all(np.isfinite(sc.exec)) or np.any(sc.exec < 0):
            v.append(f"scenario {w}: exec times must be finite and >= 0")
        if not np.all(np.isfinite(sc.setup)) or np.any(sc.setup < 0):
            v.append(f"scenario {w}: setup times must be finite and >= 0")
            continue
        diag = np.flatnonzero(np.diagonal(sc.setup))
        for j in diag:
            v.append(f"scenario {w}: setup[{j}][{j}] = {sc.setup[j, j]} (nonzero diagonal)")
        d = sc.setup
        # min over j of d[i,j] + d[j,k], vectorized per scenario
        through = (d[:, :, None] + d[None, :, :]).min(axis=1)
        bad = np.argwhere(d > through + TOL)
        for i, k in bad:
            j = int(np.argmin(d[i, :] + d[:, k]))
            v.append(
                f"scenario {w}: triangle inequality broken at (i={i}, j={j}, k={k}): "
                f"{d[i, k]} > {d[i, j]} + {d[j, k]}"
            )
    return v

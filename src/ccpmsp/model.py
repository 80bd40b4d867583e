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
* A set of jobs is an int bit mask where bit ``j - 1`` stands for job j
  (``jobs_mask``), as a cut holds it and the master search reads it.
* Scenarios and machines are 0-based.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

TOL = 1e-9
PROB_TOL = 1e-12
# machine epsilon of float64, for the bounds' rounding margins
EPS = np.finfo(float).eps

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
    seed: Optional[int] = None
    dataset_kind: Optional[str] = None
    dif: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "utilities", np.asarray(self.utilities, dtype=float))
        self.utilities.setflags(write=False)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def scenario_prob(self) -> float:
        return 1.0 / len(self.scenarios)

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

    @cached_property
    def broken_triangles(self) -> np.ndarray:
        """Every (scenario, i, k), ascending, with d[i, k] > d[i, j] + d[j, k]
        + TOL for some j; derived on first use, read-only.  A job-set cut is
        valid only if adding a job never shortens a schedule, so the solver
        and ``validate_instance`` refuse such an instance.  The loop over j
        keeps temporaries at (n + 1)^2 S cells."""
        setup = self.scenario_stack[1]
        through = np.full(setup.shape, np.inf)
        for j in range(len(setup)):
            np.minimum(through, setup[:, j, None] + setup[None, j], out=through)
        breaks = np.argwhere((setup > through + TOL).transpose(2, 0, 1))
        breaks.setflags(write=False)
        return breaks

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every invariant the instance breaks, as messages (none when well
        formed); derived on first use.  ``validate_instance`` lists them and
        ``SolveOptions.check`` refuses an instance that has any."""
        v = []
        if self.n_jobs < 1:
            v.append("n_jobs < 1")
        if self.n_machines < 1:
            v.append("n_machines < 1")
        if not 1 <= self.capacity <= max(self.n_jobs, 1):
            v.append(f"capacity {self.capacity} outside [1, n_jobs]")
        if not self.time_limit > 0:
            v.append("time_limit <= 0")
        if not 0 < self.epsilon < 1:
            v.append("epsilon outside (0, 1)")
        if len(self.utilities) != self.n_jobs:
            v.append("utilities length != n_jobs")
        elif not np.all(self.utilities > 0):
            bad = np.flatnonzero(self.utilities <= 0) + 1
            v.append(f"non-positive utility for jobs {bad.tolist()}")
        if len(self.scenarios) < 1:
            v.append("no scenarios")
        elif abs(self.scenario_prob * self.n_scenarios - 1.0) > PROB_TOL:
            v.append("scenario probabilities do not sum to 1")
        sound = 0  # scenarios the triangle test, which stacks them all, can read
        for w, sc in enumerate(self.scenarios):
            if len(sc.exec) != self.n_jobs:
                v.append(f"scenario {w}: exec length != n_jobs")
                continue
            if sc.setup.shape != (self.n_jobs + 1, self.n_jobs + 1):
                v.append(f"scenario {w}: setup shape {sc.setup.shape}")
                continue
            if not np.all(np.isfinite(sc.exec)) or np.any(sc.exec < 0):
                v.append(f"scenario {w}: exec times must be finite and >= 0")
            if not np.all(np.isfinite(sc.setup)) or np.any(sc.setup < 0):
                v.append(f"scenario {w}: setup times must be finite and >= 0")
                continue
            for j in np.flatnonzero(np.diagonal(sc.setup)):
                v.append(f"scenario {w}: setup[{j}][{j}] = {sc.setup[j, j]}"
                         " (nonzero diagonal)")
            sound += 1
        for w, i, k in self.broken_triangles if sound == self.n_scenarios > 0 else ():
            d = self.scenarios[w].setup
            j = int(np.argmin(d[i, :] + d[:, k]))
            v.append(f"scenario {w}: triangle inequality broken at (i={i}, j={j}, "
                     f"k={k}): {d[i, k]} > {d[i, j]} + {d[j, k]}")
        return tuple(v)

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

    ``jobs`` is the cut's job set as a bit mask (bit j - 1 for job j); the
    rendered row is quantified over all machines (machines are homogeneous).
    ``benders_payload`` is a pair (constant, per-job coefficient vector)
    present only for flow cuts, whose row forces z_w to zero wherever some
    machine m has
        constant + sum_j coef[j-1] * x[j][m] > T.
    """

    jobs: int
    scenario: int
    kind: str
    benders_payload: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "jobs", operator.index(self.jobs))
        if self.jobs <= 0:
            raise StructuralError(f"cut job mask must be positive, got {self.jobs}")
        if self.kind not in CUT_KINDS:
            raise StructuralError(f"unknown cut kind {self.kind!r}")
        if self.kind != BENDERS and self.benders_payload is not None:
            raise StructuralError(f"{self.kind} cut must not carry a benders payload")
        if self.scenario < 0:
            raise StructuralError("cut scenario index out of range")

    def key(self):
        if self.kind == BENDERS:
            const, coefs = self.benders_payload
            return (self.kind, self.scenario, round(const, 12), tuple(np.round(coefs, 12)))
        return (self.kind, self.scenario, self.jobs)


def jobs_mask(jobs) -> int:
    """The bit mask of 1-based job ids: bit j - 1 for job j."""
    return sum(1 << (j - 1) for j in set(map(int, jobs)))


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


def validate_instance(inst: Instance) -> list[str]:
    """Return a list of invariant violations (empty when well formed)."""
    return list(inst.violations)

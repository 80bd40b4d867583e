"""Random instance generation for the ORS, VRP and Equal datasets.

Execution times are log-normal; setup times are Euclidean distances between
points in the plane so that the triangle inequality holds exactly.  All
randomness goes through named counter-based streams (rng scheme "v1"), so a
given (config, seed) pair reproduces the same instance on any platform and
scenario-level work may fan out over workers without changing results.

rng v1 stream map (Philox keyed via SeedSequence(seed, spawn_key)):
    (0, w)  execution times of scenario w
    (1, w)  point displacements of scenario w
    (2,)    base points
    (3,)    utilities
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ConfigurationError, Instance, Scenario

# dataset -> (exec_mu, exec_sigma, setup_mu, setup_sigma)
DATASET_PARAMS = {
    "ors": (2.0, 0.6, 0.5, 0.15),
    "vrp": (0.5, 0.15, 2.0, 0.6),
    "equal": (1.25, 0.375, 1.25, 0.375),
}

_STREAM_EXEC = 0
_STREAM_SETUP = 1
_STREAM_POINTS = 2
_STREAM_UTIL = 3


@dataclass(frozen=True)
class GenConfig:
    dataset_kind: str = "ors"
    n_jobs: int = 6
    n_machines: int = 2
    n_scenarios: int = 100
    dif: float = 0.0
    seed: int = 0
    exec_mu: Optional[float] = None
    exec_sigma: Optional[float] = None
    setup_mu: Optional[float] = None
    setup_sigma: Optional[float] = None
    capacity: Optional[int] = None
    epsilon: float = 0.05
    region: str = "square"  # or "disc"

    def resolved(self) -> "GenConfig":
        """Fill distribution parameters from the dataset kind unless overridden."""
        kind = self.dataset_kind.lower()
        if kind not in DATASET_PARAMS:
            raise ConfigurationError(f"unknown dataset kind {self.dataset_kind!r}")
        em, es, sm, ss = DATASET_PARAMS[kind]
        return replace(
            self,
            dataset_kind=kind,
            exec_mu=em if self.exec_mu is None else self.exec_mu,
            exec_sigma=es if self.exec_sigma is None else self.exec_sigma,
            setup_mu=sm if self.setup_mu is None else self.setup_mu,
            setup_sigma=ss if self.setup_sigma is None else self.setup_sigma,
        )

    def check(self) -> None:
        if self.n_jobs < 1 or self.n_machines < 1 or self.n_scenarios < 1:
            raise ConfigurationError("n_jobs, n_machines and n_scenarios must be >= 1")
        if self.exec_mu is None:
            raise ConfigurationError("config not resolved")
        if self.exec_mu <= 0 or self.setup_mu <= 0:
            raise ConfigurationError("distribution means must be positive")
        if self.exec_sigma < 0 or self.setup_sigma < 0:
            raise ConfigurationError("distribution deviations must be >= 0")
        if not 0 < self.epsilon < 1:
            raise ConfigurationError("epsilon must lie in (0, 1)")
        if self.region not in ("square", "disc"):
            raise ConfigurationError(f"unknown sampling region {self.region!r}")


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _lognormal_params(mu: float, sigma: float) -> tuple[float, float]:
    # (mu, sigma) are the distribution's own mean/std, not the underlying
    # normal's; invert the moment formulas.
    var_n = np.log1p((sigma / mu) ** 2)
    mu_n = np.log(mu) - var_n / 2.0
    return mu_n, float(np.sqrt(var_n))


def gen_execution_times(cfg: GenConfig) -> np.ndarray:
    """Matrix (n_scenarios, n_jobs) of i.i.d. log-normal execution times."""
    cfg = cfg.resolved()
    cfg.check()
    mu_n, sig_n = _lognormal_params(cfg.exec_mu, cfg.exec_sigma)
    out = np.empty((cfg.n_scenarios, cfg.n_jobs))
    for w in range(cfg.n_scenarios):
        rng = _stream(cfg.seed, _STREAM_EXEC, w)
        out[w] = rng.lognormal(mean=mu_n, sigma=sig_n, size=cfg.n_jobs)
    return out


def gen_base_points(cfg: GenConfig) -> np.ndarray:
    """n_jobs + 1 points (dummy first) rescaled so the empirical mean pairwise
    distance equals setup_mu exactly."""
    cfg = cfg.resolved()
    cfg.check()
    rng = _stream(cfg.seed, _STREAM_POINTS)
    n_pts = cfg.n_jobs + 1
    if cfg.region == "square":
        pts = rng.uniform(0.0, 1.0, size=(n_pts, 2))
    else:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_pts)
        radii = np.sqrt(rng.uniform(0.0, 1.0, size=n_pts))
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    mean_dist = _mean_pairwise_distance(pts)
    if mean_dist <= 0:
        raise ConfigurationError("degenerate base points (all coincident)")
    return pts * (cfg.setup_mu / mean_dist)


def _mean_pairwise_distance(pts: np.ndarray) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    n = len(pts)
    if n < 2:
        return 0.0
    return float(d.sum() / (n * (n - 1)))


def gen_setup_times(cfg: GenConfig) -> np.ndarray:
    """Tensor (n_scenarios, n_jobs+1, n_jobs+1) of setup times.

    Per scenario each base point is displaced by a vector whose modulus is
    half-normal (scale setup_sigma) and whose angle is uniform; entries are
    the pairwise distances of the displaced points, hence metric.
    """
    cfg = cfg.resolved()
    cfg.check()
    base = gen_base_points(cfg)
    n_pts = len(base)
    out = np.empty((cfg.n_scenarios, n_pts, n_pts))
    for w in range(cfg.n_scenarios):
        rng = _stream(cfg.seed, _STREAM_SETUP, w)
        radii = np.abs(rng.normal(0.0, cfg.setup_sigma, size=n_pts)) if cfg.setup_sigma > 0 else np.zeros(n_pts)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_pts)
        moved = base + np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        diff = moved[:, None, :] - moved[None, :, :]
        out[w] = np.sqrt((diff**2).sum(axis=-1))
    return out


def gen_utilities(cfg: GenConfig) -> np.ndarray:
    """Uniform integer utilities in [1, 10], stored as floats."""
    rng = _stream(cfg.seed, _STREAM_UTIL)
    return rng.integers(1, 11, size=cfg.n_jobs).astype(float)


def compute_time_limit(capacity: int, dif: float) -> float:
    """Machine time budget: 2.5 * B + dif * 0.3."""
    if capacity < 1:
        raise ConfigurationError("capacity must be >= 1")
    return 2.5 * capacity + dif * 0.3


def make_instance(cfg: GenConfig) -> Instance:
    """Assemble a full instance; a pure function of (cfg, seed)."""
    cfg = cfg.resolved()
    cfg.check()
    if cfg.capacity is None:
        if cfg.n_jobs % cfg.n_machines != 0:
            raise ConfigurationError(
                "n_jobs must be divisible by n_machines when capacity is unspecified"
            )
        capacity = cfg.n_jobs // cfg.n_machines
    else:
        capacity = cfg.capacity
        if not 1 <= capacity <= cfg.n_jobs:
            raise ConfigurationError("capacity outside [1, n_jobs]")
    times = gen_execution_times(cfg)
    setups = gen_setup_times(cfg)
    scenarios = [Scenario(exec=times[w], setup=setups[w]) for w in range(cfg.n_scenarios)]
    return Instance(
        n_jobs=cfg.n_jobs,
        n_machines=cfg.n_machines,
        capacity=capacity,
        time_limit=compute_time_limit(capacity, cfg.dif),
        epsilon=cfg.epsilon,
        utilities=gen_utilities(cfg),
        scenarios=scenarios,
        seed=cfg.seed,
        dataset_kind=cfg.dataset_kind,
        dif=cfg.dif,
    )

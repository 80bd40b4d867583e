"""Ground truth independent of the diagram code paths: brute-force
references plus a Held-Karp checker used for verification.

The brute-force functions enumerate: permutations for sequencing, subsets
for IIS, assignments for whole-problem optima.  They are deliberately naive
so they can serve as the reference in tests; hard limits keep them at desk
scale.  ``held_karp_min_times`` computes the same minimum sequencing time
as ``brute_min_time`` with the bitmask dynamic program of Held & Karp
(1962), written from the problem definition alone, and is cheap enough
that ``verify_candidate`` runs it at every capacity.

Closing-setup convention: a strict subset of the evaluated universe is
timed without the final setup back to the dummy job, the full set with it.
This matches where the diagram cost functions add the closing term, so
oracle and diagram IIS semantics coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .model import (
    Candidate,
    Instance,
    LimitExceeded,
    Scenario,
    StructuralError,
    TOL,
    chance_satisfied,
)


@dataclass(frozen=True)
class OracleLimits:
    max_seq_jobs: int = 8
    max_enum_bits: int = 24


DEFAULT_LIMITS = OracleLimits()


def brute_min_time(jobs, scenario: Scenario, include_closing: bool,
                   limits: OracleLimits = DEFAULT_LIMITS) -> float:
    """Minimum over all orderings of the given 1-based job ids of
    t(first) + sum of (setup + exec), plus the closing setup when asked.
    """
    jobs = sorted(jobs)
    if len(jobs) != len(set(jobs)):
        raise StructuralError("duplicate job ids")
    if len(jobs) > limits.max_seq_jobs:
        raise LimitExceeded(f"{len(jobs)} jobs exceeds oracle limit {limits.max_seq_jobs}")
    if not jobs:
        return 0.0
    t = scenario.exec
    d = scenario.setup
    best = np.inf
    for perm in permutations(jobs):
        total = t[perm[0] - 1]
        if total >= best:
            continue
        ok = True
        for prev, cur in zip(perm, perm[1:]):
            total += d[prev, cur] + t[cur - 1]
            if total >= best:
                ok = False
                break
        if not ok:
            continue
        if include_closing:
            total += d[perm[-1], 0]
        if total < best:
            best = total
    return float(best)


# Held-Karp working-set bound in float64 cells (256 KB), for the table and
# for the temporaries alike: scenarios are evaluated in chunks whose table
# fits (at least one scenario), and each subset-size layer in blocks whose
# temporaries fit, so verification adds little to a solve's peak memory.
HK_CHUNK_CELLS = 1 << 15


@lru_cache(maxsize=None)
def _hk_plan(k: int) -> tuple:
    """Index plan of the Held-Karp recursion over k local jobs: for each
    subset size s = 2..k, every (predecessor, last job) pair such that the
    predecessor subset has s - 1 jobs and lacks the last one.  Built on
    first use for each k and shared read-only."""
    masks = np.arange(1 << k)
    size = np.zeros_like(masks)
    for j in range(k):
        size += (masks >> j) & 1
    plan = []
    for s in range(2, k + 1):
        prev = masks[size == s - 1]
        lacks = (prev[:, None] >> np.arange(k)) & 1 == 0
        rows, last = np.nonzero(lacks)
        pred = prev[rows]
        pred.setflags(write=False)
        last.setflags(write=False)
        plan.append((pred, last))
    return tuple(plan)


def held_karp_min_times(jobs, scenarios, include_closing: bool = True) -> np.ndarray:
    """Minimum sequencing time of the given 1-based job ids in each scenario.

    Same quantity and closing-setup convention as ``brute_min_time``:
    t(first) + sum of (setup + exec) over the ordering, plus the closing
    setup to the dummy job when asked.  ``f[S, j]`` is the cheapest
    ordering of subset S that ends in j, filled by subset size for a chunk
    of scenarios at a time with numpy.
    """
    idx = np.asarray(sorted(jobs), dtype=np.intp)
    if np.any(idx[1:] == idx[:-1]):
        raise StructuralError("duplicate job ids")
    k = len(idx)
    out = np.zeros(len(scenarios))
    if k == 0:
        return out
    if idx[0] < 1 or any(idx[-1] > sc.n_jobs for sc in scenarios):
        raise StructuralError("job id outside the scenario")
    full = (1 << k) - 1
    plan = _hk_plan(k)
    chunk = max(1, HK_CHUNK_CELLS // ((full + 1) * k))
    for lo in range(0, len(scenarios), chunk):
        part = scenarios[lo:lo + chunk]
        # two (block, W, k) temporaries per step
        block = max(1, HK_CHUNK_CELLS // (2 * len(part) * k))
        # f[S, w, j]; t[j, w]; d_in[j, w, i] = setup from i to j.  The
        # predecessor axis i is last, so the min reduces contiguous memory.
        t = np.stack([sc.exec[idx - 1] for sc in part], axis=-1)
        d_in = np.stack([sc.setup[np.ix_(idx, idx)].T for sc in part], axis=1)
        f = np.full((full + 1, len(part), k), np.inf)
        f[1 << np.arange(k), :, np.arange(k)] = t
        for pred, last in plan:
            for a in range(0, len(pred), block):
                p, j = pred[a:a + block], last[a:a + block]
                g = f[p]
                g += d_in[j]
                f[p | (1 << j), :, j] = g.min(axis=2) + t[j]
        best = f[full]
        if include_closing:
            best = best + np.stack([sc.setup[idx, 0] for sc in part])
        out[lo:lo + len(part)] = best.min(axis=1)
    return out


def brute_iis(jobs_universe, scenario: Scenario, time_limit: float,
              limits: OracleLimits = DEFAULT_LIMITS) -> list[frozenset]:
    """All minimal infeasible subsets of the universe: sets whose best
    ordering exceeds the time limit while every proper subset fits."""
    universe = sorted(jobs_universe)
    if len(universe) > limits.max_seq_jobs:
        raise LimitExceeded(f"universe of {len(universe)} exceeds oracle limit")
    kept: list[frozenset] = []
    full = frozenset(universe)
    for size in range(1, len(universe) + 1):
        for subset in combinations(universe, size):
            s = frozenset(subset)
            if any(k <= s for k in kept):
                continue
            closing = s == full
            if brute_min_time(subset, scenario, closing, limits) > time_limit + TOL:
                kept.append(s)
    return kept


def machine_feasibility(inst: Instance, jobs, limits: OracleLimits = DEFAULT_LIMITS) -> np.ndarray:
    """Bool vector over scenarios: can the job set be sequenced within T?"""
    out = np.empty(inst.n_scenarios, dtype=bool)
    for w, sc in enumerate(inst.scenarios):
        out[w] = brute_min_time(jobs, sc, True, limits) <= inst.time_limit + TOL
    return out


def brute_optimal(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS):
    """Exhaustive optimum over all assignments.

    Enumerates each job's machine choice (or none), keeps candidates whose
    greedy-maximal z satisfies the chance constraint, and returns the
    max-utility one; ties break toward the lexicographically smallest
    flattened x (row-major).
    """
    n, m = inst.n_jobs, inst.n_machines
    if n * m > limits.max_enum_bits:
        raise LimitExceeded(f"{n}x{m} assignment space exceeds oracle limit")

    # feasibility bitmaps per job subset, computed lazily
    feas_cache: dict[int, int] = {0: (1 << inst.n_scenarios) - 1}

    def feas_bits(mask: int) -> int:
        bits = feas_cache.get(mask)
        if bits is None:
            jobs = [j + 1 for j in range(n) if mask >> j & 1]
            ok = machine_feasibility(inst, jobs, limits)
            bits = 0
            for w in range(inst.n_scenarios):
                if ok[w]:
                    bits |= 1 << w
            feas_cache[mask] = bits
        return bits

    need = 1.0 - inst.epsilon - 1e-12
    p = inst.scenario_prob
    best_obj = -np.inf
    best = None

    masks = [0] * m
    counts = [0] * m
    choice = [0] * n  # 0 = unassigned, 1..m = machine

    def flat_x():
        x = np.zeros((n, m), dtype=np.int8)
        for j in range(n):
            if choice[j]:
                x[j, choice[j] - 1] = 1
        return x

    utilities = inst.utilities

    def rec(j: int, util: float):
        nonlocal best_obj, best
        if j == n:
            zbits = (1 << inst.n_scenarios) - 1
            for mk in masks:
                if mk:
                    zbits &= feas_bits(mk)
            if bin(zbits).count("1") * p < need:
                return
            x = flat_x()
            key = tuple(x.ravel())
            if util > best_obj + 1e-12 or (
                abs(util - best_obj) <= 1e-12 and best is not None and key < best[2]
            ):
                z = np.array(
                    [(zbits >> w) & 1 for w in range(inst.n_scenarios)], dtype=np.int8
                )
                best_obj = util
                best = (x, z, key)
            return
        bit = 1 << j
        for mi in range(m):
            if counts[mi] < inst.capacity:
                choice[j] = mi + 1
                masks[mi] |= bit
                counts[mi] += 1
                rec(j + 1, util + utilities[j])
                counts[mi] -= 1
                masks[mi] &= ~bit
        choice[j] = 0
        rec(j + 1, util)

    rec(0, 0.0)
    x, z, _ = best
    cand = Candidate(x=x, z=z)
    return cand, float(best_obj)


def verify_candidate(inst: Instance, cand: Candidate) -> list[str]:
    """Independent feasibility check of a candidate; returns violations.

    Every (machine, claimed scenario) sequence is timed with the Held-Karp
    DP, so the check runs at any capacity."""
    problems = []
    x = cand.x
    if x.shape != (inst.n_jobs, inst.n_machines):
        return [f"x shape {x.shape} does not match the instance"]
    if np.any(x.sum(axis=1) > 1):
        bad = np.flatnonzero(x.sum(axis=1) > 1) + 1
        problems.append(f"jobs assigned to several machines: {bad.tolist()}")
    over = np.flatnonzero(x.sum(axis=0) > inst.capacity)
    if len(over):
        problems.append(f"capacity exceeded on machines {over.tolist()}")
    if not chance_satisfied(inst, cand.z):
        problems.append("chance constraint violated")
    active = np.flatnonzero(cand.z)
    claimed = [inst.scenarios[w] for w in active]
    for m in range(inst.n_machines):
        jobs = cand.machine_jobs(m)
        if len(jobs) == 0:
            continue
        times = held_karp_min_times(jobs, claimed)
        for w, t in zip(active, times):
            if t > inst.time_limit + TOL:
                problems.append(
                    f"machine {m} infeasible in scenario {w}: "
                    f"min time {t:.6f} > T = {inst.time_limit}"
                )
    return problems

"""Brute-force references for the tests: permutations for sequencing,
subsets for IIS, assignments for whole-problem optima.

They are deliberately naive, so they serve as the reference that the
diagrams, the IIS filter, the Held-Karp checker and the solver are compared
against; hard limits (``OracleLimits``) keep them at desk scale.  They
import nothing from ``ccpmsp`` but the data model, so they share no code
with the diagrams or with ``ccpmsp.oracle``.

Closing-setup convention, as in ``ccpmsp.oracle``: a strict subset of the
evaluated universe is timed without the final setup back to the dummy job,
the full set with it.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from ccpmsp.model import (
    Candidate,
    Instance,
    LimitExceeded,
    Scenario,
    StructuralError,
    TOL,
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

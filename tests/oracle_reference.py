"""Brute-force references for the tests: permutations for sequencing,
subsets for IIS, assignments for whole-problem optima.

They are deliberately naive, so they serve as the reference that the
diagrams, the IIS filter, the Held-Karp checker and the solver are compared
against; hard limits (``OracleLimits``) keep them at desk scale.  They
import nothing from ``ccpmsp`` but the data model, so they share no code
with the diagrams or with ``ccpmsp.oracle``.

``per_machine_verify`` is the exception: the verification loop that
``ccpmsp.oracle.verify_candidate`` batches, one machine and one stacked
scenario at a time, with every start walked (``per_machine_walks``).
It times the pairs no witness fits with
``ccpmsp.oracle.held_karp_min_times``, so its messages must match the
batched ones character for character; ``loop_held_karp`` is the plain-loop
program that one must equal bitwise.

Closing-setup convention, as in the diagram sweeps that the IIS filter
(``ccpmsp.diagram.minimal_over_limit``) reads: a strict subset of the
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
    chance_satisfied,
)
from ccpmsp.oracle import held_karp_min_times


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


def per_machine_walks(jobs, scenarios) -> tuple[np.ndarray, np.ndarray]:
    """Every nearest-neighbour walk of the sorted 1-based ``jobs`` in each
    scenario, one walker per (start, scenario), each scenario's times
    stacked on its own: the 1-based orders, shape (k, W, k), and the times
    with the closing setup, shape (k, W), both indexed by start position.
    A walker moves to the unvisited job of least setup, the lowest id on
    ties, and sums t(first), then setup + exec per step, then the closing
    setup."""
    idx = np.asarray(sorted(jobs), dtype=np.intp)
    k = len(idx)
    if k == 0 or not scenarios:
        return (np.zeros((k, len(scenarios), k), dtype=np.intp),
                np.zeros((k, len(scenarios))))
    w = np.arange(len(scenarios))
    start = np.arange(k)[:, None]
    t = np.stack([sc.exec[idx - 1] for sc in scenarios])
    d = np.stack([sc.setup[np.ix_(idx, idx)] for sc in scenarios])
    close = np.stack([sc.setup[idx, 0] for sc in scenarios])
    cur = np.broadcast_to(start, (k, len(scenarios)))
    path = np.empty((k, len(scenarios), k), dtype=np.intp)
    path[:, :, 0] = cur
    total = t[w, cur]
    barred = np.zeros((k, len(scenarios), k))
    barred[start, w, cur] = np.inf
    for step in range(1, k):
        prev, cur = cur, (d[w, cur] + barred).argmin(axis=2)
        total += d[w, prev, cur] + t[w, cur]
        barred[start, w, cur] = np.inf
        path[:, :, step] = cur
    total += close[w, cur]
    return idx[path], total


def per_machine_witness(jobs, scenarios) -> tuple[np.ndarray, np.ndarray]:
    """Best nearest-neighbour order of the sorted 1-based ``jobs`` in each
    scenario and its time with the closing setup, the fastest of the k
    walks of ``per_machine_walks`` (the first of equal ones), where a walk
    whose time is NaN counts only if every walk's is; an empty job set
    takes 0."""
    orders, times = per_machine_walks(jobs, scenarios)
    if len(orders) == 0:
        return np.zeros((len(scenarios), 0), dtype=np.intp), np.zeros(len(scenarios))
    best = times.argsort(axis=0, kind="stable")[0]  # NaN sorts last
    w = np.arange(len(scenarios))
    return orders[best, w], times[best, w]


def loop_held_karp(jobs, scenarios) -> np.ndarray:
    """``ccpmsp.oracle.held_karp_min_times`` with plain loops, one scenario
    and one (set, last job) at a time: f[S, j] is the min over i in S - j
    of (f[S - j, i] + d[i, j]), plus t[j], and the answer the min over j of
    f[full, j] plus the closing setup.  The additions are those of the
    batched program in the same order, and a min of finite values is exact
    in any order, so the two agree bitwise on finite times."""
    idx = sorted(jobs)
    k = len(idx)
    out = np.zeros(len(scenarios))
    if k == 0:
        return out
    full = (1 << k) - 1
    for w, sc in enumerate(scenarios):
        t = [float(sc.exec[j - 1]) for j in idx]
        d = [[float(sc.setup[a, b]) for b in idx] for a in idx]
        f = {(1 << j, j): t[j] for j in range(k)}
        for s in range(1, full + 1):  # S - j < S, so it is filled first
            for j in range(k):
                pred = s & ~(1 << j)
                if s >> j & 1 and pred:
                    f[s, j] = min(f[pred, i] + d[i][j]
                                  for i in range(k) if pred >> i & 1) + t[j]
        out[w] = min(f[full, j] + float(sc.setup[idx[j], 0]) for j in range(k))
    return out


def per_machine_verify(inst: Instance, cand: Candidate) -> list[str]:
    """``ccpmsp.oracle.verify_candidate`` one machine at a time: the
    structural checks, then per nonempty machine a witness per claimed
    scenario and Held-Karp on the pairs no witness fits, where a minimum
    that is not <= T + TOL, NaN included, is a violation."""
    x, z = cand.x, cand.z
    problems = []
    if x.shape != (inst.n_jobs, inst.n_machines):
        problems.append(f"x shape {x.shape} does not match the instance")
    if z.shape != (inst.n_scenarios,):
        problems.append(f"z shape {z.shape} does not match the instance")
    for name, a in (("x", x), ("z", z)):
        if np.any((a != 0) & (a != 1)):
            problems.append(f"{name} has entries outside {{0, 1}}")
    if problems:
        return problems
    if np.any(x.sum(axis=1) > 1):
        bad = np.flatnonzero(x.sum(axis=1) > 1) + 1
        problems.append(f"jobs assigned to several machines: {bad.tolist()}")
    over = np.flatnonzero(x.sum(axis=0) > inst.capacity)
    if len(over):
        problems.append(f"capacity exceeded on machines {over.tolist()}")
    if not chance_satisfied(inst, z):
        problems.append("chance constraint violated")
    active = np.flatnonzero(z)
    claimed = [inst.scenarios[w] for w in active]
    limit = inst.time_limit + TOL
    for m in range(inst.n_machines):
        jobs = cand.machine_jobs(m)
        if len(jobs) == 0:
            continue
        # a pair is proven by any start's walk that fits, whatever the
        # other walks read
        _, walks = per_machine_walks(jobs, claimed)
        rest = np.flatnonzero(~(walks <= limit).any(axis=0))
        if len(rest) == 0:
            continue
        times = held_karp_min_times(jobs, [claimed[i] for i in rest])
        for w, t in zip(active[rest], times):
            if not t <= limit:
                problems.append(
                    f"machine {m} infeasible in scenario {w}: "
                    f"min time {t:.6f} > T = {inst.time_limit}"
                )
    return problems

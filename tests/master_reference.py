"""The master as an LP row model, the tests' exhaustive reference for the
search in ``ccpmsp.master``.

``iter_rows`` writes every row of a ``MasterModel`` over named binaries
(``xname``, ``zname``): assignment, capacity, chance, symmetry, the
scenario-relaxation rows and one row per (cut, machine).  Relaxation and
flow rows switch off at z_w = 0 through a big M (``compute_big_m``), which
the search never needs, as it holds those rows as scenario bits.  With the
relaxation, every full machine set S (B jobs, at any capacity B) and
scenario w whose own-successor bound, summed exactly here, exceeds T gets
the row "x covers S on m => z_w = 0".
``check_rows`` substitutes a solution into them, ``brute_master`` finds the
best objective over every binary vector that meets them, and ``resolve``
re-solves a master after each cut batch of a lazy-cut hook, the way a MIP
solver without lazy constraints would honour it.
``reference_load_coefficients`` and ``reference_utility_bounds`` are the
master's set-up tables computed one scenario and one job at a time, and
``running_load`` and ``load_bits`` a set's load and additive relaxation
bits in plain loops.
"""

from __future__ import annotations

import math
import time
from itertools import combinations, product
from typing import Callable, Optional

import numpy as np

from ccpmsp.master import LIMIT, BackendSolution, MasterModel
from ccpmsp.model import BENDERS, TOL, ConfigurationError, Instance, Scenario


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


def reference_load_coefficients(inst: Instance) -> np.ndarray:
    """``master.optimistic_load_coefficients`` one scenario at a time: each
    job's time plus its cheapest outgoing setup, j -> j excluded."""
    coef = np.empty((inst.n_scenarios, inst.n_jobs))
    for w, sc in enumerate(inst.scenarios):
        d = sc.setup[1:, :].copy()
        np.fill_diagonal(d[:, 1:], np.inf)  # exclude j -> j
        coef[w] = sc.exec + d.min(axis=1)
    return coef


def reference_utility_bounds(inst: Instance) -> list[list[float]]:
    """``master.utility_bounds`` one job at a time: ``bounds[j][used]`` is
    the sum of the min(M B - used, n - j) largest of f[j:], from a sort of
    f[j:] alone."""
    n, full = inst.n_jobs, inst.n_machines * inst.capacity
    bounds = []
    for j in range(n + 1):
        tail = np.sort(inst.utilities[j:])[::-1]
        top = np.concatenate(([0.0], np.cumsum(tail))).tolist()
        bounds.append([top[min(full - used, n - j)]
                       for used in range(min(j, full) + 1)])
    return bounds


def running_load(rows: np.ndarray, jobs) -> list[float]:
    """The optimistic load of the 0-based ``jobs`` (ascending) in plain
    Python floats: per scenario, their ``rows`` added one at a time in
    index order, as ``master.LoadBlocks`` must give it."""
    load = [float(v) for v in rows[jobs[0]]]
    for j in jobs[1:]:
        load = [a + float(b) for a, b in zip(load, rows[j])]
    return load


def load_bits(load, limit: float) -> int:
    """The scenarios whose ``load`` exceeds ``limit``, bit w for scenario
    w, one scenario at a time."""
    bits = 0
    for w, value in enumerate(load):
        if value > limit:
            bits |= 1 << w
    return bits


def successor_bound(sc: Scenario, jobs) -> float:
    """Exact sum over the 1-based ``jobs`` of each job's time plus its
    cheapest setup to another job of the set or closing to the dummy."""
    return math.fsum(
        sc.exec[i - 1] + min(sc.setup[i, k] for k in (0, *jobs) if k != i)
        for i in jobs)


def xname(j: int, m: int) -> str:
    """Variable name for job j (1-based) on machine m (0-based)."""
    return f"x_{j}_{m + 1}"


def zname(w: int) -> str:
    return f"z_{w}"


def iter_rows(model: MasterModel):
    """Yield (name, coefs, sense, rhs) over every row of the model; coefs is
    a dict var-name -> coefficient, sense one of '<=', '>=', '='."""
    inst = model.inst
    n, M = inst.n_jobs, inst.n_machines
    big_m = compute_big_m(inst.scenarios, inst.capacity)
    for j in range(1, n + 1):
        yield (f"assign_{j}", {xname(j, m): 1.0 for m in range(M)}, "<=", 1.0)
    for m in range(M):
        yield (f"cap_{m + 1}", {xname(j, m): 1.0 for j in range(1, n + 1)}, "<=",
               float(inst.capacity))
    p = inst.scenario_prob
    yield ("chance", {zname(w): p for w in range(inst.n_scenarios)}, ">=",
           1.0 - inst.epsilon)
    if model.symmetry:
        for j in range(1, n + 1):
            for m in range(M):
                if m + 1 > j:
                    yield (f"sym_zero_{j}_{m + 1}", {xname(j, m): 1.0}, "=", 0.0)
        for j in range(1, n + 1):
            for m in range(M - 1):
                coefs = {xname(j, m + 1): 1.0}
                for k in range(1, j):
                    coefs[xname(k, m)] = coefs.get(xname(k, m), 0.0) - 1.0
                yield (f"sym_lex_{j}_{m + 1}", coefs, "<=", 0.0)
    if model.scenario_relaxation:
        T = inst.time_limit
        for w in range(inst.n_scenarios):
            mw = float(big_m[w])
            for m in range(M):
                coefs = {
                    xname(j, m): float(model.relax_coef[w, j - 1])
                    for j in range(1, n + 1)
                }
                coefs[zname(w)] = mw
                yield (f"relax_{w}_{m + 1}", coefs, "<=", T + mw)
        B = inst.capacity
        for jobs in combinations(range(1, n + 1), B):
            for w, sc in enumerate(inst.scenarios):
                if successor_bound(sc, jobs) > T + TOL:
                    for m in range(M):
                        coefs = {xname(j, m): 1.0 for j in jobs}
                        coefs[zname(w)] = 1.0
                        yield (f"succ_{w}_{m + 1}_{jobs}", coefs, "<=",
                               float(B))
    for ci, cut in enumerate(model.cuts):
        if cut.kind == BENDERS:
            const, coefs_vec = cut.benders_payload
            mm = float(big_m.max())
            for m in range(M):
                coefs = {
                    xname(j, m): float(coefs_vec[j - 1])
                    for j in range(1, n + 1)
                    if coefs_vec[j - 1] != 0.0
                }
                coefs[zname(cut.scenario)] = mm
                yield (f"cut_{ci}_{m + 1}", coefs, "<=",
                       inst.time_limit + mm - const)
        else:
            jobs = [j for j in range(1, n + 1) if cut.jobs >> (j - 1) & 1]
            for m in range(M):
                coefs = {xname(j, m): 1.0 for j in jobs}
                coefs[zname(cut.scenario)] = 1.0
                yield (f"cut_{ci}_{m + 1}", coefs, "<=", float(len(jobs)))


def solution_values(inst: Instance, x: np.ndarray, z: np.ndarray) -> dict[str, float]:
    vals = {}
    for j in range(1, inst.n_jobs + 1):
        for m in range(inst.n_machines):
            vals[xname(j, m)] = float(x[j - 1, m])
    for w in range(inst.n_scenarios):
        vals[zname(w)] = float(z[w])
    return vals


def check_rows(model: MasterModel, x: np.ndarray, z: np.ndarray,
               tol: float = 1e-6, rows=None) -> list[str]:
    """Names of rows violated by (x, z) under direct substitution.
    ``rows``, when given, are the model's rows as ``iter_rows`` yields
    them, read once for many calls."""
    vals = solution_values(model.inst, x, z)
    violated = []
    for name, coefs, sense, rhs in iter_rows(model) if rows is None else rows:
        lhs = sum(c * vals[v] for v, c in coefs.items())
        if sense == "<=" and lhs > rhs + tol:
            violated.append(name)
        elif sense == ">=" and lhs < rhs - tol:
            violated.append(name)
        elif sense == "=" and abs(lhs - rhs) > tol:
            violated.append(name)
    return violated


def brute_master(model: MasterModel) -> Optional[float]:
    """Best objective over every binary vector (x, z) that violates no row
    of the model (``check_rows``) by more than the search's own ``TOL``, or
    None if none does; small models only (2^(n M + S) vectors).  The
    default tolerance of ``check_rows`` would admit a flow row that the
    search rightly counts as violated."""
    inst = model.inst
    n, M, S = inst.n_jobs, inst.n_machines, inst.n_scenarios
    rows = list(iter_rows(model))
    best = None
    for bits in product((0, 1), repeat=n * M + S):
        x = np.array(bits[:n * M], dtype=np.int8).reshape(n, M)
        z = np.array(bits[n * M:], dtype=np.int8)
        if check_rows(model, x, z, tol=TOL, rows=rows):
            continue
        obj = float(inst.utilities @ x.sum(axis=1))
        best = obj if best is None else max(best, obj)
    return best


def resolve(solve_once: Callable, model: MasterModel,
            time_budget: Optional[float] = None,
            hook: Optional[Callable] = None) -> tuple[BackendSolution, int]:
    """Honour a lazy-cut hook by re-solving: ``solve_once(model, budget)``
    solves the model as it stands, the hook gets the solution's (x, z), and
    while it returns cuts (which it has added to ``model.cuts``) the model
    is solved again on the budget left.  Returns the last solution, or,
    when the budget runs out after a cut batch, a ``LIMIT`` one with no
    candidate and the last solve's bound, whose ``n_nodes`` counts over
    every solve; and the number of solves, one per hook cut batch plus the
    last."""
    deadline = None if time_budget is None else time.monotonic() + time_budget
    n_solves = n_nodes = 0
    while True:
        sol = solve_once(model, None if deadline is None
                         else deadline - time.monotonic())
        n_solves += 1
        n_nodes += sol.n_nodes
        if hook is None or sol.x is None or not hook(sol.x, sol.z):
            break
        if deadline is not None and time.monotonic() >= deadline:
            sol = BackendSolution(status=LIMIT, bound=sol.bound)
            break
    sol.n_nodes = n_nodes
    return sol, n_solves

"""Ground truth independent of the diagram code paths: witness schedules
and a Held-Karp checker, used for verification.

``held_karp_min_times`` computes the minimum sequencing time of a job set
with the bitmask dynamic program of Held & Karp (1962), written from the
problem definition alone, and runs at every capacity.
``witness_schedules`` builds one concrete nearest-neighbour order per
scenario and times it exactly as a permutation is timed: t(first), then
setup plus execution per step, then the closing setup.
``verify_candidate`` accepts a (machine, scenario) pair on such a witness
and runs Held-Karp only on the pairs no witness fits.  It times the
witnesses with one walk per machine size over every (machine, claimed
scenario) column of that size, gathered from ``Instance.scenario_stack``
(``machine_witness_times``); ``witness_schedules`` runs the same walk on
the scenarios it is given.  Nothing here is shared with the diagrams; the
brute-force references the tests compare both against, and the
per-machine verification loop the batched one replaced, are in
``tests/oracle_reference.py``.

Closing-setup convention: a strict subset of the evaluated universe is
timed without the final setup back to the dummy job, the full set with it.
This matches where the diagram cost functions add the closing term, so
oracle and diagram IIS semantics coincide.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import (
    Candidate,
    Instance,
    StructuralError,
    TOL,
    chance_satisfied,
)


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


def _job_ids(jobs, scenarios) -> np.ndarray:
    """The 1-based job ids sorted into an index array, checked to be
    distinct and present in every scenario."""
    idx = np.asarray(sorted(jobs), dtype=np.intp)
    if np.any(idx[1:] == idx[:-1]):
        raise StructuralError("duplicate job ids")
    if len(idx) and (idx[0] < 1 or any(idx[-1] > sc.n_jobs for sc in scenarios)):
        raise StructuralError("job id outside the scenario")
    return idx


def held_karp_min_times(jobs, scenarios, include_closing: bool = True) -> np.ndarray:
    """Minimum sequencing time of the given 1-based job ids in each scenario.

    The minimum over all orderings of t(first) + sum of (setup + exec),
    plus the closing setup to the dummy job when asked.  ``f[S, j]`` is the cheapest
    ordering of subset S that ends in j, filled by subset size for a chunk
    of scenarios at a time with numpy.
    """
    idx = _job_ids(jobs, scenarios)
    k = len(idx)
    out = np.zeros(len(scenarios))
    if k == 0:
        return out
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


def _nearest_neighbour(t, d, close) -> tuple[np.ndarray, np.ndarray]:
    """Best nearest-neighbour order and its time with the closing setup in
    each of C columns of k jobs, given t[c, j], the setup d[c, i, j] from
    local job i to j and close[c, j] from j to the dummy.  Orders hold
    local job indices.

    One walker per (start, column) moves to the unvisited job of least
    setup from the current one, the lowest index on ties; per column the
    fastest of its k walkers is kept.  A walker's time is summed in
    schedule order: t(first), then += setup + exec per step, then the
    closing setup.  Columns go through in chunks whose (k, C, k) walker
    arrays fit ``HK_CHUNK_CELLS``.  Returns (orders, times) of shapes
    (C, k) and (C,).
    """
    n_cols, k = t.shape
    orders = np.zeros((n_cols, k), dtype=np.intp)
    times = np.zeros(n_cols)
    chunk = max(1, HK_CHUNK_CELLS // (k * k))
    start = np.arange(k)[:, None]
    for lo in range(0, n_cols, chunk):
        hi = min(n_cols, lo + chunk)
        tc, dc, cc = t[lo:hi], d[lo:hi], close[lo:hi]
        w = np.arange(hi - lo)
        cur = np.broadcast_to(start, (k, hi - lo))
        path = np.empty((k, hi - lo, k), dtype=np.intp)
        path[:, :, 0] = cur
        total = tc[w, cur]
        barred = np.zeros((k, hi - lo, k))  # inf where a walker has been
        barred[start, w, cur] = np.inf
        for step in range(1, k):
            prev, cur = cur, (dc[w, cur] + barred).argmin(axis=2)
            total += dc[w, prev, cur] + tc[w, cur]
            barred[start, w, cur] = np.inf
            path[:, :, step] = cur
        total += cc[w, cur]
        best = total.argmin(axis=0)
        orders[lo:hi] = path[best, w]
        times[lo:hi] = total[best, w]
    return orders, times


def witness_schedules(jobs, scenarios) -> tuple[np.ndarray, np.ndarray]:
    """Best nearest-neighbour order of the given 1-based job ids in each
    scenario, and its time with the closing setup.

    From every start job the order moves to the unvisited job of least
    setup from the current one, the lowest job id on ties; per scenario the
    fastest of these k orders is kept.  Its time is summed in schedule
    order: t(first), then += setup + exec per step, then the closing
    setup.  So a witness time is bitwise the time a brute-force sum over
    that permutation gives, and an upper bound on the minimum.
    Returns (orders, times) of shapes (W, k) and (W,).
    """
    idx = _job_ids(jobs, scenarios)
    if len(idx) == 0 or len(scenarios) == 0:
        orders = np.zeros((len(scenarios), len(idx)), dtype=np.intp)
        return orders, np.zeros(len(scenarios))
    local, times = _nearest_neighbour(
        np.stack([sc.exec[idx - 1] for sc in scenarios]),
        np.stack([sc.setup[np.ix_(idx, idx)] for sc in scenarios]),
        np.stack([sc.setup[idx, 0] for sc in scenarios]),
    )
    return idx[local], times


def machine_witness_times(inst: Instance, cand: Candidate, scenarios) -> np.ndarray:
    """The witness time of every machine of ``cand`` in each of the given
    scenario indices, shape (M, len(scenarios)); an empty machine's is 0.

    Each is bitwise the time ``witness_schedules`` gives the machine's jobs
    in that scenario.  The machines of one job count go through one walk:
    every (machine, scenario) column of the group is gathered from
    ``Instance.scenario_stack`` at once, which takes at most as many cells
    as the stack's setup times, since the group's machines hold distinct
    jobs."""
    exec_, setup = inst.scenario_stack
    w = np.asarray(scenarios, dtype=np.intp)[None, :, None]
    out = np.zeros((inst.n_machines, w.shape[1]))
    counts = cand.x.sum(axis=0)
    for k in sorted(set(counts[counts > 0].tolist())):
        machines = np.flatnonzero(counts == k)
        rows = np.stack([cand.machine_jobs(m) for m in machines])[:, None, :]
        # (machine, scenario, job) cells, or (..., job, job) for setups
        _, times = _nearest_neighbour(
            exec_[rows, w].reshape(-1, k),
            setup[rows[..., None], rows[..., None, :], w[..., None]].reshape(-1, k, k),
            setup[rows, 0, w].reshape(-1, k),
        )
        out[machines] = times.reshape(len(machines), -1)
    return out


def verify_candidate(inst: Instance, cand: Candidate) -> list[str]:
    """Independent feasibility check of a candidate; returns violations.

    x must be an n x M and z a length-W array of 0/1 entries; otherwise
    only those problems are reported.  Every (machine, claimed scenario)
    pair is first tried on its witness schedule, one walk per machine size
    (``machine_witness_times``), and a pair whose witness time is
    <= T + TOL is proven feasible by that schedule.  The pairs left are
    timed exactly with the Held-Karp DP, one call per machine, and a
    minimum above T + TOL is a violation, reported in (machine, scenario)
    order.  Both run at any capacity."""
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
    limit = inst.time_limit + TOL
    witness = machine_witness_times(inst, cand, active)
    for m in range(inst.n_machines):
        jobs = cand.machine_jobs(m)
        rest = np.flatnonzero(~(witness[m] <= limit))  # NaN goes to Held-Karp
        if len(jobs) == 0 or len(rest) == 0:  # the Held-Karp plan is 2^k-sized
            continue
        times = held_karp_min_times(jobs, [inst.scenarios[w] for w in active[rest]])
        for w, t in zip(active[rest], times):
            if t > limit:
                problems.append(
                    f"machine {m} infeasible in scenario {w}: "
                    f"min time {t:.6f} > T = {inst.time_limit}"
                )
    return problems

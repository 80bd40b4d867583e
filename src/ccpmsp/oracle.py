"""Ground truth independent of the diagram code paths: witness schedules
and a Held-Karp checker, used for verification.

``held_karp_min_times`` computes the minimum sequencing time of a job set
with the bitmask dynamic program of Held & Karp (1962), written from the
problem definition alone, and runs at every capacity.
``machine_witness_times`` times concrete nearest-neighbour orders of every
(machine, scenario) pair exactly as a permutation is timed: t(first), then
setup plus execution per step, then the closing setup.  It walks one start
per pair first and every start only on the pairs that one does not prove,
with one walk per machine size over columns gathered from
``Instance.scenario_stack``.  ``verify_candidate`` accepts a pair on such a
witness and runs Held-Karp only on the pairs no witness fits.  Nothing
here is shared with the diagrams; the brute-force references the tests
compare both against, and the per-machine verification loop the batched
one replaced, are in ``tests/oracle_reference.py``.
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
# The index plan, kept once per k, holds about (1.5 k + 1) 2^k int32
# entries: 0.14 MB at k = 11, 0.31 MB at k = 12, 6.6 MB at k = 16.
HK_CHUNK_CELLS = 1 << 15


@lru_cache(maxsize=None)
def _hk_plan(k: int) -> tuple:
    """Index plan of the Held-Karp recursion over k local jobs: for each
    predecessor size r = 1..k - 1, the subsets P of r jobs (``sets``), the
    members i of each, shape (r, len(sets)), the jobs j it lacks, shape
    (k - r, len(sets)), both ascending, and the cell j 2^k + (P + j) of the
    table that each (P, j) fills.  Built on first use for each k and shared
    read-only; int32 holds every cell index up to k = 26, beyond any table
    that fits in memory."""
    masks = np.arange(1 << k)
    bits = (masks[:, None] >> np.arange(k)) & 1 == 1
    size = bits.sum(axis=1)
    plan = []
    for r in range(1, k):
        sets = masks[size == r]
        members = np.nonzero(bits[sets])[1].reshape(-1, r).T
        absent = np.nonzero(~bits[sets])[1].reshape(-1, k - r).T
        fills = (absent << k) + (sets | (1 << absent))
        layer = tuple(np.ascontiguousarray(a, dtype=np.int32)
                      for a in (sets, members, absent, fills))
        for a in layer:
            a.setflags(write=False)
        plan.append(layer)
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


def held_karp_min_times(jobs, scenarios) -> np.ndarray:
    """Minimum sequencing time of the given 1-based job ids in each scenario.

    The minimum over all orderings of t(first) + sum of (setup + exec),
    plus the closing setup to the dummy job.  ``f[S, j]`` is the
    cheapest ordering of subset S that ends in j, min over i in S - j of
    (f[S - j, i] + d[i, j]), plus t[j]; it is filled by subset size for a
    chunk of scenarios at a time with numpy, reading only the members of
    each predecessor set.
    """
    idx = _job_ids(jobs, scenarios)
    k = len(idx)
    out = np.zeros(len(scenarios))
    if k == 0:
        return out
    n = 1 << k
    plan = _hk_plan(k)
    chunk = max(1, HK_CHUNK_CELLS // (n * k))
    for lo in range(0, len(scenarios), chunk):
        part = scenarios[lo:lo + chunk]
        # f[w, j 2^k + S]; t[w, j]; d[w, i k + j] = setup from i to j.  The
        # set axis is last, so every step runs over long contiguous rows.
        t = np.stack([sc.exec[idx - 1] for sc in part])
        d = np.stack([sc.setup[np.ix_(idx, idx)] for sc in part]).reshape(len(part), -1)
        f = np.full((len(part), k * n), np.inf)
        f[:, np.arange(k) * n + (1 << np.arange(k))] = t
        for sets, members, absent, fills in plan:
            r = len(members)
            # g and its index array, at most (W, r, k - r, block) cells each
            block = max(1, HK_CHUNK_CELLS // (2 * len(part) * r * (k - r)))
            for a in range(0, len(sets), block):
                i, j = members[:, a:a + block], absent[:, a:a + block]
                g = (f.take((i << k) + sets[a:a + block], axis=1)[:, :, None]
                     + d.take((i * k)[:, None] + j, axis=1))
                best = g.min(axis=1)
                best += t.take(j, axis=1)
                f[:, fills[:, a:a + block]] = best
        best = f[:, n - 1::n] + np.stack([sc.setup[idx, 0] for sc in part])
        out[lo:lo + len(part)] = best.min(axis=1)
    return out


def _walk(t, d, close, starts, cols) -> np.ndarray:
    """Time of each walker's nearest-neighbour schedule over C columns of k
    jobs, given t[c, j], the setup d[c, i, j] from local job i to j and
    close[c, j] from j to the dummy: walker i starts at local job
    ``starts[i]`` in column ``cols[i]``.

    A walker moves to the unvisited job of least setup from the current
    one, the lowest index on ties, and its time is summed in schedule
    order: t(first), then += (setup + exec) per step, then the closing
    setup.  So its path and time depend on no other walker.  Every gather
    is a flat ``take``, and the walkers go through in chunks whose
    (walker, k) arrays fit ``HK_CHUNK_CELLS``.
    """
    k = t.shape[1]
    rows = d.reshape(-1, k)  # row c k + i is d[c, i]
    move = (d + t[:, None, :]).ravel()  # setup + exec, as each step adds it
    t, close = t.ravel(), close.ravel()
    times = np.empty(len(starts))
    chunk = max(1, HK_CHUNK_CELLS // k)
    for lo in range(0, len(starts), chunk):
        cur = starts[lo:lo + chunk]
        base = cols[lo:lo + chunk] * k
        own = np.arange(len(cur)) * k
        barred = np.zeros((len(cur), k))  # inf where a walker has been
        np.put(barred, own + cur, np.inf)
        at = base + cur
        total = t.take(at)
        for _ in range(1, k):
            step = rows.take(at, axis=0)
            step += barred
            cur = step.argmin(axis=1)
            total += move.take(at * k + cur)
            np.put(barred, own + cur, np.inf)
            at = base + cur
        total += close.take(at)
        times[lo:lo + chunk] = total
    return times


def machine_witness_times(inst: Instance, cand: Candidate, scenarios) -> np.ndarray:
    """A witness time of every machine of ``cand`` in each of the given
    scenario indices, shape (M, len(scenarios)); an empty machine's is 0.

    Each (machine, scenario) column first walks one start, the job of
    largest closing setup (the lowest id on ties), and keeps that time if
    it is <= T + TOL.  Every other column walks from all k start jobs and
    takes the best.  As a walker's time does not depend on the other
    walkers, a kept column's best is <= T + TOL too, so ``time <= T + TOL``
    is the all-starts verdict.  The best skips a walker whose time is NaN:
    it is NaN only where every walker's is, so a pair that some start's
    walk fits is always proven.

    The machines of one job count go through the same walks: every
    (machine, scenario) column of the group is gathered from
    ``Instance.scenario_stack`` at once, which takes at most as many cells
    as the stack's setup times, since the group's machines hold distinct
    jobs."""
    exec_, setup = inst.scenario_stack
    n_sc = exec_.shape[1]
    limit = inst.time_limit + TOL
    w = np.asarray(scenarios, dtype=np.intp)[:, None]
    out = np.zeros((inst.n_machines, len(w)))
    counts = cand.x.sum(axis=0)
    for k in sorted(set(counts[counts > 0].tolist())):
        machines = np.flatnonzero(counts == k)
        jobs = np.nonzero(cand.x[:, machines].T)[1].reshape(-1, 1, k) + 1
        # flat stack cells of (machine, scenario, job), or (..., job, job)
        # for setups; ``row`` is each job's closing setup, setup[job, 0, w]
        row = jobs * (len(setup) * n_sc) + w
        t = exec_.take(jobs * n_sc + w).reshape(-1, k)
        d = setup.take(row[..., None] + (jobs * n_sc)[..., None, :]).reshape(-1, k, k)
        close = setup.take(row).reshape(-1, k)
        times = _walk(t, d, close, close.argmax(axis=1), np.arange(len(t)))
        left = np.flatnonzero(~(times <= limit))  # NaN walks on
        if len(left):
            every = _walk(t, d, close, np.repeat(np.arange(k), len(left)),
                          np.tile(left, k)).reshape(k, -1)
            times[left] = np.fmin.reduce(every, axis=0)
        out[machines] = times.reshape(len(machines), -1)
    return out


def verify_candidate(inst: Instance, cand: Candidate) -> list[str]:
    """Independent feasibility check of a candidate; returns violations.

    x must be an n x M and z a length-W array of 0/1 entries; otherwise
    only those problems are reported.  Every (machine, claimed scenario)
    pair is first tried on its witness schedules (``machine_witness_times``:
    one start per pair, then all starts on the pairs left), and a pair with
    a witness time <= T + TOL is proven feasible by that schedule.  The
    pairs left are timed exactly with the Held-Karp DP, one call per
    machine, and a minimum that is not <= T + TOL (above it, or NaN) is a
    violation, reported in (machine, scenario) order.  Both run at any
    capacity."""
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
    unproven = ~(witness <= limit)  # NaN goes to Held-Karp
    for m in np.flatnonzero(unproven.any(axis=1)).tolist():
        jobs = cand.machine_jobs(m)
        if len(jobs) == 0:  # its witness time 0 fails only when T + TOL < 0
            continue
        rest = np.flatnonzero(unproven[m])
        times = held_karp_min_times(jobs, [inst.scenarios[w] for w in active[rest]])
        for w, t in zip(active[rest], times):
            if not t <= limit:  # NaN is not proven either
                problems.append(
                    f"machine {m} infeasible in scenario {w}: "
                    f"min time {t:.6f} > T = {inst.time_limit}"
                )
    return problems

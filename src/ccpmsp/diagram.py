"""Layered decision diagrams for sequencing subproblems, held as the plans
of their set-time sweeps.

A diagram over k canonical jobs {1..k} has k decision layers plus a terminal
layer; every root-to-terminal path spells a permutation of the k jobs.
Layer p holds the job sets of p jobs: one node per set in the job-set
variant, one per (set, last job) in the last-job variant.  Both are fixed
lattices over the subsets of the k jobs, which ``subset_lattice`` lists
once per k, and no solve reads a diagram but through its variant's
set-time sweep.  So a ``Diagram`` is that sweep's plan (per layer, each
node's in-arcs, the distinct job sets, and the setup or cost cells), which
``build_top_down`` writes in closed form once per process, and a
``DiagramCache`` hands one per (variant, k) to every (machine, scenario,
job set) of that size in a solve.  Arc costs are never stored: the sweeps
evaluate them against per-call time arrays indexed by canonical job (index
0 the dummy, index i the i-th smallest job of the set), with a trailing
scenario axis, so many scenarios go through one diagram together.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EPS, TOL, ConfigurationError

LASTJOB = "lastjob"
JOBSET = "jobset"


class SubsetLattice(NamedTuple):
    """The subsets of k items as int32 bit masks (item j is bit j)."""

    size: np.ndarray  # per mask, its number of items
    rank: np.ndarray  # per mask, its rank among the masks of its size
    masks: tuple  # per size s = 0..k, the masks with s items, ascending
    members: tuple  # per size s, a (masks, s) array: each one's items, ascending
    rests: tuple  # per size s, a (masks, s) array: each one without each item


@functools.lru_cache(maxsize=None)
def subset_lattice(k: int) -> SubsetLattice:
    """The subsets of k items, listed once per k for every reader; every
    array is read-only."""
    size = np.zeros(1 << k, dtype=np.int32)
    for j in range(k):
        size[1 << j:2 << j] = size[:1 << j] + 1
    rank = np.empty_like(size)
    items = np.arange(k, dtype=np.int32)
    masks, members, rests = [], [], []
    for s in range(k + 1):
        sized = np.flatnonzero(size == s).astype(np.int32)
        rank[sized] = np.arange(len(sized), dtype=np.int32)
        has = (sized[:, None] >> items & 1).astype(bool)
        masks.append(sized)
        members.append(np.nonzero(has)[1].astype(np.int32).reshape(len(sized), s))
        rests.append(sized[:, None] ^ np.int32(1) << members[-1])
    for arr in (size, rank, *masks, *members, *rests):
        arr.setflags(write=False)
    return SubsetLattice(size, rank, tuple(masks), tuple(members), tuple(rests))


@dataclass
class Diagram:
    """The set-time sweep plan of one variant over k jobs.  Immutable after
    construction, so one diagram serves every (machine, scenario, job set)
    of its size.  Every array is read-only and of the narrowest integer
    dtype that holds its values.

    Node ids run layer by layer: ``layers[p]`` is the id range of layer p,
    node 0 is the root and the last id the single terminal.  Layer p holds
    the masks with p bits, ascending; a last-job layer 0 < p < k holds
    (mask, last) for each of them, with ``last`` running over the mask's
    jobs ascending.  A node's out-arcs add the jobs outside its mask,
    ascending, and the arcs leaving a layer are numbered tail by tail in
    that order: a tail's j-th out-arc has *offset* n o + j in its layer,
    for the tail's node offset n and o out-arcs per tail.

    The sweep visits a layer's nodes in *sweep order*: by rank within their
    job set, then by job set.  For a job-set layer that is node order; in a
    last-job layer each job set's nodes then lie one set-count apart, so
    the per-set minimum reduces over the outermost axis.  For p = 1..k:

    * ``layer_masks[p - 1]`` holds the distinct job sets of layer p, sorted,
      and the node at sweep position r has job set
      ``layer_masks[p - 1][r % len(layer_masks[p - 1])]``;
    * ``layer_in[p - 1]`` is the (in-degree, nodes) matrix of layer p's
      in-arcs, column r for sweep position r, each column in arc order.  A
      job-set entry is the in-arc's position when the arc costs of layer
      p - 1 are held (out-arc slot, tail node), as the job-set sweep holds
      them: tail n's j-th out-arc sits at j * tails + n for the layer's
      number of tails.  A last-job entry is the in-arc's tail, as a sweep
      position in layer p - 1;
    * ``layer_cells[p - 1]`` holds the cost cells the sweep reads with it.
      A job-set layer p < k has, per in-arc, node and out-arc, the flat
      index of d[val(in-arc), val(out-arc)] in the (k + 1)-square setup
      matrix, which is also its index in either half of the
      (2, k + 1, k + 1) cost table that ``lastjob.cost_table`` builds per
      call, indexed by (closing, last job or 0 at the root, job).  A
      last-job layer has, per in-arc and node, the in-arc's cell in that
      table.

    ``sweep_cells`` bounds the arrays a set-time sweep allocates, in cells
    per scenario: the time table, and one layer's arcs (a job-set step may
    take several in-arc slots at once, within ``jobset.SLOT_BLOCK_CELLS``
    cells in all).
    """

    variant: str
    depth: int
    layers: list[range]
    layer_masks: list[np.ndarray]
    layer_in: list[np.ndarray]
    layer_cells: list[np.ndarray]
    sweep_cells: int

    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]


@functools.lru_cache(maxsize=None)
def build_top_down(variant: str, k: int) -> Diagram:
    """Write the sweep plan of ``variant`` over k jobs in closed form,
    from ``subset_lattice(k)``; jobs count from 0 below.  Each plan is
    built once per process, like the lattice, and shared read-only: the
    plans up to k = 11 take 0.5 MB in all, up to k = 12 1.2 MB, and the
    two at k = 16 take 31 MB.

    A node of layer p < k with mask M and (last-job) last job j has one
    in-arc per tail that lacks a job of M, the job the arc adds:
    - job-set node M: from each tail M - {j}, j in M.  In arc order the
      lower tail masks come first, so M's jobs run descending.  The arc
      adding the i-th job j of M (from 0) is its tail's (j - i)-th out-arc,
      as i of the jobs below j are in the tail, and sits at that slot times
      the tails plus the tail's rank;
    - last-job node (M, j): from each tail (M - {j}, last), last ascending.
      The node at sweep position i * C(k, p) + rank(M) has the i-th job of
      M as j, and the tail at g * C(k, p - 1) + rank(M - {j}) has the g-th
      job of M - {j} as last.
    The terminal has an in-arc from every node of layer k - 1, in node
    order.  The jobs outside M, ascending, are the members of M's
    complement, the mask of k - p bits at rank C(k, p) - 1 - rank(M),
    because complements run descending.
    """
    if k < 1:
        raise ConfigurationError("diagram depth must be >= 1")
    if variant not in (LASTJOB, JOBSET):
        raise ConfigurationError(f"unknown diagram variant {variant!r}")
    lattice = subset_lattice(k)
    width, narrow = k + 1, np.min_scalar_type
    counts = [len(masks) for masks in lattice.masks]
    # nodes per mask in layer p
    per_mask = [p if variant == LASTJOB and 0 < p < k else 1 for p in range(k + 1)]
    layers, stop = [], 0
    for p in range(k + 1):
        layers.append(range(stop, stop + counts[p] * per_mask[p]))
        stop = layers[-1].stop
    layer_masks, layer_in, layer_cells = [], [], []
    for p in range(1, k + 1):
        masks, members = lattice.masks[p], lattice.members[p]
        layer_masks.append(masks.astype(narrow((1 << k) - 1)))
        tails = lattice.rank[lattice.rests[p]]  # the tail masks' ranks
        if variant == JOBSET:
            into = ((members - np.arange(p)) * counts[p - 1] + tails)[:, ::-1].T
            n_arcs = counts[p - 1] * (k - p + 1)  # leaving layer p - 1
            layer_in.append(np.ascontiguousarray(into, dtype=narrow(n_arcs - 1)))
            if p < k:
                free = lattice.members[k - p][::-1] + 1  # jobs outside each mask
                cells = (members[:, ::-1].T + 1)[:, :, None] * width + free
                layer_cells.append(cells.astype(narrow(width * width - 1)))
            continue
        per_tail = per_mask[p - 1]
        if p < k:  # node (mask, i-th job) at sweep position i * counts[p] + rank
            into = np.arange(per_tail)[:, None, None] * counts[p - 1] + tails.T
            if p == 1:
                lasts = np.zeros((1, 1, counts[p]), dtype=np.int32)
            else:  # the tail's g-th job is the mask's g-th, or next, skipping i
                skip = np.arange(per_tail)[:, None] >= np.arange(p)
                lasts = members[:, np.arange(per_tail)[:, None] + skip].transpose(1, 2, 0) + 1
            cells = lasts * width + (members.T + 1)
        else:  # the terminal: every tail of layer k - 1, in node order
            into = np.arange(per_tail) * counts[p - 1] + np.arange(counts[p - 1])[:, None]
            lasts = lattice.members[k - 1] + 1 if k > 1 else np.zeros((1, 1), np.int32)
            closing = lattice.members[1][::-1] + 1  # the one job each tail lacks
            cells = width * width + lasts * width + closing
        shape = (per_tail, -1) if p < k else (-1, 1)
        layer_in.append(into.reshape(shape).astype(narrow(len(layers[p - 1]) - 1)))
        layer_cells.append(cells.reshape(shape).astype(narrow(2 * width * width - 1)))
    for arr in (*layer_masks, *layer_in, *layer_cells):
        arr.setflags(write=False)
    return Diagram(
        variant=variant,
        depth=k,
        layers=layers,
        layer_masks=layer_masks,
        layer_in=layer_in,
        layer_cells=layer_cells,
        sweep_cells=max([1 << k, *(len(layers[p]) * (k - p) for p in range(k))]),
    )


def nearest_neighbour_times(t: np.ndarray, d: np.ndarray, starts: np.ndarray,
                            cols: np.ndarray) -> np.ndarray:
    """Time of each walker's nearest-neighbour schedule, for time arrays of
    shape (k + 1, C) and (k + 1, k + 1, C) in the diagrams' convention:
    walker i starts at job ``starts[i]`` (1..k) in column ``cols[i]``.

    From its start job a walker moves to the unvisited job of least setup
    from the current one (the lowest index on ties).  Like a diagram path
    it pays no setup before the first job and the closing setup d[v, 0]
    after the last, so its time bounds the diagrams' full-set time from
    above, up to summation order.  Every schedule runs all k jobs, so the
    execution times are added once per call over all C columns: a walker's
    time is bitwise the same in any walker set over the same arrays, where
    a sum over a gathered column subset could differ in the last bit (numpy
    reduces a row-major array row by row, but a single column or a
    column-major gather pairwise).  Costs about k^2 cells per walker.
    """
    k = len(t) - 1
    width = k + 1
    # row c * width + u of ``rows`` is d[u, :, c], and walker i's row in
    # ``rows`` is base[i] + its current job
    rows = np.ascontiguousarray(d.transpose(2, 0, 1)).reshape(-1, width)
    base = cols * width
    own = np.arange(len(starts)) * width  # walker i's row in ``visited``, flat
    at = base + starts
    visited = np.zeros((len(starts), width))  # inf where a walker may not go
    visited[:, 0] = np.inf
    visited.ravel()[own + starts] = np.inf
    setups = np.zeros(len(starts))
    for _ in range(k - 1):
        step = rows[at]
        step += visited
        nxt = step.argmin(axis=1)
        pick = own + nxt
        setups += step.ravel()[pick]
        visited.ravel()[pick] = np.inf
        at = base + nxt
    setups += rows[at, 0]
    return t[1:].sum(axis=0)[cols] + setups


def schedule_fits(t: np.ndarray, d: np.ndarray, limit) -> np.ndarray:
    """Per column of ``nearest_neighbour_times``'s arrays, whether the best
    nearest-neighbour schedule over all k start jobs proves that a
    set-time sweep finds a full-set time <= limit (a scalar, or one per
    column).

    Two walks give that verdict.  The first starts each column at the job
    of largest closing setup d[j, 0] (the lowest index on ties), and
    certifies the columns where that one schedule fits; as the best time g
    is at most any one schedule's, and bitwise so, since each walker's time
    does not depend on the walker set, the best schedule fits them too.
    The second walks all k starts on the columns left and decides them on g.

    The sweep's time is at most the rounded sum of the best schedule's own
    path.  That sum and g add the same 2k nonnegative terms in other
    orders, so each is within a relative gamma = m u / (1 - m u) of their
    exact sum, for m = 2k - 1 and unit roundoff u = eps / 2.  The sweep's
    time is then at most g (1 + gamma) / (1 - gamma) = g / (1 - m eps),
    which a rounded g (1 + 2k eps) <= limit keeps <= limit at any magnitude
    of the times.
    """
    k, n = len(t) - 1, t.shape[1]
    limit = np.broadcast_to(limit, n)
    scale = 1 + 2 * k * EPS
    first = d[1:, 0].argmax(axis=0) + 1
    fits = nearest_neighbour_times(t, d, first, np.arange(n)) * scale <= limit
    left = np.flatnonzero(~fits)
    if len(left):
        starts = np.repeat(np.arange(1, k + 1), len(left))
        g = nearest_neighbour_times(t, d, starts, np.tile(left, k))
        fits[left] = g.reshape(k, -1).min(axis=0) * scale <= limit[left]
    return fits


def minimal_over_limit(set_times: np.ndarray, time_limit: float):
    """Irreducible infeasible job sets from a per-job-set time table.

    ``set_times[mask, c]`` is the best time of the jobs in ``mask``
    (canonical job j is bit j - 1) in column c; the columns are filtered
    together.  A nonempty set is kept iff its time exceeds the limit and it
    contains no kept set.  Sets are decided in increasing cardinality,
    where a set contains a kept set iff it is kept or one of its
    one-smaller subsets contains one.  Returns one list of canonical masks
    per column, in (cardinality, mask) order.

    Closing-setup convention of both variants' sweeps: a strict subset of
    the k jobs is timed without the final setup back to the dummy job, the
    full set with it.  ``tests/oracle_reference.brute_iis`` times subsets
    the same way, so the oracle's IIS and the diagrams' coincide.
    """
    k = len(set_times).bit_length() - 1
    over = set_times > time_limit + TOL
    blocked = np.zeros(over.shape, dtype=bool)  # kept or above a kept set
    kept: list[list[int]] = [[] for _ in range(over.shape[1])]
    lattice = subset_lattice(k)
    over_sizes = lattice.size[1:][over[1:].any(axis=1)]
    # no set is kept below the smallest nonempty set over the limit
    first = int(over_sizes.min()) if len(over_sizes) else k + 1
    for masks, rests in zip(lattice.masks[first:], lattice.rests[first:]):
        below = blocked[rests.T].any(axis=0)
        new = over[masks] & ~below
        blocked[masks] = below | new
        for col, at in zip(*np.nonzero(new.T)):
            kept[col].append(int(masks[at]))
    return kept


class DiagramCache:
    """One solve's get-or-build cache keyed by (variant, depth), at most
    ``max_depth`` diagrams per variant.  A miss calls ``build_top_down``
    through the module global, which the benchmark's span tracer wraps, and
    adds its time to ``build_time``.  As ``build_top_down`` keeps every
    plan for the process, only the first solve to need a plan pays for
    building it; a later miss finds it built and adds next to nothing."""

    def __init__(self, max_depth: int):
        self.max_depth = max_depth
        self._store: dict[tuple[str, int], Diagram] = {}
        self.build_time = 0.0

    def get_or_build(self, variant: str, k: int) -> Diagram:
        if k > self.max_depth:
            raise ConfigurationError(
                f"requested depth {k} exceeds cache capacity {self.max_depth}"
            )
        key = (variant, k)
        diag = self._store.get(key)
        if diag is None:
            t0 = time.perf_counter()
            diag = build_top_down(variant, k)
            self.build_time += time.perf_counter() - t0
            self._store[key] = diag
        return diag

    def count(self, variant: str) -> int:
        return sum(1 for v, _ in self._store if v == variant)

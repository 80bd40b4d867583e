"""Layered decision diagrams for sequencing subproblems.

A diagram over k canonical jobs {1..k} has k decision layers plus a terminal
layer; every root-to-terminal path spells a permutation of the k jobs.  Both
variants are fixed lattices over the job masks, so ``build_top_down``
generates a diagram's arrays in closed form, and a ``DiagramCache`` keeps one
per (variant, k) for every (machine, scenario, job set) of that size in a
solve.  Arc costs are never stored: they are evaluated against per-call time
arrays indexed by canonical job (see ``canonical_remap``).

Both variants are regular, layer by layer, so each diagram derives at build
the plan its variant's set-time sweep reads (in-arc matrices, the distinct
job sets per layer, and setup or cost cells).  The sweeps take time arrays
with a trailing scenario axis, so many scenarios go through one diagram
together.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .model import TOL, ConfigurationError, StructuralError

LASTJOB = "lastjob"
JOBSET = "jobset"


@dataclass
class Diagram:
    """Immutable after construction, so one diagram serves every (machine,
    scenario, job set) of its size.  Every array is read-only and of the
    narrowest integer dtype that holds its values.

    Node ids run layer by layer: ``layers[p]`` is the id range of layer p,
    node 0 is the root and the last id the single terminal.  ``node_mask``
    is each node's job set as a bit mask.  Arc arrays are parallel, grouped
    by the tail's layer (``layer_arc_ranges``) and, within a layer, by tail
    node, so a single sweep in index order is a topological pass.
    ``arc_last`` carries the tail state's last job (-1 when none); it is
    structural for the last-job variant and unused for the job-set variant.

    The plan of the set-time sweep is derived at build, and the build fails
    if a layer is not regular: all nodes of a layer have the same in- and
    out-degree, a node's out-arcs are consecutive in its layer's arc range,
    and the nodes sharing a job set are consecutive and equally many.  The
    sweep visits a layer's nodes in *sweep order*: by rank within their job
    set, then by job set.  For a job-set layer that is node order; in a
    last-job layer each job set's nodes then lie one set-count apart, so
    the per-set minimum reduces over the outermost axis.  For p = 1..k:

    * ``layer_masks[p - 1]`` holds the distinct job sets of layer p, sorted,
      and the node at sweep position r has job set
      ``layer_masks[p - 1][r % len(layer_masks[p - 1])]``;
    * ``layer_in[p - 1]`` is the (in-degree, nodes) matrix of layer p's
      in-arcs, column r for sweep position r.  A job-set entry is the
      in-arc's offset in the arc range of layer p - 1; a last-job entry is
      the in-arc's tail, as a sweep position in layer p - 1;
    * ``layer_cells[p - 1]`` holds the cost cells the sweep reads with it.
      A job-set layer p < k has, per in-arc, node and out-arc, the flat
      index of d[val(in-arc), val(out-arc)] in the (k + 1)-square setup
      matrix, which is also its index in either half of the cost table
      below.  A last-job layer has, per in-arc and node, the in-arc's
      ``arc_cell``.

    ``arc_cell`` (last-job only) is each arc's flat index in the
    (2, k + 1, k + 1) cost table that ``lastjob.cost_table`` builds per
    call, indexed by (closing, last job or 0 at the root, job).
    ``sweep_cells`` bounds the arrays a set-time sweep allocates, in cells
    per scenario: the time table, and one layer's arcs (a job-set step may
    take several in-arc slots at once, within ``jobset.SLOT_BLOCK_CELLS``
    cells in all).  ``slot_major_in`` re-indexes ``layer_in`` for the
    job-set sweep on first use.
    """

    variant: str
    depth: int
    layers: list[range]
    node_mask: np.ndarray = field(repr=False)
    arc_tail: np.ndarray = field(repr=False)
    arc_head: np.ndarray = field(repr=False)
    arc_value: np.ndarray = field(repr=False)
    arc_last: np.ndarray = field(repr=False)
    layer_arc_ranges: list[tuple[int, int]] = field(repr=False)
    arc_cell: np.ndarray = field(init=False, repr=False)
    layer_masks: list[np.ndarray] = field(init=False, repr=False)
    layer_in: list[np.ndarray] = field(init=False, repr=False)
    layer_cells: list[np.ndarray] = field(init=False, repr=False)
    sweep_cells: int = field(init=False)

    def __post_init__(self):
        width = self.depth + 1
        self.arc_cell = np.zeros(0, dtype=np.uint8)
        if self.variant == LASTJOB:
            cells = np.maximum(self.arc_last, 0).astype(np.int32)  # root's arcs: row 0
            cells *= width
            cells += self.arc_value
            cells[slice(*self.layer_arc_ranges[-1])] += width * width  # closing
            self.arc_cell = cells.astype(np.min_scalar_type(2 * width * width - 1))
        self.layer_masks, self.layer_in, self.layer_cells = [], [], []
        prev_pos = np.zeros(1, dtype=np.int64)  # the root's sweep position
        for p in range(1, self.depth + 1):
            prev_pos = self._derive_layer(p, prev_pos)
        self.sweep_cells = max([1 << self.depth,
                                *(end - start for start, end in self.layer_arc_ranges)])
        for arr in (self.node_mask, self.arc_tail, self.arc_head, self.arc_value,
                    self.arc_last, self.arc_cell, *self.layer_masks,
                    *self.layer_in, *self.layer_cells):
            arr.setflags(write=False)

    def _derive_layer(self, p: int, prev_pos: np.ndarray) -> np.ndarray:
        """Append layer p's plan; takes and returns each node's sweep
        position in layers p - 1 and p (indexed by node offset)."""
        start, end = self.layer_arc_ranges[p - 1]
        tails, layer = self.layers[p - 1], self.layers[p]
        masks = self.node_mask[layer.start:layer.stop]
        n_sets = len(set(masks.tolist()))  # np.unique imports numpy.ma
        n_arcs = end - start
        if n_arcs % len(tails) or n_arcs % len(layer) or len(layer) % n_sets:
            raise StructuralError(f"{self.variant} layer {p} is not regular")
        # sweep position r holds node offset order[r]
        order = np.arange(len(layer)).reshape(n_sets, -1).T.ravel()
        a_in = np.argsort(self.arc_head[start:end], kind="stable")
        a_in = a_in.reshape(len(layer), -1)[order].T
        groups = masks.reshape(n_sets, -1)
        out_tails = self.arc_tail[start:end].reshape(len(tails), -1)
        if (np.any(self.arc_head[start + a_in] != layer.start + order)
                or np.any(out_tails != np.arange(tails.start, tails.stop)[:, None])
                or np.any(groups != groups[:, :1])
                or np.any(groups[1:, 0] <= groups[:-1, 0])):
            raise StructuralError(f"{self.variant} layer {p} is not regular")
        # numpy widens index arrays on use anyway, so store the narrowest
        narrow = np.min_scalar_type
        self.layer_masks.append(np.ascontiguousarray(groups[:, 0]))
        if self.variant == JOBSET:
            self.layer_in.append(a_in.astype(narrow(n_arcs - 1)))
            if p < self.depth:
                width = self.depth + 1
                vals_in = self.arc_value[start + a_in].astype(np.int32)
                out_start, out_end = self.layer_arc_ranges[p]
                vals_out = self.arc_value[out_start:out_end].reshape(len(layer), -1)
                cells = vals_in[:, :, None] * width + vals_out[None, :, :]
                self.layer_cells.append(cells.astype(narrow(width * width - 1)))
        else:
            in_tails = prev_pos[self.arc_tail[start + a_in] - tails.start]
            self.layer_in.append(in_tails.astype(narrow(len(tails) - 1)))
            self.layer_cells.append(self.arc_cell[start + a_in])
        pos = np.empty(len(layer), dtype=np.int64)
        pos[order] = np.arange(len(layer))
        return pos

    @functools.cached_property
    def slot_major_in(self) -> list[np.ndarray]:
        """Job-set only: ``layer_in`` with each in-arc at its position when
        the tail layer's arc costs are held (out-arc slot, tail node), as
        the job-set sweep holds them: tail n's out-arc j, offset n * o + j
        for o out-arcs per tail, sits at j * tails + n."""
        out = []
        for p, into in enumerate(self.layer_in):
            tails, per_tail = len(self.layers[p]), self.depth - p
            order = np.arange(tails * per_tail).reshape(per_tail, tails).T.ravel()
            out.append(order.take(into).astype(into.dtype))
            out[-1].setflags(write=False)
        return out

    @property
    def n_nodes(self) -> int:
        return len(self.node_mask)

    @property
    def n_arcs(self) -> int:
        return len(self.arc_tail)

    @property
    def root(self) -> int:
        return 0

    @property
    def terminal(self) -> int:
        return self.layers[-1].start

    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]


def build_top_down(variant: str, k: int) -> Diagram:
    """Generate the diagram of ``variant`` over k jobs in closed form.

    Both variants are fixed lattices.  Decision layer p (0 < p < k) holds
    the masks with p bits, ascending; a last-job layer holds (mask, last)
    for each of them, with ``last`` running over the mask's jobs ascending.
    The root has mask 0 and the terminal the full mask.  Each node's
    out-arcs add the jobs outside its mask, ascending, so an arc's head is
    its layer's start plus the head mask's rank among the masks of its size
    (times p for last-job, plus the number of the mask's jobs below the
    added one).  Arrays are written layer by layer into their final dtypes.
    """
    if k < 1:
        raise ConfigurationError("diagram depth must be >= 1")
    if variant not in (LASTJOB, JOBSET):
        raise ConfigurationError(f"unknown diagram variant {variant!r}")
    lastjob = variant == LASTJOB
    bits = np.zeros(1 << k, dtype=np.int32)  # popcount of every mask
    for j in range(k):
        bits[1 << j:2 << j] = bits[:1 << j] + 1
    by_size = np.argsort(bits, kind="stable").astype(np.int32)  # by (bits, mask)
    counts = np.bincount(bits)  # C(k, p)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    rank = np.empty(1 << k, dtype=np.int32)  # a mask's rank among its size
    rank[by_size] = np.arange(1 << k, dtype=np.int32) - offsets[bits[by_size]]
    # nodes per mask in layer p
    per_mask = [p if lastjob and 0 < p < k else 1 for p in range(k + 1)]
    layers, stop = [], 0
    for p in range(k + 1):
        layers.append(range(stop, stop + int(counts[p]) * per_mask[p]))
        stop = layers[-1].stop
    layer_arc_ranges, stop = [], 0
    for p in range(k):
        layer_arc_ranges.append((stop, stop + len(layers[p]) * (k - p)))
        stop = layer_arc_ranges[-1][1]

    node_type = np.min_scalar_type(layers[-1].stop - 1)
    node_mask = np.empty(layers[-1].stop, dtype=np.min_scalar_type((1 << k) - 1))
    arc_tail = np.empty(stop, dtype=node_type)
    arc_head = np.empty(stop, dtype=node_type)
    arc_value = np.empty(stop, dtype=np.min_scalar_type(k))
    arc_last = np.empty(stop, dtype=np.min_scalar_type(-k - 1))
    node_mask[-1] = (1 << k) - 1
    jobs = np.arange(k, dtype=np.int32)
    for p in range(k):  # arcs from layer p to layer p + 1
        masks = by_size[offsets[p]:offsets[p + 1]]
        node_mask[layers[p].start:layers[p].stop] = np.repeat(masks, per_mask[p])
        has = (masks[:, None] >> jobs & 1).astype(bool)
        grid = np.broadcast_to(jobs, has.shape)
        free = grid[~has].reshape(len(masks), k - p)  # jobs to add, ascending
        if p + 1 == k:
            heads = np.full(free.shape, layers[k].start, dtype=np.int32)
        else:
            heads = rank[masks[:, None] | 1 << free] * per_mask[p + 1]
            if lastjob:
                heads += free - jobs[:k - p]  # the mask's jobs below the added one
            heads += layers[p + 1].start
        shape = (len(masks), per_mask[p], k - p)  # (mask, last, added job)
        seg = slice(*layer_arc_ranges[p])
        arc_tail[seg].reshape(shape)[...] = np.arange(
            layers[p].start, layers[p].stop, dtype=np.int32).reshape(shape[:2] + (1,))
        arc_head[seg].reshape(shape)[...] = heads[:, None, :]
        arc_value[seg].reshape(shape)[...] = free[:, None, :] + 1
        if lastjob and p > 0:
            arc_last[seg].reshape(shape)[...] = (grid[has].reshape(shape[:2]) + 1)[:, :, None]
        else:
            arc_last[seg] = -1
    return Diagram(
        variant=variant,
        depth=k,
        layers=layers,
        node_mask=node_mask,
        arc_tail=arc_tail,
        arc_head=arc_head,
        arc_value=arc_value,
        arc_last=arc_last,
        layer_arc_ranges=layer_arc_ranges,
    )


def canonical_remap(assigned) -> np.ndarray:
    """Map canonical indices to original job ids.

    Position i (1-based) of the sorted job set becomes canonical index i;
    entry 0 maps the dummy job to itself.  Returns an int array of length
    k + 1 with remap[i] = original id of canonical job i.
    """
    jobs = sorted(assigned)
    if len(jobs) != len(set(jobs)):
        raise StructuralError("duplicate job ids in assignment")
    return np.array([0] + jobs, dtype=np.int64)


def node_min_times(diag: Diagram, arc_costs: np.ndarray) -> np.ndarray:
    """Forward pass: cheapest root-to-node accumulation of per-arc costs."""
    times = np.full(diag.n_nodes, np.inf)
    times[diag.root] = 0.0
    tail, head = diag.arc_tail, diag.arc_head
    for start, end in diag.layer_arc_ranges:
        seg = slice(start, end)
        np.minimum.at(times, head[seg], times[tail[seg]] + arc_costs[seg])
    return times


def nearest_neighbour_times(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Time of the best nearest-neighbour schedule per column, over all
    start jobs, for time arrays of shape (k + 1, C) and (k + 1, k + 1, C)
    in the diagrams' convention.

    From each start job the schedule moves to the unvisited job of least
    setup from the current one (the lowest index on ties).  Like a diagram
    path it pays no setup before the first job and the closing setup
    d[v, 0] after the last, so its time bounds the diagrams' full-set time
    from above, up to summation order.  Every schedule runs all k jobs, so
    their execution times are added once per column.  Costs about k^3
    cells per column.
    """
    k, n = len(t) - 1, t.shape[1]
    width = k + 1
    # one walker per (start, column), start-major; row c * width + u of
    # ``rows`` is d[u, :, c], and walker i's row in ``rows`` is base[i] +
    # its current job
    rows = np.ascontiguousarray(d.transpose(2, 0, 1)).reshape(-1, width)
    base = np.tile(np.arange(n) * width, k)
    own = np.arange(k * n) * width  # walker i's row in ``visited``, flat
    at = base + np.repeat(np.arange(1, width), n)
    visited = np.zeros((k * n, width))  # inf where a walker may not go
    visited[:, 0] = np.inf
    visited.ravel()[own + at - base] = np.inf
    setups = np.zeros(k * n)
    for _ in range(k - 1):
        step = rows[at]
        step += visited
        nxt = step.argmin(axis=1)
        pick = own + nxt
        setups += step.ravel()[pick]
        visited.ravel()[pick] = np.inf
        at = base + nxt
    setups += rows[at, 0]
    return t[1:].sum(axis=0) + setups.reshape(k, n).min(axis=0)


def schedule_fits(t: np.ndarray, d: np.ndarray, limit: float) -> np.ndarray:
    """Per column of ``nearest_neighbour_times``'s arrays, whether its
    schedule proves that a set-time sweep finds a full-set time <= limit.

    The sweep's time is at most the rounded sum of the schedule's own path.
    That sum and the schedule time g add the same 2k nonnegative terms in
    other orders, so each is within a relative gamma = m u / (1 - m u) of
    their exact sum, for m = 2k - 1 and unit roundoff u = eps / 2.  The
    sweep's time is then at most g (1 + gamma) / (1 - gamma) =
    g / (1 - m eps), which a rounded g (1 + 2k eps) <= limit keeps <= limit
    at any magnitude of the times.
    """
    k, eps = len(t) - 1, np.finfo(float).eps
    return nearest_neighbour_times(t, d) * (1 + 2 * k * eps) <= limit


@functools.lru_cache(maxsize=None)
def _masks_by_size(k: int) -> tuple[np.ndarray, tuple]:
    """The cardinality of every mask over k jobs, and per cardinality
    c = 1..k the masks with c bits, ascending, with their one-smaller
    subsets as a (c, masks) array."""
    masks = np.arange(1 << k)
    bits = 1 << np.arange(k)
    has = (masks[:, None] & bits) != 0
    size = has.sum(axis=1)
    by_size = []
    for c in range(1, k + 1):
        sized = masks[size == c]
        subsets = (sized[:, None] ^ bits)[has[sized]].reshape(len(sized), c).T
        by_size.append((sized, np.ascontiguousarray(subsets)))
    for arr in (size, *(a for pair in by_size for a in pair)):  # shared
        arr.setflags(write=False)
    return size, tuple(by_size)


def minimal_over_limit(set_times: np.ndarray, time_limit: float):
    """Irreducible infeasible job sets from a per-job-set time table.

    ``set_times[mask, c]`` is the best time of the jobs in ``mask``
    (canonical job j is bit j - 1) in column c; the columns are filtered
    together.  A nonempty set is kept iff its time exceeds the limit and it
    contains no kept set.  Sets are decided in increasing cardinality,
    where a set contains a kept set iff it is kept or one of its
    one-smaller subsets contains one.  Returns one list of frozensets per
    column, in (cardinality, mask) order.
    """
    k = len(set_times).bit_length() - 1
    over = set_times > time_limit + TOL
    blocked = np.zeros(over.shape, dtype=bool)  # kept or above a kept set
    kept: list[list[int]] = [[] for _ in range(over.shape[1])]
    size, by_size = _masks_by_size(k)
    over_sizes = size[1:][over[1:].any(axis=1)]
    # no set is kept below the smallest nonempty set over the limit
    first = int(over_sizes.min()) if len(over_sizes) else k + 1
    for masks, subsets in by_size[first - 1:]:
        below = blocked[subsets].any(axis=0)
        new = over[masks] & ~below
        blocked[masks] = below | new
        for col, at in zip(*np.nonzero(new.T)):
            kept[col].append(int(masks[at]))
    return [[frozenset(j + 1 for j in range(k) if m >> j & 1) for m in col_kept]
            for col_kept in kept]


class DiagramCache:
    """Get-or-build cache keyed by (variant, depth); at most ``max_depth``
    diagrams per variant ever exist.  A miss calls ``build_top_down``
    through the module global, which the benchmark's span tracer wraps, and
    adds its time to ``build_time``."""

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

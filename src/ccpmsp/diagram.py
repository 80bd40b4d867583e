"""Layered decision diagrams for sequencing subproblems.

A diagram over k canonical jobs {1..k} has k decision layers plus a terminal
layer; every root-to-terminal path spells a permutation of the k jobs.  The
graph is built once per (variant, k) and reused for every (machine, scenario,
job set) of that size: arc costs are never stored, they are evaluated against
per-call time arrays obtained through ``canonical_remap``/``sub_times``.

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

from .model import TOL, ConfigurationError, Scenario, StructuralError

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
      matrix.  A last-job layer has, per in-arc and node, the in-arc's
      ``arc_cell``.

    ``arc_cell`` (last-job only) is each arc's flat index in the
    (2, k + 1, k + 1) cost table that ``lastjob.cost_table`` builds per
    call, indexed by (closing, last job or 0 at the root, job).
    ``sweep_cells`` bounds the arrays a set-time sweep allocates, in cells
    per scenario: the time table, and one layer's arcs.
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


class LastJobSpec:
    """States (job mask, last job); last is -1 at the root."""

    variant = LASTJOB

    def __init__(self, k: int):
        self.k = k
        self.initial_state = (0, -1)
        self.terminal_state = ((1 << k) - 1, -1)

    def domain(self, state):
        mask = state[0]
        return [j for j in range(1, self.k + 1) if not mask >> (j - 1) & 1]

    def transition(self, state, j):
        mask, _ = state
        bit = 1 << (j - 1)
        if mask & bit:
            raise StructuralError(f"job {j} already in state")
        return (mask | bit, j)

    @staticmethod
    def last_of(state) -> int:
        return state[1]

    @staticmethod
    def job_mask(state) -> int:
        return state[0]


class JobSetSpec:
    """States are bare job masks; merging collapses orderings."""

    variant = JOBSET

    def __init__(self, k: int):
        self.k = k
        self.initial_state = 0
        self.terminal_state = (1 << k) - 1

    def domain(self, state):
        return [j for j in range(1, self.k + 1) if not state >> (j - 1) & 1]

    def transition(self, state, j):
        bit = 1 << (j - 1)
        if state & bit:
            raise StructuralError(f"job {j} already in state")
        return state | bit

    @staticmethod
    def last_of(state) -> int:
        return -1

    @staticmethod
    def job_mask(state) -> int:
        return state


def build_top_down(spec, k: int) -> Diagram:
    """Top-down construction: expand each layer's nodes over their domains,
    merging equal states; the final decision layer's arcs all enter the
    terminal.  Nodes within a layer sit in canonical state order.  Only the
    current layer is held as Python objects; each finished layer becomes
    arrays, which bounds the build's peak memory.
    """
    if k < 1:
        raise ConfigurationError("diagram depth must be >= 1")
    states = [spec.initial_state]  # the current layer's states, in node order
    layers = [range(1)]
    masks = [np.array([spec.job_mask(spec.initial_state)], dtype=np.int64)]
    arcs: list[np.ndarray] = []  # per layer: (4, arcs) tail, head, value, last
    layer_arc_ranges = []

    for layer_idx in range(k):
        current = layers[-1]
        first = current.stop
        final = layer_idx == k - 1
        if final:
            nxt = [spec.terminal_state]
        else:  # discover and canonically order next-layer states
            nxt = sorted({
                spec.transition(s, v) for s in states for v in spec.domain(s)
            })
        index = {s: first + i for i, s in enumerate(nxt)}
        tail, head, value, last = [], [], [], []
        for n, s in zip(current, states):
            for v in spec.domain(s):
                tail.append(n)
                head.append(first if final else index[spec.transition(s, v)])
                value.append(v)
                last.append(spec.last_of(s))
        start = layer_arc_ranges[-1][1] if layer_arc_ranges else 0
        layer_arc_ranges.append((start, start + len(tail)))
        arcs.append(np.array([tail, head, value, last], dtype=np.int32))
        del tail, head, value, last, index
        masks.append(np.fromiter(map(spec.job_mask, nxt), dtype=np.int64, count=len(nxt)))
        layers.append(range(first, first + len(nxt)))
        states = nxt

    tail, head, value, last = np.concatenate(arcs, axis=1)
    del arcs
    node_type = np.min_scalar_type(layers[-1].stop - 1)
    return Diagram(
        variant=spec.variant,
        depth=k,
        layers=layers,
        node_mask=np.concatenate(masks).astype(np.min_scalar_type((1 << k) - 1)),
        arc_tail=tail.astype(node_type),
        arc_head=head.astype(node_type),
        arc_value=value.astype(np.min_scalar_type(k)),
        arc_last=last.astype(np.min_scalar_type(-k - 1)),
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


def sub_times(scenario: Scenario, remap: np.ndarray):
    """Canonical time arrays for a job subset.

    Returns (t, d): t[c] is the execution time of canonical job c (t[0]
    unused), d the (k+1)x(k+1) setup submatrix with the dummy at index 0.
    """
    t = np.concatenate(([0.0], scenario.exec[remap[1:] - 1]))
    d = scenario.setup[np.ix_(remap, remap)]
    return t, d


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
    diagrams per variant ever exist."""

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
            spec = LastJobSpec(k) if variant == LASTJOB else JobSetSpec(k)
            diag = build_top_down(spec, k)
            self.build_time += time.perf_counter() - t0
            self._store[key] = diag
        return diag

    def count(self, variant: str) -> int:
        return sum(1 for v, _ in self._store if v == variant)

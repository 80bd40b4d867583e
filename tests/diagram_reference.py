"""The arc-level diagram and its state-expanding builder, kept as the
reference for the closed-form sweep plans of ``ccpmsp.diagram``, with
per-arc costs for both variants, ``sub_times``, which slices a
scenario's time arrays for a job subset in the diagrams' canonical
convention, and ``canonical_remap``, the index map of that convention.

``build_top_down(spec, k)`` expands each layer's states over their domains
through a spec's ``domain`` and ``transition`` callbacks and merges equal
states, so it shares no node-numbering code with the closed form.  It
returns an ``ArcDiagram``: every arc as parallel arrays, from which the
sweep plan is derived, with its regularity checked, by argsorting the
arcs' heads.  ``jobset_arc_costs`` writes the cumulative costs from their
definition, one arc at a time, so it shares no code with the job-set
sweep.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from ccpmsp.diagram import JOBSET, LASTJOB
from ccpmsp.lastjob import cost_table
from ccpmsp.model import ConfigurationError, Scenario, StructuralError


@dataclass
class ArcDiagram:
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


def node_min_times(diag: ArcDiagram, arc_costs: np.ndarray) -> np.ndarray:
    """Forward pass: cheapest root-to-node accumulation of per-arc costs."""
    times = np.full(diag.n_nodes, np.inf)
    times[diag.root] = 0.0
    tail, head = diag.arc_tail, diag.arc_head
    for start, end in diag.layer_arc_ranges:
        seg = slice(start, end)
        np.minimum.at(times, head[seg], times[tail[seg]] + arc_costs[seg])
    return times


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


def build_top_down(spec, k: int) -> ArcDiagram:
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
    return ArcDiagram(
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


@functools.lru_cache(maxsize=None)
def reference_diagram(variant: str, k: int) -> ArcDiagram:
    """The reference builder's diagram of ``variant`` over k jobs; it is
    immutable, so tests share one per (variant, k)."""
    return build_top_down(LastJobSpec(k) if variant == LASTJOB else JobSetSpec(k), k)


def lastjob_arc_costs(diag: ArcDiagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-arc costs for one scenario's canonical time arrays.

    Root-leaving arcs cost t[v]; interior arcs d[last, v] + t[v]; arcs into
    the terminal additionally pay d[v, 0].
    """
    if diag.variant != LASTJOB:
        raise StructuralError("last-job costs requested for a different variant")
    return cost_table(t, d).take(diag.arc_cell)


def jobset_arc_costs(diag: ArcDiagram, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cumulative per-arc costs for one scenario, from their definition:
    an arc adding job v costs t[v] from the root, and otherwise the least,
    over the arcs b into its tail, of cost(b) + (d[val(b), v] + t[v]); an
    arc into the terminal also pays d[v, 0] on the parenthesised part.
    Arcs are in topological order, so one loop over them suffices."""
    if diag.variant != JOBSET:
        raise StructuralError("job-set costs requested for a different variant")
    into = [[] for _ in range(diag.n_nodes)]
    for a, head in enumerate(diag.arc_head.tolist()):
        into[head].append(a)
    costs = np.empty(diag.n_arcs)
    for a in range(diag.n_arcs):
        tail, v = int(diag.arc_tail[a]), int(diag.arc_value[a])
        closing = int(diag.arc_head[a]) == diag.terminal
        if tail == diag.root:
            costs[a] = t[v] + d[v, 0] if closing else t[v]
            continue
        best = np.inf
        for b in into[tail]:
            own = d[int(diag.arc_value[b]), v] + t[v]
            if closing:
                own = own + d[v, 0]
            best = min(best, costs[b] + own)
        costs[a] = best
    return costs


def sub_times(scenario: Scenario, remap: np.ndarray):
    """Canonical time arrays for a job subset.

    Returns (t, d): t[c] is the execution time of canonical job c (t[0]
    unused), d the (k+1)x(k+1) setup submatrix with the dummy at index 0.
    """
    t = np.concatenate(([0.0], scenario.exec[remap[1:] - 1]))
    d = scenario.setup[np.ix_(remap, remap)]
    return t, d


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

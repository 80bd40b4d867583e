"""Layered decision diagrams for sequencing subproblems.

A diagram over k canonical jobs {1..k} has k decision layers plus a terminal
layer; every root-to-terminal path spells a permutation of the k jobs.  The
graph is built once per (variant, k) and reused for every (machine, scenario,
job set) of that size: arc costs are never stored, they are evaluated against
per-call time arrays obtained through ``canonical_remap``/``sub_times``.
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
    scenario, job set) of its size.  Every array is read-only.

    Node ids run layer by layer: ``layers[p]`` is the id range of layer p,
    node 0 is the root and the last id the single terminal.  ``node_mask``
    is each node's job set as a bit mask.  Arc arrays are parallel, grouped
    by the tail's layer (``layer_arc_ranges``) and, within a layer, by tail
    node, so a single sweep in index order is a topological pass.
    ``arc_last`` carries the tail state's last job (-1 when none); it is
    structural for the last-job variant and unused for the job-set variant.

    Job-set diagrams also carry what their cost pass reads, derived once
    (the lists are empty for the last-job variant, whose costs are per
    arc).  All nodes of a job-set layer have the same in- and out-degree,
    and a node's out-arcs are consecutive in its layer's arc range.
    ``layer_in[p - 1]`` is the (nodes, in-degree) matrix of the arcs
    entering layer p, row i for node ``layers[p][i]``; ``layer_setup[p - 1]``
    holds, per node, in-arc and out-arc, the flat index of
    d[val(in-arc), val(out-arc)] in the (k + 1)-square setup matrix.
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
    layer_in: list[np.ndarray] = field(init=False, repr=False)
    layer_setup: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_in, self.layer_setup = [], []
        if self.variant == JOBSET:
            self._derive_jobset_plan()
        for arr in (self.node_mask, self.arc_tail, self.arc_head, self.arc_value,
                    self.arc_last, *self.layer_in, *self.layer_setup):
            arr.setflags(write=False)

    def _derive_jobset_plan(self):
        val, width = self.arc_value, self.depth + 1
        # numpy widens index arrays on use anyway, so store the narrowest
        cell_type = np.min_scalar_type(width * width - 1)
        for p, (start, end) in enumerate(self.layer_arc_ranges, start=1):
            layer = self.layers[p]
            a_in = start + np.argsort(self.arc_head[start:end], kind="stable")
            a_in = a_in.astype(np.int32).reshape(len(layer), -1)
            rows = np.arange(layer.start, layer.stop)[:, None]
            if np.any(self.arc_head[a_in] != rows):
                raise StructuralError("job-set layer is not regular")
            self.layer_in.append(a_in)
            if p < self.depth:
                out_start, out_end = self.layer_arc_ranges[p]
                vals_out = val[out_start:out_end].reshape(len(layer), -1)
                cells = val[a_in][:, :, None] * width + vals_out[:, None, :]
                self.layer_setup.append(cells.astype(cell_type))

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
    terminal.  Nodes within a layer sit in canonical state order.
    """
    if k < 1:
        raise ConfigurationError("diagram depth must be >= 1")
    labels = [spec.initial_state]  # the state of each node id
    layers = [range(1)]
    arc_tail, arc_head, arc_value, arc_last = [], [], [], []
    layer_arc_ranges = []

    for layer_idx in range(k):
        current = layers[-1]
        first = len(labels)
        final = layer_idx == k - 1
        if final:
            nxt = [spec.terminal_state]
        else:  # discover and canonically order next-layer states
            nxt = sorted({
                spec.transition(labels[n], v)
                for n in current
                for v in spec.domain(labels[n])
            })
        index = {s: first + i for i, s in enumerate(nxt)}
        labels.extend(nxt)
        start = len(arc_tail)
        for n in current:
            s = labels[n]
            last = spec.last_of(s)
            for v in spec.domain(s):
                arc_tail.append(n)
                arc_head.append(first if final else index[spec.transition(s, v)])
                arc_value.append(v)
                arc_last.append(last)
        layer_arc_ranges.append((start, len(arc_tail)))
        layers.append(range(first, len(labels)))

    return Diagram(
        variant=spec.variant,
        depth=k,
        layers=layers,
        node_mask=np.fromiter(map(spec.job_mask, labels), dtype=np.int64,
                              count=len(labels)),
        arc_tail=np.array(arc_tail, dtype=np.int32),
        arc_head=np.array(arc_head, dtype=np.int32),
        arc_value=np.array(arc_value, dtype=np.int32),
        arc_last=np.array(arc_last, dtype=np.int32),
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


@functools.lru_cache(maxsize=None)
def _masks_by_size(k: int) -> tuple[np.ndarray, ...]:
    """The nonempty masks over k jobs, one ascending array per cardinality."""
    masks = np.arange(1 << k)
    size = sum(masks >> j & 1 for j in range(k))
    by_size = tuple(masks[size == c] for c in range(1, k + 1))
    for arr in by_size:  # shared by every caller
        arr.setflags(write=False)
    return by_size


def minimal_over_limit(set_times: np.ndarray, time_limit: float) -> list[frozenset]:
    """Irreducible infeasible job sets from a per-job-set time table.

    ``set_times[mask]`` is the best time of the jobs in ``mask`` (canonical
    job j is bit j - 1).  A nonempty set is kept iff its time exceeds the
    limit and it contains no kept set.  Sets are decided in increasing cardinality,
    where a set contains a kept set iff it is kept or one of its one-smaller
    subsets contains one.  Returns frozensets in (cardinality, mask) order.
    """
    k = len(set_times).bit_length() - 1
    over = set_times > time_limit + TOL
    blocked = np.zeros(len(set_times), dtype=bool)  # kept or above a kept set
    kept: list[int] = []
    for masks in _masks_by_size(k):
        below = np.zeros(len(masks), dtype=bool)
        for j in range(k):  # masks without bit j read their own False
            below |= blocked[masks & ~(1 << j)]
        new = masks[over[masks] & ~below]
        blocked[masks] = below
        blocked[new] = True
        kept.extend(new.tolist())
    return [frozenset(j + 1 for j in range(k) if m >> j & 1) for m in kept]


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

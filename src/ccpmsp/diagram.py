"""Layered decision diagrams for sequencing subproblems.

A diagram over k canonical jobs {1..k} has k decision layers plus a terminal
layer; every root-to-terminal path spells a permutation of the k jobs.  The
graph is built once per (variant, k) and reused for every (machine, scenario,
job set) of that size: arc costs are never stored, they are evaluated against
per-call time arrays obtained through ``canonical_remap``/``sub_times``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigurationError, Scenario, StructuralError

LASTJOB = "lastjob"
JOBSET = "jobset"


@dataclass
class Diagram:
    """Immutable after construction, so one diagram serves every (machine,
    scenario, job set) of its size.

    Node 0 is the root, node ``terminal`` the single terminal.  Arc arrays
    are parallel and grouped by the tail's layer (``layer_arc_ranges``), so a
    single sweep in index order is a topological pass.  ``arc_last`` carries
    the tail state's last-job component (-1 when none); it is structural for
    the last-job variant and unused for the job-set variant.
    """

    variant: str
    depth: int
    layers: list[list[int]]
    states: list
    node_in: list[list[int]]
    node_out: list[list[int]]
    arc_tail: np.ndarray = field(repr=False)
    arc_head: np.ndarray = field(repr=False)
    arc_value: np.ndarray = field(repr=False)
    arc_last: np.ndarray = field(repr=False)
    layer_arc_ranges: list[tuple[int, int]] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.states)

    @property
    def n_arcs(self) -> int:
        return len(self.arc_tail)

    @property
    def root(self) -> int:
        return 0

    @property
    def terminal(self) -> int:
        return self.layers[-1][0]

    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def fingerprint(self) -> int:
        return hash(
            (
                self.variant,
                self.depth,
                tuple(self.layer_sizes()),
                self.arc_tail.tobytes(),
                self.arc_head.tobytes(),
                self.arc_value.tobytes(),
            )
        )


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
    states = [spec.initial_state]
    layers = [[0]]
    arc_tail, arc_head, arc_value, arc_last = [], [], [], []
    layer_arc_ranges = []

    for layer_idx in range(k - 1):
        current = layers[layer_idx]
        # discover and canonically order next-layer states
        nxt_states = sorted(
            {
                spec.transition(states[n], v)
                for n in current
                for v in spec.domain(states[n])
            }
        )
        index = {}
        nxt_ids = []
        for s in nxt_states:
            nid = len(states)
            states.append(s)
            index[s] = nid
            nxt_ids.append(nid)
        start = len(arc_tail)
        for n in current:
            s = states[n]
            last = spec.last_of(s)
            for v in spec.domain(s):
                arc_tail.append(n)
                arc_head.append(index[spec.transition(s, v)])
                arc_value.append(v)
                arc_last.append(last)
        layer_arc_ranges.append((start, len(arc_tail)))
        layers.append(nxt_ids)

    terminal = len(states)
    states.append(spec.terminal_state)
    start = len(arc_tail)
    for n in layers[k - 1]:
        s = states[n]
        last = spec.last_of(s)
        for v in spec.domain(s):
            arc_tail.append(n)
            arc_head.append(terminal)
            arc_value.append(v)
            arc_last.append(last)
    layer_arc_ranges.append((start, len(arc_tail)))
    layers.append([terminal])

    node_in = [[] for _ in states]
    node_out = [[] for _ in states]
    for a, (t, h) in enumerate(zip(arc_tail, arc_head)):
        node_out[t].append(a)
        node_in[h].append(a)

    return Diagram(
        variant=spec.variant,
        depth=k,
        layers=layers,
        states=states,
        node_in=node_in,
        node_out=node_out,
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


def min_completion_time(diag: Diagram, arc_costs: np.ndarray) -> float:
    """Best schedule length encoded by the diagram under the given costs.

    For the last-job variant the costs are per-arc and summed along paths;
    for the job-set variant they are already cumulative, so the answer is
    the cheapest arc entering the terminal.
    """
    if diag.variant == JOBSET:
        return float(arc_costs[diag.node_in[diag.terminal]].min())
    return float(node_min_times(diag, arc_costs)[diag.terminal])


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

    def __len__(self) -> int:
        return len(self._store)

    def count(self, variant: str) -> int:
        return sum(1 for v, _ in self._store if v == variant)


def _fmt_state(diag: Diagram, state) -> str:
    if diag.variant == LASTJOB:
        mask, last = state
    else:
        mask, last = state, None
    jobs = [str(j + 1) for j in range(diag.depth) if mask >> j & 1]
    label = "{" + ",".join(jobs) + "}"
    if last is not None and last >= 1:
        label += f"|{last}"
    return label


def to_dot(diag: Diagram) -> str:
    """Debug export in DOT format (not a stability-guaranteed layout)."""
    lines = ["digraph dd {", "  rankdir=TB;"]
    for n, state in enumerate(diag.states):
        shape = "doublecircle" if n in (diag.root, diag.terminal) else "circle"
        lines.append(f'  n{n} [label="{_fmt_state(diag, state)}" shape={shape}];')
    for a in range(diag.n_arcs):
        lines.append(
            f'  n{diag.arc_tail[a]} -> n{diag.arc_head[a]} [label="{diag.arc_value[a]}"];'
        )
    lines.append("}")
    return "\n".join(lines)

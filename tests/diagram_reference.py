"""The state-expanding diagram builder, kept as a reference for the
closed-form ``ccpmsp.diagram.build_top_down``, and ``sub_times``, which
slices a scenario's time arrays for a job subset in the diagrams'
canonical convention.

``build_top_down(spec, k)`` expands each layer's states over their domains
through a spec's ``domain`` and ``transition`` callbacks and merges equal
states, so it shares no node-numbering code with the closed form.
"""

import numpy as np

from ccpmsp.diagram import JOBSET, LASTJOB, Diagram
from ccpmsp.model import ConfigurationError, Scenario, StructuralError


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


def sub_times(scenario: Scenario, remap: np.ndarray):
    """Canonical time arrays for a job subset.

    Returns (t, d): t[c] is the execution time of canonical job c (t[0]
    unused), d the (k+1)x(k+1) setup submatrix with the dummy at index 0.
    """
    t = np.concatenate(([0.0], scenario.exec[remap[1:] - 1]))
    d = scenario.setup[np.ix_(remap, remap)]
    return t, d

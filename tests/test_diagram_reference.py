"""The closed-form builder against the state-expanding reference builder
of ``diagram_reference``, and the reference's own state callbacks."""

import tracemalloc

import numpy as np
import pytest

from ccpmsp.diagram import JOBSET, LASTJOB, build_top_down
from ccpmsp.model import ConfigurationError
from diagram_reference import JobSetSpec, LastJobSpec
from diagram_reference import build_top_down as reference_build


def test_domain_and_transition_walkthrough():
    spec = LastJobSpec(3)
    root = spec.initial_state
    assert root == (0, -1)
    assert spec.domain(root) == [1, 2, 3]
    s = spec.transition(root, 2)
    assert s == (0b010, 2)
    assert spec.domain(s) == [1, 3]
    s2 = spec.transition(s, 3)
    assert s2 == (0b110, 3)
    assert spec.domain(s2) == [1]


def test_transition_rejects_duplicate_job():
    spec = LastJobSpec(3)
    with pytest.raises(Exception):
        spec.transition((0b010, 2), 2)


def test_transition_merges_orderings():
    spec = JobSetSpec(3)
    assert spec.transition(0, 2) == 0b010
    assert spec.transition(0b001, 3) == spec.transition(0b100, 1) == 0b101
    assert spec.transition(0b011, 3) == 0b111
    with pytest.raises(Exception):
        spec.transition(0b010, 2)


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("variant", [LASTJOB, JOBSET])
def test_closed_form_matches_the_reference_builder(variant, k):
    got = build_top_down(variant, k)
    want = reference_build(LastJobSpec(k) if variant == LASTJOB else JobSetSpec(k), k)
    assert got.layers == want.layers
    assert got.layer_arc_ranges == want.layer_arc_ranges
    for name in ("node_mask", "arc_tail", "arc_head", "arc_value", "arc_last",
                 "arc_cell"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    for name in ("layer_in", "layer_cells", "layer_masks"):
        g, w = getattr(got, name), getattr(want, name)
        assert len(g) == len(w), name
        for p, (ga, wa) in enumerate(zip(g, w)):
            assert ga.dtype == wa.dtype and np.array_equal(ga, wa), (name, p)
    assert got.sweep_cells == want.sweep_cells


def test_closed_form_peaks_below_the_reference_builder():
    tracemalloc.start()
    try:
        peaks = []
        for build in (lambda: build_top_down(LASTJOB, 11),
                      lambda: reference_build(LastJobSpec(11), 11)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            build()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] < peaks[1]


def test_builder_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        build_top_down(LASTJOB, 0)
    with pytest.raises(ConfigurationError):
        build_top_down("bottom-up", 3)

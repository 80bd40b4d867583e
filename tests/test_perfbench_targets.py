"""The benchmark's span tracer patches solver functions by name; a renamed
or moved layer function must fail here, not only under ``--trace 1``."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    targets = spans.patch_targets()
    assert len(targets) == len(spans.LAYERS) == 12
    for owner, attr, name in targets:
        assert callable(vars(owner).get(attr)), name

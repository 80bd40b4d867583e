import numpy as np
import pytest

from ccpmsp import netflow
from conftest import flow_duals, random_scenario
import netflow_reference


def columns(rng, n, count=6):
    """Random columns, then no job and every job."""
    for _ in range(count):
        yield (rng.random(n) < rng.random()).astype(np.int8)
    yield np.zeros(n, np.int8)
    yield np.ones(n, np.int8)


@pytest.mark.parametrize("n", range(8, 13))
def test_column_subset_pass_matches_layered_reference_bitwise(n):
    rng = np.random.default_rng(2300 + n)
    capd = netflow_reference.build_mdd_cap(n)
    for x in columns(rng, n):
        sc = random_scenario(rng, n)
        t = np.concatenate(([0.0], sc.exec))
        got = flow_duals(x, t, sc.setup)
        want = netflow_reference.extract_duals(capd, x, t, sc.setup)
        full = netflow_reference.full_arrays(capd, got, x, t, sc.setup)
        for name, arr in zip(("pi", "alpha", "beta"), full):
            assert arr.tobytes() == getattr(want, name).tobytes(), name
        assert repr(got.pi_root) == repr(want.pi_root)
        nonzero = np.flatnonzero((want.alpha != 0) | (want.beta != 0))
        assert netflow_reference.arc_ids(capd, got).tolist() == nonzero.tolist()
        (const, coef), = netflow.strengthen_layers([got])
        want_const, want_coef = netflow_reference.strengthen_layers(want, capd)
        assert repr(float(const)) == repr(float(want_const))
        assert coef.tobytes() == want_coef.tobytes()

"""Backend equivalence of the patch kernels, and the solver's residual trace."""

import numpy as np
import pytest

from lsdlab import DensityGrid, SolverConfig, solve_profile
from lsdlab import _kernels as K

needs_numba = pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba not installed")


def test_backend_selection_rules():
    assert K._pick_backend("numpy") == "numpy"
    assert K._pick_backend("auto") in ("numpy", "numba")
    if K.HAVE_NUMBA:
        assert K._pick_backend("numba") == "numba"
        assert K._pick_backend("auto") == "numba"
    with pytest.raises(ValueError):
        K._pick_backend("cython")


def test_active_backend_matches_environment_default():
    assert K.BACKEND in ("numpy", "numba")
    assert K.linear_patch is not None
    assert K.volterra_patch is not None


@needs_numba
def test_linear_patch_backends_agree():
    rng = np.random.default_rng(3)
    innov = rng.normal(size=(40, 40))
    taps = rng.normal(size=(5, 5))
    a = K.linear_patch_numpy(innov, taps)
    b = K.linear_patch_numba(innov, taps)
    assert np.allclose(a, b, atol=1e-14)


@needs_numba
def test_volterra_patch_backends_agree():
    rng = np.random.default_rng(4)
    innov = rng.normal(size=(24, 24))
    du1 = np.array([0, 1, 4], dtype=np.int64)
    du2 = np.array([2, 0, 1], dtype=np.int64)
    dv1 = np.array([1, 3, 0], dtype=np.int64)
    dv2 = np.array([0, 2, 4], dtype=np.int64)
    coeffs = np.array([1.0, -0.5, 0.25])
    a = K.volterra_patch_numpy(innov, du1, du2, dv1, dv2, coeffs, 20)
    b = K.volterra_patch_numba(innov, du1, du2, dv1, dv2, coeffs, 20)
    assert np.allclose(a, b, atol=1e-14)


def test_residual_history_is_monotone_under_contraction():
    n = 16
    cfg = SolverConfig(tolerance=1e-12, max_iterations=200)
    hist = solve_profile(DensityGrid(n, np.ones((n, n))), 3j, cfg).residual_history
    assert hist.size > 2
    assert (np.diff(hist) < 0).all()

"""Hot numerical kernels, numba-compiled with a pure-numpy fallback.

Backend selection is driven by the LSDLAB_KERNELS environment variable:
``numpy`` forces the fallback, ``numba`` requires numba to be importable,
anything else (or unset) picks numba when available. The two backends
implement identical update rules, so results agree to rounding.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - mirror installs numba, but stay usable without
    HAVE_NUMBA = False


def _pick_backend(name=None):
    if name is None:
        name = os.environ.get("LSDLAB_KERNELS", "auto")
    name = name.strip().lower()
    if name in ("", "auto"):
        return "numba" if HAVE_NUMBA else "numpy"
    if name == "numpy":
        return "numpy"
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("LSDLAB_KERNELS=numba but numba is not importable")
        return "numba"
    raise ValueError(f"unknown kernel backend {name!r}")


BACKEND = _pick_backend()


# ---------------------------------------------------------------------------
# Moving-average field synthesis: out[i, j] = sum_{p,q} taps[p, q] innov[i+p, j+q].
# ---------------------------------------------------------------------------


def linear_patch_numpy(innov, taps):
    k = taps.shape[0]
    n = innov.shape[0] - k + 1
    out = np.zeros((n, n))
    for p in range(k):
        for q in range(k):
            c = taps[p, q]
            if c != 0.0:
                out += c * innov[p : p + n, q : q + n]
    return out


def _linear_patch_loops(innov, taps):
    k = taps.shape[0]
    n = innov.shape[0] - k + 1
    out = np.zeros((n, n))
    for p in range(k):
        for q in range(k):
            c = taps[p, q]
            if c != 0.0:
                for i in range(n):
                    for j in range(n):
                        out[i, j] += c * innov[i + p, j + q]
    return out


# ---------------------------------------------------------------------------
# Second-order chaos synthesis:
#   out[i, j] = sum_e coeffs[e] innov[i+du1[e], j+du2[e]] innov[i+dv1[e], j+dv2[e]]
# where the shift arrays already absorb the padding offset.
# ---------------------------------------------------------------------------


def volterra_patch_numpy(innov, du1, du2, dv1, dv2, coeffs, n):
    out = np.zeros((n, n))
    for e in range(coeffs.shape[0]):
        a = innov[du1[e] : du1[e] + n, du2[e] : du2[e] + n]
        b = innov[dv1[e] : dv1[e] + n, dv2[e] : dv2[e] + n]
        out += coeffs[e] * a * b
    return out


def _volterra_patch_loops(innov, du1, du2, dv1, dv2, coeffs, n):
    out = np.zeros((n, n))
    for e in range(coeffs.shape[0]):
        c = coeffs[e]
        a1 = du1[e]
        a2 = du2[e]
        b1 = dv1[e]
        b2 = dv2[e]
        for i in range(n):
            for j in range(n):
                out[i, j] += c * innov[i + a1, j + a2] * innov[i + b1, j + b2]
    return out


if HAVE_NUMBA:
    linear_patch_numba = njit(cache=True, fastmath=True)(_linear_patch_loops)
    volterra_patch_numba = njit(cache=True, fastmath=True)(_volterra_patch_loops)

if BACKEND == "numba":
    linear_patch = linear_patch_numba
    volterra_patch = volterra_patch_numba
else:
    linear_patch = linear_patch_numpy
    volterra_patch = volterra_patch_numpy

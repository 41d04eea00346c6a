"""Stieltjes transforms, distribution tables, and distribution distances.

A transform sampled on a horizontal line Im z = eps inverts to the
eps-smoothed density Im S(x + i eps) / pi, which is the target density
convolved with a Cauchy kernel of scale eps. Comparisons in this package are
mollified-vs-mollified at a common eps, so the smoothing bias cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .spectral import _frozen

__all__ = [
    "StieltjesCurve",
    "DistributionTable",
    "empirical_stieltjes",
    "empirical_curve",
    "invert_to_distribution",
    "table_from_samples",
    "cdf_at",
    "kolmogorov_distance",
    "levy_distance",
    "sup_curve_gap",
]


def _upper_half_plane(z):
    """z (a scalar or a 1-D array) as complex, checked to be finite with Im z > 0."""
    z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise InvalidInput("points z must be finite")
    if np.any(np.imag(z) <= 0):
        raise InvalidInput("points z must have Im z > 0")
    return z


@dataclass(frozen=True)
class StieltjesCurve:
    """S(z) sampled at points of the upper half-plane.

    ``iterations`` and ``residuals`` carry solver diagnostics per point and
    default to zero, as for empirical or closed-form curves.
    """

    z: np.ndarray
    S: np.ndarray
    iterations: np.ndarray = None
    residuals: np.ndarray = None

    def __post_init__(self):
        z = _frozen(self.z, complex)
        s = _frozen(self.S, complex)
        zeros = np.zeros(z.shape)
        it = _frozen(zeros if self.iterations is None else self.iterations, np.int64)
        res = _frozen(zeros if self.residuals is None else self.residuals)
        if not (z.shape == s.shape == it.shape == res.shape) or z.ndim != 1 or z.size == 0:
            raise InvalidInput("curve arrays must be equal-length nonempty 1-D arrays")
        _upper_half_plane(z)
        if not np.isfinite(s).all():
            raise InvalidInput("curve values must be finite")
        if (s.imag <= 0).any():
            raise InvalidInput("curve values must have Im S > 0")
        if (np.abs(s) > (1.0 + 1e-9) / z.imag).any():
            raise InvalidInput("curve violates |S| <= 1/Im z")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "iterations", it)
        object.__setattr__(self, "residuals", res)

    def __len__(self):
        return self.z.size


def empirical_stieltjes(eigs, z):
    """Transform of an eigenvalue sample: (1/n) sum_k 1/(lambda_k - z)."""
    z = _upper_half_plane(z)
    e = np.asarray(eigs, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise InvalidInput("need at least one eigenvalue")
    return complex(np.mean(1.0 / (e - z)))


def empirical_curve(eigs, contour):
    """Empirical transform evaluated at every contour point."""
    zs = np.asarray(contour, dtype=complex)
    e = np.asarray(eigs, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise InvalidInput("need at least one eigenvalue")
    if zs.ndim != 1 or zs.size == 0:
        raise InvalidInput("contour must be a nonempty 1-D array")
    _upper_half_plane(zs)
    s = (1.0 / (e[:, None] - zs[None, :])).mean(axis=0)
    return StieltjesCurve(zs, s)


@dataclass(frozen=True)
class DistributionTable:
    """Density and CDF on a sorted grid, trapezoid-consistent by construction.

    ``uncaptured``, 1 - cdf[-1], is the probability mass outside the grid
    window (Cauchy tails of a mollified density, eigenvalues beyond the
    range, ...). It is reported, never silently folded back in.
    """

    xs: np.ndarray
    density: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        xs = _frozen(self.xs)
        den = _frozen(self.density)
        cdf = _frozen(self.cdf)
        if not (xs.shape == den.shape == cdf.shape) or xs.ndim != 1 or xs.size < 2:
            raise InvalidInput("table arrays must be equal-length 1-D arrays, length >= 2")
        if (np.diff(xs) <= 0).any():
            raise InvalidInput("grid must be strictly increasing")
        if (den < 0).any():
            raise InvalidInput("density must be nonnegative")
        if (np.diff(cdf) < -1e-12).any():
            raise InvalidInput("cdf must be nondecreasing")
        if cdf[-1] > 1.0 + 1e-6:
            raise InvalidInput("cdf exceeds 1")
        segs = 0.5 * (den[1:] + den[:-1]) * np.diff(xs)
        if np.abs(segs - np.diff(cdf)).max() > 1e-8:
            raise InvalidInput("cdf increments disagree with trapezoid integral of density")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "density", den)
        object.__setattr__(self, "cdf", cdf)

    @property
    def uncaptured(self):
        return max(0.0, 1.0 - float(self.cdf[-1]))


def _check_grid(xs):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or (np.diff(xs) <= 0).any():
        raise InvalidInput("xs must be a strictly increasing grid with >= 2 points")
    if not np.isfinite(xs).all():
        raise InvalidInput("xs must be finite")
    return xs


def _table(xs, density):
    """Table of a density on xs: trapezoid CDF, scaled down only if it exceeds one."""
    segs = 0.5 * (density[1:] + density[:-1]) * np.diff(xs)
    cdf = np.empty(xs.size)
    cdf[0] = 0.0
    np.cumsum(segs, out=cdf[1:])
    total = float(cdf[-1])
    if total > 1.0:
        density = density / total
        cdf = cdf / total
    return DistributionTable(xs, density, cdf)


def invert_to_distribution(curve, xs):
    """Recover the mollified density/CDF from a curve on a horizontal line.

    Requires the curve's real parts to cover [xs.min - 5 eps, xs.max + 5 eps]
    so interpolation never extrapolates and tail mass is controlled. The
    density is Im S(x + i eps)/pi; the CDF is its trapezoid integral, scaled
    down only if quadrature pushes it above one.
    """
    xs = _check_grid(xs)
    im = curve.z.imag
    eps = float(im[0])
    if np.ptp(im) > 1e-9 * eps:
        raise InvalidInput("curve must be sampled on a horizontal line Im z = eps")
    re = curve.z.real
    order = np.argsort(re)
    re = re[order]
    slack = 1e-9 * max(1.0, eps, float(np.abs(xs).max()))
    if re[0] > xs[0] - 5 * eps + slack or re[-1] < xs[-1] + 5 * eps - slack:
        raise InvalidInput(
            f"curve covers [{re[0]:.6g}, {re[-1]:.6g}] but needs "
            f"[{xs[0] - 5 * eps:.6g}, {xs[-1] + 5 * eps:.6g}]"
        )
    return _table(xs, np.interp(xs, re, curve.S.imag[order]) / np.pi)


def table_from_samples(samples, xs):
    """Histogram a sample onto grid nodes and integrate to a CDF.

    Nodes own the cells bounded by midpoints between neighbours (extended by
    half a step at the edges); this keeps the density/CDF pair trapezoid-
    consistent while approximating the empirical staircase at grid resolution.
    """
    xs = _check_grid(xs)
    e = np.asarray(samples, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise InvalidInput("need at least one sample")
    mids = 0.5 * (xs[1:] + xs[:-1])
    edges = np.concatenate(([xs[0] - 0.5 * (xs[1] - xs[0])], mids, [xs[-1] + 0.5 * (xs[-1] - xs[-2])]))
    counts, _ = np.histogram(e, bins=edges)
    return _table(xs, counts / (e.size * np.diff(edges)))


def cdf_at(table, x):
    """CDF evaluated with linear interpolation, flat beyond the grid."""
    return np.interp(x, table.xs, table.cdf)


def _require_overlap(f, g):
    if max(f.xs[0], g.xs[0]) >= min(f.xs[-1], g.xs[-1]):
        raise InvalidInput("tables do not cover a common interval")


def kolmogorov_distance(f, g):
    """sup_x |F(x) - G(x)| over the union grid with linear interpolation."""
    _require_overlap(f, g)
    grid = np.union1d(f.xs, g.xs)
    return float(np.abs(cdf_at(f, grid) - cdf_at(g, grid)).max())


def levy_distance(f, g):
    """inf{eps > 0 : F(x - eps) - eps <= G(x) <= F(x + eps) + eps for all x}.

    Solved by bisection over eps down to a fraction of the grid spacing; the
    Kolmogorov distance is a valid starting upper bound.
    """
    _require_overlap(f, g)
    grid = np.union1d(f.xs, g.xs)
    gv = cdf_at(g, grid)

    def admissible(eps):
        lo = cdf_at(f, grid - eps) - eps
        hi = cdf_at(f, grid + eps) + eps
        return bool(((lo <= gv + 1e-15) & (gv <= hi + 1e-15)).all())

    hi = kolmogorov_distance(f, g)
    if hi == 0.0 or admissible(0.0):
        return 0.0
    lo = 0.0
    tol = max(float(np.diff(grid).min()) / 8.0, 1e-15)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def sup_curve_gap(a, b):
    """max_k |S_a(z_k) - S_b(z_k)| for curves sampled at the same points (to 1e-9)."""
    if len(a) != len(b) or np.abs(a.z - b.z).max() > 1e-9 * (1.0 + np.abs(a.z).max()):
        raise InvalidInput("curves are not sampled at the same points")
    return float(np.abs(a.S - b.S).max())

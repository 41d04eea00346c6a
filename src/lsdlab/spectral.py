"""Covariances and scaled spectral densities of stationary random fields.

Densities live on a uniform midpoint grid over the unit square: node i of an
N-point axis sits at x_i = (i + 1/2)/N. Periodic trigonometric sums therefore
never sample duplicate endpoints, and midpoint quadrature integrates a
band-limited density exactly once N exceeds twice its bandwidth.

Field models supported: finite moving-average filters of i.i.d. innovations,
sparse second-order (bilinear) expansions, and rank-one product profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NotADensity

__all__ = [
    "FilterCoefficients",
    "VolterraCoefficients",
    "CovarianceTable",
    "DensityGrid",
    "ProfileFunction",
    "midpoints",
    "covariance_from_filter",
    "density_from_filter",
    "covariance_from_volterra",
    "density_from_covariance",
    "symmetrize_density",
    "truncate_filter",
    "truncation_l1_bound",
    "density_from_profile",
    "profile_from_density",
    "profile_from_steps",
]


def _frozen(a, dtype=float):
    """A read-only copy of ``a``: value types own their arrays and never
    freeze the caller's."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def midpoints(n):
    """Grid nodes (i + 1/2)/n on [0, 1]."""
    return (np.arange(n) + 0.5) / n


@dataclass(frozen=True)
class FilterCoefficients:
    """Moving-average coefficients on the square [-m, m]^2.

    ``coeffs[u + m, v + m]`` multiplies the innovation at lag (u, v).
    Innovations are centered with unit variance by convention, so the field
    variance equals ``sum_squares``.
    """

    m: int
    coeffs: np.ndarray
    sum_squares: float = field(init=False)

    def __post_init__(self):
        if self.m < 0:
            raise InvalidInput("support radius must be >= 0")
        c = _frozen(self.coeffs)
        side = 2 * self.m + 1
        if c.shape != (side, side):
            raise InvalidInput(f"coefficient table must be {side}x{side}, got {c.shape}")
        if not np.isfinite(c).all():
            raise InvalidInput("filter coefficients have non-finite values")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "sum_squares", float(np.sum(c * c)))

    @classmethod
    def from_entries(cls, entries):
        """Build from sparse form: {(u, v): a} or an iterable of (u, v, a)."""
        if hasattr(entries, "items"):
            items = [(u, v, a) for (u, v), a in entries.items()]
        else:
            items = [(int(u), int(v), float(a)) for u, v, a in entries]
        if not items:
            return cls(0, np.zeros((1, 1)))
        m = max(max(abs(u), abs(v)) for u, v, _ in items)
        c = np.zeros((2 * m + 1, 2 * m + 1))
        seen = set()
        for u, v, a in items:
            if (u, v) in seen:
                raise InvalidInput(f"duplicate filter entry at ({u}, {v})")
            seen.add((u, v))
            c[u + m, v + m] = a
        return cls(m, c)


@dataclass(frozen=True)
class VolterraCoefficients:
    """Sparse bilinear expansion coefficients b[(u1,u2),(v1,v2)].

    Innovations are gaussian with unit variance by convention. Diagonal pairs
    u == v are forbidden: the field is then centered without any
    fourth-moment contribution, and the covariance has a closed form.
    """

    entries: dict

    def __post_init__(self):
        cleaned = {}
        for (u, v), val in self.entries.items():
            u = (int(u[0]), int(u[1]))
            v = (int(v[0]), int(v[1]))
            val = float(val)
            if not np.isfinite(val):
                raise InvalidInput(f"bilinear coefficient b[{u},{v}] is non-finite")
            if val == 0.0:
                continue
            if u == v:
                raise InvalidInput(f"diagonal entry b[{u},{v}] must be zero")
            cleaned[(u, v)] = val
        object.__setattr__(self, "entries", cleaned)

    @property
    def support_radius(self):
        r = 0
        for (u, v) in self.entries:
            r = max(r, abs(u[0]), abs(u[1]), abs(v[0]), abs(v[1]))
        return r


@dataclass(frozen=True)
class CovarianceTable:
    """Covariances gamma[k, l] of a stationary field on [-R, R]^2.

    Stored dense with gamma[k, l] at index [k + R, l + R]; the variance is
    the central entry.
    """

    radius: int
    gamma: np.ndarray

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidInput("radius must be >= 0")
        g = _frozen(self.gamma)
        side = 2 * self.radius + 1
        if g.shape != (side, side):
            raise InvalidInput(f"covariance table must be {side}x{side}, got {g.shape}")
        if not np.isfinite(g).all():
            raise InvalidInput("covariance table has non-finite values")
        scale = 1.0 + abs(float(g[self.radius, self.radius]))
        if not np.allclose(g, g[::-1, ::-1], atol=1e-10 * scale, rtol=0.0):
            raise InvalidInput("covariance table violates gamma[k,l] == gamma[-k,-l]")
        if g[self.radius, self.radius] < 0:
            raise InvalidInput("variance gamma[0,0] must be nonnegative")
        if np.abs(g).max() > g[self.radius, self.radius] * (1.0 + 1e-12) + 1e-15:
            raise InvalidInput("covariance table violates |gamma[k,l]| <= gamma[0,0]")
        object.__setattr__(self, "gamma", g)

    @property
    def variance(self):
        return float(self.gamma[self.radius, self.radius])

    def is_exchange_symmetric(self):
        """True when gamma[k, l] == gamma[l, k] to 1e-10 (1 + gamma[0,0]), as the mirrored model needs."""
        g = self.gamma
        return bool(np.allclose(g, g.T, atol=1e-10 * (1.0 + abs(self.variance)), rtol=0.0))


@dataclass(frozen=True)
class DensityGrid:
    """Scaled spectral density sampled at grid midpoints, with its mass.

    values[i, j] is the density at ((i+1/2)/n, (j+1/2)/n); ``mass`` is the
    midpoint-quadrature integral, i.e. the grid mean.
    """

    n: int
    values: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if self.n < 1 or v.shape != (self.n, self.n):
            raise InvalidInput(f"density grid must be {self.n}x{self.n}, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidInput("density grid has non-finite values")
        scale = max(1.0, float(np.abs(v).max()) if v.size else 1.0)
        v = np.where((v < 0) & (v > -1e-12 * scale), 0.0, v)  # a fresh array: no copy needed
        if (v < 0).any():
            raise InvalidInput("density grid has negative values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mass", float(v.mean()))

    def is_symmetric(self):
        """True when values[i, j] == values[j, i] to an absolute 1e-10."""
        return bool(np.abs(self.values - self.values.T).max() <= 1e-10)


@dataclass(frozen=True)
class ProfileFunction:
    """Nonnegative 1-D profile t(x) at grid midpoints; rank-one densities are t(x)t(y)."""

    values: np.ndarray

    def __post_init__(self):
        t = _frozen(self.values)
        if t.ndim != 1 or t.size < 1:
            raise InvalidInput("profile must be a nonempty 1-D array")
        if not np.isfinite(t).all():
            raise InvalidInput("profile has non-finite values")
        if (t < 0).any():
            raise InvalidInput("profile values must be nonnegative")
        object.__setattr__(self, "values", t)

    @property
    def n(self):
        return self.values.size


def covariance_from_filter(a, radius):
    """Autocovariance of the moving average: gamma[k,l] = sum_{u,v} a[u,v] a[u+k,v+l].

    Unit-variance innovations are assumed; the result vanishes outside
    [-2m, 2m]^2.
    """
    if radius < 0:
        raise InvalidInput("radius must be >= 0")
    c = a.coeffs
    side = c.shape[0]
    reach = min(radius, 2 * a.m)
    g = np.zeros((2 * radius + 1, 2 * radius + 1))
    for k in range(-reach, reach + 1):
        p0, p1 = max(0, -k), side - max(0, k)
        for l in range(-reach, reach + 1):
            q0, q1 = max(0, -l), side - max(0, l)
            g[radius + k, radius + l] = np.sum(
                c[p0:p1, q0:q1] * c[p0 + k : p1 + k, q0 + l : q1 + l]
            )
    return CovarianceTable(radius, g)


def _fourier(c, radius, n):
    """sum_{k,l} c[k + radius, l + radius] exp(-2 pi i (x_i k + y_j l)) on the n x n midpoint grid."""
    if n < 2:
        raise InvalidInput("grid size must be >= 2")
    phases = np.exp(-2j * np.pi * np.outer(midpoints(n), np.arange(-radius, radius + 1)))
    return phases @ c @ phases.T


def density_from_filter(a, n):
    """Scaled spectral density of the moving-average field at grid midpoints.

    b[i,j] = |sum_{u,v} a[u,v] exp(-2 pi i (x_i u + y_j v))|^2; the grid mass
    equals the coefficient sum of squares exactly once n > 2m.
    """
    amp = _fourier(a.coeffs, a.m, n)
    return DensityGrid(n, amp.real**2 + amp.imag**2)


def covariance_from_volterra(bv, radius):
    """Covariance of the bilinear field.

    gamma_k = sum_{u,v} b[u,v] (b[u+k, v+k] + b[v+k, u+k]), an exact finite
    sum over the stored entries (unit-variance innovations).
    """
    if radius < 0:
        raise InvalidInput("radius must be >= 0")
    ent = bv.entries
    g = np.zeros((2 * radius + 1, 2 * radius + 1))
    for k1 in range(-radius, radius + 1):
        for k2 in range(-radius, radius + 1):
            acc = 0.0
            for (u, v), val in ent.items():
                us = (u[0] + k1, u[1] + k2)
                vs = (v[0] + k1, v[1] + k2)
                acc += val * (ent.get((us, vs), 0.0) + ent.get((vs, us), 0.0))
            g[radius + k1, radius + k2] = acc
    return CovarianceTable(radius, g)


def density_from_covariance(table, n):
    """Invert a finite covariance table into a density grid by Fourier series.

    b[i,j] = sum_{k,l} gamma[k,l] exp(-2 pi i (x_i k + y_j l)). Values within
    1e-8 gamma[0,0] below zero are clamped; anything lower means the table is
    not the restriction of a valid covariance and raises NotADensity.
    """
    vals = _fourier(table.gamma, table.radius, n).real
    floor = -1e-8 * max(table.variance, np.abs(table.gamma).max(), 1e-300)
    worst = float(vals.min())
    if worst < floor:
        raise NotADensity(
            f"covariance table yields density value {worst:.6g} below tolerance {floor:.6g}"
        )
    return DensityGrid(n, np.clip(vals, 0.0, None))


def symmetrize_density(g):
    """Exchange-symmetrized density out[i,j] = g[i,j] + g[j,i]; mass doubles."""
    return DensityGrid(g.n, g.values + g.values.T)


def truncate_filter(a, m):
    """Drop coefficients outside [-m, m]^2; identity when m covers the support."""
    if m < 0:
        raise InvalidInput("truncation radius must be >= 0")
    if m >= a.m:
        return a
    lo, hi = a.m - m, a.m + m + 1
    return FilterCoefficients(m, a.coeffs[lo:hi, lo:hi])


def truncation_l1_bound(a, m):
    """Cauchy-Schwarz bound on the L1 gap between the full and truncated densities.

    ||b_m - b||_{L1} <= sqrt(2 (S + S_m) (S - S_m)) where S is the full sum of
    squared coefficients and S_m the kept sum.
    """
    kept = truncate_filter(a, m).sum_squares
    dropped = max(a.sum_squares - kept, 0.0)
    return float(np.sqrt(2.0 * (a.sum_squares + kept) * dropped))


def density_from_profile(t):
    """Rank-one density grid b[i,j] = t[i] t[j]."""
    return DensityGrid(t.n, np.outer(t.values, t.values))


def profile_from_density(g):
    """Extract t with b = t (x) t (to a relative 1e-8) from a rank-one density."""
    t = np.sqrt(np.clip(np.diag(g.values), 0.0, None))
    scale = max(1.0, float(g.values.max()) if g.values.size else 1.0)
    if np.abs(g.values - np.outer(t, t)).max() > 1e-8 * scale:
        raise InvalidInput("density grid is not of product form t(x) t(y)")
    return ProfileFunction(t)


def profile_from_steps(levels, n):
    """Step profile with equal-width steps, sampled at the n grid midpoints."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size < 1:
        raise InvalidInput("levels must be a nonempty 1-D sequence")
    idx = np.minimum((midpoints(n) * levels.size).astype(int), levels.size - 1)
    return ProfileFunction(levels[idx])

"""Covariances and scaled spectral densities of stationary random fields.

Densities live on a uniform midpoint grid over the unit square: node i of an
N-point axis sits at x_i = (i + 1/2)/N. Periodic trigonometric sums therefore
never sample duplicate endpoints, and midpoint quadrature integrates a
band-limited density exactly once N exceeds twice its bandwidth.

Since x_{N-1-i} = 1 - x_i, a real model's density b(1 - x, 1 - y) = b(x, y)
makes the grid centrosymmetric: values[N-1-i, N-1-j] = values[i, j]. The
Fourier sums compute the first half of the grid and mirror it, so filter,
covariance and symmetrized densities keep this exactly, bit for bit, and
_row_classes lets the solver fold such a grid onto its mirror pairs.

Field models supported: finite moving-average filters of i.i.d. innovations,
sparse second-order (bilinear) expansions, and rank-one product profiles.
"""

from __future__ import annotations

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


class _Value:
    """Base of the frozen value types. ``_fields`` names the attributes in
    order; ``__init__`` sets them once with ``_set``, repr, ``==`` and
    ``hash`` go over their values (``==`` compares arrays element by element,
    with their dtype and shape), and assigning or deleting one raises
    ``dataclasses.FrozenInstanceError``."""

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # imported here: only a misuse needs it

        raise FrozenInstanceError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


def _same(a, b):
    """a == b as one bool: arrays, and lists of them, element by element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def midpoints(n):
    """Grid nodes (i + 1/2)/n on [0, 1]."""
    return (np.arange(n) + 0.5) / n


class FilterCoefficients(_Value):
    """Moving-average coefficients on the square [-m, m]^2.

    ``coeffs[u + m, v + m]`` multiplies the innovation at lag (u, v).
    Innovations are centered with unit variance by convention, so the field
    variance equals ``sum_squares``.
    """

    _fields = ("m", "coeffs", "sum_squares")

    def __init__(self, m, coeffs):
        if m < 0:
            raise InvalidInput("support radius must be >= 0")
        c = _frozen(coeffs)
        side = 2 * m + 1
        if c.shape != (side, side):
            raise InvalidInput(f"coefficient table must be {side}x{side}, got {c.shape}")
        if not np.isfinite(c).all():
            raise InvalidInput("filter coefficients have non-finite values")
        self._set(m, c, float(np.sum(c * c)))

    @classmethod
    def from_entries(cls, entries):
        """Build from sparse form {(u, v): a}."""
        if not entries:
            return cls(0, np.zeros((1, 1)))
        m = max(max(abs(u), abs(v)) for u, v in entries)
        c = np.zeros((2 * m + 1, 2 * m + 1))
        for (u, v), a in entries.items():
            c[u + m, v + m] = a
        return cls(m, c)


class VolterraCoefficients(_Value):
    """Sparse bilinear expansion coefficients b[(u1,u2),(v1,v2)].

    Innovations are gaussian with unit variance by convention. Diagonal pairs
    u == v are forbidden: the field is then centered without any
    fourth-moment contribution, and the covariance has a closed form.
    """

    _fields = ("entries",)

    def __init__(self, entries):
        cleaned = {}
        for (u, v), val in entries.items():
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
        self._set(cleaned)

    @property
    def support_radius(self):
        r = 0
        for (u, v) in self.entries:
            r = max(r, abs(u[0]), abs(u[1]), abs(v[0]), abs(v[1]))
        return r


class CovarianceTable(_Value):
    """Covariances gamma[k, l] of a stationary field on [-R, R]^2.

    Stored dense with gamma[k, l] at index [k + R, l + R]; the variance is
    the central entry.
    """

    _fields = ("radius", "gamma")

    def __init__(self, radius, gamma):
        if radius < 0:
            raise InvalidInput("radius must be >= 0")
        g = _frozen(gamma)
        side = 2 * radius + 1
        if g.shape != (side, side):
            raise InvalidInput(f"covariance table must be {side}x{side}, got {g.shape}")
        if not np.isfinite(g).all():
            raise InvalidInput("covariance table has non-finite values")
        scale = 1.0 + abs(float(g[radius, radius]))
        if not np.allclose(g, g[::-1, ::-1], atol=1e-10 * scale, rtol=0.0):
            raise InvalidInput("covariance table violates gamma[k,l] == gamma[-k,-l]")
        if g[radius, radius] < 0:
            raise InvalidInput("variance gamma[0,0] must be nonnegative")
        if np.abs(g).max() > g[radius, radius] * (1.0 + 1e-12) + 1e-15:
            raise InvalidInput("covariance table violates |gamma[k,l]| <= gamma[0,0]")
        self._set(radius, g)

    @property
    def variance(self):
        return float(self.gamma[self.radius, self.radius])

    def is_exchange_symmetric(self):
        """True when gamma[k, l] == gamma[l, k] to 1e-10 (1 + gamma[0,0]), as the mirrored model needs."""
        g = self.gamma
        return bool(np.allclose(g, g.T, atol=1e-10 * (1.0 + abs(self.variance)), rtol=0.0))


class DensityGrid(_Value):
    """Scaled spectral density sampled at grid midpoints, with its mass.

    values[i, j] is the density at ((i+1/2)/n, (j+1/2)/n); ``mass`` is the
    midpoint-quadrature integral, i.e. the grid mean.
    """

    _fields = ("n", "values", "mass")

    def __init__(self, n, values):
        v = np.asarray(values, dtype=float)
        if n < 1 or v.shape != (n, n):
            raise InvalidInput(f"density grid must be {n}x{n}, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidInput("density grid has non-finite values")
        scale = max(1.0, float(np.abs(v).max()))
        v = np.where((v < 0) & (v > -1e-12 * scale), 0.0, v)  # a fresh array: no copy needed
        if (v < 0).any():
            raise InvalidInput("density grid has negative values")
        v.setflags(write=False)
        with np.errstate(over="ignore"):  # an overflowing mass is refused below
            mass = float(v.mean())
        if not mass < np.inf:  # the solver's ladder would start at an infinite height
            raise InvalidInput("density grid mass overflows")
        self._set(n, v, mass)

    def is_symmetric(self):
        """True when values[i, j] == values[j, i] to an absolute 1e-10."""
        return bool(np.abs(self.values - self.values.T).max() <= 1e-10)


class ProfileFunction(_Value):
    """Nonnegative 1-D profile t(x) at grid midpoints; rank-one densities are t(x)t(y).

    ``mean`` and ``max`` are those of t, and ``mean_square`` is the mean of
    t^2, which bounds the mass of t(x)t(y). ``runs`` holds a pair (t_k, m_k)
    per run of equal consecutive values, in order: the run's value and its
    length, as Python float and int.
    """

    _fields = ("values", "mean", "max", "mean_square", "runs")

    def __init__(self, values):
        t = _frozen(values)
        if t.ndim != 1 or t.size < 1:
            raise InvalidInput("profile must be a nonempty 1-D array")
        if not np.isfinite(t).all():
            raise InvalidInput("profile has non-finite values")
        if (t < 0).any():
            raise InvalidInput("profile values must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowing mean square is refused below
            mean_square = float(np.mean(t * t))
        if not mean_square < np.inf:  # the solver's ladder would start at an infinite height
            raise InvalidInput("profile mean square overflows")
        values, cuts = t.tolist(), [0, *(np.flatnonzero(t[1:] != t[:-1]) + 1).tolist(), t.size]
        runs = tuple((values[a], b - a) for a, b in zip(cuts, cuts[1:]))
        self._set(t, float(t.mean()), float(t.max()), mean_square, runs)

    @property
    def n(self):
        return self.values.size


def _row_classes(values):
    """The rows of an N x N grid in classes whose g and pi agree at every iterate, and the grid lumped by them.

    A row equal to the row above shares its g and pi, so every run of equal
    consecutive rows is one class. When values equals its reversal
    values[::-1, ::-1] bit for bit, as the model densities do
    (b(1 - x, 1 - y) = b(x, y) on the midpoint grid), the mirror of run k of
    K is run K - 1 - k, and the solution, unique in the upper half-plane, has
    g[N-1-i] = g[i]: the two runs form class k, and a run that is its own
    mirror (the middle row of an odd N with no equal neighbours, say) stays
    alone. Returns (labels, sizes, lumped): each row's class, numbered by
    first row, each class's size, and the C x C matrix of each class's first
    row with the columns of each class summed. Lumping is exact because a
    mirror-closed class has the same column sums in row i as in row N-1-i.
    Runs are lumped by np.add.reduceat, and a fold adds each mirror run's
    column sum to its partner's.
    """
    starts = np.flatnonzero(np.r_[True, (values[1:] != values[:-1]).any(axis=1)])
    sizes = np.diff(starts, append=len(values))
    runs = len(starts)
    labels = np.repeat(np.arange(runs), sizes)
    lumped = np.add.reduceat(values[starts], starts, axis=1)
    # the last row against the first one reversed first: a grid that does not fold mostly differs there
    if runs > 1 and np.array_equal(values[-1], values[0, ::-1]) and np.array_equal(values, values[::-1, ::-1]):
        classes = (runs + 1) // 2
        paired = np.arange(classes) < runs // 2  # false for a middle run, its own mirror
        labels = np.minimum(labels, runs - 1 - labels)
        # class k's entry: run k's plus, unless run k is its own mirror, run K-1-k's
        sizes, lumped = (a[..., :classes] + a[..., : -classes - 1 : -1] * paired for a in (sizes, lumped[:classes]))
    return labels, sizes, lumped


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
    """sum_{k,l} c[k + radius, l + radius] exp(-2 pi i (x_i k + y_j l)) on the n x n midpoint grid.

    For real c, entry (n-1-i, n-1-j) is the conjugate of entry (i, j), since
    x_{n-1-i} = 1 - x_i. Only the first ceil(n/2) rows are summed; the rest
    of the grid, the second half of an odd n's middle row included, is
    filled from them, conjugated in reverse order, so the grid has that
    symmetry exactly, not only up to rounding.

    The phases are C - i S, C = cos(2 pi x k) and S = sin(2 pi x k), so the
    sum is real C c C^T - S c S^T and imaginary -(S c C^T + C c S^T), each
    product taken from the left in real arithmetic.
    """
    if n < 2:
        raise InvalidInput("grid size must be >= 2")
    angles = 2.0 * np.pi * np.outer(midpoints(n), np.arange(-radius, radius + 1))
    cos, sin = np.cos(angles), np.sin(angles)
    rows = (n + 1) // 2
    cc, sc = cos[:rows] @ c, sin[:rows] @ c
    amp = np.empty((n, n), dtype=complex)
    amp.real[:rows] = cc @ cos.T - sc @ sin.T
    amp.imag[:rows] = -(sc @ cos.T + cc @ sin.T)
    flat, half = amp.reshape(-1), n * n // 2
    flat[n * n - half :] = flat[:half][::-1].conj()
    return amp


def density_from_filter(a, n):
    """Scaled spectral density of the moving-average field at grid midpoints.

    b[i,j] = |sum_{u,v} a[u,v] exp(-2 pi i (x_i u + y_j v))|^2; the grid mass
    equals the coefficient sum of squares exactly once n > 2m.
    """
    amp = _fourier(a.coeffs, a.m, n)
    return DensityGrid(n, amp.real**2 + amp.imag**2)


def covariance_from_volterra(bv, radius=None):
    """Covariance of the bilinear field on [-radius, radius]^2.

    gamma_k = sum_{u,v} b[u,v] (b[u+k, v+k] + b[v+k, u+k]), exact over the
    stored entries (unit-variance innovations). Past lag 2 support_radius,
    the default radius, the sum has no terms.
    """
    radius = 2 * bv.support_radius if radius is None else radius
    if radius < 0:
        raise InvalidInput("radius must be >= 0")
    # b[u+k, v+k] is an entry only for an entry (w, w + v - u), at k = w - u, and
    # b[v+k, u+k] only for one (w, w + u - v), at k = w - v
    by_gap = {}
    for (u, v), val in bv.entries.items():
        by_gap.setdefault((v[0] - u[0], v[1] - u[1]), []).append((u, val))
    g = np.zeros((2 * radius + 1, 2 * radius + 1))
    for (u, v), val in bv.entries.items():  # each lag's nonzero terms, in entry order
        pairs = {}
        for side, (base, end) in enumerate(((u, v), (v, u))):
            for w, other in by_gap.get((end[0] - base[0], end[1] - base[1]), ()):
                pairs.setdefault((w[0] - base[0], w[1] - base[1]), [0.0, 0.0])[side] = other
        for (k1, k2), (a, b) in pairs.items():
            if max(abs(k1), abs(k2)) <= radius:
                g[radius + k1, radius + k2] += val * (a + b)
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
    scale = max(1.0, float(g.values.max()))
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

"""Stationary-field synthesis, symmetric matrix assembly, and ensemble spectra.

Fields are synthesized exactly on an n x n index square from a seeded i.i.d.
innovation array padded by the model support, so the patch law is exactly the
truncated model's. Reproducibility is a hard contract: a given (seed, config)
pair always yields the same patch, matrix and spectrum.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InvalidInput, NoConvergenceEig
from .spectral import FilterCoefficients, VolterraCoefficients, _Value, covariance_from_filter, covariance_from_volterra
from .stieltjes import _sample, empirical_curve, table_from_samples

__all__ = [
    "EnsembleConfig",
    "EmpiricalSpectrum",
    "EnsembleResult",
    "SEED_STRIDE",
    "replicate_seed",
    "generate_linear_patch",
    "generate_volterra_patch",
    "assemble_matrix",
    "spectrum",
    "ensemble_esd",
    "default_contour",
]

SYMMETRIZATIONS = ("wigner", "additive")
INNOVATIONS = ("gaussian", "rademacher", "uniform")

# Odd 64-bit stride for replicate seed splitting; the rule
# seed_r = seed XOR (r * SEED_STRIDE mod 2^64) is stable across versions.
SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Rows per scratch block in patch synthesis and wigner assembly. Each block
# covers the same entries with the same operations, so results do not depend
# on it; it only bounds the scratch memory to _ROW_BLOCK x n.
_ROW_BLOCK = 64


def replicate_seed(seed, index):
    """Seed of replicate ``index``: seed XOR (index * SEED_STRIDE) mod 2^64."""
    return (int(seed) ^ ((int(index) * SEED_STRIDE) & _MASK64)) & _MASK64


class EnsembleConfig(_Value):
    """One simulated ensemble: matrix order, replication, seed and field model."""

    _fields = ("n", "replicates", "seed", "model", "symmetrization", "innovation")

    def __init__(self, n, replicates, seed, model, symmetrization="wigner", innovation="gaussian"):
        if n < 2:
            raise InvalidInput("matrix order must be >= 2")
        if replicates < 1:
            raise InvalidInput("need at least one replicate")
        if symmetrization not in SYMMETRIZATIONS:
            raise InvalidInput(f"symmetrization must be one of {SYMMETRIZATIONS}")
        if innovation not in INNOVATIONS:
            raise InvalidInput(f"innovation must be one of {INNOVATIONS}")
        if isinstance(model, VolterraCoefficients) and innovation != "gaussian":
            raise InvalidInput("bilinear models require gaussian innovations")
        if not isinstance(model, (FilterCoefficients, VolterraCoefficients)):
            raise InvalidInput("model must be FilterCoefficients or VolterraCoefficients")
        self._set(n, replicates, seed, model, symmetrization, innovation)


class EmpiricalSpectrum(_Value):
    """Sorted eigenvalues of one simulated matrix."""

    _fields = ("eigenvalues",)

    def __init__(self, eigenvalues):
        e = np.sort(_sample(eigenvalues))
        e.setflags(write=False)
        self._set(e)

    @property
    def n(self):
        return self.eigenvalues.size


def _innovations(rng, shape, kind):
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if kind == "uniform":
        half = np.sqrt(3.0)
        return rng.uniform(-half, half, size=shape)
    raise InvalidInput(f"unknown innovation kind {kind!r}")


def _patch(terms, n, pad, seed, innovation):
    """Sum of term products over an n x n square of seeded innovations padded by ``pad``.

    A term ``(c, (i0, j0), *more)`` adds c * xi[i0 + i, j0 + j], times
    xi[i_k + i, j_k + j] for each further offset, to out[i, j].
    """
    if n < 1:
        raise InvalidInput("patch size must be >= 1")
    rng = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
    innov = _innovations(rng, (n + 2 * pad, n + 2 * pad), innovation)
    out = np.zeros((n, n))
    scratch = np.empty((min(n, _ROW_BLOCK), n))
    for r in range(0, n, _ROW_BLOCK):
        o = out[r : r + _ROW_BLOCK]
        t = scratch[: len(o)]
        for c, (i0, j0), *more in terms:
            np.multiply(c, innov[r + i0 : r + i0 + len(o), j0 : j0 + n], out=t)
            for i, j in more:
                t *= innov[r + i : r + i + len(o), j : j + n]
            o += t
    return out


def generate_linear_patch(a, n, seed, innovation="gaussian"):
    """Exact moving-average field on an n x n square: x[i,j] = sum a[u,v] xi[i+u, j+v]."""
    terms = [(c, (p, q)) for (p, q), c in np.ndenumerate(a.coeffs) if c != 0.0]
    return _patch(terms, n, a.m, seed, innovation)


def generate_volterra_patch(bv, n, seed):
    """Bilinear field x[k] = sum_e b_e xi[k - u_e] xi[k - v_e] with gaussian innovations."""
    r = bv.support_radius
    terms = [(c, (r - u1, r - u2), (r - v1, r - v2)) for ((u1, u2), (v1, v2)), c in bv.entries.items()]
    return _patch(terms, n, r, seed, "gaussian")


def assemble_matrix(patch, symmetrization):
    """Symmetrize a field patch and scale by 1/sqrt(n).

    ``wigner`` mirrors the lower triangle (entry (l, j) with j <= l comes from
    the patch); ``additive`` adds the transpose entrywise, so the diagonal
    doubles.
    """
    p = np.asarray(patch, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidInput("patch must be square")
    n = p.shape[0]
    if symmetrization == "wigner":
        # (p + 0.0) / sqrt(n) on the lower triangle, mirrored by exact copies:
        # the same bits, signed zeros included, as
        # (tril(p) + tril(p, -1).T) / sqrt(n).
        m = p + 0.0
        m /= np.sqrt(n)
        strict_upper = ~np.tri(min(n, _ROW_BLOCK), dtype=bool)
        for r in range(0, n, _ROW_BLOCK):
            e = min(r + _ROW_BLOCK, n)
            d = m[r:e, r:e]
            np.copyto(d, d.T, where=strict_upper[: e - r, : e - r])
            m[r:e, e:] = m[e:, r:e].T
    elif symmetrization == "additive":
        m = p + p.T
        m /= np.sqrt(n)
    else:
        raise InvalidInput(f"symmetrization must be one of {SYMMETRIZATIONS}")
    return m


def spectrum(matrix):
    """All eigenvalues of a finite, nonempty symmetric matrix, ascending."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidInput("matrix must be square and nonempty")
    scale = max(m.max(), -m.min())  # max |m| with no n x n temporary; NaN propagates
    if not np.isfinite(scale):
        raise InvalidInput("matrix must be finite")
    # m - m.T is exactly antisymmetric in IEEE arithmetic, so its max is its max |.|
    if (m - m.T).max() > 1e-12 * scale:
        raise InvalidInput("matrix must be symmetric")
    try:
        eigs = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceEig(f"eigensolver failed: {exc}") from exc
    return EmpiricalSpectrum(eigs)


def field_variance(model):
    """gamma[0,0] of the model's stationary field."""
    if isinstance(model, FilterCoefficients):
        return model.sum_squares
    return covariance_from_volterra(model, 0).variance


def covariance_exchange_symmetric(model):
    """Whether gamma[k,l] == gamma[l,k], the mirrored-model hypothesis."""
    if isinstance(model, FilterCoefficients):
        table = covariance_from_filter(model, 2 * model.m)
    else:
        table = covariance_from_volterra(model)
    return table.is_exchange_symmetric()


def default_contour(mass):
    """Horizontal comparison contour: Im z = 0.05, 121 points across the
    support estimate [-5 sqrt(mass), 5 sqrt(mass)] (2.5 sqrt(mass) times a
    safety factor of 2)."""
    half = max(5.0 * np.sqrt(max(mass, 0.0)), 1.0)
    return np.linspace(-half, half, 121) + 0.05j


class EnsembleResult(_Value):
    """Pooled ensemble outputs plus per-replicate diagnostics."""

    _fields = ("table", "curve", "eigenvalues", "replicate_eigenvalues", "records", "outside_hypotheses")

    def __init__(self, table, curve, eigenvalues, replicate_eigenvalues, records, outside_hypotheses=False):
        self._set(table, curve, eigenvalues, replicate_eigenvalues, records, outside_hypotheses)


def _one_replicate(cfg, index):
    seed = replicate_seed(cfg.seed, index)
    start = time.perf_counter()
    if isinstance(cfg.model, FilterCoefficients):
        patch = generate_linear_patch(cfg.model, cfg.n, seed, cfg.innovation)
    else:
        patch = generate_volterra_patch(cfg.model, cfg.n, seed)
    patched = time.perf_counter()
    matrix = assemble_matrix(patch, cfg.symmetrization)
    del patch  # freed before the eigensolve, which makes its own copy of the matrix
    assembled = time.perf_counter()
    try:
        spec = spectrum(matrix)
    except NoConvergenceEig as exc:
        raise NoConvergenceEig(f"replicate {index}: {exc}") from exc
    end = time.perf_counter()
    record = {
        "replicate": index,
        "seed": int(seed),
        "n": cfg.n,
        "wall_time_s": end - start,
        "patch_s": patched - start,
        "assemble_s": assembled - patched,
        "eigensolve_s": end - assembled,
        "lambda_min": float(spec.eigenvalues[0]),
        "lambda_max": float(spec.eigenvalues[-1]),
    }
    return spec.eigenvalues, record


def ensemble_esd(cfg, contour=None, threads=1):
    """Simulate the ensemble and pool its spectra.

    Returns the pooled eigenvalue distribution as a table on 801 points
    across the pooled range, padded on each side by 5 % of its width (at
    least 0.05); the pooled empirical transform on the contour (pooling
    equals averaging the per-replicate transforms); the eigenvalues
    themselves and one log record per replicate. Replicates are independent
    (split seeds) and may run on a thread pool; outputs are gathered in
    replicate order, so results do not depend on ``threads``.
    """
    if contour is None:
        mass = field_variance(cfg.model) * (2.0 if cfg.symmetrization == "additive" else 1.0)
        contour = default_contour(mass)
    if threads > 1 and cfg.replicates > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, cfg.replicates)) as pool:
            results = list(pool.map(lambda r: _one_replicate(cfg, r), range(cfg.replicates)))
    else:
        results = [_one_replicate(cfg, r) for r in range(cfg.replicates)]
    replicate_eigs = [eigs for eigs, _ in results]
    records = [rec for _, rec in results]
    pooled = np.sort(np.concatenate(replicate_eigs))
    pad = 0.05 * max(pooled[-1] - pooled[0], 1.0)
    table = table_from_samples(pooled, np.linspace(pooled[0] - pad, pooled[-1] + pad, 801))
    curve = empirical_curve(pooled, contour)
    outside = cfg.symmetrization == "wigner" and not covariance_exchange_symmetric(cfg.model)
    return EnsembleResult(
        table=table,
        curve=curve,
        eigenvalues=pooled,
        replicate_eigenvalues=replicate_eigs,
        records=records,
        outside_hypotheses=outside,
    )

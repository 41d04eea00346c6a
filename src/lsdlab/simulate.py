"""Stationary-field synthesis, symmetric matrix assembly, and ensemble spectra.

Fields are synthesized exactly on an n x n index square from a seeded i.i.d.
innovation array padded by the model support, so the patch law is exactly the
truncated model's. Reproducibility is a hard contract: a given (seed, config)
pair always yields the same patch, matrix and spectrum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoConvergenceEig
from .spectral import FilterCoefficients, VolterraCoefficients, covariance_from_filter, covariance_from_volterra
from .stieltjes import DistributionTable, StieltjesCurve, empirical_curve, table_from_samples

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


def replicate_seed(seed, index):
    """Seed of replicate ``index``: seed XOR (index * SEED_STRIDE) mod 2^64."""
    return (int(seed) ^ ((int(index) * SEED_STRIDE) & _MASK64)) & _MASK64


@dataclass(frozen=True)
class EnsembleConfig:
    """One simulated ensemble: matrix order, replication, seed and field model."""

    n: int
    replicates: int
    seed: int
    model: object
    symmetrization: str = "wigner"
    innovation: str = "gaussian"

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInput("matrix order must be >= 2")
        if self.replicates < 1:
            raise InvalidInput("need at least one replicate")
        if self.symmetrization not in SYMMETRIZATIONS:
            raise InvalidInput(f"symmetrization must be one of {SYMMETRIZATIONS}")
        if self.innovation not in INNOVATIONS:
            raise InvalidInput(f"innovation must be one of {INNOVATIONS}")
        if isinstance(self.model, VolterraCoefficients) and self.innovation != "gaussian":
            raise InvalidInput("bilinear models require gaussian innovations")
        if not isinstance(self.model, (FilterCoefficients, VolterraCoefficients)):
            raise InvalidInput("model must be FilterCoefficients or VolterraCoefficients")

    @property
    def model_kind(self):
        return "filter" if isinstance(self.model, FilterCoefficients) else "volterra"


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted eigenvalues of one simulated matrix."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        e = np.sort(np.asarray(self.eigenvalues, dtype=float))
        if e.ndim != 1 or e.size == 0:
            raise InvalidInput("spectrum must be a nonempty 1-D array")
        e.setflags(write=False)
        object.__setattr__(self, "eigenvalues", e)

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


def generate_linear_patch(a, n, seed, innovation="gaussian"):
    """Exact moving-average field on an n x n square: x[i,j] = sum a[u,v] xi[i+u, j+v]."""
    if n < 1:
        raise InvalidInput("patch size must be >= 1")
    rng = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
    size = n + 2 * a.m
    innov = _innovations(rng, (size, size), innovation)
    out = np.zeros((n, n))
    for (p, q), c in np.ndenumerate(a.coeffs):
        if c != 0.0:
            out += c * innov[p : p + n, q : q + n]
    return out


def generate_volterra_patch(bv, n, seed):
    """Bilinear field x[k] = sum_e b_e xi[k - u_e] xi[k - v_e] with gaussian innovations."""
    if n < 1:
        raise InvalidInput("patch size must be >= 1")
    rng = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
    pad = bv.support_radius
    size = n + 2 * pad
    innov = rng.standard_normal((size, size))
    out = np.zeros((n, n))
    for ((u1, u2), (v1, v2)), c in bv.entries.items():
        x = innov[pad - u1 : pad - u1 + n, pad - u2 : pad - u2 + n]
        y = innov[pad - v1 : pad - v1 + n, pad - v2 : pad - v2 + n]
        out += c * x * y
    return out


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
        m = np.tril(p) + np.tril(p, -1).T
    elif symmetrization == "additive":
        m = p + p.T
    else:
        raise InvalidInput(f"symmetrization must be one of {SYMMETRIZATIONS}")
    return m / np.sqrt(n)


def spectrum(matrix):
    """All eigenvalues of a symmetric matrix, ascending."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput("matrix must be square")
    scale = float(np.abs(m).max()) if m.size else 0.0
    if np.abs(m - m.T).max() > 1e-12 * max(scale, 1.0):
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
        table = covariance_from_volterra(model, 2 * model.support_radius)
    return table.is_exchange_symmetric()


def default_contour(mass):
    """Horizontal comparison contour: Im z = 0.05, 121 points across the
    support estimate [-5 sqrt(mass), 5 sqrt(mass)] (2.5 sqrt(mass) times a
    safety factor of 2)."""
    half = max(5.0 * np.sqrt(max(mass, 0.0)), 1.0)
    return np.linspace(-half, half, 121) + 0.05j


@dataclass(frozen=True)
class EnsembleResult:
    """Pooled ensemble outputs plus per-replicate diagnostics."""

    table: DistributionTable
    curve: StieltjesCurve
    eigenvalues: np.ndarray
    replicate_eigenvalues: list
    records: list
    outside_hypotheses: bool = False


def _one_replicate(cfg, index):
    seed = replicate_seed(cfg.seed, index)
    start = time.perf_counter()
    if cfg.model_kind == "filter":
        patch = generate_linear_patch(cfg.model, cfg.n, seed, cfg.innovation)
    else:
        patch = generate_volterra_patch(cfg.model, cfg.n, seed)
    matrix = assemble_matrix(patch, cfg.symmetrization)
    try:
        spec = spectrum(matrix)
    except NoConvergenceEig as exc:
        raise NoConvergenceEig(f"replicate {index}: {exc}", replicate=index) from exc
    elapsed = time.perf_counter() - start
    record = {
        "replicate": index,
        "seed": int(seed),
        "n": cfg.n,
        "wall_time_s": elapsed,
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

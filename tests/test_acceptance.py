"""End-to-end verification gate.

One test per criterion; each prints a PASS/FAIL line (visible with -s).
Monte Carlo criteria use fixed seeds and desk-scale sizes (n = 1000, five
replicates); solver criteria check closed forms and a-priori bounds at their
stated tolerances.
"""

import time

import numpy as np
import pytest

import lsdlab as L
from lsdlab.cli import main as cli_main


def report(ok, name, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def random_density_suite(count=50, n=48, seed=20240607):
    """Random finite filters (m <= 4) with mass normalized into [0.5, 2]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(0, 5))
        c = rng.uniform(-1.0, 1.0, size=(2 * m + 1, 2 * m + 1))
        c *= np.sqrt(rng.uniform(0.5, 2.0) / np.sum(c * c))
        out.append(L.density_from_filter(L.FilterCoefficients(m, c), n))
    return out, rng


@pytest.fixture(scope="module")
def density_suite():
    return random_density_suite()


def mollified_tables(curve_a, curve_b, contour):
    eps = float(contour[0].imag)
    xs = np.linspace(contour.real.min() + 5 * eps, contour.real.max() - 5 * eps, 801)
    return (
        L.invert_to_distribution(curve_a, xs),
        L.invert_to_distribution(curve_b, xs),
    )


def test_criterion_01_semicircle_oracle():
    heights = np.geomspace(0.05, 10.0, 20)
    grids = {s2: L.DensityGrid(256, np.full((256, 256), s2)) for s2 in (0.25, 1.0, 4.0)}
    L.solve_profile(grids[1.0], 1j)  # warm-up solve, kept out of the timing
    worst = 0.0
    start = time.perf_counter()
    for sigma2, grid in grids.items():
        curve = L.solve_curve(grid, 1j * heights)
        exact = np.array([L.semicircle_transform(sigma2, z) for z in curve.z])
        worst = max(worst, float(np.abs(curve.S - exact).max()))
        # spot-check two cold direct solves as well
        for z in (1j * heights[0], 1j * heights[-1]):
            prof = L.solve_profile(grid, z)
            worst = max(worst, abs(prof.S - L.semicircle_transform(sigma2, z)))
    elapsed = time.perf_counter() - start
    report(
        worst <= 1e-8 and elapsed < 10.0,
        "criterion 1 (semicircle oracle)",
        f"max |S - closed form| = {worst:.2e} (tol 1e-8), runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_herglotz_invariants(density_suite):
    densities, rng = density_suite
    violations = 0
    checked = 0
    for b in densities:
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 5.0))
            prof = L.solve_profile(b, z)
            checked += 1
            ok = (
                (prof.g.imag > 0).all()
                and (np.abs(prof.g) <= (1 + 1e-12) / z.imag).all()
                and (np.abs(z + prof.pi) >= z.imag * (1 - 1e-12)).all()
                and prof.S.imag > 0
            )
            violations += 0 if ok else 1
    report(
        violations == 0,
        "criterion 2 (Herglotz invariant suite)",
        f"{violations} violations over {checked} solves (50 densities x 10 points)",
    )


def test_criterion_03_normalization_limit(density_suite):
    densities, _ = density_suite
    violations = 0
    checked = 0
    for b in densities:
        base = 1.0 + np.sqrt(b.mass)
        for factor in (10.0, 30.0, 100.0):
            u = factor * base
            prof = L.solve_profile(b, 1j * u)
            checked += 1
            if abs(1j * u * prof.S + 1.0) > 2.0 * b.mass / u**2:
                violations += 1
    report(
        violations == 0,
        "criterion 3 (normalization limit)",
        f"{violations} violations of |iuS(iu)+1| <= 2B/u^2 over {checked} heights",
    )


def test_criterion_04_contraction_certified(density_suite):
    densities, rng = density_suite
    worst = -np.inf
    for b in densities:
        z = complex(rng.uniform(-1, 1), 2.0 * np.sqrt(b.mass))  # certificate = 0.25
        cert = L.contraction_certificate(b, z)
        assert cert <= 0.25 + 1e-12
        prof = L.solve_profile(b, z)
        worst = max(worst, L.measured_decay_ratio(prof) - cert)
    report(
        worst <= 0.05,
        "criterion 4 (contraction certified)",
        f"max (measured decay - certificate) = {worst:.3f} (allowed 0.05)",
    )


def test_criterion_05_product_form_equivalence():
    rng = np.random.default_rng(5150)
    zs = [complex(rng.uniform(-2, 2), im) for im in np.geomspace(0.3, 5.0, 10)]
    worst = 0.0
    for _ in range(10):
        steps = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 9)))
        t = L.profile_from_steps(steps, 128)
        b = L.density_from_profile(t)
        for z in zs:
            gap = abs(L.solve_product_form(t, z).S - L.solve_profile(b, z).S)
            worst = max(worst, gap)
    report(
        worst <= 1e-7,
        "criterion 5 (product-form equivalence)",
        f"max |S_scalar - S_full| = {worst:.2e} (tol 1e-7)",
    )


def test_criterion_06_truncation_continuity():
    coeffs = {
        (u, v): 0.55 ** max(abs(u), abs(v)) * (1.0 if (u + v) % 2 == 0 else 0.7)
        for u in range(-6, 7)
        for v in range(-6, 7)
    }
    a = L.FilterCoefficients.from_entries(coeffs)
    full = L.density_from_filter(a, 64)
    z = complex(0.0, 4.0 * (1.0 + np.sqrt(full.mass)))
    s_full = L.solve_profile(full, z).S
    gaps, bounds = [], []
    for m in (1, 2, 3, 4, 5):
        small = L.density_from_filter(L.truncate_filter(a, m), 64)
        gaps.append(abs(L.solve_profile(small, z).S - s_full))
        bounds.append(L.continuity_bound(small, full, z))
    within = all(g <= b for g, b in zip(gaps, bounds))
    monotone = all(g1 >= g2 - 1e-15 for g1, g2 in zip(gaps, gaps[1:]))
    report(
        within and monotone,
        "criterion 6 (truncation continuity)",
        f"gaps {['%.1e' % g for g in gaps]} within bounds {['%.1e' % b for b in bounds]}, nonincreasing={monotone}",
    )


@pytest.fixture(scope="module")
def symmetric_filter():
    return L.FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})


@pytest.fixture(scope="module")
def wigner_gaussian_ensemble(symmetric_filter):
    cfg = L.EnsembleConfig(
        n=1000, replicates=5, seed=20240501, model=symmetric_filter, symmetrization="wigner"
    )
    b = L.density_from_filter(symmetric_filter, 128)
    contour = L.default_contour(b.mass)
    return b, contour, L.ensemble_esd(cfg, contour=contour)


def test_criterion_07_monte_carlo_mirrored(wigner_gaussian_ensemble):
    b, contour, result = wigner_gaussian_ensemble
    start = time.perf_counter()
    curve = L.solve_curve(b, contour)
    pred, emp = mollified_tables(curve, result.curve, contour)
    dist = L.kolmogorov_distance(pred, emp)
    elapsed = time.perf_counter() - start
    report(
        dist <= 0.06 and not result.outside_hypotheses and elapsed < 300.0,
        "criterion 7 (end-to-end Monte Carlo, mirrored model)",
        f"Kolmogorov = {dist:.4f} (tol 0.06), solver+compare {elapsed:.0f}s",
    )


def test_criterion_08_monte_carlo_additive():
    a = L.FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0})
    b = L.symmetrize_density(L.density_from_filter(a, 128))
    contour = L.default_contour(b.mass)
    cfg = L.EnsembleConfig(n=1000, replicates=5, seed=777, model=a, symmetrization="additive")
    result = L.ensemble_esd(cfg, contour=contour)
    curve = L.solve_curve(b, contour)
    pred, emp = mollified_tables(curve, result.curve, contour)
    dist = L.kolmogorov_distance(pred, emp)
    report(
        dist <= 0.06,
        "criterion 8 (end-to-end Monte Carlo, additive model)",
        f"Kolmogorov = {dist:.4f} (tol 0.06)",
    )


def test_criterion_09_universality(symmetric_filter, wigner_gaussian_ensemble):
    _, contour, gaussian = wigner_gaussian_ensemble
    cfg = L.EnsembleConfig(
        n=1000,
        replicates=5,
        seed=20240501,
        model=symmetric_filter,
        symmetrization="wigner",
        innovation="rademacher",
    )
    rademacher = L.ensemble_esd(cfg, contour=contour)
    xs = np.linspace(-9.0, 9.0, 901)
    dist = L.kolmogorov_distance(
        L.table_from_samples(gaussian.eigenvalues, xs),
        L.table_from_samples(rademacher.eigenvalues, xs),
    )
    report(
        dist <= 0.05,
        "criterion 9 (universality: rademacher vs gaussian)",
        f"ESD Kolmogorov = {dist:.4f} (tol 0.05)",
    )


def test_criterion_10_volterra_pipeline():
    bv = L.VolterraCoefficients({((0, 0), (1, 0)): 1.0})
    table = L.covariance_from_volterra(bv, 4)
    b = L.symmetrize_density(L.density_from_covariance(table, 128))
    contour = L.default_contour(b.mass)
    cfg = L.EnsembleConfig(n=1000, replicates=5, seed=999, model=bv, symmetrization="additive")
    result = L.ensemble_esd(cfg, contour=contour)
    curve = L.solve_curve(b, contour)
    pred, emp = mollified_tables(curve, result.curve, contour)
    dist = L.kolmogorov_distance(pred, emp)
    report(
        dist <= 0.08,
        "criterion 10 (bilinear pipeline)",
        f"Kolmogorov = {dist:.4f} (tol 0.08)",
    )


def test_criterion_11_determinism(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("0 0 1.0\n1 0 0.5\n")
    cfg = tmp_path / "ensemble.txt"
    cfg.write_text("n = 64\nreplicates = 2\nseed = 13\nmodel = model.txt\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["simulate", str(cfg), "--out-dir", str(out1)]) == 0
    assert cli_main(["simulate", str(cfg), "--out-dir", str(out2)]) == 0
    names = ("eigenvalues.csv", "esd.csv", "curve.csv", "manifest.json")
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    report(
        identical,
        "criterion 11 (determinism)",
        f"byte-identical outputs across reruns: {sorted(names)}",
    )

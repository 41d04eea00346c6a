import tracemalloc

import numpy as np
import pytest

from lsdlab import (
    DistributionTable,
    InvalidInput,
    StieltjesCurve,
    empirical_curve,
    empirical_stieltjes,
    invert_to_distribution,
    kolmogorov_distance,
    levy_distance,
    semicircle_transform,
    sup_curve_gap,
    table_from_samples,
)
from lsdlab.stieltjes import _table, cdf_at


def semicircle_curve(eps, lo=-3.0, hi=3.0, points=1201, sigma2=1.0):
    xs = np.linspace(lo, hi, points)
    vals = np.array([semicircle_transform(sigma2, complex(x, eps)) for x in xs])
    return StieltjesCurve(xs + 1j * eps, vals)


def gaussian_mixture_table(rng, xs):
    density = np.zeros_like(xs)
    for _ in range(int(rng.integers(1, 4))):
        mu = rng.uniform(-1.5, 1.5)
        sig = rng.uniform(0.2, 0.8)
        density += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((xs - mu) / sig) ** 2)
    density /= np.trapezoid(density, xs)
    return _table(xs, density)


class TestEmpiricalStieltjes:
    def test_single_eigenvalue_at_zero(self):
        assert empirical_stieltjes([0.0], 1j) == pytest.approx(1j)

    def test_pair_by_hand(self):
        # (1/2)(1/(-1-i) + 1/(1-i)) = i/2
        assert empirical_stieltjes([-1.0, 1.0], 1j) == pytest.approx(0.5j)

    def test_herglotz_bound(self):
        rng = np.random.default_rng(3)
        eigs = rng.normal(size=100)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2))
            s = empirical_stieltjes(eigs, z)
            assert s.imag > 0
            assert abs(s) <= 1.0 / z.imag + 1e-12

    def test_curve_matches_pointwise_transform(self):
        eigs = np.array([-1.0, 0.25, 2.0])
        contour = np.array([0.5j, 1 + 1j, -2 + 0.3j])
        curve = empirical_curve(eigs, contour)
        for k, z in enumerate(contour):
            assert curve.S[k] == pytest.approx(empirical_stieltjes(eigs, z))

    def test_curve_has_the_bits_of_the_one_line_formula(self):
        rng = np.random.default_rng(17)
        eigs = np.sort(rng.normal(size=5000))
        contour = np.linspace(-4.0, 4.0, 121) + 0.05j
        expected = (1.0 / (eigs[:, None] - contour[None, :])).mean(axis=0)
        assert empirical_curve(eigs, contour).S.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("points", [1, 2, 121])
    def test_blocked_curve_equals_the_one_shot_formula(self, size, points):
        eigs = np.random.default_rng(size).normal(size=size)
        contour = np.linspace(-3.0, 3.0, points) + 0.05j
        expected = np.divide(1.0, eigs[:, None] - contour[None, :]).mean(axis=0)
        assert np.array_equal(empirical_curve(eigs, contour).S, expected)

    def test_curve_peak_memory_is_a_few_blocks(self):
        eigs = np.random.default_rng(5).normal(size=50_000)
        contour = np.linspace(-4.0, 4.0, 121) + 0.05j
        tracemalloc.start()
        try:
            empirical_curve(eigs, contour)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole 50,000 x 121 complex array would take 97 MB
        assert peak < 4e6

    def test_requires_upper_half_plane(self):
        with pytest.raises(InvalidInput):
            empirical_stieltjes([0.0], 1.0 - 0.5j)


class TestInvertToDistribution:
    def test_semicircle_density_at_center(self):
        curve = semicircle_curve(0.01)
        table = invert_to_distribution(curve, np.linspace(-2.5, 2.5, 1001))
        at_zero = table.density[np.argmin(np.abs(table.xs))]
        assert abs(at_zero - 1.0 / np.pi) < 0.01

    def test_zero_field_gives_cauchy_kernel(self):
        eps = 0.01
        xs = np.linspace(-1.0, 1.0, 801)
        # curve nodes aligned with xs so interpolation is exact at the nodes
        zs = np.linspace(-1.05, 1.05, 841) + 1j * eps
        curve = StieltjesCurve(zs, -1.0 / zs)
        table = invert_to_distribution(curve, xs)
        kernel = eps / (np.pi * (xs**2 + eps**2))
        assert np.abs(table.density - kernel).max() < 1e-12
        # cdf approximates a unit step at 0
        assert cdf_at(table, -0.5) < 0.02
        assert cdf_at(table, 0.5) > 0.98

    def test_tail_mass_bound(self):
        eps = 0.01
        margin = 1.0
        curve = semicircle_curve(eps, lo=-2 - margin - 1, hi=2 + margin + 1)
        table = invert_to_distribution(curve, np.linspace(-2 - margin, 2 + margin, 2001))
        assert table.cdf[-1] >= 1.0 - 2.0 * eps / (np.pi * margin) - 1e-3

    def test_requires_horizontal_line(self):
        zs = np.array([0.0 + 0.1j, 1.0 + 0.2j])
        curve = StieltjesCurve(zs, -1.0 / zs)
        with pytest.raises(InvalidInput):
            invert_to_distribution(curve, np.linspace(0.0, 0.5, 11))

    def test_requires_coverage(self):
        curve = semicircle_curve(0.05, lo=-2.0, hi=2.0)
        with pytest.raises(InvalidInput):
            invert_to_distribution(curve, np.linspace(-2.0, 2.0, 11))


class TestDistances:
    def test_distance_to_self_is_zero(self):
        xs = np.linspace(-2, 2, 401)
        table = _table(xs, np.exp(-(xs**2)))
        assert kolmogorov_distance(table, table) == 0.0
        assert levy_distance(table, table) == 0.0

    def test_point_masses_at_zero_and_one(self):
        xs = np.linspace(-0.5, 1.5, 2001)
        spike0 = table_from_samples(np.zeros(100), xs)
        spike1 = table_from_samples(np.ones(100), xs)
        assert kolmogorov_distance(spike0, spike1) == pytest.approx(1.0, abs=1e-9)

    def test_small_perturbation_small_kolmogorov(self):
        curve = semicircle_curve(0.05)
        xs = np.linspace(-2.4, 2.4, 801)
        table = invert_to_distribution(curve, xs)
        perturbed = _table(xs, table.density * (1.0 + 1e-3))
        assert kolmogorov_distance(table, perturbed) <= 2e-3

    def test_levy_of_shifted_uniform(self):
        xs = np.linspace(-0.5, 1.7, 4401)
        box = ((xs >= 0.0) & (xs <= 1.0)).astype(float)
        f = _table(xs, box)
        delta = 0.1
        box_shift = ((xs >= delta) & (xs <= 1.0 + delta)).astype(float)
        g = _table(xs, box_shift)
        lev = levy_distance(f, g)
        assert delta / 2 - 0.01 <= lev <= delta + 0.01

    def test_levy_matches_brute_force_scan(self):
        rng = np.random.default_rng(7)
        xs = np.linspace(-3, 3, 601)
        f = gaussian_mixture_table(rng, xs)
        g = gaussian_mixture_table(rng, xs)
        lev = levy_distance(f, g)
        grid = np.union1d(f.xs, g.xs)
        gv = cdf_at(g, grid)

        def admissible(eps):
            lo = cdf_at(f, grid - eps) - eps
            hi = cdf_at(f, grid + eps) + eps
            return bool(((lo <= gv + 1e-15) & (gv <= hi + 1e-15)).all())

        scan = next(e for e in np.linspace(0, 1, 2001) if admissible(e))
        assert abs(lev - scan) <= 1e-3 + float(np.diff(grid).min())

    def test_levy_dominated_by_kolmogorov(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(-3, 3, 401)
        for _ in range(10):
            f = gaussian_mixture_table(rng, xs)
            g = gaussian_mixture_table(rng, xs)
            assert levy_distance(f, g) <= kolmogorov_distance(f, g) + 1e-12

    def test_metric_axioms_at_grid_resolution(self):
        rng = np.random.default_rng(13)
        xs = np.linspace(-3, 3, 301)
        tol = 2 * float(np.diff(xs).min())
        for _ in range(5):
            f, g, h = (gaussian_mixture_table(rng, xs) for _ in range(3))
            for dist in (kolmogorov_distance, levy_distance):
                assert abs(dist(f, g) - dist(g, f)) <= tol
                assert dist(f, h) <= dist(f, g) + dist(g, h) + tol

    def test_incompatible_coverage_rejected(self):
        xs1 = np.linspace(0, 1, 101)
        xs2 = np.linspace(5, 6, 101)
        f = _table(xs1, np.ones_like(xs1))
        g = _table(xs2, np.ones_like(xs2))
        with pytest.raises(InvalidInput):
            kolmogorov_distance(f, g)


class TestRoundTrip:
    def test_sampled_spectrum_reinverts_to_the_same_table(self):
        # draw from the (nearly raw) semicircle law, mollify at eps = 0.05,
        # and compare against the closed form mollified identically
        rng = np.random.default_rng(20240501)
        eps = 0.05
        fine = invert_to_distribution(
            semicircle_curve(0.002, lo=-3.5, hi=3.5, points=14001),
            np.linspace(-2.8, 2.8, 5601),
        )
        u = rng.uniform(size=4000)
        samples = np.interp(u * fine.cdf[-1], fine.cdf, fine.xs)
        xs = np.linspace(-2.4, 2.4, 801)
        zs = np.linspace(-2.8, 2.8, 1121) + 1j * eps
        emp = invert_to_distribution(empirical_curve(samples, zs), xs)
        ref = invert_to_distribution(semicircle_curve(eps, lo=-2.8, hi=2.8), xs)
        assert kolmogorov_distance(emp, ref) <= 0.03


@pytest.mark.parametrize(
    "call",
    [
        lambda: StieltjesCurve([1j, complex(np.nan, 1.0)], [0.5j, 0.5j]),
        lambda: StieltjesCurve([1j, 2j], [0.5j, complex(0.0, np.inf)]),
        lambda: invert_to_distribution(semicircle_curve(0.05), [0.0, np.nan]),
        lambda: table_from_samples([0.0, 1.0], [0.0, 1.0, np.inf]),
        lambda: empirical_stieltjes([0.0, np.inf], 1j),
        lambda: empirical_curve([np.nan, 0.0], [1j]),
        lambda: table_from_samples([np.nan, 0.0, 0.1], np.linspace(-1.0, 1.0, 11)),
        lambda: StieltjesCurve([1j], [0.5j], residuals=[np.nan]),
        lambda: DistributionTable([0.0, 1.0], [np.nan, np.nan], [np.nan, np.nan]),
        lambda: DistributionTable([0.0, np.inf], [0.0, 0.0], [0.0, 0.0]),
        lambda: DistributionTable([np.inf, np.inf], [0.0, 0.0], [0.0, 0.0]),
    ],
    ids=[
        "nan-z",
        "inf-S",
        "nan-xs-invert",
        "inf-xs-table",
        "inf-sample",
        "nan-sample-curve",
        "nan-sample-table",
        "nan-residual",
        "nan-table-values",
        "inf-table-xs",
        "inf-table-xs-pair",
    ],
)
def test_non_finite_curves_and_grids_rejected(call):
    with pytest.raises(InvalidInput, match="finite"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StieltjesCurve([1j, 2j], [0.5j]), "equal-length"),
        (lambda: StieltjesCurve([1j], [-0.5j]), "Im S > 0"),
        (lambda: StieltjesCurve([1j], [2j]), r"\|S\| <= 1/Im z"),
        (lambda: empirical_stieltjes([], 1j), "nonempty 1-D sample"),
        (lambda: empirical_curve([0.0], [[1j]]), "contour must be a nonempty 1-D array"),
        (lambda: DistributionTable([0.0, 1.0], [1.0], [0.0, 1.0]), "equal-length"),
        (lambda: DistributionTable([1.0, 0.0], [1.0, 1.0], [0.0, 1.0]), "strictly increasing"),
        (lambda: DistributionTable([0.0, 1.0], [-1.0, 1.0], [0.0, 0.0]), "density must be nonnegative"),
        (lambda: DistributionTable([0.0, 1.0], [4.0, 0.0], [0.0, 2.0]), "cdf exceeds 1"),
    ],
    ids=[
        "curve-lengths",
        "curve-lower-S",
        "curve-large-S",
        "empty-sample",
        "contour-shape",
        "table-lengths",
        "table-decreasing-xs",
        "table-negative-density",
        "table-cdf-above-one",
    ],
)
def test_value_types_reject_malformed_arrays(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


class TestSupCurveGap:
    def test_zero_for_identical_curves(self):
        curve = semicircle_curve(0.1, points=51)
        assert sup_curve_gap(curve, curve) == 0.0

    def test_requires_matching_points(self):
        a = semicircle_curve(0.1, points=51)
        b = semicircle_curve(0.2, points=51)
        with pytest.raises(InvalidInput):
            sup_curve_gap(a, b)


class TestTableValidation:
    def test_rejects_inconsistent_cdf(self):
        xs = np.linspace(0, 1, 11)
        density = np.ones_like(xs)
        bad_cdf = np.linspace(0, 0.5, 11)  # half the trapezoid integral
        with pytest.raises(InvalidInput):
            DistributionTable(xs, density, bad_cdf)

    def test_rejects_decreasing_cdf(self):
        xs = np.linspace(0, 1, 5)
        density = np.zeros(5)
        cdf = np.array([0.0, 0.4, 0.3, 0.5, 0.6])
        with pytest.raises(InvalidInput):
            DistributionTable(xs, density, cdf)

    def test_histogram_table_consistent(self):
        rng = np.random.default_rng(17)
        table = table_from_samples(rng.normal(size=2000), np.linspace(-4, 4, 401))
        segs = 0.5 * (table.density[1:] + table.density[:-1]) * np.diff(table.xs)
        assert np.abs(segs - np.diff(table.cdf)).max() < 1e-12
        assert table.cdf[-1] <= 1.0

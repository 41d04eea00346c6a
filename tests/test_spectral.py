import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from lsdlab import spectral
from lsdlab import (
    CovarianceTable,
    DensityGrid,
    DistributionTable,
    EmpiricalSpectrum,
    EnsembleConfig,
    FilterCoefficients,
    InvalidInput,
    NotADensity,
    ProfileFunction,
    ResolventProfile,
    ScalarSolution,
    SolverConfig,
    StieltjesCurve,
    VolterraCoefficients,
    covariance_from_filter,
    covariance_from_volterra,
    density_from_covariance,
    density_from_filter,
    density_from_profile,
    empirical_curve,
    ensemble_esd,
    profile_from_density,
    profile_from_steps,
    symmetrize_density,
    truncate_filter,
    truncation_l1_bound,
)

DELTA = FilterCoefficients.from_entries({(0, 0): 1.0})
TWO_TAP = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0})
# a filter whose density is not exchange-symmetric
SKEW = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 0.7, (0, 2): -0.4, (1, 1): 0.3})
# pairs of entries one gap apart, so the covariance has lags besides 0 and the density is not flat
BILINEAR = VolterraCoefficients(
    {((0, 0), (1, 0)): 1.0, ((1, 0), (2, 0)): 0.5, ((0, 1), (1, 1)): -0.7,
     ((0, 0), (0, 1)): 0.4, ((1, 1), (1, 2)): 0.3, ((2, 1), (1, 1)): 0.6}
)


def random_filter(rng, max_m=4, lo=0.5, hi=2.0):
    """Random finite filter with sum of squares normalized into [lo, hi]."""
    m = int(rng.integers(0, max_m + 1))
    c = rng.uniform(-1.0, 1.0, size=(2 * m + 1, 2 * m + 1))
    c *= np.sqrt(rng.uniform(lo, hi) / np.sum(c * c))
    return FilterCoefficients(m, c)


class TestCovarianceFromFilter:
    def test_delta_filter_is_white_noise(self):
        table = covariance_from_filter(DELTA, 1)
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        assert np.array_equal(table.gamma, expected)

    def test_two_tap_by_hand(self):
        # direct convolution: gamma[0,0] = 2, gamma[+-1,0] = 1, rest 0
        table = covariance_from_filter(TWO_TAP, 1)
        R = table.radius
        assert table.gamma[0 + R, 0 + R] == pytest.approx(2.0)
        assert table.gamma[1 + R, 0 + R] == pytest.approx(1.0)
        assert table.gamma[-1 + R, 0 + R] == pytest.approx(1.0)
        assert table.gamma[0 + R, 1 + R] == 0.0
        assert table.gamma[1 + R, 1 + R] == 0.0

    def test_point_symmetry_for_random_filters(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_filter(rng)
            g = covariance_from_filter(a, 2 * a.m).gamma
            assert np.allclose(g, g[::-1, ::-1], atol=1e-12)

    def test_vanishes_beyond_twice_support(self):
        table = covariance_from_filter(TWO_TAP, 5)
        R = table.radius
        for k in range(-5, 6):
            for l in range(-5, 6):
                if abs(k) > 2 or abs(l) > 2:
                    assert table.gamma[k + R, l + R] == 0.0


class TestFilterFromEntries:
    def test_empty_entries_give_the_zero_filter(self):
        a = FilterCoefficients.from_entries({})
        assert a.m == 0 and np.array_equal(a.coeffs, [[0.0]]) and a.sum_squares == 0.0
        assert density_from_filter(a, 4).mass == 0.0

    def test_entries_fill_the_square_of_their_largest_lag(self):
        a = FilterCoefficients.from_entries({(0, 0): 1.0, (-2, 1): 0.5})
        assert a.m == 2 and a.coeffs[0, 3] == 0.5 and a.coeffs[2, 2] == 1.0
        assert a.sum_squares == 1.25


class TestDensityFromFilter:
    def test_white_noise_is_flat(self):
        sigma = 1.7
        a = FilterCoefficients.from_entries({(0, 0): sigma})
        grid = density_from_filter(a, 16)
        assert np.allclose(grid.values, sigma**2, atol=1e-12)

    def test_two_tap_values_at_four_midpoints(self):
        # |1 + exp(-2 pi i x)|^2 = 2 + 2 cos(2 pi x) at x = 1/8, 3/8, 5/8, 7/8
        grid = density_from_filter(TWO_TAP, 4)
        r2 = np.sqrt(2.0)
        column = np.array([2.0 + r2, 2.0 - r2, 2.0 - r2, 2.0 + r2])
        for j in range(4):
            assert np.allclose(grid.values[:, j], column, atol=1e-12)

    def test_mass_matches_sum_of_squares(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_filter(rng)
            grid = density_from_filter(a, 2 * (2 * a.m) + 2)
            assert grid.mass == pytest.approx(a.sum_squares, abs=1e-10)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            grid = density_from_filter(random_filter(rng), 32)
            assert grid.values.min() >= 0.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidInput):
            density_from_filter(DELTA, 1)


class TestCovarianceFromVolterra:
    def test_single_entry_variance(self):
        bv = VolterraCoefficients({((0, 0), (1, 0)): 1.0})
        table = covariance_from_volterra(bv, 2)
        assert table.variance == pytest.approx(1.0)

    def test_empty_model_is_zero(self):
        bv = VolterraCoefficients({})
        table = covariance_from_volterra(bv, 3)
        assert np.array_equal(table.gamma, np.zeros((7, 7)))

    def test_zero_coefficients_are_dropped(self):
        bv = VolterraCoefficients({((0, 0), (1, 0)): 1.0, ((2, 0), (0, 1)): 0.0})
        assert bv.entries == {((0, 0), (1, 0)): 1.0}
        assert bv.support_radius == 1
        assert bv == VolterraCoefficients({((0, 0), (1, 0)): 1.0})

    def test_point_symmetry(self):
        bv = VolterraCoefficients(
            {((0, 0), (1, 0)): 1.0, ((1, 1), (0, 2)): -0.5, ((2, 0), (0, 1)): 0.25}
        )
        g = covariance_from_volterra(bv, 4).gamma
        assert np.allclose(g, g[::-1, ::-1], atol=1e-12)

    def test_rejects_diagonal_entry(self):
        with pytest.raises(InvalidInput):
            VolterraCoefficients({((1, 0), (1, 0)): 1.0})

    def test_default_radius_is_the_whole_reach(self):
        # support radius 1: the two entries meet at lag (2, 0), and no lag beyond 2 has terms
        bv = VolterraCoefficients({((-1, -1), (-1, 1)): 1.0, ((1, -1), (1, 1)): 0.5})
        table = covariance_from_volterra(bv)
        wider = covariance_from_volterra(bv, 4).gamma
        assert table.radius == 2 and table.gamma[0, 2] == 0.5
        assert np.array_equal(wider[2:-2, 2:-2], table.gamma)
        assert np.count_nonzero(wider) == np.count_nonzero(table.gamma)


    def test_equals_the_sum_over_every_lag_and_entry(self):
        # the definition term by term; entries on six gaps v - u, which come in
        # opposite pairs, give lags terms from both b[u+k, v+k] and b[v+k, u+k]
        rng = np.random.default_rng(23)
        for _ in range(20):
            entries = {}
            for _ in range(12):
                u = tuple(int(x) for x in rng.integers(-3, 4, 2))
                v = (u[0] + int(rng.integers(-1, 2)), u[1] + int(rng.choice([-1, 1])))
                entries[(u, v)] = float(rng.standard_normal())
            bv = VolterraCoefficients(entries)
            for radius in (None, 2):
                table = covariance_from_volterra(bv, radius)
                r = table.radius
                expected = np.zeros((2 * r + 1, 2 * r + 1))
                for k1 in range(-r, r + 1):
                    for k2 in range(-r, r + 1):
                        acc = 0.0
                        for (u, v), val in bv.entries.items():
                            us, vs = (u[0] + k1, u[1] + k2), (v[0] + k1, v[1] + k2)
                            acc += val * (bv.entries.get((us, vs), 0.0) + bv.entries.get((vs, us), 0.0))
                        expected[r + k1, r + k2] = acc
                assert np.array_equal(table.gamma, expected)


class TestDensityFromCovariance:
    def test_white_noise(self):
        g = np.zeros((3, 3))
        g[1, 1] = 2.5
        grid = density_from_covariance(CovarianceTable(1, g), 8)
        assert np.allclose(grid.values, 2.5, atol=1e-12)

    def test_two_route_agreement_with_filter_density(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            a = random_filter(rng, max_m=3)
            n = 2 * (2 * a.m) + 4
            via_cov = density_from_covariance(covariance_from_filter(a, 2 * a.m), n)
            direct = density_from_filter(a, n)
            assert np.abs(via_cov.values - direct.values).max() < 1e-10

    def test_invalid_table_raises(self):
        # gamma:  1 at the origin and at (+-1, 0) makes 1 + 2cos(2 pi x) < 0
        g = np.zeros((3, 3))
        g[1, 1] = 1.0
        g[2, 1] = 1.0
        g[0, 1] = 1.0
        with pytest.raises(NotADensity):
            density_from_covariance(CovarianceTable(1, g), 8)


class TestSymmetrize:
    def test_symmetric_input_doubles(self):
        grid = density_from_filter(DELTA, 8)
        out = symmetrize_density(grid)
        assert np.allclose(out.values, 2.0 * grid.values)

    def test_transpose_add_single_cell(self):
        g = np.zeros((2, 2))
        g[0, 1] = 3.0
        out = symmetrize_density(DensityGrid(2, g))
        assert out.values[0, 1] == 3.0
        assert out.values[1, 0] == 3.0
        assert out.values[0, 0] == 0.0 and out.values[1, 1] == 0.0

    def test_mass_doubles(self):
        rng = np.random.default_rng(19)
        grid = density_from_filter(random_filter(rng), 16)
        assert symmetrize_density(grid).mass == pytest.approx(2.0 * grid.mass, rel=1e-12)

    def test_output_is_exchange_symmetric(self):
        rng = np.random.default_rng(23)
        grid = density_from_filter(random_filter(rng), 16)
        v = symmetrize_density(grid).values
        assert np.array_equal(v, v.T)


class TestTruncation:
    def test_identity_when_m_covers_support(self):
        assert truncate_filter(TWO_TAP, 1) is TWO_TAP
        assert truncate_filter(TWO_TAP, 5) is TWO_TAP

    def test_m_zero_keeps_center_only(self):
        out = truncate_filter(TWO_TAP, 0)
        assert out.m == 0
        assert out.coeffs[0, 0] == 1.0
        assert out.sum_squares == pytest.approx(1.0)

    def test_l1_gap_respects_bound_on_grid(self):
        rng = np.random.default_rng(29)
        a = random_filter(rng, max_m=4, lo=1.0, hi=2.0)
        full = density_from_filter(a, 64)
        for m in range(a.m + 1):
            small = density_from_filter(truncate_filter(a, m), 64)
            l1 = np.abs(small.values - full.values).mean()
            assert l1 <= truncation_l1_bound(a, m) + 1e-12

    def test_l1_gap_decreases_to_zero(self):
        rng = np.random.default_rng(31)
        a = random_filter(rng, max_m=4, lo=1.0, hi=2.0)
        full = density_from_filter(a, 64)
        gaps = []
        for m in range(a.m + 1):
            small = density_from_filter(truncate_filter(a, m), 64)
            gaps.append(np.abs(small.values - full.values).mean())
        assert all(g1 >= g2 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] == 0.0


class TestProfiles:
    def test_step_profile_sampling(self):
        t = profile_from_steps([1.0, 3.0], 8)
        assert np.array_equal(t.values, [1, 1, 1, 1, 3, 3, 3, 3])

    def test_rank_one_density_round_trip(self):
        t = profile_from_steps([0.5, 2.0, 1.0], 12)
        grid = density_from_profile(t)
        back = profile_from_density(grid)
        assert np.allclose(back.values, t.values, atol=1e-12)

    def test_non_rank_one_rejected(self):
        grid = density_from_filter(TWO_TAP, 8)
        with pytest.raises(InvalidInput):
            profile_from_density(grid)

    def test_profile_runs_are_values_and_lengths_in_order(self):
        t = ProfileFunction([1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0])
        assert t.runs == ((1.0, 2), (2.0, 3), (1.0, 1), (0.0, 1))
        assert all(type(tk) is float and type(mk) is int for tk, mk in t.runs)
        assert ProfileFunction([3.0]).runs == ((3.0, 1),)

    def test_rank_one_mass_is_mean_squared(self):
        t = profile_from_steps([0.5, 2.0], 16)
        assert density_from_profile(t).mass == pytest.approx(float(t.values.mean()) ** 2)


class TestMirrorSymmetry:
    """A real model gives b(1 - x, 1 - y) = b(x, y), and the density functions keep it bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 8, 31, 32, 129])
    def test_filter_density_equals_its_reversal(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            v = density_from_filter(random_filter(rng), n).values
            assert np.array_equal(v, v[::-1, ::-1])

    @pytest.mark.parametrize("n", [2, 7, 16, 33])
    def test_covariance_densities_equal_their_reversal(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            a = random_filter(rng, max_m=2)
            v = density_from_covariance(covariance_from_filter(a, 2 * a.m), n).values
            assert np.array_equal(v, v[::-1, ::-1])
        v = density_from_covariance(covariance_from_volterra(BILINEAR), n).values
        assert np.array_equal(v, v[::-1, ::-1]) and len(np.unique(v)) > 1

    def test_symmetrized_density_equals_its_reversal(self):
        for n in (9, 32):
            b = density_from_filter(SKEW, n)
            assert not b.is_symmetric()
            v = symmetrize_density(b).values
            assert np.array_equal(v, v[::-1, ::-1]) and np.array_equal(v, v.T)

    def test_fourier_sum_agrees_with_the_full_product(self):
        rng = np.random.default_rng(5)
        for n in (5, 16):
            a = random_filter(rng, max_m=3)
            phases = np.exp(-2j * np.pi * np.outer((np.arange(n) + 0.5) / n, np.arange(-a.m, a.m + 1)))
            amp = spectral._fourier(a.coeffs, a.m, n)
            np.testing.assert_allclose(amp, phases @ a.coeffs @ phases.T, rtol=0, atol=1e-13)


class TestRowClasses:
    """spectral._row_classes: runs of equal rows, joined with mirror pairs when the grid is centrosymmetric."""

    def test_mirror_pairs_fold(self):
        b = density_from_filter(TWO_TAP, 8)
        labels, sizes, lumped = spectral._row_classes(b.values)
        assert labels.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
        assert sizes.tolist() == [2, 2, 2, 2]
        # rows 3 and 4 are equal, a run that is its own mirror; every other row pairs with its mirror
        assert np.array_equal(lumped, b.values[:4, :4] + b.values[:4, :3:-1])

    def test_odd_grid_has_a_singleton_middle_class(self):
        a = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        labels, sizes, lumped = spectral._row_classes(density_from_filter(a, 7).values)
        assert labels.tolist() == [0, 1, 2, 3, 2, 1, 0]
        assert sizes.tolist() == [2, 2, 2, 1]
        assert lumped.shape == (4, 4)

    def test_one_ulp_off_centrosymmetric_does_not_fold(self):
        a = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        v = density_from_filter(a, 16).values.copy()
        v[3, 5] = np.nextafter(v[3, 5], np.inf)
        labels, sizes, lumped = spectral._row_classes(v)
        assert labels.tolist() == list(range(16)) and sizes.tolist() == [1] * 16
        assert np.array_equal(lumped, v)

    def test_runs_and_their_mirrors_form_one_class(self):
        # rows in runs of 2, 3, 1, 3, 2: run k and run 4 - k are mirrors, the middle run stays alone
        t = ProfileFunction(np.repeat([1.0, 2.0, 0.5, 2.0, 1.0], [2, 3, 1, 3, 2]))
        labels, sizes, lumped = spectral._row_classes(density_from_profile(t).values)
        assert labels.tolist() == [0, 0, 1, 1, 1, 2, 1, 1, 1, 0, 0]
        assert sizes.tolist() == [4, 6, 1]
        assert np.array_equal(lumped, np.outer([1.0, 2.0, 0.5], [4.0, 12.0, 0.5]))

    def test_without_a_fold_the_classes_are_the_runs(self):
        t = profile_from_steps([0.5, 2.0, 1.0], 12)
        v = density_from_profile(t).values
        labels, sizes, lumped = spectral._row_classes(v)
        assert labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4 and sizes.tolist() == [4, 4, 4]
        assert np.array_equal(lumped, np.add.reduceat(v[[0, 4, 8]], [0, 4, 8], axis=1))
        # a constant grid is one run, which already holds every mirror pair
        labels, sizes, lumped = spectral._row_classes(np.full((5, 5), 2.0))
        assert labels.tolist() == [0] * 5 and sizes.tolist() == [5] and lumped.tolist() == [[10.0]]


class TestInvariantValidation:
    def test_density_grid_rejects_negative_values(self):
        vals = np.ones((4, 4))
        vals[2, 2] = -0.5
        with pytest.raises(InvalidInput):
            DensityGrid(4, vals)

    def test_density_grid_clamps_rounding_noise(self):
        vals = np.ones((4, 4))
        vals[1, 1] = -1e-15
        grid = DensityGrid(4, vals)
        assert grid.values[1, 1] == 0.0

    def test_covariance_table_rejects_asymmetric(self):
        g = np.zeros((3, 3))
        g[1, 1] = 1.0
        g[2, 1] = 0.5  # gamma[1,0] without gamma[-1,0]
        with pytest.raises(InvalidInput):
            CovarianceTable(1, g)

    def test_covariance_table_rejects_cauchy_schwarz_violation(self):
        g = np.zeros((3, 3))
        g[1, 1] = 1.0
        g[2, 1] = 2.0
        g[0, 1] = 2.0
        with pytest.raises(InvalidInput):
            CovarianceTable(1, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidInput, match="non-finite"):
            FilterCoefficients(1, np.full((3, 3), bad))
        with pytest.raises(InvalidInput, match="non-finite"):
            VolterraCoefficients({((0, 0), (1, 0)): bad})
        with pytest.raises(InvalidInput, match="non-finite"):
            CovarianceTable(0, np.array([[bad]]))
        with pytest.raises(InvalidInput, match="non-finite"):
            ProfileFunction(np.array([1.0, bad]))

    def test_filter_sum_squares_consistent(self):
        rng = np.random.default_rng(37)
        a = random_filter(rng)
        assert a.sum_squares == pytest.approx(float(np.sum(a.coeffs**2)), rel=1e-12)

    def test_mass_identity_with_field_variance(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            a = random_filter(rng)
            grid = density_from_filter(a, 2 * (2 * a.m) + 2)
            gamma00 = covariance_from_filter(a, 0).variance
            assert grid.mass == pytest.approx(gamma00, abs=1e-10)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FilterCoefficients(-1, np.ones((1, 1))), "support radius must be >= 0"),
        (lambda: FilterCoefficients(1, np.ones((2, 2))), "must be 3x3"),
        (lambda: CovarianceTable(-1, np.ones((1, 1))), "radius must be >= 0"),
        (lambda: CovarianceTable(1, np.ones((2, 2))), "must be 3x3"),
        (lambda: CovarianceTable(0, [[-1.0]]), r"variance gamma\[0,0\] must be nonnegative"),
        (lambda: DensityGrid(2, np.ones((3, 3))), "must be 2x2"),
        (lambda: DensityGrid(2, [[1.0, np.nan], [1.0, 1.0]]), "non-finite"),
        (lambda: DensityGrid(2, np.full((2, 2), 1e308)), "mass overflows"),
        (lambda: ProfileFunction(np.ones((2, 2))), "nonempty 1-D"),
        (lambda: ProfileFunction([1.0, -1.0]), "nonnegative"),
        (lambda: ProfileFunction([1e200]), "mean square overflows"),
        (lambda: covariance_from_filter(DELTA, -1), "radius must be >= 0"),
        (lambda: covariance_from_volterra(VolterraCoefficients({}), -1), "radius must be >= 0"),
        (lambda: truncate_filter(TWO_TAP, -1), "truncation radius must be >= 0"),
        (lambda: profile_from_steps([], 8), "nonempty 1-D"),
    ],
    ids=[
        "filter-radius",
        "filter-shape",
        "covariance-radius",
        "covariance-shape",
        "covariance-variance",
        "grid-shape",
        "grid-nan",
        "grid-mass-overflow",
        "profile-shape",
        "profile-negative",
        "profile-mean-square-overflow",
        "filter-covariance-radius",
        "volterra-covariance-radius",
        "truncation-radius",
        "step-levels",
    ],
)
def test_constructors_and_builders_reject_out_of_range_input(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


# value type or builder: (its stored array, given the caller's array a; a factory for a)
OWNED_ARRAYS = {
    "FilterCoefficients": (lambda a: FilterCoefficients(1, a).coeffs, lambda: np.ones((3, 3))),
    "CovarianceTable": (lambda a: CovarianceTable(1, a).gamma, lambda: np.diag([0.0, 1.0, 0.0])),
    "DensityGrid": (lambda a: DensityGrid(2, a).values, lambda: np.ones((2, 2))),
    "ProfileFunction": (lambda a: ProfileFunction(a).values, lambda: np.ones(4)),
    "StieltjesCurve": (lambda a: StieltjesCurve(a, [0.5j, 0.25j]).z, lambda: np.array([1j, 2j])),
    "DistributionTable": (lambda a: DistributionTable(a, [1.0, 1.0], [0.0, 1.0]).xs, lambda: np.array([0.0, 1.0])),
    "ResolventProfile": (lambda a: ResolventProfile(z=1j, g=a, pi=a).g, lambda: np.full(4, 0.5j)),
    "EmpiricalSpectrum": (lambda a: EmpiricalSpectrum(a).eigenvalues, lambda: np.array([1.0, -1.0])),
    "empirical_curve": (lambda a: empirical_curve([0.0, 1.0], a).z, lambda: np.array([1j, 2j])),
    "ensemble_esd": (
        lambda a: ensemble_esd(EnsembleConfig(n=8, replicates=1, seed=1, model=DELTA), contour=a).curve.z,
        lambda: np.array([1j, 2j]),
    ),
}


@pytest.mark.parametrize("name", list(OWNED_ARRAYS))
def test_values_own_frozen_copies_of_caller_arrays(name):
    stored_from, make = OWNED_ARRAYS[name]
    a = make()
    stored = stored_from(a)
    assert a.flags.writeable
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, a)


# every value type: (a factory for an instance, its fields in order)
VALUES = {
    "FilterCoefficients": (lambda: FilterCoefficients(1, np.ones((3, 3))), ("m", "coeffs", "sum_squares")),
    "VolterraCoefficients": (lambda: VolterraCoefficients({((0, 0), (1, 0)): 1.0}), ("entries",)),
    "CovarianceTable": (lambda: CovarianceTable(1, np.diag([0.0, 1.0, 0.0])), ("radius", "gamma")),
    "DensityGrid": (lambda: DensityGrid(2, np.ones((2, 2))), ("n", "values", "mass")),
    "ProfileFunction": (lambda: ProfileFunction(np.ones(4)), ("values", "mean", "max", "mean_square", "runs")),
    "SolverConfig": (lambda: SolverConfig(tolerance=1e-8), ("tolerance", "max_iterations")),
    "ResolventProfile": (
        lambda: ResolventProfile(z=1j, g=np.full(4, 0.5j), pi=np.full(4, 0.5j), iterations=3, residual=1e-12),
        ("z", "g", "pi", "S", "iterations", "residual", "residual_history"),
    ),
    "ScalarSolution": (lambda: ScalarSolution(1j, 0.5j, 0.25j, 2, 1e-12), ("z", "v", "S", "iterations", "residual")),
    "EnsembleConfig": (
        lambda: EnsembleConfig(n=8, replicates=2, seed=1, model=DELTA),
        ("n", "replicates", "seed", "model", "symmetrization", "innovation"),
    ),
    "EmpiricalSpectrum": (lambda: EmpiricalSpectrum([1.0, -1.0]), ("eigenvalues",)),
    "EnsembleResult": (
        lambda: ensemble_esd(EnsembleConfig(n=8, replicates=1, seed=1, model=DELTA), contour=[1j, 2j]),
        ("table", "curve", "eigenvalues", "replicate_eigenvalues", "records", "outside_hypotheses"),
    ),
    "StieltjesCurve": (lambda: StieltjesCurve([1j, 2j], [0.5j, 0.25j]), ("z", "S", "iterations", "residuals")),
    "DistributionTable": (lambda: DistributionTable([0.0, 1.0], [1.0, 1.0], [0.0, 1.0]), ("xs", "density", "cdf")),
}


def _same(a, b):
    """Equal values of the same types, arrays compared element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__"):
        return _same(vars(a), vars(b))
    return a == b


@pytest.mark.parametrize("name", list(VALUES))
def test_value_fields_can_not_be_assigned_or_deleted(name):
    make, fields = VALUES[name]
    value = make()
    for field in (*fields, "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, field)
    assert all(hasattr(value, field) for field in fields)


@pytest.mark.parametrize("name", list(VALUES))
def test_value_repr_names_every_field_in_order(name):
    make, fields = VALUES[name]
    text = repr(make())
    assert text.startswith(f"{name}({fields[0]}=")
    positions = [text.index(f", {field}=") for field in fields[1:]]
    assert positions == sorted(positions)


@pytest.mark.parametrize("name", list(VALUES))
@pytest.mark.parametrize("clone", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["deepcopy", "pickle"])
def test_value_copies_keep_every_field(name, clone):
    make, fields = VALUES[name]
    value = make()
    copied = clone(value)
    assert type(copied) is type(value)
    for field in fields:
        assert _same(getattr(copied, field), getattr(value, field)), field


def test_configs_keep_their_equality_and_hash():
    cfg = SolverConfig(tolerance=1e-8)
    assert cfg == SolverConfig(tolerance=1e-8) and hash(cfg) == hash(SolverConfig(tolerance=1e-8))
    assert cfg != SolverConfig() and cfg != (1e-8, 10_000)
    assert hash(SolverConfig()) == hash((1e-10, 10_000))
    ens = EnsembleConfig(n=8, replicates=2, seed=1, model=DELTA)
    assert ens == EnsembleConfig(n=8, replicates=2, seed=1, model=DELTA)
    assert ens != EnsembleConfig(n=8, replicates=2, seed=2, model=DELTA)
    with pytest.raises(TypeError):  # its model holds an array
        hash(ens)


@pytest.mark.parametrize("name", [name for name in VALUES if name != "EnsembleResult"])  # its records hold wall times
def test_values_built_twice_compare_equal(name):
    make, _ = VALUES[name]
    first, second = make(), make()
    assert first is not second
    assert (first == second) is True and (first != second) is False


def test_values_holding_arrays_compare_element_by_element():
    grid = DensityGrid(2, np.ones((2, 2)))
    assert grid != DensityGrid(2, [[1.0, 1.0], [1.0, 2.0]])
    with pytest.raises(TypeError):  # hash still goes over the field values, arrays included
        hash(grid)


def test_ensemble_results_compare_their_replicate_eigenvalues_element_by_element():
    result = ensemble_esd(EnsembleConfig(n=8, replicates=2, seed=1, model=DELTA), contour=[1j, 2j])
    same = {name: getattr(result, name) for name in result._fields}
    same["replicate_eigenvalues"] = [eigs.copy() for eigs in result.replicate_eigenvalues]
    assert type(result)(**same) == result
    changed = [eigs.copy() for eigs in result.replicate_eigenvalues]
    changed[1][0] += 1.0
    assert type(result)(**{**same, "replicate_eigenvalues": changed}) != result
    assert type(result)(**{**same, "eigenvalues": result.eigenvalues.astype(complex)}) != result  # same values, other dtype

import numpy as np
import pytest

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

    def test_point_symmetry(self):
        bv = VolterraCoefficients(
            {((0, 0), (1, 0)): 1.0, ((1, 1), (0, 2)): -0.5, ((2, 0), (0, 1)): 0.25}
        )
        g = covariance_from_volterra(bv, 4).gamma
        assert np.allclose(g, g[::-1, ::-1], atol=1e-12)

    def test_rejects_diagonal_entry(self):
        with pytest.raises(InvalidInput):
            VolterraCoefficients({((1, 0), (1, 0)): 1.0})


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

    def test_rank_one_mass_is_mean_squared(self):
        t = profile_from_steps([0.5, 2.0], 16)
        assert density_from_profile(t).mass == pytest.approx(float(t.values.mean()) ** 2)


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

    def test_filter_duplicate_entry_rejected(self):
        with pytest.raises(InvalidInput):
            FilterCoefficients.from_entries([(0, 0, 1.0), (0, 0, 2.0)])

    def test_mass_identity_with_field_variance(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            a = random_filter(rng)
            grid = density_from_filter(a, 2 * (2 * a.m) + 2)
            gamma00 = covariance_from_filter(a, 0).variance
            assert grid.mass == pytest.approx(gamma00, abs=1e-10)


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

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from lsdlab import (
    DensityGrid,
    InvalidInput,
    LsdlabError,
    NoConvergence,
    SolverConfig,
    StieltjesCurve,
    contraction_certificate,
    continuity_bound,
    covariance_from_volterra,
    density_from_covariance,
    density_from_filter,
    density_from_profile,
    empirical_curve,
    empirical_stieltjes,
    measured_decay_ratio,
    profile_from_steps,
    semicircle_transform,
    solve_curve,
    solve_product_form,
    solve_profile,
    symmetrize_density,
    truncate_filter,
)
from lsdlab import solver
from lsdlab.io import read_density_csv, write_density_csv
from lsdlab.spectral import FilterCoefficients, ProfileFunction, _row_classes, midpoints

from test_spectral import BILINEAR, SKEW, random_filter


MA3 = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
# the 5-tap cross, whose density folds to rank 3, the least rank whose Newton steps call LAPACK
CROSS = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0})
# the points of the tests that change one column's first Newton step
SCATTERED = np.array([-1.5 + 0.05j, -0.5 + 0.02j, 0.3 + 2j, 0.8 + 0.1j, 1.7 + 0.01j, 2.5 + 1j])
# heights whose square underflows to 0
UNDERFLOWING = [1e-170, 1e-200, 1e-300, 5e-324]


def constant_density(sigma2, n=64):
    return DensityGrid(n, np.full((n, n), float(sigma2)))


def step_density(levels, n):
    """Rank-one density of a step profile: with more than one level, the mean-field start does not solve it."""
    return density_from_profile(profile_from_steps(levels, n))


def full_rank_density(rng, n, mass):
    """Symmetric positive grid of full rank with the given mass."""
    v = rng.uniform(0.5, 1.5, size=(n, n))
    v += v.T
    return DensityGrid(n, v * (mass / v.mean()))


def product_plus_faint_constant(rng):
    """t(x) t(y) + 1e-9: rank 2, with a second term far below the first but above the factor's cutoff."""
    t = rng.uniform(1.0, 2.0, 64)
    return DensityGrid(64, np.outer(t, t) + 1e-9)


def solve_with_first_newton_step(b, zs, first):
    """solve_curve(b, zs) whose first _newton_solve call returns first(_newton_solve, jacs, rhs).

    That call is block iteration 1's, where column k solves point k.
    """
    newton_solve = solver._newton_solve
    calls = []

    def solve(jacs, rhs):
        calls.append(None)
        return first(newton_solve, jacs, rhs) if len(calls) == 1 else newton_solve(jacs, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_solve", solve)
        return solve_curve(b, zs)


def singular_first_newton_steps(b, plain_iterations, every_iterations):
    """solve_curve(b) at SCATTERED sqrt(B) with the first Newton step's J all ones, so singular, in the odd columns.

    Runs it with no, odd and every J singular, asserts the first and last runs'
    iterations, and that each odd point matches the all-singular run and each
    even point the unperturbed one; returns the odd run. The singular columns
    divide by 0 or raise under the block's errstate, and warn of nothing.
    """
    zs = SCATTERED * np.sqrt(b.mass)

    def singular(columns):
        def solve(newton_solve, jacs, rhs):
            jacs = jacs.copy()
            jacs[columns] = 1.0
            return newton_solve(jacs, rhs)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return solve_with_first_newton_step(b, zs, solve)

    plain, odd, every = singular([]), singular([1, 3, 5]), singular(slice(None))
    assert plain.iterations.tolist() == plain_iterations
    assert every.iterations.tolist() == every_iterations
    for k in range(len(zs)):
        expected = every if k % 2 else plain
        assert odd.iterations[k] == expected.iterations[k]
        assert abs(odd.S[k] - expected.S[k]) <= 10 * 1e-10
    return odd


def filter_of_order(rng, m):
    """Random filter with every coefficient of |u|, |v| <= m drawn, so its density has rank 4m + 1."""
    return FilterCoefficients(m, rng.uniform(-1.0, 1.0, size=(2 * m + 1, 2 * m + 1)))


class TestSemicircleTransform:
    def test_rejects_a_variance_that_is_not_positive(self):
        with pytest.raises(InvalidInput, match="sigma2 must be positive"):
            semicircle_transform(0.0, 1j)

    def test_hand_value_at_i(self):
        # -(i - sqrt(-5))/2 with the positive-imaginary root = i (sqrt(5)-1)/2
        expected = 1j * (np.sqrt(5.0) - 1.0) / 2.0
        assert semicircle_transform(1.0, 1j) == pytest.approx(expected, abs=1e-15)

    def test_hand_value_at_2i(self):
        expected = 1j * (np.sqrt(2.0) - 1.0)
        assert semicircle_transform(1.0, 2j) == pytest.approx(expected, abs=1e-15)

    def test_herglotz_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.01, 5))
            sigma2 = rng.uniform(0.1, 4)
            s = semicircle_transform(sigma2, z)
            assert s.imag > 0
            assert abs(s) <= 1.0 / z.imag + 1e-12

    def test_large_u_normalization(self):
        for u in (50.0, 200.0, 1000.0):
            s = semicircle_transform(1.0, 1j * u)
            assert abs(1j * u * s + 1.0) <= 2.0 / u**2


class TestMeanFieldStart:
    @pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
    def test_constant_density_converges_in_one_iteration(self, sigma2):
        # the start rowmean(b) S_sc(z; B) is the exact solution of a constant density
        root = np.sqrt(sigma2)
        contour = np.concatenate(
            [np.linspace(-3.0, 3.0, 13) * root + 1e-5j * root, 0.7 + 1j * np.geomspace(0.05, 10.0, 7) * root]
        )
        b, t = constant_density(sigma2, 32), profile_from_steps([root], 32)
        curve = solve_curve(b, contour)
        exact = np.array([semicircle_transform(sigma2, z) for z in contour])
        assert np.abs(curve.S - exact).max() <= 1e-15
        assert (curve.iterations == 1).all()
        for z in contour[::4]:
            prof, sol = solve_profile(b, z), solve_product_form(t, z)
            assert (prof.iterations, sol.iterations) == (1, 1)
            assert max(abs(prof.S - semicircle_transform(sigma2, z)), abs(sol.S - prof.S)) <= 1e-15

    @pytest.mark.parametrize("mass", [0.0, 1e-300, 1e6])
    def test_start_is_finite_in_the_upper_half_plane(self, mass):
        # tier-1 turns every RuntimeWarning into an error
        zs = np.array([1e-5j, 1j, -3.0 + 1e-8j, 3.0 + 1e-8j, 1e3 + 1e-3j, -1e150 + 1e150j, 1e-300j])
        for zz in (zs, *zs):
            s = solver._semicircle(mass, zz)
            assert np.isfinite(s).all() and (s.imag >= 0).all()
        if mass < 1e-200:  # S_sc = -1/z where |z| >> sqrt(B), but -(z - root)/(2B) keeps no digit of it
            np.testing.assert_allclose(solver._semicircle(mass, zs[:-1]), -1.0 / zs[:-1], rtol=1e-15)
        curve = solve_curve(constant_density(mass, 8), zs[:5])
        assert (curve.iterations == 1).all()


class TestSolveProfile:
    def test_matches_semicircle_at_i(self):
        prof = solve_profile(constant_density(1.0), 1j)
        assert abs(prof.S - semicircle_transform(1.0, 1j)) < 1e-8

    def test_matches_semicircle_at_2i(self):
        prof = solve_profile(constant_density(1.0), 2j)
        assert abs(prof.S - semicircle_transform(1.0, 2j)) < 1e-8

    def test_zero_density_gives_free_resolvent(self):
        z = 0.4 + 0.8j
        prof = solve_profile(constant_density(0.0), z)
        assert prof.S == -1.0 / z
        assert prof.iterations == 1

    def test_profile_invariants_on_random_densities(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            b = density_from_filter(random_filter(rng), 48)
            z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 4.0))
            prof = solve_profile(b, z)
            assert (prof.g.imag > 0).all()
            assert (np.abs(prof.g) <= (1 + 1e-12) / z.imag).all()
            assert (prof.pi.imag >= -1e-14).all()
            assert (np.abs(z + prof.pi) >= z.imag * (1 - 1e-12)).all()
            assert prof.S.imag > 0
            assert prof.residual <= 1e-10

    def test_normalization_at_large_height(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            b = density_from_filter(random_filter(rng), 48)
            u = 100.0 * (1.0 + np.sqrt(b.mass))
            prof = solve_profile(b, 1j * u)
            assert abs(1j * u * prof.S + 1.0) <= 2.0 * b.mass / u**2

    def test_stored_pi_is_recomputed_from_g(self):
        b = density_from_filter(random_filter(np.random.default_rng(17)), 32)
        prof = solve_profile(b, 1j)
        recomputed = (b.values @ prof.g) / b.n
        assert np.abs(prof.pi - recomputed).max() < 1e-14

    def test_rejects_lower_half_plane(self):
        with pytest.raises(InvalidInput):
            solve_profile(constant_density(1.0), 1.0 - 1j)
        with pytest.raises(InvalidInput):
            solve_profile(constant_density(1.0), 1.0 + 0j)

    def test_no_convergence_reports_stage(self):
        # the direct stage runs out, the ladder's top stage meets its loose tolerance
        # and the next one runs out: that one is named
        b = step_density([0.5, 1.5, 1.0], 64)
        cfg = SolverConfig(tolerance=1e-14, max_iterations=2)
        with pytest.raises(NoConvergence, match=r"on the ladder at Im z = 1\.98765 after 2 iterations") as info:
            solve_profile(b, 0.3 + 0.05j, cfg)
        assert info.value.height == 2.0 * np.sqrt(b.mass + 1.0) * solver._LADDER_FACTOR
        assert info.value.residual > 1e-14

    def test_direct_stage_converges_below_sqrt_mass(self):
        prof = solve_profile(step_density([1.0, 3.0, 2.0], 64), 0.1j)
        assert prof.residual <= 1e-10
        # the history holds every iteration of the point's one stage, at its own height
        assert len(prof.residual_history) == prof.iterations

    def test_continuation_engages_below_sqrt_mass(self):
        # the point needs 22 iterations at its own height, so a budget of 20 sends it to the ladder
        b = full_rank_density(np.random.default_rng(41), 48, 4.0)
        z = -3.0 + 0.1j
        direct = solve_profile(b, z)
        assert direct.iterations == 22
        prof = solve_profile(b, z, SolverConfig(max_iterations=20))
        assert prof.iterations > 20 + len(prof.residual_history)  # the last stage's history only
        assert prof.residual <= 1e-10
        assert abs(prof.S - direct.S) <= 10 * 1e-10


class TestContraction:
    def test_ladder_starts_where_the_certificate_is_below_a_quarter(self):
        b = step_density([0.5, 1.5, 1.0], 16)
        cfg = SolverConfig(tolerance=1e-14, max_iterations=1)
        for target in (0.05, 1.0, 10.0):
            with pytest.raises(NoConvergence) as info:
                solve_profile(b, 0.3 + 1j * target, cfg)
            # a direct stage that runs out restarts on the ladder, unless its height is already the top
            top = max(target, 2.0 * np.sqrt(b.mass + 1.0))
            assert info.value.height == top and b.mass / top**2 < 0.25
            assert ("on the ladder" in str(info.value)) == (top > target)

    def test_certificate_value(self):
        assert contraction_certificate(constant_density(1.0, 8), 2j) == pytest.approx(0.25)

    def test_certificate_zero_mass(self):
        assert contraction_certificate(constant_density(0.0, 8), 0.3j) == 0.0

    def test_measured_decay_below_certificate(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            b = density_from_filter(random_filter(rng), 48)
            z = complex(rng.uniform(-1, 1), 2.0 * np.sqrt(b.mass))
            cert = contraction_certificate(b, z)
            prof = solve_profile(b, z)
            assert measured_decay_ratio(prof) <= cert + 0.05

    def test_measured_decay_below_certificate_up_to_point_nine(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            b = density_from_filter(random_filter(rng), 48)
            cert_target = rng.uniform(0.3, 0.89)
            z = complex(rng.uniform(-1, 1), np.sqrt(b.mass / cert_target))
            cert = contraction_certificate(b, z)
            assert cert < 0.9
            prof = solve_profile(b, z)
            assert measured_decay_ratio(prof) <= cert + 0.05


@pytest.mark.parametrize("height", UNDERFLOWING)
def test_heights_whose_square_underflows_solve_as_a_tiny_normal_one(height):
    b = density_from_filter(MA3, 32)
    t = profile_from_steps([0.5, 1.5, 1.0], 32)
    xs = np.array([-1.0, 0.0, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = solve_curve(b, xs + 1j * height)
        scalar = solve_product_form(t, 0.5 + 1j * height)
        assert contraction_certificate(b, 1j * height) == np.inf
    # at 1e-150 the square is still normal
    near = solve_curve(b, xs + 1e-150j)
    assert curve.iterations.tolist() == near.iterations.tolist()
    assert np.abs(curve.S - near.S).max() <= 1e-12
    near = solve_product_form(t, 0.5 + 1e-150j)
    assert scalar.iterations == near.iterations
    assert abs(scalar.S - near.S) <= 1e-12


def test_residual_history_is_monotone_under_contraction():
    cfg = SolverConfig(tolerance=1e-12, max_iterations=200)
    hist = solve_profile(step_density([0.5, 1.5, 1.0], 16), 3j, cfg).residual_history
    assert hist.size > 2
    assert (np.diff(hist) < 0).all()


class TestContinuityBound:
    def test_identical_densities_give_zero(self):
        b = constant_density(1.0)
        assert continuity_bound(b, b, 3j) == 0.0

    def test_bounds_actual_transform_gap(self):
        b1 = constant_density(1.0)
        b2 = constant_density(1.1)
        z = 10j
        bound = continuity_bound(b1, b2, z)
        gap = abs(solve_profile(b1, z).S - solve_profile(b2, z).S)
        assert gap <= bound

    def test_truncation_ladder_within_bound_and_monotone(self):
        a = FilterCoefficients.from_entries(
            {(u, v): 0.6 ** max(abs(u), abs(v)) for u in range(-4, 5) for v in range(-4, 5)}
        )
        full = density_from_filter(a, 48)
        z = complex(0.0, 4.0 * (1.0 + np.sqrt(full.mass)))
        s_full = solve_profile(full, z).S
        prev = np.inf
        for m in (1, 2, 3):
            small = density_from_filter(truncate_filter(a, m), 48)
            gap = abs(solve_profile(small, z).S - s_full)
            assert gap <= continuity_bound(small, full, z)
            assert gap <= prev + 1e-15
            prev = gap

    def test_precondition_enforced(self):
        b = constant_density(4.0)
        with pytest.raises(InvalidInput):
            continuity_bound(b, b, 1j)  # (Im z)^2 = 1 < mass
        with pytest.raises(InvalidInput, match="same size"):
            continuity_bound(b, constant_density(4.0, n=32), 4j)


class TestSolveCurve:
    def test_singleton_matches_profile(self):
        b = constant_density(1.0)
        curve = solve_curve(b, [1j])
        prof = solve_profile(b, 1j)
        # Newton steps against the plain map: each stops within the tolerance
        assert abs(curve.S[0] - prof.S) <= 10 * 1e-10

    def test_profile_and_one_point_curve_share_the_block_path(self):
        # an unfactored density: both run the plain and Anderson-mixed map
        b = full_rank_density(np.random.default_rng(61), 48, 4.0)
        assert solver._factor(b.values, b.n) is None
        for z in (0.3 + 0.1j, -1.0 + 1.5j, 5j):
            prof, curve = solve_profile(b, z), solve_curve(b, [z])
            assert prof.S == curve.S[0]
            assert prof.iterations == curve.iterations[0]

    @pytest.mark.parametrize("bad", [complex(np.nan, 1.0), complex(0.0, np.nan), complex(0.0, np.inf)])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(InvalidInput, match="finite"):
            solve_curve(constant_density(1.0), [1j, bad])

    def test_horizontal_curve_matches_mollified_semicircle_in_bulk(self):
        b = constant_density(1.0, 128)
        xs = np.linspace(-3.0, 3.0, 61)
        curve = solve_curve(b, xs + 0.05j)
        exact = np.array([semicircle_transform(1.0, complex(x, 0.05)) for x in curve.z.real])
        assert np.abs(curve.S - exact).max() < 1e-8
        bulk = np.abs(curve.z.real) <= 1.8
        true_density = np.sqrt(4.0 - curve.z.real[bulk] ** 2) / (2.0 * np.pi)
        assert np.abs(curve.S.imag[bulk] / np.pi - true_density).max() <= 0.02

    def test_mixed_contour_matches_single_point_solves(self):
        b = density_from_filter(random_filter(np.random.default_rng(37)), 48)
        root = np.sqrt(b.mass)
        contour = np.concatenate(
            [
                np.linspace(-2.0, 2.0, 9) + 0.05j,  # horizontal row
                0.3 + 1j * np.geomspace(0.05, 4.0, 6),  # vertical chain
                [-1.1 + 0.5j * root, -1.1 + 2.0j * root],  # one chain across sqrt(mass)
                [2.7 + 0.8j],  # singleton
            ]
        )
        curve = solve_curve(b, contour)
        assert len(curve) == contour.size
        for z, s, res in zip(curve.z, curve.S, curve.residuals):
            assert abs(s - solve_profile(b, z).S) <= 10 * 1e-10
            assert res <= 1e-10

    def test_direct_stage_saves_iterations_on_the_full_rank_map(self):
        b = full_rank_density(np.random.default_rng(41), 48, 4.0)
        assert solver._factor(b.values, b.n) is None
        curve = solve_curve(b, np.linspace(-3.0, 3.0, 13) + 0.1j)
        assert curve.iterations.sum() <= 500
        assert curve.residuals.max() <= 1e-10

    def test_loose_inner_stages_save_iterations(self, monkeypatch):
        # a full-rank grid runs the N x N map; with a budget of 20 its points take the ladder
        b = full_rank_density(np.random.default_rng(41), 48, 4.0)
        assert solver._factor(b.values, b.n) is None
        contour = np.linspace(-3.0, 3.0, 13) + 0.1j  # below sqrt(mass) = 2
        cfg = SolverConfig(max_iterations=20)
        assert solve_curve(b, contour).iterations.max() > cfg.max_iterations
        loose = solve_curve(b, contour, cfg)
        monkeypatch.setattr(solver, "_LADDER_TOLERANCE", 0.0)  # every stage to full tolerance
        full = solve_curve(b, contour, cfg)
        assert loose.iterations.sum() < full.iterations.sum()
        assert np.abs(loose.S - full.S).max() <= 10 * 1e-10

    def test_a_point_that_converges_directly_builds_no_ladder(self, monkeypatch):
        # at this factor the ladder to Im z = 0.05 at mass 3 has 43,820 stages
        b = constant_density(3.0, 16)
        contour = np.linspace(-2.0, 2.0, 5) + 0.05j
        direct = solve_curve(b, contour)
        monkeypatch.setattr(solver, "_LADDER_FACTOR", 0.9999)
        fine = solve_curve(b, contour)
        assert np.array_equal(fine.S, direct.S)
        assert np.array_equal(fine.iterations, direct.iterations)

    def test_stalled_direct_stage_restarts_through_ladder(self):
        # near the spectral edge the point needs 6 Newton iterations at its own height
        b = step_density([1.0, 3.0, 2.0], 16)
        z = [4.02 + 0.005j]
        assert solve_curve(b, z).iterations[0] == 6
        cfg = SolverConfig(max_iterations=5)
        stalled = solve_curve(b, z, cfg)
        assert abs(stalled.S[0] - solve_curve(b, z).S[0]) <= 10 * 1e-10
        # the direct stage's 5 iterations, then the ladder's
        assert stalled.iterations[0] == 58

    def test_a_ladder_restart_beside_direct_points_of_its_height(self):
        # near the spectral edge 4.02 and 4.03 stall within 5 iterations and restart on
        # the ladder, while the other points of Im z = 0.005 converge directly
        b = step_density([1.0, 3.0, 2.0], 16)
        cfg = SolverConfig(max_iterations=5)
        curve = solve_curve(b, np.array([-1.0, 0.5, 4.02, 4.03, 2.0]) + 0.005j, cfg)
        assert (curve.iterations > cfg.max_iterations).tolist() == [False, False, True, True, False]
        for z, s, its in zip(curve.z, curve.S, curve.iterations):
            alone = solve_curve(b, [z], cfg)
            assert its == alone.iterations[0]
            assert abs(s - alone.S[0]) <= 10 * 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: density_from_filter(random_filter(rng), 48),
            lambda rng: full_rank_density(rng, 48, 2.0),
        ],
        ids=["newton", "full-rank"],
    )
    def test_points_are_solved_independently(self, make):
        b = make(np.random.default_rng(59))
        root = np.sqrt(b.mass)
        row = np.linspace(-2.0, 2.0, 9) * root + 0.05j
        chain = 0.3 + 1j * np.geomspace(0.05, 3.0, 6) * root
        curve = solve_curve(b, np.concatenate([row, chain]))
        for z, s, its in zip(curve.z, curve.S, curve.iterations):
            alone = solve_curve(b, [z])
            assert its == alone.iterations[0]
            assert abs(s - alone.S[0]) <= 10 * 1e-10

    def test_readme_contour_column_iterations(self):
        # Newton steps in 3 unknowns at the target height take 495 from the
        # mean-field start and took 764 from zero
        curve = solve_curve(density_from_filter(MA3, 128), np.linspace(-9.0, 9.0, 121) + 0.05j)
        assert curve.iterations.sum() <= 600

    def test_newton_curve_matches_single_point_solves(self):
        rng = np.random.default_rng(43)
        for _ in range(4):
            b = density_from_filter(random_filter(rng), 48)
            assert solver._factor(b.values, b.n) is not None
            root = np.sqrt(b.mass)
            contour = np.concatenate([np.linspace(-3.0, 3.0, 7) * root + 0.05j, 0.4 + 1j * np.geomspace(0.05, 3.0, 4)])
            curve = solve_curve(b, contour)
            for z, s, res in zip(curve.z, curve.S, curve.residuals):
                assert abs(s - solve_profile(b, z).S) <= 10 * 1e-10
                assert res <= 1e-10

    def test_no_convergence_names_the_contour_point(self):
        cfg = SolverConfig(tolerance=1e-14, max_iterations=2)
        # both points stall in the same iteration: the earlier one in the contour is named
        with pytest.raises(NoConvergence, match=r"contour point z = 0\.5\+0\.05j: residual [^ ]+ on the ladder"):
            solve_curve(step_density([0.5, 1.5, 1.0], 16), [0.5 + 0.05j, -0.5 + 0.05j], cfg)

    @pytest.mark.parametrize(
        "contour",
        [
            np.linspace(2.0, -2.0, 9) + 0.1j,  # horizontal, descending
            0.3 + 1j * np.geomspace(0.05, 3.0, 5)[:, None],  # vertical, ascending, as a column
            [0.5 + 1j, -0.5 + 1j, 0.0 + 2j, 1.0 + 0.2j],  # mixed
        ],
        ids=["horizontal", "vertical", "mixed"],
    )
    @pytest.mark.parametrize(
        "b",
        [constant_density(1.0, 32), full_rank_density(np.random.default_rng(67), 32, 1.0)],
        ids=["newton", "full-rank"],
    )
    def test_points_come_back_in_contour_order(self, contour, b):
        curve = solve_curve(b, contour)
        assert np.array_equal(curve.z, np.ravel(contour))
        for z, s in zip(curve.z, curve.S):
            assert abs(s - solve_curve(b, [z]).S[0]) <= 10 * 1e-10

    def test_singular_jacobian_falls_back_to_the_damped_update(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        b = density_from_filter(CROSS, 32)  # rank 3 after the fold, so J is solved by LAPACK
        zs = np.array([3j, 0.5 + 4j])  # certified (mass 5): the damped update alone converges
        plain = solver._solve_block(b, zs, solver.DEFAULT_CONFIG)
        assert plain[1] == [17, 13]
        near, cfg = [0.5 + 0.05j], SolverConfig(max_iterations=5)
        assert solve_curve(b, near, cfg).residuals[0] <= 1e-10  # Newton steps need no more
        monkeypatch.setattr(np.linalg, "solve", singular)
        # every Newton point is NaN, so each column takes the damped update: the plain map's iterates
        curve = solve_curve(b, zs)
        assert np.array_equal(curve.S, plain[0])
        assert np.array_equal(curve.iterations, plain[1])
        with pytest.raises(NoConvergence):
            solve_curve(b, near, cfg)

    def test_zero_rank_one_jacobian_falls_back_to_the_damped_update(self, monkeypatch):
        newton_solve = solver._newton_solve

        def zero(jacs, rhs):
            assert len(rhs) == 1
            return newton_solve(np.zeros_like(jacs), rhs)

        b = step_density([0.5, 1.5, 1.0], 32)
        zs = np.array([2j, 0.5 + 3j])
        plain = solver._solve_block(b, zs, solver.DEFAULT_CONFIG)
        near, cfg = [0.5 + 0.05j], SolverConfig(max_iterations=5)
        assert solve_curve(b, near, cfg).residuals[0] <= 1e-10
        monkeypatch.setattr(solver, "_newton_solve", zero)
        # rhs / 0 is not finite in every column, and the division warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = solve_curve(b, zs)
            assert np.array_equal(curve.S, plain[0])
            assert np.array_equal(curve.iterations, plain[1])
            with pytest.raises(NoConvergence):
                solve_curve(b, near, cfg)

    def test_a_newton_point_below_the_axis_keeps_the_damped_update_in_its_column(self):
        b = step_density([0.5, 1.5, 1.0], 32)

        def shifted(columns):
            def shift(newton_solve, jacs, rhs):
                y = newton_solve(jacs, rhs)
                # at r = 1 U >= 0, so these columns' Newton points have Im < 0
                y[:, columns] += 1e3j
                return y

            return solve_with_first_newton_step(b, SCATTERED, shift)

        plain, odd, every = shifted([]), shifted([1, 3, 5]), shifted(slice(None))
        assert (odd.iterations[1::2] > plain.iterations[1::2]).all()
        for k in range(len(SCATTERED)):
            expected = every if k % 2 else plain
            assert odd.iterations[k] == expected.iterations[k]
            assert abs(odd.S[k] - expected.S[k]) <= 10 * 1e-10

    def test_a_singular_rank_two_jacobian_keeps_the_damped_update_in_its_column(self):
        b = density_from_filter(MA3, 32)  # rank 2 after the fold: Cramer's rule, det [[1, 1], [1, 1]] = 0
        odd = singular_first_newton_steps(b, [5, 4, 3, 4, 5, 3], [5, 5, 4, 5, 6, 4])
        assert odd.iterations.tolist() == [5, 5, 3, 5, 5, 4]

    def test_a_singular_rank_three_jacobian_keeps_the_damped_update_in_its_column(self):
        b = density_from_filter(CROSS, 32)  # rank 3 after the fold: one batched LAPACK solve, which raises
        odd = singular_first_newton_steps(b, [5, 5, 3, 4, 5, 4], [5, 5, 4, 5, 6, 4])
        assert odd.iterations.tolist() == [5, 5, 3, 5, 5, 4]

    def test_rank_one_and_two_solves_never_call_lapack(self, monkeypatch):
        def lapack(*args):
            raise AssertionError("np.linalg.solve called on a density of rank at most 2")

        monkeypatch.setattr(np.linalg, "solve", lapack)
        x = midpoints(64)
        for t, iterations in [
            (profile_from_steps([0.5, 1.5, 1.0], 32), [4, 5, 4, 4, 5, 4, 4, 4, 3]),
            (profile_from_steps([2.0, 0.25], 48), [8, 5, 5, 5, 5, 8, 5, 5, 4]),
            (ProfileFunction(np.full(16, 0.8)), [1] * 9),  # a constant grid, K = 1
            (ProfileFunction(1.0 + 0.5 * np.sin(2 * np.pi * x) + x), [3, 4, 4, 4, 4, 3, 3, 3, 3]),  # K = 64
        ]:
            b = density_from_profile(t)
            root = np.sqrt(b.mass)
            zs = np.concatenate([np.linspace(-2.5, 2.5, 6) * root + 0.02j, 0.3 * root + 1j * np.geomspace(1e-3, 2.0, 3) * root])
            curve = solve_curve(b, zs)
            assert curve.iterations.tolist() == iterations
            for z, s in zip(zs, curve.S):
                assert abs(s - solve_product_form(t, z).S) <= 1e-9
        rank_two = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 0.7, (0, 1): 0.5, (2, 0): 0.3})
        for a, iterations in [(MA3, [3, 8, 5, 4, 5, 4, 5, 8, 3]), (rank_two, [4, 8, 5, 5, 5, 5, 5, 8, 4])]:
            for n in (32, 128):
                b = density_from_filter(a, n)
                assert solver._factor(_row_classes(b.values)[2], n)[0].shape[1] == 2
                root = np.sqrt(b.mass)
                zs = (np.linspace(-3.0, 3.0, 9) + 0.02j) * root
                curve = solve_curve(b, zs)
                assert curve.iterations.tolist() == iterations
                for z, s in zip(zs, curve.S):
                    assert abs(s - solve_profile(b, z).S) <= 1e-9

    def test_a_zero_density_never_calls_lapack(self, monkeypatch):
        # it factors with rank 0, whose empty Newton solve is the division of rank 1
        def lapack(*args):
            raise AssertionError("np.linalg.solve called on a zero density")

        monkeypatch.setattr(np.linalg, "solve", lapack)
        zs = np.array([1j, 0.3 + 0.05j, -2 + 1e-3j])
        curve = solve_curve(DensityGrid(8, np.zeros((8, 8))), zs)
        assert np.array_equal(curve.S, -1 / zs)

    def test_full_rank_densities_pin_the_column_iterations_of_the_plain_map(self):
        # the damped update with Anderson(1) mixing, the path of every density above
        # rank _NEWTON_MAX_RANK: no workload runs it, so its counts are pinned here
        n = 128
        x = midpoints(n)
        e = np.exp(2j * np.pi * x)
        band = DensityGrid(n, (np.abs(x[:, None] - x[None, :]) < 0.1).astype(float))
        ar = DensityGrid(n, 1.0 / np.abs(1.0 - 0.45 * e[:, None] - 0.45 * e[None, :]) ** 2)
        for b, classes, iterations in [(band, 64, [954, 1020]), (ar, 128, [2817, 3097])]:
            lumped = _row_classes(b.values)[2]
            assert len(lumped) == classes
            assert solver._factor(lumped, n) is None
            for height, count in zip([0.05, 1e-5], iterations):
                curve = solve_curve(b, np.linspace(-9.0, 9.0, 121) + 1j * height)
                assert curve.iterations.sum() == count

    def test_rejects_bad_contour(self):
        b = constant_density(1.0)
        with pytest.raises(InvalidInput):
            solve_curve(b, [])
        with pytest.raises(InvalidInput):
            solve_curve(b, [1j, 1.0 + 0j])


@pytest.mark.parametrize(
    "field, value",
    [
        ("tolerance", 0.0),
        ("max_iterations", 0),
        ("max_iterations", np.inf),
        ("tolerance", np.inf),
    ],
)
def test_solver_config_rejects_out_of_range_values(field, value):
    with pytest.raises(InvalidInput, match=field):
        SolverConfig(**{field: value})


def herglotz_rows():
    """Three points that keep the Herglotz bounds, one row each; only the first row's |pi| reaches 1e6."""
    z = np.array([1j, 0.5 + 2j, -1.0 + 0.5j])
    pi = np.full((3, 4), 0.1 + 0.2j)
    pi[0, 0] = 1e6
    return z, -1.0 / (z[:, None] + pi), pi


class TestHerglotzCheck:
    def test_each_row_is_judged_on_its_own_scale(self):
        z, g, pi = herglotz_rows()
        pi[0, 3] = 2.0 - 1e-10j  # within 1e-15 (1 + max|pi|) of the first row
        solver._check_herglotz(z, g, pi)

    @pytest.mark.parametrize(
        "name, row, col, value, bound",
        [
            ("g", 1, 2, 0.3 - 0.1j, "Im g > 0"),
            # Im(z + pi)/|z + pi|^2 is far from underflowing here, so a 0 is a failure
            ("g", 1, 2, 0.3 + 0j, "Im g > 0"),
            ("g", 2, 0, 2.1j, r"\|g\| <= 1/Im z"),
            # beyond 1e-15 (1 + max|pi|) of its own row, within that of the first
            ("pi", 1, 3, 2.0 - 1e-10j, "Im pi >= 0"),
            ("pi", 0, 1, -0.9e-9j, r"\|z \+ pi\| >= Im z"),
        ],
    )
    def test_one_bad_row_fails_the_block(self, name, row, col, value, bound):
        z, g, pi = herglotz_rows()
        {"g": g, "pi": pi}[name][row, col] = value
        with pytest.raises(LsdlabError, match=bound):
            solver._check_herglotz(z, g, pi)

    @pytest.mark.parametrize("z", [1e162 + 0.05j, -1e162 + 0.05j, 4.5 + 5e-324j])
    def test_an_im_g_lost_to_underflow_is_bad_input(self, z):
        # Im g = Im(z + pi)/|z + pi|^2 underflows far out on the axis, or outside the
        # support at the least height; inside it, at 1.9 + 5e-324i, Im pi keeps Im g normal
        b = density_from_filter(MA3, 16)
        assert solve_curve(b, [1.9 + 5e-324j, 1e161 + 0.05j]).S.imag.min() > 0
        message = f"contour point z = {z:.6g}: Im g = Im(z + pi)/|z + pi|^2 underflows float64"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            solve_curve(b, [0.05j, z])
        with pytest.raises(InvalidInput, match="underflows float64"):
            solve_profile(b, z)

    def test_every_curve_point_is_checked(self, monkeypatch):
        checked = []
        check = solver._check_herglotz
        monkeypatch.setattr(solver, "_check_herglotz", lambda z, g, pi: checked.extend(z) or check(z, g, pi))
        curve = solve_curve(constant_density(1.0, 16), np.linspace(-2.0, 2.0, 9) + 1j * np.linspace(0.05, 2.0, 9))
        assert np.array_equal(np.sort_complex(checked), np.sort_complex(curve.z))

    def test_each_point_is_checked_with_its_own_g_and_pi(self, monkeypatch):
        # the columns leave at Im z = 2.0, then 0.5, then 0.02, out of contour order;
        # no two rows of b are equal, so every mirror pair {i, N-1-i} is its own unknown,
        # and each point's 16 rows expand to 32 through the class labels
        b = density_from_filter(MA3, 32)
        assert (b.values[1:] != b.values[:-1]).any(axis=1).all()
        labels = _row_classes(b.values)[0]
        assert np.array_equal(labels, np.minimum(np.arange(32), 31 - np.arange(32)))
        rows = []
        check = solver._check_herglotz
        monkeypatch.setattr(solver, "_check_herglotz", lambda z, g, pi: rows.extend(zip(z, g, pi)) or check(z, g, pi))
        contour = np.array([0.3 + 0.02j, -1.0 + 2.0j, 0.5 + 0.5j])
        curve = solve_curve(b, contour)
        monkeypatch.undo()
        assert len(rows) == 3
        for z, g, pi in rows:
            (k,) = np.flatnonzero(contour == z)
            g, pi = g[labels], pi[labels]
            np.testing.assert_allclose(pi, b.values @ g / b.n, rtol=0, atol=1e-12)
            assert np.abs(g + 1.0 / (z + pi)).max() <= 1.01 * solver.DEFAULT_CONFIG.tolerance
            assert g.mean() == pytest.approx(curve.S[k], abs=1e-13)
            assert curve.S[k] == pytest.approx(solve_curve(b, [z]).S[0], abs=1e-12)


def run_sums(t):
    """The scalar stage's f and f' of a step profile, summed by runs as solve_product_form sums them."""
    return solver._run_sums(t.runs, t.n)[0]


class TestProductForm:
    def test_constant_profile_reduces_to_semicircle(self):
        t = profile_from_steps([1.0], 64)
        for z in (1j, 2j, 0.5 + 0.9j):
            sol = solve_product_form(t, z)
            assert abs(sol.S - semicircle_transform(1.0, z)) < 1e-8

    def test_zero_profile(self):
        t = profile_from_steps([0.0], 16)
        sol = solve_product_form(t, 0.3 + 1.2j)
        assert sol.v == 0.0
        assert sol.S == -1.0 / (0.3 + 1.2j)

    def test_two_step_profile_matches_full_solver(self):
        t = profile_from_steps([0.7, 1.8], 64)
        b = density_from_profile(t)
        for z in (1j, -0.4 + 0.6j, 1.3 + 2.5j):
            scalar = solve_product_form(t, z)
            full = solve_profile(b, z)
            assert abs(scalar.S - full.S) <= 1e-7

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_profile_fails_fast(self):
        with pytest.raises(InvalidInput, match="non-finite"):
            ProfileFunction(np.array([1.0, np.nan]))
        # the scalar stage itself stops at the first non-finite residual, on either sums
        for sums, _ in (solver._run_sums(((1.0, 1), (np.nan, 1)), 2), solver._array_sums(np.array([1.0, np.nan]))):
            _, res, its, ok = solver._scalar_solve(sums, 2j, 0j, 1.0, 1e-10, 100)
            assert not ok and its == 1 and np.isnan(res)

    def test_max_iterations_bounds_the_whole_scalar_solve(self, monkeypatch):
        t, z = profile_from_steps([0.0, 0.0, 0.0, 4.0], 8), 2.1j  # mean square 4, so certified
        needed = solve_product_form(t, z).iterations
        assert needed > 3
        calls = []
        run_sums = solver._run_sums

        def counted(*args):
            sums, transform = run_sums(*args)
            return (lambda z, v: calls.append(None) or sums(z, v)), transform

        monkeypatch.setattr(solver, "_run_sums", counted)
        for k in (3, needed - 1):
            calls.clear()
            with pytest.raises(NoConvergence, match=f"contour point z = 0\\+2\\.1j: residual [^ ]+ after {k} iterations"):
                solve_product_form(t, z, SolverConfig(max_iterations=k))
            assert len(calls) == k
        sol = solve_product_form(t, z, SolverConfig(max_iterations=needed))
        assert sol.iterations == needed
        assert abs(sol.S - solve_profile(density_from_profile(t), z).S) < 1e-8

    def test_newton_point_below_the_axis_takes_the_damped_step(self):
        t = profile_from_steps([0.5, 1.5, 1.0], 16)
        z, damping = 1.6 + 0.01j, 0.5  # the point is uncertified: half damping
        v = solver._scalar_solve(run_sums(t), z, 0j, damping, 1e-10, 2)[0]  # two Newton steps
        q = t.values / (z + t.values * v)
        f = -q.mean()
        assert (v - (v - f) / (1.0 - (q * q).mean())).imag < 0  # the third Newton point
        step = solver._scalar_solve(run_sums(t), z, v, damping, 1e-10, 1)[0]
        assert abs(step - ((1.0 - damping) * v + damping * f)) <= 1e-15 * abs(v)
        sol = solve_product_form(t, z)
        assert sol.residual <= 1e-10 and sol.iterations == 5
        assert abs(sol.S - solve_curve(density_from_profile(t), [z]).S[0]) <= 1e-8

    def test_points_near_the_axis_converge_without_a_ladder(self, monkeypatch):
        heights = []
        stage = solver._scalar_solve
        monkeypatch.setattr(solver, "_scalar_solve", lambda t, z, *rest: heights.append(z.imag) or stage(t, z, *rest))
        t = profile_from_steps([0.5, 1.5, 1.0], 64)
        for x in np.linspace(-3.0, 3.0, 13):
            assert solve_product_form(t, x + 0.05j).residual <= 1e-10
        assert heights == [0.05] * 13

    def test_newton_steps_save_iterations(self):
        # 2,000 iterations with the damped step alone
        t = profile_from_steps([0.5, 1.5, 1.0], 64)
        sols = [solve_product_form(t, x + 0.05j) for x in np.linspace(-3.0, 3.0, 13)]
        assert sum(sol.iterations for sol in sols) <= 1_000

    def test_subnormal_profile_passes_its_postconditions(self):
        # Im v ~ 2.5e-324 rounds to 0, which the Herglotz check must accept
        sol = solve_product_form(ProfileFunction(np.array([5e-324])), 2j)
        assert sol.v == 0.0 and sol.S == -1.0 / 2j

    @pytest.mark.parametrize(
        "v, bound",
        [(-0.5j, "Im v >= 0"), (0j, "Im v > 0"), (2j, r"\|v\| <= mean\(t\)/Im z")],
        ids=["below-the-axis", "on-the-axis", "too-large"],
    )
    def test_postconditions_check_the_scalar_stage(self, monkeypatch, v, bound):
        monkeypatch.setattr(solver, "_scalar_solve", lambda *args: (v, 0.0, 1, True))
        with pytest.raises(LsdlabError, match=bound):
            solve_product_form(profile_from_steps([1.0], 8), 1j)

    def test_scalar_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            steps = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 9)))
            t = profile_from_steps(steps, 64)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 4.0))
            sol = solve_product_form(t, z)
            assert sol.v.imag >= 0
            assert abs(sol.v) <= (1 + 1e-9) * float(t.values.mean()) / z.imag
            # S is the mean of g = -1/(z + t v) at v, and z S + 1 + v^2 = v (v - f(v))
            assert abs(sol.S + np.mean(1.0 / (z + t.values * sol.v))) <= 1e-15 * abs(sol.S)
            assert abs(z * sol.S + 1.0 + sol.v**2) <= abs(sol.v) * 1e-10

    def test_transform_near_the_axis_does_not_divide_by_z(self):
        # S = -(1 + v^2)/z divided v's stopping error by |z| and was up to 7.9e-7 off here
        t = profile_from_steps([0.5, 1.5, 1.0], 128)
        zs = 1j * np.geomspace(2e-5, 3e-4, 8)
        reference = solve_curve(density_from_profile(t), zs, SolverConfig(tolerance=1e-14))
        gaps = [abs(solve_product_form(t, z).S - s) for z, s in zip(zs, reference.S)]
        assert max(gaps) <= 1e-9

    @pytest.mark.parametrize("n", [8, 128, 512])
    def test_run_sums_match_the_entry_sums(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        tol = solver.DEFAULT_CONFIG.tolerance
        for runs in range(1, solver._SCALAR_MAX_RUNS + 3):
            levels = rng.uniform(0.1, 2.0, size=runs)
            for mass in (1e-2, 1.0, 1e3):
                t = profile_from_steps(levels * np.sqrt(mass) / levels.mean(), n)
                for im in (1e-5, 1e-2, 1.0, 10.0):
                    z = complex(rng.uniform(-2.5, 2.5) * np.sqrt(mass), im)
                    monkeypatch.setattr(solver, "_SCALAR_MAX_RUNS", n)  # every profile summed by runs
                    by_runs = solve_product_form(t, z)
                    monkeypatch.setattr(solver, "_SCALAR_MAX_RUNS", 0)  # every profile summed by entries
                    by_entries = solve_product_form(t, z)
                    assert by_runs.iterations == by_entries.iterations, (runs, mass, z)
                    assert abs(by_runs.S - by_entries.S) <= tol, (runs, mass, z)

    def test_profiles_with_many_runs_take_the_numpy_sums(self, monkeypatch):
        taken = []
        for name in ("_run_sums", "_array_sums"):
            sums = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *args, name=name, sums=sums: taken.append(name) or sums(*args))
        for runs in (1, solver._SCALAR_MAX_RUNS, solver._SCALAR_MAX_RUNS + 1, 128):
            t = profile_from_steps(np.linspace(0.5, 1.5, runs), 128)
            assert len(t.runs) == runs
            solve_product_form(t, 0.3 + 0.05j)
        assert taken == ["_run_sums", "_run_sums", "_array_sums", "_array_sums"]


@pytest.mark.parametrize(
    "z",
    [complex(np.nan, 1.0), complex(0.0, np.nan), complex(np.inf, 1.0), complex(0.0, np.inf), 0.5 + 0j],
    ids=["nan-re", "nan-im", "inf-re", "inf-im", "real"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda z: semicircle_transform(1.0, z),
        lambda z: contraction_certificate(constant_density(1.0, 8), z),
        lambda z: continuity_bound(constant_density(1.0, 8), constant_density(2.0, 8), z),
        lambda z: solve_profile(constant_density(1.0, 8), z),
        lambda z: solve_curve(constant_density(1.0, 8), [1j, z]),
        lambda z: solve_product_form(profile_from_steps([1.0], 8), z),
        lambda z: empirical_stieltjes([0.0, 1.0], z),
        lambda z: empirical_curve([0.0, 1.0], [1j, z]),
        lambda z: StieltjesCurve([1j, z], [0.5j, 0.5j]),
    ],
    ids=[
        "semicircle_transform",
        "contraction_certificate",
        "continuity_bound",
        "solve_profile",
        "solve_curve",
        "solve_product_form",
        "empirical_stieltjes",
        "empirical_curve",
        "StieltjesCurve",
    ],
)
def test_entry_points_reject_points_off_the_upper_half_plane(call, z):
    with pytest.raises(InvalidInput, match="points z must"):
        call(z)


class TestFactor:
    @pytest.mark.parametrize(
        "make, rank",
        [
            (lambda rng: density_from_profile(profile_from_steps([0.7, 1.8, 1.1], 128)), 1),
            (lambda rng: density_from_filter(MA3, 128), 3),
            (lambda rng: density_from_filter(filter_of_order(rng, 1), 128), 5),
            (lambda rng: density_from_filter(filter_of_order(rng, 2), 128), 9),
            (lambda rng: density_from_filter(filter_of_order(rng, 3), 128), 13),
            (product_plus_faint_constant, 2),
        ],
        ids=["product", "ma3", "filter-m1", "filter-m2", "filter-m3", "faint-second-term"],
    )
    def test_rebuilds_low_rank_densities(self, make, rank):
        b = make(np.random.default_rng(47))
        u, w = solver._factor(b.values, b.n)
        assert u.shape == (b.n, rank) and w.shape == (rank, b.n)
        assert np.abs(b.n * (u @ w) - b.values).max() <= 1e-12 * b.values.max()

    def test_remainder_below_the_cutoff_still_meets_tolerance(self):
        # rank 1 to within 1e-12: Newton steps in the factor's r unknowns alone
        # would stall at the remainder's residual, just above the tolerance;
        # no two rows are equal, so the block factors all 5 of them
        v = np.full((5, 5), 1e-12) * (1.0 - 0.01 * np.arange(5))[:, None]
        v[0, 0] = 1.0
        b = DensityGrid(5, v)
        assert solver._factor(b.values, b.n)[0].shape == (5, 1)
        curve = solve_curve(b, [0.2j])
        assert curve.residuals[0] <= 1e-10
        assert abs(curve.S[0] - solve_profile(b, 0.2j).S) <= 10 * 1e-10

    def test_full_rank_grid_is_not_factored(self):
        b = full_rank_density(np.random.default_rng(53), 64, 1.0)
        assert solver._factor(b.values, b.n) is None

    def test_zero_density_has_rank_zero(self):
        u, w = solver._factor(np.zeros((8, 8)), 8)
        assert u.shape == (8, 0) and w.shape == (0, 8)
        assert np.array_equal(solve_curve(constant_density(0.0, 8), [0.4 + 0.8j]).S, [-1.0 / (0.4 + 0.8j)])


@pytest.mark.parametrize(
    "b, size",
    [
        (constant_density(1.0, 256), 1),
        (density_from_profile(profile_from_steps([0.7, 1.8, 1.1], 96)), 3),
        (density_from_filter(MA3, 32), 16),
        (DensityGrid(32, np.roll(density_from_filter(MA3, 32).values, 1, axis=(0, 1))), 32),
    ],
    ids=["constant", "steps", "ma3", "ma3-shifted"],
)
def test_curve_factors_the_lumped_matrix(monkeypatch, b, size):
    seen, factor = [], solver._factor
    monkeypatch.setattr(solver, "_factor", lambda bvals, n: seen.append((bvals, n)) or factor(bvals, n))
    solve_curve(b, [0.3 + 0.05j, 2j])
    ((bvals, n),) = seen
    assert bvals.shape == (size, size) and n == b.n
    if size == b.n:  # no two rows equal and no fold: the lumped matrix is b itself, and so is its factor
        assert np.array_equal(bvals, b.values)
    elif size == b.n // 2:  # no two rows equal, folded: class i is the mirror pair {i, N-1-i}
        assert np.array_equal(bvals, b.values[:size, :size] + b.values[:size, : size - 1 : -1])


def block_density(levels, lengths):
    """Block variance profile: entry (i, j) of the k x k levels repeated over runs of the given lengths."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    return DensityGrid(len(rows), np.asarray(levels)[np.ix_(rows, rows)])


class TestRuns:
    """Rows equal to the row above share g and pi, so the block takes one unknown per run."""

    def test_block_iterates_one_row_per_run(self, monkeypatch):
        b = density_from_profile(profile_from_steps([0.5, 1.0, 2.0], 96))  # 3 runs of 32 rows
        shapes, matmul = [], np.matmul

        def recorder(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return matmul(a, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recorder)
        curve = solve_curve(b, [0.3 + 0.05j, -1.0 + 1j])
        profile = solve_profile(b, 0.3 + 0.05j)
        monkeypatch.undo()
        assert shapes and set(shapes) == {(3, 3)}
        assert profile.g.shape == profile.pi.shape == (96,)
        assert np.array_equal(profile.g, np.repeat(profile.g[[0, 32, 64]], 32))
        assert abs(profile.S - curve.S[0]) <= 10 * 1e-10

    def test_lumping_is_exact(self):
        # asymmetric levels, so the K x K matrix sums columns of unequal entries
        levels = np.random.default_rng(71).uniform(0.2, 2.0, size=(4, 4))
        lengths = (5, 1, 9, 3)
        b = block_density(levels, lengths)
        # a symmetric permutation that alternates the 9-row run with the others:
        # no two neighbouring rows are equal, so its block has all N = 18 rows
        members = [list(np.flatnonzero(np.repeat(np.arange(4), lengths) == k)) for k in range(4)]
        others = members[0] + members[1] + members[3]
        perm = np.ravel(np.column_stack([members[2], others]))
        shuffled = DensityGrid(b.n, b.values[np.ix_(perm, perm)])
        assert not (shuffled.values[1:] == shuffled.values[:-1]).all(axis=1).any()
        zs = 0.3 + 1j * np.array([1e-3, 0.05, 1.0, 3.0])
        lumped, full = solve_curve(b, zs), solve_curve(shuffled, zs)
        assert np.array_equal(lumped.iterations, full.iterations)
        assert np.abs(lumped.S - full.S).max() <= 1e-12
        for z in zs:
            one, other = solve_profile(b, z), solve_profile(shuffled, z)
            assert one.iterations == other.iterations
            assert abs(one.S - other.S) <= 1e-12
            assert np.abs(one.g[perm] - other.g).max() <= 1e-12 * np.abs(other.g).max()


def ar_density(a, n, reach=24):
    """The 2-D AR density 1/|1 - a e(x) - a e(y)|^2 through its moving average, cut at total lag reach."""
    c = np.zeros((2 * reach + 1, 2 * reach + 1))
    for u, v in itertools.product(range(reach + 1), repeat=2):
        if u + v <= reach:
            c[reach + u, reach + v] = a ** (u + v) * math.comb(u + v, u)
    return density_from_filter(FilterCoefficients(reach, c), n)


def fold_cases(tmp_path):
    """Named reversal-symmetric grids from every density function, and one read back from density.csv."""
    rng = np.random.default_rng(97)
    path = tmp_path / "density.csv"
    write_density_csv(path, density_from_filter(SKEW, 24))
    return [
        ("ma3-32", density_from_filter(MA3, 32)),
        ("ma3-33", density_from_filter(MA3, 33)),
        ("filter-16", density_from_filter(filter_of_order(rng, 2), 16)),
        ("filter-33", density_from_filter(filter_of_order(rng, 3), 33)),
        ("bilinear-16", density_from_covariance(covariance_from_volterra(BILINEAR), 16)),
        ("bilinear-31", density_from_covariance(covariance_from_volterra(BILINEAR), 31)),
        ("symmetrized-16", symmetrize_density(density_from_filter(SKEW, 16))),
        ("symmetrized-31", symmetrize_density(density_from_filter(SKEW, 31))),
        ("ar-32", ar_density(0.45, 32)),
        ("ar-64", ar_density(0.45, 64)),
        ("density.csv", read_density_csv(path)),
    ]


def unfolded(b, rng):
    """P b P^T for a seeded permutation P under which no two neighbouring rows are equal and nothing folds."""
    for _ in range(100):
        perm = rng.permutation(b.n)
        v = b.values[np.ix_(perm, perm)]
        if (v[1:] != v[:-1]).any(axis=1).all() and not np.array_equal(v, v[::-1, ::-1]):
            return DensityGrid(b.n, v), perm
    raise AssertionError("no permutation found")


class TestFold:
    """A grid equal to its reversal is solved in one unknown per mirror pair of runs."""

    def test_folded_and_unfolded_solves_agree(self, tmp_path):
        tol = solver.DEFAULT_CONFIG.tolerance
        rng = np.random.default_rng(2025)
        differ, changed_rule = [], []
        for name, b in fold_cases(tmp_path):
            labels, sizes, lumped = _row_classes(b.values)
            assert np.array_equal(b.values, b.values[::-1, ::-1]), name
            # every class is closed under i -> N-1-i, so the grid folds to at most ceil(N/2) rows
            assert np.array_equal(labels, labels[::-1]) and len(sizes) <= (b.n + 1) // 2, name
            shuffled, perm = unfolded(b, rng)
            assert len(_row_classes(shuffled.values)[1]) == b.n, name
            scale = np.sqrt(b.mass + 1.0)
            zs = (np.linspace(-3.0, 3.0, 7)[:, None] * scale + 1j * np.array([1e-3, 0.05, 1.0])).ravel()
            folded, full = solve_curve(b, zs), solve_curve(shuffled, zs)
            assert np.abs(folded.S - full.S).max() <= tol, name
            if (solver._factor(lumped, b.n) is None) != (solver._factor(shuffled.values, b.n) is None):
                changed_rule.append(name)
            if not np.array_equal(folded.iterations, full.iterations):
                differ.append((name, int(folded.iterations.sum()), int(full.iterations.sum())))
            for z in zs[::5]:
                one, other = solve_profile(b, z), solve_profile(shuffled, z)
                assert one.iterations == other.iterations, (name, z)
                assert abs(one.S - other.S) <= 1e-12, (name, z)
                assert np.abs(one.g[perm] - other.g).max() <= 1e-12 * np.abs(other.g).max(), (name, z)
        # iterations differ only where the fold halves the rank below _NEWTON_MAX_RANK, so the
        # folded grid takes Newton steps and the unfolded one the plain map; there the fold saves
        assert [d[0] for d in differ] == changed_rule == ["ar-64"], differ
        assert all(one < other for _, one, other in differ), differ

    def test_odd_grid_expands_its_middle_row(self):
        b = density_from_filter(MA3, 33)
        labels, sizes, _ = _row_classes(b.values)
        assert sizes[labels[16]] == 1 and (np.delete(sizes, labels[16]) == 2).all()
        profile = solve_profile(b, 0.2 + 0.1j)
        assert profile.g.shape == (33,)
        assert np.array_equal(profile.g, profile.g[::-1]) and np.array_equal(profile.pi, profile.pi[::-1])
        np.testing.assert_allclose(profile.pi, b.values @ profile.g / b.n, rtol=0, atol=1e-12)

    def test_one_ulp_off_solves_unfolded(self):
        v = density_from_filter(MA3, 16).values.copy()
        v[2, 9] = np.nextafter(v[2, 9], np.inf)
        b = DensityGrid(16, v)
        seen, factor = [], solver._factor
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_factor", lambda bvals, n: seen.append(bvals.shape) or factor(bvals, n))
            curve = solve_curve(b, [0.3 + 0.05j, 2j])
        assert seen == [(16, 16)]
        exact = solve_curve(density_from_filter(MA3, 16), [0.3 + 0.05j, 2j])
        assert np.abs(curve.S - exact.S).max() <= 1e-12

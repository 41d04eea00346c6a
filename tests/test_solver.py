import numpy as np
import pytest

from lsdlab import (
    DensityGrid,
    InvalidInput,
    NoConvergence,
    SolverConfig,
    StieltjesCurve,
    contraction_certificate,
    continuity_bound,
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
    truncate_filter,
)
from lsdlab import solver
from lsdlab.spectral import FilterCoefficients, ProfileFunction

from test_spectral import random_filter


def constant_density(sigma2, n=64):
    return DensityGrid(n, np.full((n, n), float(sigma2)))


class TestSemicircleTransform:
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

    def test_uniqueness_from_randomized_start(self):
        rng = np.random.default_rng(13)
        b = density_from_filter(random_filter(rng), 48)
        z = complex(0.5, 1.5 * np.sqrt(b.mass) + 0.5)
        cold = solve_profile(b, z)
        noisy = rng.uniform(0, 0.3, b.n) * np.exp(1j * rng.uniform(0, np.pi, b.n))
        warm = solve_profile(b, z, initial_pi=noisy)
        assert abs(cold.S - warm.S) <= 10 * 1e-10

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

    def test_rejects_negative_imaginary_start(self):
        b = constant_density(1.0, 8)
        with pytest.raises(InvalidInput):
            solve_profile(b, 1j, initial_pi=np.full(8, -0.1j))

    def test_no_convergence_reports_stage(self):
        cfg = SolverConfig(tolerance=1e-14, max_iterations=2)
        with pytest.raises(NoConvergence) as info:
            solve_profile(constant_density(1.0), 0.05j, cfg)
        assert info.value.stage is not None
        assert info.value.residual is not None

    def test_stalled_warm_start_restarts_through_ladder(self):
        # near the spectral edge a direct stage from a poor start stalls
        b = constant_density(4.0, 16)
        z = 4.02 + 0.005j
        cfg = SolverConfig(max_iterations=10)
        cold = solve_profile(b, z, cfg)
        warm = solve_profile(b, z, cfg, initial_pi=np.full(16, 50j))
        assert warm.stages == cold.stages > 1
        assert warm.S == cold.S
        assert warm.iterations == cold.iterations + cfg.max_iterations

    def test_continuation_engages_below_sqrt_mass(self):
        prof = solve_profile(constant_density(4.0), 0.1j)
        assert prof.stages > 1
        assert prof.residual <= 1e-10


class TestContraction:
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


def test_residual_history_is_monotone_under_contraction():
    n = 16
    cfg = SolverConfig(tolerance=1e-12, max_iterations=200)
    hist = solve_profile(DensityGrid(n, np.ones((n, n))), 3j, cfg).residual_history
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


class TestSolveCurve:
    def test_singleton_matches_profile(self):
        b = constant_density(1.0)
        curve = solve_curve(b, [1j])
        prof = solve_profile(b, 1j)
        assert abs(curve.S[0] - prof.S) < 1e-12

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

    def test_loose_inner_stages_save_iterations(self, monkeypatch):
        b = constant_density(4.0, 48)
        contour = np.linspace(-3.0, 3.0, 13) + 0.1j  # below sqrt(mass) = 2: ladders
        loose = solve_curve(b, contour)
        monkeypatch.setattr(solver, "_INNER_TOLERANCE", 0.0)  # every stage to full tolerance
        full = solve_curve(b, contour)
        assert loose.iterations.sum() < full.iterations.sum()
        assert np.abs(loose.S - full.S).max() <= 10 * 1e-10

    def test_readme_contour_column_iterations(self):
        # Anderson mixing in the uncertified stages; 14,914 without it
        a = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        curve = solve_curve(density_from_filter(a, 128), np.linspace(-9.0, 9.0, 121) + 0.05j)
        assert curve.iterations.sum() <= 7_500

    def test_no_convergence_names_the_contour_point(self):
        cfg = SolverConfig(tolerance=1e-14, max_iterations=2)
        with pytest.raises(NoConvergence, match=r"contour point z = -0\.5\+0\.05j: stage 0 at Im z"):
            solve_curve(constant_density(1.0, 16), [0.5 + 0.05j, -0.5 + 0.05j], cfg)

    def test_points_come_back_sorted(self):
        b = constant_density(1.0)
        curve = solve_curve(b, [0.5 + 1j, -0.5 + 1j, 0.0 + 2j])
        assert curve.z[0] == 0.0 + 2j
        assert curve.z[1] == -0.5 + 1j

    def test_rejects_bad_contour(self):
        b = constant_density(1.0)
        with pytest.raises(InvalidInput):
            solve_curve(b, [])
        with pytest.raises(InvalidInput):
            solve_curve(b, [1j, 1.0 + 0j])


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
        # the scalar stage itself stops at the first non-finite residual
        _, res, its, ok = solver._scalar_stage(np.array([1.0, np.nan]), 2j, 0j, 1.0, 1e-10, 100)
        assert not ok and its == 1 and np.isnan(res)

    def test_stalled_certified_stage_retries_through_ladder(self):
        # Im z > sqrt(m2) plans one direct stage, which stalls within 4 iterations
        t = profile_from_steps([1.0], 8)
        assert not solver._scalar_stage(t.values, 1.05j, 0j, 1.0, 1e-10, 4)[3]
        sol = solve_product_form(t, 1.05j, SolverConfig(max_iterations=4))
        assert abs(sol.S - semicircle_transform(1.0, 1.05j)) < 1e-8
        # the 4-stage ladder's iterations; the stalled attempt's 4 are not counted
        assert sol.iterations == 13

    def test_newton_steps_save_iterations(self):
        # 2,000 iterations with the damped step alone
        t = profile_from_steps([0.5, 1.5, 1.0], 64)
        sols = [solve_product_form(t, x + 0.05j) for x in np.linspace(-3.0, 3.0, 13)]
        assert sum(sol.iterations for sol in sols) <= 1_000

    def test_scalar_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            steps = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 9)))
            t = profile_from_steps(steps, 64)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 4.0))
            sol = solve_product_form(t, z)
            assert sol.v.imag >= 0
            assert abs(sol.v) <= (1 + 1e-9) * float(t.values.mean()) / z.imag
            # the transform identity S = -(1 + v^2)/z holds exactly
            assert sol.S == -(1.0 + sol.v**2) / z


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

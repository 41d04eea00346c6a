import numpy as np
import pytest

from lsdlab import (
    EnsembleConfig,
    FilterCoefficients,
    InvalidInput,
    VolterraCoefficients,
    assemble_matrix,
    covariance_from_filter,
    default_contour,
    ensemble_esd,
    generate_linear_patch,
    generate_volterra_patch,
    kolmogorov_distance,
    replicate_seed,
    semicircle_transform,
    spectrum,
    invert_to_distribution,
    StieltjesCurve,
)
from lsdlab.simulate import SEED_STRIDE, covariance_exchange_symmetric, field_variance

DELTA = FilterCoefficients.from_entries({(0, 0): 1.0})
TWO_TAP = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0})


class TestLinearPatch:
    def test_delta_filter_returns_raw_innovations(self):
        patch = generate_linear_patch(DELTA, 16, seed=42)
        rng = np.random.Generator(np.random.PCG64(42))
        assert np.array_equal(patch, rng.standard_normal((16, 16)))

    def test_same_seed_same_patch(self):
        a = generate_linear_patch(TWO_TAP, 32, seed=7, innovation="uniform")
        b = generate_linear_patch(TWO_TAP, 32, seed=7, innovation="uniform")
        assert np.array_equal(a, b)

    def test_lag_covariance_matches_model(self):
        patch = generate_linear_patch(TWO_TAP, 512, seed=99)
        x = patch - patch.mean()
        lag10 = np.mean(x[1:, :] * x[:-1, :])
        # gamma[1,0] = 1; standard error of the mean estimate over 512^2 cells
        se = np.std(x[1:, :] * x[:-1, :]) / np.sqrt(x[1:, :].size)
        assert abs(lag10 - 1.0) <= 3 * se + 0.01

    def test_variance_matches_model(self):
        patch = generate_linear_patch(TWO_TAP, 512, seed=11)
        se = np.std(patch**2) / np.sqrt(patch.size)
        assert abs(patch.var() - 2.0) <= 3 * se + 0.01

    def test_innovation_kinds_are_centered_unit_variance(self):
        for kind in ("gaussian", "rademacher", "uniform"):
            patch = generate_linear_patch(DELTA, 512, seed=5, innovation=kind)
            assert abs(patch.mean()) < 3.0 / 512 + 0.01
            assert abs(patch.var() - 1.0) < 0.02


class TestVolterraPatch:
    def test_empty_model_gives_zero_patch(self):
        patch = generate_volterra_patch(VolterraCoefficients({}), 8, seed=1)
        assert np.array_equal(patch, np.zeros((8, 8)))

    def test_single_entry_is_shifted_product(self):
        bv = VolterraCoefficients({((0, 0), (1, 0)): 1.0})
        n = 16
        patch = generate_volterra_patch(bv, n, seed=3)
        rng = np.random.Generator(np.random.PCG64(3))
        innov = rng.standard_normal((n + 2, n + 2))
        expected = innov[1 : n + 1, 1 : n + 1] * innov[0:n, 1 : n + 1]
        assert np.allclose(patch, expected, atol=1e-15)

    def test_moments_match_covariance_formula(self):
        bv = VolterraCoefficients({((0, 0), (1, 0)): 1.0})
        patch = generate_volterra_patch(bv, 512, seed=21)
        n2 = patch.size
        assert abs(patch.mean()) <= 3.0 / np.sqrt(n2) + 0.01
        se = np.std(patch**2) / np.sqrt(n2)
        assert abs(patch.var() - 1.0) <= 3 * se + 0.01


class TestAssemble:
    def test_mirrored_two_by_two(self):
        patch = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = assemble_matrix(patch, "wigner")
        expected = np.array([[1.0, 3.0], [3.0, 4.0]]) / np.sqrt(2.0)
        assert np.allclose(m, expected)

    def test_additive_two_by_two(self):
        patch = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = assemble_matrix(patch, "additive")
        expected = np.array([[2.0, 5.0], [5.0, 8.0]]) / np.sqrt(2.0)
        assert np.allclose(m, expected)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        patch = rng.normal(size=(33, 33))
        for kind in ("wigner", "additive"):
            m = assemble_matrix(patch, kind)
            assert np.abs(m - m.T).max() == 0.0

    def test_rejects_unknown_symmetrization(self):
        with pytest.raises(InvalidInput):
            assemble_matrix(np.eye(3), "hermitian")


class TestSpectrum:
    def test_zero_matrix(self):
        assert np.array_equal(spectrum(np.zeros((3, 3))).eigenvalues, np.zeros(3))

    def test_diagonal_matrix(self):
        assert np.allclose(spectrum(np.diag([1.0, 2.0, 3.0])).eigenvalues, [1, 2, 3])

    def test_swap_matrix(self):
        eigs = spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues
        assert np.allclose(eigs, [-1.0, 1.0])

    def test_backward_error_of_eigenpairs(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(50, 50))
        m = (a + a.T) / 2
        w, v = np.linalg.eigh(m)
        assert np.allclose(spectrum(m).eigenvalues, w)
        norm = np.linalg.norm(m, 2)
        for k in (0, 25, 49):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-8 * norm

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        patch = rng.normal(size=(64, 64))
        m = assemble_matrix(patch, "wigner")
        eigs = spectrum(m).eigenvalues
        assert abs(eigs.sum() - np.trace(m)) <= 1e-8 * 64 * np.abs(m).max()

    def test_second_moment_identity(self):
        rng = np.random.default_rng(9)
        patch = rng.normal(size=(64, 64))
        m = assemble_matrix(patch, "additive")
        eigs = spectrum(m).eigenvalues
        assert np.mean(eigs**2) == pytest.approx(np.trace(m @ m) / 64, rel=1e-8)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(InvalidInput):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSeedSplitting:
    def test_rule_is_xor_of_stride_multiples(self):
        seed = 123456789
        assert replicate_seed(seed, 0) == seed
        assert replicate_seed(seed, 3) == seed ^ ((3 * SEED_STRIDE) & ((1 << 64) - 1))

    def test_replicate_seeds_distinct(self):
        seeds = {replicate_seed(42, r) for r in range(100)}
        assert len(seeds) == 100


class TestEnsemble:
    def test_two_by_two_end_to_end_determinism(self):
        cfg = EnsembleConfig(n=2, replicates=1, seed=2024, model=DELTA)
        result = ensemble_esd(cfg, contour=np.array([1j]))
        patch = generate_linear_patch(DELTA, 2, seed=replicate_seed(2024, 0))
        expected = spectrum(assemble_matrix(patch, "wigner")).eigenvalues
        assert np.array_equal(result.eigenvalues, np.sort(expected))

    def test_iid_ensemble_close_to_semicircle(self):
        cfg = EnsembleConfig(n=1000, replicates=5, seed=314159, model=DELTA)
        contour = default_contour(1.0)
        result = ensemble_esd(cfg, contour=contour)
        eps = float(contour[0].imag)
        xs = np.linspace(contour.real.min() + 5 * eps, contour.real.max() - 5 * eps, 801)
        sc = StieltjesCurve(contour, [semicircle_transform(1.0, z) for z in contour])
        dist = kolmogorov_distance(
            invert_to_distribution(result.curve, xs), invert_to_distribution(sc, xs)
        )
        assert dist <= 0.05

    def test_threads_do_not_change_results(self):
        cfg = EnsembleConfig(n=64, replicates=4, seed=5150, model=TWO_TAP)
        contour = np.array([1j, 2j])
        serial = ensemble_esd(cfg, contour=contour, threads=1)
        pooled = ensemble_esd(cfg, contour=contour, threads=4)
        assert np.array_equal(serial.eigenvalues, pooled.eigenvalues)

    def test_outside_hypotheses_tagging(self):
        asym = TWO_TAP  # gamma[1,0] = 1 but gamma[0,1] = 0
        sym = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        assert not covariance_exchange_symmetric(asym)
        assert covariance_exchange_symmetric(sym)
        contour = np.array([1j])
        mirrored = ensemble_esd(
            EnsembleConfig(n=16, replicates=1, seed=1, model=asym), contour=contour
        )
        assert mirrored.outside_hypotheses
        additive = ensemble_esd(
            EnsembleConfig(n=16, replicates=1, seed=1, model=asym, symmetrization="additive"),
            contour=contour,
        )
        assert not additive.outside_hypotheses

    def test_field_variance(self):
        assert field_variance(TWO_TAP) == pytest.approx(2.0)
        assert field_variance(VolterraCoefficients({((0, 0), (1, 0)): 1.0})) == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            EnsembleConfig(n=1, replicates=1, seed=0, model=DELTA)
        with pytest.raises(InvalidInput):
            EnsembleConfig(n=4, replicates=0, seed=0, model=DELTA)
        with pytest.raises(InvalidInput):
            EnsembleConfig(n=4, replicates=1, seed=0, model=DELTA, symmetrization="other")
        with pytest.raises(InvalidInput):
            EnsembleConfig(
                n=4,
                replicates=1,
                seed=0,
                model=VolterraCoefficients({((0, 0), (1, 0)): 1.0}),
                innovation="rademacher",
            )

    def test_doubling_n_does_not_worsen_solver_agreement(self):
        from lsdlab import density_from_filter, invert_to_distribution, solve_curve

        sym = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        b = density_from_filter(sym, 96)
        contour = default_contour(b.mass)
        eps = float(contour[0].imag)
        xs = np.linspace(contour.real.min() + 5 * eps, contour.real.max() - 5 * eps, 801)
        pred = invert_to_distribution(solve_curve(b, contour), xs)
        for seed in (101, 202, 303):
            dist = {}
            for n in (500, 1000):
                cfg = EnsembleConfig(n=n, replicates=3, seed=seed, model=sym)
                emp = invert_to_distribution(ensemble_esd(cfg, contour=contour).curve, xs)
                dist[n] = kolmogorov_distance(pred, emp)
            assert dist[1000] <= 1.2 * dist[500]

    def test_records_carry_seed_and_range(self):
        cfg = EnsembleConfig(n=32, replicates=3, seed=777, model=DELTA)
        result = ensemble_esd(cfg, contour=np.array([1j]))
        assert len(result.records) == 3
        for r, rec in enumerate(result.records):
            assert rec["seed"] == replicate_seed(777, r)
            assert rec["lambda_min"] <= rec["lambda_max"]
            assert rec["n"] == 32

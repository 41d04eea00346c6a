import tracemalloc

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
from lsdlab.simulate import (
    SEED_STRIDE,
    _ROW_BLOCK,
    _innovations,
    _patch,
    _one_replicate,
    covariance_exchange_symmetric,
    field_variance,
)

DELTA = FilterCoefficients.from_entries({(0, 0): 1.0})
TWO_TAP = FilterCoefficients.from_entries({(0, 0): 1.0, (1, 0): 1.0})
# m = 2 with zero taps inside the support
SPARSE_M2 = FilterCoefficients.from_entries({(0, 0): 1.0, (-2, 1): 0.5, (1, -2): -0.25, (2, 2): 0.125})
THREE_ENTRY = VolterraCoefficients(
    {((0, 0), (1, 0)): 1.0, ((1, 1), (0, -1)): -0.7, ((-1, 0), (0, 2)): 0.2}
)
# sizes below, at and across row-block edges
SIZES = (1, 2, 127, 128, 129, 300)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_linear_patch(a, n, seed, innovation):
    rng = np.random.Generator(np.random.PCG64(seed))
    innov = _innovations(rng, (n + 2 * a.m, n + 2 * a.m), innovation)
    out = np.zeros((n, n))
    for (p, q), c in np.ndenumerate(a.coeffs):
        if c != 0.0:
            out += c * innov[p : p + n, q : q + n]
    return out


def reference_volterra_patch(bv, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    pad = bv.support_radius
    innov = rng.standard_normal((n + 2 * pad, n + 2 * pad))
    out = np.zeros((n, n))
    for ((u1, u2), (v1, v2)), c in bv.entries.items():
        x = innov[pad - u1 : pad - u1 + n, pad - u2 : pad - u2 + n]
        y = innov[pad - v1 : pad - v1 + n, pad - v2 : pad - v2 + n]
        out += c * x * y
    return out


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

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("innovation", ["gaussian", "rademacher", "uniform"])
    def test_bits_equal_whole_patch_accumulation(self, n, innovation):
        patch = generate_linear_patch(SPARSE_M2, n, seed=31, innovation=innovation)
        assert same_bits(patch, reference_linear_patch(SPARSE_M2, n, 31, innovation))

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

    @pytest.mark.parametrize("n", SIZES)
    def test_bits_equal_whole_patch_accumulation(self, n):
        patch = generate_volterra_patch(THREE_ENTRY, n, seed=47)
        assert same_bits(patch, reference_volterra_patch(THREE_ENTRY, n, 47))

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

    @pytest.mark.parametrize("n", SIZES)
    def test_bits_equal_whole_matrix_formulas(self, n):
        rng = np.random.default_rng(n)
        patch = rng.normal(size=(n, n))
        patch[rng.random((n, n)) < 0.2] = -0.0  # signed zeros must match too
        before = patch.copy()
        root = np.sqrt(n)
        wigner = (np.tril(patch) + np.tril(patch, -1).T) / root
        assert same_bits(assemble_matrix(patch, "wigner"), wigner)
        assert same_bits(assemble_matrix(patch, "additive"), (patch + patch.T) / root)
        assert same_bits(patch, before)

    def test_rejects_unknown_symmetrization(self):
        with pytest.raises(InvalidInput):
            assemble_matrix(np.eye(3), "hermitian")


class TestSpectrum:
    def test_zero_matrix(self):
        assert np.array_equal(spectrum(np.zeros((3, 3))).eigenvalues, np.zeros(3))

    def test_diagonal_matrix(self):
        assert np.allclose(spectrum(np.diag([1.0, 2.0, 3.0])).eigenvalues, [1, 2, 3])

    def test_order_is_the_eigenvalue_count(self):
        spec = spectrum(np.diag([3.0, 1.0, 2.0, 0.5]))
        assert spec.n == 4 and spec.eigenvalues.tolist() == [0.5, 1.0, 2.0, 3.0]

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

    # the guard is relative to max |m|, however small
    @pytest.mark.parametrize("m", [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 1e-13], [0.0, 0.0]], [[0.0, 0.0], [1e-13, 0.0]]])
    def test_rejects_asymmetric_input(self, m):
        with pytest.raises(InvalidInput):
            spectrum(np.array(m))

    # a size that is no multiple of _ROW_BLOCK, with the asymmetry in its last row:
    # (n - 1, n - 2) next to the diagonal, (n - 1, 0) in the far corner
    @pytest.mark.parametrize("cell", [(-1, -2), (-1, 0)])
    def test_rejects_asymmetry_in_the_last_row_block(self, cell):
        n = 2 * _ROW_BLOCK + 5
        m = assemble_matrix(np.random.default_rng(3).normal(size=(n, n)), "wigner")
        spectrum(m)
        i, j = (k % n for k in cell)
        m[i, j] += 1e-9 * np.abs(m).max()
        with pytest.raises(InvalidInput, match="symmetric"):
            spectrum(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(InvalidInput, match="finite"):
            spectrum(m)

    def test_rejects_empty_input(self):
        with pytest.raises(InvalidInput, match="nonempty"):
            spectrum(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EnsembleConfig(n=4, replicates=1, seed=0, model=DELTA, innovation="cauchy"), "innovation must be"),
        (lambda: EnsembleConfig(n=4, replicates=1, seed=0, model="0 0 1.0"), "model must be"),
        (lambda: _innovations(np.random.default_rng(0), (2, 2), "cauchy"), "unknown innovation kind"),
        (lambda: _patch([], 0, 0, 1, "gaussian"), "patch size must be >= 1"),
        (lambda: assemble_matrix(np.ones((2, 3)), "wigner"), "patch must be square"),
    ],
    ids=["config-innovation", "config-model", "innovations", "patch-size", "assemble-non-square"],
)
def test_rejects_out_of_range_input(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


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

    def test_bilinear_exchange_symmetry(self):
        # lag (1, 0) pairs the chain's two entries, so gamma[1,0] = 1 while gamma[0,1] = 0
        chain = VolterraCoefficients({((0, 0), (1, 0)): 1.0, ((1, 0), (2, 0)): 1.0})
        assert not covariance_exchange_symmetric(chain)
        assert covariance_exchange_symmetric(VolterraCoefficients({((0, 0), (1, 0)): 1.0}))
        cfg = EnsembleConfig(n=16, replicates=1, seed=1, model=chain)
        assert ensemble_esd(cfg, contour=np.array([1j])).outside_hypotheses

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

    @pytest.mark.parametrize("symmetrization", ["wigner", "additive"])
    def test_replicate_peak_memory_is_about_two_matrices(self, symmetrization):
        n = 400
        cfg = EnsembleConfig(n=n, replicates=1, seed=8, model=TWO_TAP, symmetrization=symmetrization)
        _one_replicate(cfg, 0)  # first-call set-up outside the traced run
        tracemalloc.start()
        try:
            _one_replicate(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most two n x n arrays live at any stage, plus one scratch block;
        # LAPACK's working copy is not seen by tracemalloc
        assert peak <= 2.5 * 8 * n * n

    def test_records_carry_seed_and_range(self):
        cfg = EnsembleConfig(n=32, replicates=3, seed=777, model=DELTA)
        result = ensemble_esd(cfg, contour=np.array([1j]))
        assert len(result.records) == 3
        for r, rec in enumerate(result.records):
            assert rec["seed"] == replicate_seed(777, r)
            assert rec["lambda_min"] <= rec["lambda_max"]
            assert rec["n"] == 32

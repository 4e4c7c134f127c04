import math
import tracemalloc

import numpy as np
import pytest

from cohrank import (
    CorrelatedState,
    DimensionCapError,
    NotMaximallyCorrelatedError,
    fourier_flag_dual,
    fourier_flag_mixture,
    fourier_flag_state,
    l1_coherence,
    max_coherent,
    mc_lift,
    mc_lift_vector,
    mc_unlift,
    noisy_max_coherent,
    omega_power_certificate,
    pair_state,
    pure_coherence_rank,
    validate_density_matrix,
    validate_pure_state,
    tensor_power,
)
from helpers import random_density


class TestMaxCoherent:
    def test_single_level(self):
        np.testing.assert_array_equal(max_coherent(1), [1.0 + 0j])

    def test_two_levels(self):
        np.testing.assert_allclose(max_coherent(2), np.full(2, 1 / math.sqrt(2)))

    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    def test_rank_equals_dimension(self, m):
        assert pure_coherence_rank(max_coherent(m)) == m

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            max_coherent(0)


class TestNoisyMaxCoherent:
    def test_incoherent_endpoint(self):
        np.testing.assert_array_equal(noisy_max_coherent(0.0), np.eye(2) / 2)

    def test_pure_endpoint(self):
        phi = max_coherent(2)
        np.testing.assert_allclose(
            noisy_max_coherent(1.0), np.outer(phi, phi.conj()), atol=1e-15
        )

    def test_off_diagonal_entry(self):
        assert noisy_max_coherent(0.3)[0, 1] == pytest.approx(0.15)

    @pytest.mark.parametrize("alpha", [-0.1, 1.01])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            noisy_max_coherent(alpha)

    def test_is_valid_density(self):
        for alpha in (0.0, 0.5, 1.0):
            validate_density_matrix(noisy_max_coherent(alpha))


class TestNoisyPowerRow:
    """The n-fold power by Hamming distance, <i|rho|j> = alpha**popcount(i ^ j) / 2**n:
    the n + 1 entries omega_power_certificate reads the power from."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("alpha", [0.0, 0.13, 2 ** 0.5 - 1, 1.0])
    def test_is_the_first_row_of_the_dense_power(self, alpha, n):
        dense = tensor_power(noisy_max_coherent(alpha), n)
        row = alpha ** np.arange(n + 1) / 2**n
        labels = np.arange(2**n)
        np.testing.assert_allclose(row[np.bitwise_count(labels)], dense[0].real, rtol=1e-14, atol=0)
        distance = np.bitwise_count(labels[:, None] ^ labels)
        np.testing.assert_allclose(row[distance], dense, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("alpha,n", [(-0.1, 2), (1.5, 2), (0.2, 0)])
    def test_rejects_bad_parameters(self, alpha, n):
        with pytest.raises(ValueError):
            omega_power_certificate(alpha, n)


class TestFourierFlagFamily:
    def test_flag_amplitude(self):
        for d in (2, 5):
            for k in range(d):
                psi = fourier_flag_state(d, k)
                assert psi[k] == pytest.approx(1 / math.sqrt(d + 1))

    @pytest.mark.parametrize("d", list(range(1, 33)))
    def test_flags_are_orthonormal(self, d):
        stack = np.array([fourier_flag_state(d, k) for k in range(d)])
        gram = stack @ stack.conj().T
        assert np.abs(gram - np.eye(d)).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 4, 9])
    def test_flag_rank(self, d):
        for k in range(d):
            assert pure_coherence_rank(fourier_flag_state(d, k)) == d + 1

    def test_duals_are_orthonormal(self):
        for d in (2, 5, 12):
            stack = np.array([fourier_flag_dual(d, j) for j in range(d)])
            gram = stack @ stack.conj().T
            assert np.abs(gram - np.eye(d)).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_dual_rank(self, d):
        for j in range(d):
            assert pure_coherence_rank(fourier_flag_dual(d, j)) == d + 1

    def test_dual_upper_amplitude(self):
        for d in (2, 6):
            for j in range(d):
                psi = fourier_flag_dual(d, j)
                assert psi[d + j] == pytest.approx(math.sqrt(d / (d + 1)))

    def test_dual_is_inverse_fourier_combination(self):
        d = 5
        for j in range(d):
            combo = sum(
                np.exp(2j * np.pi * j * k / d) / math.sqrt(d) * fourier_flag_state(d, k)
                for k in range(d)
            )
            np.testing.assert_allclose(combo, fourier_flag_dual(d, j), atol=1e-13)

    def test_index_range_errors(self):
        with pytest.raises(ValueError):
            fourier_flag_state(3, 3)
        with pytest.raises(ValueError):
            fourier_flag_dual(3, -1)

    def test_both_families_generate_the_same_mixture(self):
        for d in (1, 2, 4, 8):
            mix = fourier_flag_mixture(d)
            from_duals = sum(
                np.outer(fourier_flag_dual(d, j), fourier_flag_dual(d, j).conj())
                for j in range(d)
            ) / d
            assert np.abs(mix - from_duals).max() < 1e-12

    def test_mixture_diagonal(self):
        d = 6
        mix = fourier_flag_mixture(d)
        assert abs(np.trace(mix) - 1) < 1e-12
        diag = np.diag(mix).real
        np.testing.assert_allclose(diag[:d], 1 / (d * (d + 1)), atol=1e-13)
        np.testing.assert_allclose(diag[d:], 1 / (d + 1), atol=1e-13)
        validate_density_matrix(mix)

    def test_unit_norm(self):
        for d in (2, 7):
            for k in range(d):
                validate_pure_state(fourier_flag_state(d, k))
                validate_pure_state(fourier_flag_dual(d, k))


class TestFlagCombinationRankFloor:
    def test_random_combinations_have_rank_above_register(self):
        rng = np.random.default_rng(2024)
        for d in range(2, 9):
            flags = np.array([fourier_flag_state(d, k) for k in range(d)])
            for _ in range(20):
                coeff = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                psi = coeff @ flags
                psi /= np.linalg.norm(psi)
                assert np.count_nonzero(np.abs(psi) > 1e-6) >= d + 1


class TestPairState:
    def test_two_level_uniform(self):
        np.testing.assert_allclose(pair_state("0", "1"), max_coherent(2))

    def test_rank_two(self):
        assert pure_coherence_rank(pair_state("0110", "1001")) == 2

    def test_outer_product_cross_entry(self):
        psi = pair_state("01", "10")
        outer = np.outer(psi, psi.conj())
        assert outer[1, 2] == pytest.approx(0.5)

    def test_rejects_equal_or_malformed(self):
        with pytest.raises(ValueError):
            pair_state("01", "01")
        with pytest.raises(ValueError):
            pair_state("0", "10")
        with pytest.raises(ValueError):
            pair_state("0a", "01")


class TestPureCoherenceRank:
    def test_basis_state(self):
        assert pure_coherence_rank(np.array([1.0, 0.0, 0.0])) == 1

    def test_threshold_drops_tiny_amplitudes(self):
        psi = np.array([1.0, 1.0, 1e-12])
        psi /= np.linalg.norm(psi)
        assert pure_coherence_rank(psi) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN > TAU_AMP is False, so an all-NaN vector used to count rank 0
        with pytest.raises(ValueError, match=r"4 non-finite.*first at index \(0,\)"):
            pure_coherence_rank(np.full(4, bad))
        with pytest.raises(ValueError, match=r"1 non-finite.*first at index \(2,\)"):
            pure_coherence_rank(np.array([0.6, 0.8, bad]))


class TestCorrelatedLift:
    def test_lift_of_uniform_superposition(self):
        m = 3
        phi = max_coherent(m)
        lifted = mc_lift(np.outer(phi, phi.conj()))
        expected = np.outer(mc_lift_vector(phi), mc_lift_vector(phi).conj())
        np.testing.assert_allclose(lifted, expected, atol=1e-15)

    def test_lift_entries(self):
        alpha = 0.42
        lifted = mc_lift(noisy_max_coherent(alpha))
        assert lifted[0, 0] == pytest.approx(0.5)
        assert lifted[0, 3] == pytest.approx(alpha / 2)
        assert lifted[1, 1] == 0.0

    def test_lift_preserves_density_validity_and_l1(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4, 7):
            rho = random_density(rng, dim)
            lifted = validate_density_matrix(mc_lift(rho))
            assert l1_coherence(lifted) == pytest.approx(l1_coherence(rho), abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(32)
        rho = random_density(rng, 5)
        assert np.abs(mc_unlift(mc_lift(rho)) - rho).max() < 1e-14

    def test_unlift_of_lifted_pure(self):
        phi = max_coherent(2)
        target = np.outer(phi, phi.conj())
        assert np.abs(mc_unlift(mc_lift(target)) - target).max() < 1e-15

    def test_unlift_rejects_uncorrelated_support(self):
        rho_hat = np.zeros((4, 4), dtype=complex)
        rho_hat[1, 1] = 1.0  # pure |01><01|
        with pytest.raises(NotMaximallyCorrelatedError):
            mc_unlift(rho_hat)

    def test_unlift_rejects_non_square_dimension(self):
        with pytest.raises(ValueError):
            mc_unlift(np.eye(6) / 6)

    @pytest.mark.parametrize(
        "row,col",
        [(0, 1), (8, 7), (1, 4)],
        ids=["first-row", "last-row", "block-column-of-non-block-row"],
    )
    def test_unlift_rejects_single_off_block_entry(self, row, col):
        rho_hat = mc_lift(random_density(np.random.default_rng(33), 3))
        rho_hat[row, col] = 1e-6
        with pytest.raises(NotMaximallyCorrelatedError, match="1.000e-06 exceeds 1.0e-09"):
            mc_unlift(rho_hat)

    def test_unlift_rejects_nan_off_block(self):
        # NaN > TOL_MC is False, so the leak test alone would pass it
        rho_hat = mc_lift(noisy_max_coherent(0.3))
        rho_hat[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*first at index \(1, 2\)"):
            mc_unlift(rho_hat)

    def test_unlift_rejects_infinite_off_block_as_uncorrelated(self):
        rho_hat = mc_lift(noisy_max_coherent(0.3))
        rho_hat[1, 2] = np.inf
        with pytest.raises(NotMaximallyCorrelatedError):
            mc_unlift(rho_hat)

    def test_lift_refuses_over_cap_before_allocating(self, monkeypatch):
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        with pytest.raises(DimensionCapError, match="exceeds cap 8"):
            mc_lift(np.eye(3) / 3)
        assert mc_lift(np.eye(2) / 2).shape == (4, 4)


class TestCorrelatedState:
    def test_shape_and_array_are_the_lift(self):
        rho = random_density(np.random.default_rng(34), 3)
        state = CorrelatedState(rho)
        assert state.shape == (9, 9)
        np.testing.assert_array_equal(np.asarray(state), mc_lift(rho))
        assert np.asarray(state, dtype=complex).dtype == np.complex128
        assert np.abs(state - mc_lift(rho)).max() == 0.0

    def test_unlift_returns_the_base_without_a_scan(self):
        state = CorrelatedState(noisy_max_coherent(0.3))
        assert mc_unlift(state) is state.base

    def test_base_is_coerced_to_a_square_complex_matrix(self):
        state = CorrelatedState([[0.5, 0.1], [0.1, 0.5]])
        assert state.base.dtype == np.complex128
        with pytest.raises(ValueError, match="square"):
            CorrelatedState(np.ones((2, 3)))

    def test_equality_is_identity_not_elementwise(self):
        state = CorrelatedState(noisy_max_coherent(0.3))
        assert state == state
        assert state != CorrelatedState(state.base.copy())

    def test_array_over_cap_raises_before_allocating(self):
        state = CorrelatedState(np.eye(65) / 65)  # 65**2 = 4225 > 4096
        assert state.shape == (4225, 4225)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapError, match="exceeds cap"):
                np.asarray(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

import math
from fractions import Fraction

import numpy as np
import pytest

from cohrank import (
    DimensionCapError,
    dephase,
    hermiticity_defect,
    max_coherent,
    noisy_max_coherent,
    partial_transpose,
    mc_lift,
    spectrum,
    tensor_power,
    trace_norm,
    validate_density_matrix,
    validate_pure_state,
)
from cohrank.kernel import binomial_sum, binomials, krawtchouk
from helpers import random_density, random_pure, walsh_hadamard, xor_row


class TestDephase:
    def test_uniform_superposition_dephases_to_maximally_mixed(self):
        phi = max_coherent(2)
        np.testing.assert_allclose(dephase(np.outer(phi, phi.conj())), np.eye(2) / 2)

    def test_diagonal_fixed_point(self):
        d = np.diag([0.1, 0.2, 0.7]).astype(complex)
        np.testing.assert_array_equal(dephase(d), d)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_noisy_coherent_dephases_to_maximally_mixed(self, alpha):
        np.testing.assert_allclose(dephase(noisy_max_coherent(alpha)), np.eye(2) / 2)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(11)
        for dim in (2, 5, 9):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            once = dephase(m)
            np.testing.assert_array_equal(dephase(once), once)
            assert abs(np.trace(once) - np.trace(m)) < 1e-12


class TestTensorPower:
    def test_single_power_is_identity_operation(self):
        m = noisy_max_coherent(0.4)
        np.testing.assert_array_equal(tensor_power(m, 1), m)

    def test_identity_power(self):
        np.testing.assert_array_equal(tensor_power(np.eye(2), 3), np.eye(8))

    def test_two_copy_corner_entry(self):
        alpha = 0.3
        power = tensor_power(noisy_max_coherent(alpha), 2)
        assert power[0, 3] == pytest.approx(alpha**2 / 4)

    def test_power_additivity(self):
        m = noisy_max_coherent(0.25)
        combined = tensor_power(m, 3)
        split = np.kron(tensor_power(m, 2), tensor_power(m, 1))
        assert np.abs(combined - split).max() < 1e-12

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("COHRANK_DIM_CAP", "16")
        with pytest.raises(DimensionCapError):
            tensor_power(np.eye(2), 5)
        assert tensor_power(np.eye(2), 4).shape == (16, 16)

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        with pytest.raises(DimensionCapError):
            tensor_power(np.eye(2), 4)
        monkeypatch.setenv("COHRANK_DIM_CAP", "16")
        assert tensor_power(np.eye(2), 4).shape == (16, 16)

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            tensor_power(np.eye(2), 0)


class TestWalshHadamard:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_hadamard_matrix(self, n):
        f = np.random.default_rng(n).standard_normal(2**n)
        labels = np.arange(2**n)
        hadamard = (-1.0) ** np.bitwise_count(labels[:, None] & labels)
        np.testing.assert_allclose(walsh_hadamard(f), hadamard @ f, atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_the_spectrum_of_the_xor_matrix(self, n):
        f = np.random.default_rng(10 + n).standard_normal(2**n)
        labels = np.arange(2**n)
        xor_matrix = f[labels[:, None] ^ labels]
        np.testing.assert_allclose(
            np.sort(walsh_hadamard(f)), np.linalg.eigvalsh(xor_matrix), atol=1e-12
        )

    def test_leaves_its_input_alone(self):
        f = np.array([1.0, 2.0, 3.0, 4.0])
        walsh_hadamard(f)
        np.testing.assert_array_equal(f, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("shape", [(3,), (6,), (2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="2\\*\\*n"):
            walsh_hadamard(np.ones(shape))


def exact_krawtchouk(n):
    """K[v][w] as exact integers, by K_w(v + 1) = K_w(v) - K_{w-1}(v) - K_{w-1}(v + 1),
    the coefficients of (1 + z) P_{v+1}(z) = (1 - z) P_v(z)."""
    rows = [[math.comb(n, w) for w in range(n + 1)]]
    for _ in range(n):
        prev, row = rows[-1], []
        for w in range(n + 1):
            row.append(prev[w] - (prev[w - 1] + row[w - 1] if w else 0))
        rows.append(row)
    return rows


class TestKrawtchouk:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_is_the_walsh_hadamard_transform_of_the_expanded_row(self, n):
        f = np.random.default_rng(n).standard_normal(n + 1)
        labels = np.arange(2**n)
        np.testing.assert_allclose(
            krawtchouk(f)[np.bitwise_count(labels)], walsh_hadamard(xor_row(f)), atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
    def test_matches_exact_integer_krawtchouk(self, n):
        f = np.random.default_rng(n).standard_normal(n + 1) * 0.5 ** np.arange(n + 1)
        exact = [
            float(sum(k * Fraction(x) for k, x in zip(row, f.tolist())))
            for row in exact_krawtchouk(n)
        ]
        scale = float(binomials(n) @ np.abs(f))
        assert np.abs(krawtchouk(f) - exact).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", [1, 2, 53, 60, 345, 1023])
    def test_binomial_sum_is_rounded_once(self, n):
        assert binomial_sum(np.ones(n + 1)) == 2.0**n
        f = np.random.default_rng(n).random(n + 1) ** np.arange(n + 1)
        exact = sum(math.comb(n, w) * Fraction(x) for w, x in enumerate(f.tolist()))
        assert binomial_sum(f) == float(exact)

    def test_binomials_are_exact(self):
        assert binomials(60).tolist() == [float(math.comb(60, w)) for w in range(61)]


class TestSpectrum:
    def test_identity(self):
        np.testing.assert_allclose(spectrum(np.eye(2)), [1.0, 1.0])

    @pytest.mark.parametrize("alpha", [0.2, 0.55, 1.0])
    def test_noisy_coherent_eigenvalues(self, alpha):
        np.testing.assert_allclose(
            spectrum(noisy_max_coherent(alpha)),
            [(1 - alpha) / 2, (1 + alpha) / 2],
            atol=1e-12,
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sums_to_trace(self):
        rng = np.random.default_rng(5)
        for dim in (3, 6, 12):
            rho = random_density(rng, dim)
            assert abs(spectrum(rho).sum() - np.trace(rho).real) < 1e-9


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(m, 3, 4), 3, 4), m
        )

    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(8)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        pt = partial_transpose(np.kron(rho_a, rho_b), 2, 3)
        np.testing.assert_allclose(pt, np.kron(rho_a, rho_b.T), atol=1e-14)
        assert spectrum(pt)[0] > -1e-12

    def test_lifted_noisy_coherent_spectrum(self):
        alpha = 0.37
        pt = partial_transpose(mc_lift(noisy_max_coherent(alpha)), 2, 2)
        np.testing.assert_allclose(
            spectrum(pt), [-alpha / 2, alpha / 2, 0.5, 0.5], atol=1e-12
        )

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 6)
        pt = partial_transpose(rho, 2, 3)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-14
        assert hermiticity_defect(pt) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(6), 2, 2)


class TestTraceNorm:
    def test_density_matrices_have_unit_norm(self):
        rng = np.random.default_rng(10)
        for dim in (2, 4, 7):
            assert trace_norm(random_density(rng, dim)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_partial_transpose_of_lift(self):
        alpha = 0.62
        pt = partial_transpose(mc_lift(noisy_max_coherent(alpha)), 2, 2)
        assert trace_norm(pt) == pytest.approx(1 + alpha, abs=1e-12)


class TestValidation:
    def test_accepts_valid_density(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 5)
        np.testing.assert_array_equal(validate_density_matrix(rho), rho)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        bad = np.array([[0.5, 0.6], [0.6, 0.5]])
        with pytest.raises(ValueError, match="negative"):
            validate_density_matrix(bad)

    def test_pure_state_norm_check(self):
        validate_pure_state(max_coherent(4))
        with pytest.raises(ValueError, match="norm"):
            validate_pure_state(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_density(self, bad):
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        rho[1, 0] = bad
        with pytest.raises(ValueError, match=r"1 non-finite.*index \(1, 0\)"):
            validate_density_matrix(rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trace_norm_rejects_non_finite(self, bad):
        # the SVD used to fail with "did not converge" on NaN
        with pytest.raises(ValueError, match=r"4 non-finite.*index \(0, 0\)"):
            trace_norm(np.full((2, 2), bad))
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match=r"1 non-finite.*index \(1, 2\)"):
            trace_norm(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_pure_state(self, bad):
        with pytest.raises(ValueError, match=r"non-finite.*index \(2,\)"):
            validate_pure_state(np.array([1.0, 0.0, bad]))

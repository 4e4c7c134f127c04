import math

import numpy as np
import pytest

from cohrank import (
    InfeasiblePairEnsembleError,
    dual_flag_ensemble,
    fourier_flag_mixture,
    max_coherent,
    noisy_max_coherent,
    power_pair_ensemble,
    power_pair_feasible,
    tensor_power,
    verify_ensemble,
)


def noisy_power(alpha, n):
    return tensor_power(noisy_max_coherent(alpha), n)


class TestPowerPairEnsemble:
    def test_pure_single_copy_collapses_to_one_member(self):
        ens = power_pair_ensemble(1.0, 1)
        assert len(ens) == 1
        assert ens.weights[0] == pytest.approx(1.0)
        np.testing.assert_allclose(ens.states[0], max_coherent(2).real)

    def test_member_counts_and_residual(self):
        ens = power_pair_ensemble(0.2, 2)
        assert len(ens) == 6 + 4
        # residual weight on each of the four basis members
        np.testing.assert_allclose(ens.weights[6:], (2 - 1.44) / 4)

    def test_members_are_ordered_pairs_first(self):
        ens = power_pair_ensemble(0.2, 2)
        first = np.zeros(4)
        first[[0, 1]] = 1 / math.sqrt(2)
        np.testing.assert_allclose(ens.states[0], first)
        np.testing.assert_array_equal(ens.states[6:], np.eye(4))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_boundary_and_half_boundary_reconstruct(self, n):
        for alpha in (2 ** (1 / n) - 1, (2 ** (1 / n) - 1) / 2):
            ens = power_pair_ensemble(alpha, n)
            assert float(ens.weights.min()) >= -1e-12
            report = verify_ensemble(ens, noisy_power(alpha, n))
            assert report.feasible
            assert report.reconstruction_trace_distance <= 1e-9
            assert report.max_member_rank == 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weight_normalization_identity(self, n):
        for alpha in (2 ** (1 / n) - 1, (2 ** (1 / n) - 1) / 2):
            ens = power_pair_ensemble(alpha, n)
            assert abs(ens.weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_above_boundary_is_infeasible(self, n):
        alpha = 1.01 * (2 ** (1 / n) - 1)
        assert not power_pair_feasible(alpha, n)
        with pytest.raises(InfeasiblePairEnsembleError) as excinfo:
            power_pair_ensemble(alpha, n)
        assert excinfo.value.boundary_alpha == pytest.approx(2 ** (1 / n) - 1)

    def test_half_quadratic_example_is_infeasible(self):
        # (1.5)^2 = 2.25 > 2
        with pytest.raises(InfeasiblePairEnsembleError):
            power_pair_ensemble(0.5, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            power_pair_ensemble(0.0, 2)
        with pytest.raises(ValueError):
            power_pair_ensemble(0.2, 0)


class TestDualFlagEnsemble:
    def test_single_register(self):
        ens = dual_flag_ensemble(1)
        assert len(ens) == 1
        assert ens.weights[0] == pytest.approx(1.0)

    def test_two_register_shape(self):
        ens = dual_flag_ensemble(2)
        assert len(ens) == 2
        np.testing.assert_allclose(ens.weights, 0.5)
        report = verify_ensemble(ens, fourier_flag_mixture(2))
        assert report.max_member_rank == 3

    def test_members_are_mutually_orthogonal(self):
        ens = dual_flag_ensemble(6)
        gram = ens.states @ ens.states.conj().T
        assert np.abs(gram - np.eye(6)).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 5, 8, 16])
    def test_reconstruction(self, d):
        report = verify_ensemble(dual_flag_ensemble(d), fourier_flag_mixture(d))
        assert report.feasible
        assert report.reconstruction_trace_distance <= 1e-10
        assert report.max_member_rank == d + 1


class TestVerifyEnsemble:
    def test_pure_target_single_member(self):
        from cohrank import WeightedEnsemble

        psi = max_coherent(4)
        ens = WeightedEnsemble(weights=np.array([1.0]), states=psi[None, :])
        report = verify_ensemble(ens, np.outer(psi, psi.conj()))
        assert report.reconstruction_trace_distance == 0.0
        assert report.weight_sum == 1.0
        assert report.feasible

    def test_flags_wrong_reconstruction(self):
        from cohrank import WeightedEnsemble

        psi = np.array([1.0, 0.0])
        ens = WeightedEnsemble(weights=np.array([1.0]), states=psi[None, :])
        report = verify_ensemble(ens, noisy_max_coherent(0.8))
        assert not report.feasible
        assert report.reconstruction_trace_distance > 0.1

    def test_real_difference_matches_complex_spectrum(self):
        ens = power_pair_ensemble(0.25, 3)
        target = noisy_power(0.2, 3)
        report = verify_ensemble(ens, target)
        diff = ens.reconstruction() - np.asarray(target, dtype=complex)
        expected = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
        assert expected > 1e-3
        assert report.reconstruction_trace_distance == pytest.approx(expected, rel=1e-12)
        assert not report.feasible

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_ensemble(dual_flag_ensemble(2), noisy_max_coherent(0.2))

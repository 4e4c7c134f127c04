import math

import numpy as np
import pytest

from dataclasses import replace

from cohrank import (
    DimensionCapError,
    InfeasiblePairEnsembleError,
    OrbitWitness,
    dual_flag_ensemble,
    fourier_flag_mixture,
    max_coherent,
    mc_lift,
    mc_lift_vector,
    noisy_max_coherent,
    noisy_power_row,
    power_pair_ensemble,
    power_pair_feasible,
    power_pair_members,
    power_pair_witness,
    tensor_power,
    verify_ensemble,
    verify_orbit,
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


class TestOrbitWitness:
    @pytest.mark.parametrize("alpha,n", [(0.2, 1), (0.2, 2), (0.1, 4), (2 ** (1 / 5) - 1, 5)])
    def test_row_is_the_mixture_of_the_members(self, alpha, n):
        witness = power_pair_witness(alpha, n)
        mixture = sum(w * np.outer(psi, psi) for w, psi in witness.members())
        labels = np.arange(2**n)
        np.testing.assert_allclose(witness.row()[labels[:, None] ^ labels], mixture, atol=1e-15)
        np.testing.assert_allclose(witness.reconstruction(), mixture, atol=1e-15)

    def test_storage_is_one_weight_per_class(self):
        witness = power_pair_witness(0.01, 10)
        assert isinstance(witness, OrbitWitness)
        assert witness.class_weights.shape == (2**10,)
        assert len(witness) == power_pair_members(0.01, 10) == 2**9 * (2**10 + 1)

    def test_boundary_prunes_basis_members(self):
        witness = power_pair_witness(2 ** (1 / 3) - 1, 3)
        assert not witness.keep_basis
        assert len(witness) == 28
        assert verify_orbit(witness, noisy_power_row(2 ** (1 / 3) - 1, 3)).feasible

    def test_lift_moves_each_member_to_the_correlated_labels(self):
        base = power_pair_witness(0.3, 2)
        lifted = base.lifted()
        assert lifted.target_dim == 16
        for (w, psi), (w_hat, psi_hat) in zip(base.members(), lifted.members()):
            assert w_hat == w
            np.testing.assert_array_equal(psi_hat, mc_lift_vector(psi).real)
        np.testing.assert_array_equal(lifted.reconstruction(), mc_lift(base.reconstruction()).real)
        with pytest.raises(ValueError, match="already lifted"):
            lifted.lifted()

    def test_budget_is_dim_cap_squared(self, monkeypatch):
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        assert power_pair_witness(0.01, 6).class_weights.size == 64
        with pytest.raises(DimensionCapError, match="exceeds cap 8"):
            power_pair_witness(0.01, 7)
        with pytest.raises(DimensionCapError, match="exceeds cap 8"):
            power_pair_ensemble(0.01, 4)


class TestVerifyOrbit:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_verify_on_its_own_target(self, n):
        alpha = 0.7 * (2 ** (1 / n) - 1)
        witness = power_pair_witness(alpha, n)
        fast = verify_orbit(witness, noisy_power_row(alpha, n))
        dense = verify_ensemble(witness, noisy_power(alpha, n))
        assert fast.feasible and dense.feasible
        assert fast.max_member_rank == dense.max_member_rank == 2
        assert fast.reconstruction_trace_distance <= 1e-14
        assert fast.weight_sum == pytest.approx(dense.weight_sum, abs=1e-14)

    @pytest.mark.parametrize(
        "classes,shift",
        [((1,), 1e-7), ((5,), -1e-7), ((1, 3), None)],
        ids=["raised", "lowered", "swapped-weight-kept-sum"],
    )
    def test_perturbed_class_weight_fails_both_paths(self, classes, shift):
        alpha, n = 0.05, 3
        witness = power_pair_witness(alpha, n)
        weights = witness.class_weights.copy()
        if shift is None:  # hamming weights 1 and 2: the sum holds, the mixture moves
            weights[list(classes)] = weights[list(reversed(classes))]
        else:
            weights[list(classes)] += shift
        bad = replace(witness, class_weights=weights)
        fast = verify_orbit(bad, noisy_power_row(alpha, n))
        dense = verify_ensemble(bad, noisy_power(alpha, n))
        assert not fast.feasible and not dense.feasible
        assert fast.reconstruction_trace_distance == pytest.approx(
            dense.reconstruction_trace_distance, abs=1e-12
        )
        assert fast.reconstruction_trace_distance > 1e-8

    def test_negative_residual_fails(self):
        witness = replace(power_pair_witness(0.05, 2), residual=-1e-9)
        report = verify_orbit(witness, noisy_power_row(0.05, 2))
        assert not report.feasible

    def test_rejects_mismatched_or_lifted_witness(self):
        witness = power_pair_witness(0.1, 3)
        with pytest.raises(ValueError, match="does not match"):
            verify_orbit(witness, noisy_power_row(0.1, 2))
        with pytest.raises(ValueError, match="does not match"):
            verify_orbit(witness.lifted(), noisy_power_row(0.1, 3))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        ens = power_pair_witness(0.1, 2)
        with pytest.raises(ValueError, match=r"target has 16 non-finite.*index \(0, 0\)"):
            verify_ensemble(ens, np.full((4, 4), bad))
        target = noisy_power(0.1, 2)
        target[2, 1] = bad
        with pytest.raises(ValueError, match=r"target has 1 non-finite.*index \(2, 1\)"):
            verify_ensemble(ens, target)

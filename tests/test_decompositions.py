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
    WeightedEnsemble,
    noisy_max_coherent,
    power_pair_ensemble,
    power_pair_feasible,
    power_pair_witness,
    tensor_power,
    verify_ensemble,
    verify_orbit,
)
from cohrank.decompositions import MAX_COPIES


def noisy_power(alpha, n):
    return tensor_power(noisy_max_coherent(alpha), n)


def power_row(alpha, n):
    """2**n times the entries of omega(alpha)^(x)n by Hamming distance."""
    return alpha ** np.arange(n + 1, dtype=float)


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
        distance = np.bitwise_count(labels[:, None] ^ labels)
        np.testing.assert_allclose(witness.row()[distance] / 2**n, mixture, atol=1e-15)
        np.testing.assert_allclose(witness.reconstruction(), mixture, atol=1e-15)
        assert witness.row()[0] == pytest.approx(sum(w for w, _ in witness.members()), abs=1e-14)

    def test_storage_is_one_weight_per_class(self):
        """One weight per class of the Hamming scheme, i.e. per distance w = 0..n."""
        witness = power_pair_witness(0.01, 10)
        assert isinstance(witness, OrbitWitness)
        assert witness.distance_weights.shape == (11,) and witness.n == 10
        assert len(witness) == 2**9 * (2**10 + 1)

    def test_boundary_prunes_basis_members(self):
        witness = power_pair_witness(2 ** (1 / 3) - 1, 3)
        assert not witness.keep_basis
        assert len(witness) == 28
        assert verify_orbit(witness, power_row(2 ** (1 / 3) - 1, 3)).feasible

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

    def test_copy_limit_is_double_precision(self, monkeypatch):
        """The witness holds n + 2 numbers whatever the cap; only the dense oracle
        follows it. n is held to MAX_COPIES = 1023, where 2**n is the largest
        finite power of two."""
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        assert power_pair_witness(0.01, 7).distance_weights.size == 8
        with pytest.raises(DimensionCapError, match="exceeds cap 8"):
            power_pair_ensemble(0.01, 4)
        assert MAX_COPIES == 1023 and math.isfinite(2.0**MAX_COPIES)
        witness = power_pair_witness(1e-4, MAX_COPIES)
        assert witness.distance_weights.size == MAX_COPIES + 1
        assert verify_orbit(witness, power_row(1e-4, MAX_COPIES)).feasible
        for n in (MAX_COPIES + 1, 10**12):
            with pytest.raises(ValueError, match=f"copy count {n} exceeds 1023"):
                power_pair_witness(1e-4, n)


class TestVerifyOrbit:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_verify_on_its_own_target(self, n):
        alpha = 0.7 * (2 ** (1 / n) - 1)
        witness = power_pair_witness(alpha, n)
        fast = verify_orbit(witness, power_row(alpha, n))
        dense = verify_ensemble(witness, noisy_power(alpha, n))
        assert fast.feasible and dense.feasible
        assert fast.max_member_rank == dense.max_member_rank == 2
        assert fast.reconstruction_trace_distance <= 1e-14
        assert fast.weight_sum == pytest.approx(dense.weight_sum, abs=1e-14)

    @pytest.mark.parametrize(
        "distances,shift",
        [((1,), 1e-7), ((2,), -1e-7), ((1, 2), None)],
        ids=["raised", "lowered", "swapped-weight-kept-sum"],
    )
    def test_perturbed_class_weight_fails_both_paths(self, distances, shift):
        alpha, n = 0.05, 3
        witness = power_pair_witness(alpha, n)
        weights = witness.distance_weights.copy()
        if shift is None:  # C(3, 1) = C(3, 2) pairs per label: the sum holds, the mixture moves
            weights[list(distances)] = weights[list(reversed(distances))]
        else:
            weights[list(distances)] += shift * 2**n  # stored times 2**n
        bad = replace(witness, distance_weights=weights)
        fast = verify_orbit(bad, power_row(alpha, n))
        dense = verify_ensemble(bad, noisy_power(alpha, n))
        assert not fast.feasible and not dense.feasible
        assert fast.reconstruction_trace_distance == pytest.approx(
            dense.reconstruction_trace_distance, abs=1e-12
        )
        assert fast.reconstruction_trace_distance > 1e-8

    def test_negative_residual_fails(self):
        witness = replace(power_pair_witness(0.05, 2), residual=-1e-9)
        report = verify_orbit(witness, power_row(0.05, 2))
        assert not report.feasible

    def test_rejects_mismatched_or_lifted_witness(self):
        witness = power_pair_witness(0.1, 3)
        with pytest.raises(ValueError, match="does not match"):
            verify_orbit(witness, power_row(0.1, 2))
        with pytest.raises(ValueError, match="does not match"):
            verify_orbit(witness.lifted(), power_row(0.1, 3))
        with pytest.raises(ValueError, match="does not match"):
            verify_orbit(witness, np.ones(8))  # a 2**n XOR row is no distance row


class TestNonFiniteWitness:
    """A NaN or inf stored weight or amplitude raises the non-finite ValueError
    before any reconstruction, on the dense and the orbit path."""

    def test_inf_amplitude_in_weighted_ensemble(self):
        ens = WeightedEnsemble([0.5, 0.5], [[1, 0], [math.inf, 1]])
        with pytest.raises(ValueError, match="non-finite .* first at index \\(1, 0\\)"):
            verify_ensemble(ens, np.eye(2) / 2)

    def test_nan_weight_in_weighted_ensemble(self):
        ens = WeightedEnsemble(np.array([0.5, math.nan]), np.eye(2))
        with pytest.raises(ValueError, match="ensemble weights has 1 non-finite"):
            verify_ensemble(ens, np.eye(2) / 2)

    @pytest.mark.parametrize("field,index", [("distance_weights", 2), ("residual", 3)])
    def test_orbit_witness_scans_its_n_plus_two_numbers(self, field, index):
        witness = power_pair_witness(0.1, 2)
        if field == "residual":
            bad = replace(witness, residual=math.inf)
        else:
            weights = witness.distance_weights.copy()
            weights[index] = math.nan
            bad = replace(witness, distance_weights=weights)
        match = f"witness weights has 1 non-finite .* first at index \\({index},\\)"
        with pytest.raises(ValueError, match=match):
            verify_ensemble(bad, noisy_power(0.1, 2))
        with pytest.raises(ValueError, match=match):
            verify_orbit(bad, power_row(0.1, 2))

    def test_non_finite_target_row(self):
        with pytest.raises(ValueError, match="target row has 1 non-finite"):
            verify_orbit(power_pair_witness(0.1, 2), [1.0, math.nan, 0.01])


class TestCopyLimitAndAlpha:
    @pytest.mark.parametrize("n", [MAX_COPIES + 1, 2000, 10**12])
    def test_copies_beyond_the_limit_raise_at_once(self, n):
        with pytest.raises(ValueError, match="exceeds 1023"):
            power_pair_feasible(0.5, n)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="mixing parameter must be"):
            power_pair_feasible(alpha, 3)
        with pytest.raises(ValueError, match="mixing parameter must be"):
            power_pair_witness(alpha, 3)

    def test_power_past_the_doubles_is_infeasible(self):
        assert not power_pair_feasible(1e300, 2)
        with pytest.raises(InfeasiblePairEnsembleError):
            power_pair_witness(1.5, MAX_COPIES)


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

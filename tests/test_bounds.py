import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import cohrank
from cohrank import (
    OrbitWitness,
    asymptotic_entanglement_cost,
    binary_entropy,
    bounds,
    cost_report,
    delta_robustness,
    dephase,
    dilution_dimension,
    dio_synthesize,
    dual_flag_ensemble,
    fourier_flag_mixture,
    l1_coherence,
    l1_rank_lower_bound,
    max_coherent,
    mc_lift,
    mc_lift_vector,
    mcdc_apply,
    negativity,
    negativity_rank_lower_bound,
    noisy_max_coherent,
    omega_power_certificate,
    power_pair_ensemble,
    pure_coherence_rank,
    pure_schmidt_rank,
    rank_certificate,
    regularized_cost_bounds,
    schmidt_certificate,
    spectrum,
    tensor_power,
    validate_density_matrix,
    verify_ensemble,
)
from helpers import random_density, random_pure


def noisy_power(alpha, n):
    return tensor_power(noisy_max_coherent(alpha), n)


class TestL1:
    def test_diagonal_state(self):
        assert l1_coherence(np.diag([0.4, 0.6])) == 0.0
        assert l1_rank_lower_bound(np.diag([0.4, 0.6])) == 1

    @pytest.mark.parametrize("alpha", [0.1, 0.45, 1.0])
    def test_noisy_coherent(self, alpha):
        assert l1_coherence(noisy_max_coherent(alpha)) == pytest.approx(alpha)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
    def test_power_closed_form(self, alpha, n):
        assert l1_coherence(noisy_power(alpha, n)) == pytest.approx(
            (1 + alpha) ** n - 1, abs=1e-9
        )

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_uniform_superposition_bound_is_tight(self, m):
        phi = max_coherent(m)
        assert l1_rank_lower_bound(np.outer(phi, phi.conj())) == m

    def test_cube_example(self):
        # (1.2)^3 = 1.728, so the bound rounds up to 2
        assert l1_rank_lower_bound(noisy_power(0.2, 3)) == 2


class TestNegativity:
    def test_product_state(self):
        rng = np.random.default_rng(21)
        prod = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert negativity(prod, 2, 3) == pytest.approx(0.0, abs=1e-10)
        assert negativity_rank_lower_bound(prod, 2, 3) == 1

    @pytest.mark.parametrize("alpha", [0.05, 0.4, 1.0])
    def test_lifted_noisy_coherent(self, alpha):
        lifted = mc_lift(noisy_max_coherent(alpha))
        assert negativity(lifted, 2, 2) == pytest.approx(alpha / 2, abs=1e-12)
        assert negativity_rank_lower_bound(lifted, 2, 2) == 2

    def test_maximally_entangled_qubit_pair(self):
        phi = mc_lift_vector(max_coherent(2))
        assert negativity(np.outer(phi, phi.conj()), 2, 2) == pytest.approx(0.5)

    def test_matches_l1_bound_on_lifts(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            lifted = mc_lift(rho)
            assert negativity_rank_lower_bound(lifted, dim, dim) == l1_rank_lower_bound(rho)
            assert l1_coherence(rho) == pytest.approx(
                2 * negativity(lifted, dim, dim), abs=1e-9
            )


class TestDeltaRobustness:
    def test_diagonal_state(self):
        assert delta_robustness(np.diag([0.3, 0.3, 0.4])) == pytest.approx(1.0)

    def test_pure_states_match_rank(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dim = int(rng.integers(2, 17))
            psi = random_pure(rng, dim)
            rho = np.outer(psi, psi.conj())
            assert delta_robustness(rho) == pytest.approx(
                pure_coherence_rank(psi), abs=1e-8
            )

    @pytest.mark.parametrize("alpha", np.linspace(0.05, 1.0, 8).tolist())
    def test_noisy_coherent(self, alpha):
        assert delta_robustness(noisy_max_coherent(alpha)) == pytest.approx(
            1 + alpha, abs=1e-12
        )

    def test_feasibility_margin(self):
        rng = np.random.default_rng(24)
        psi = random_pure(rng, 6)
        for rho in (
            noisy_max_coherent(0.7),
            fourier_flag_mixture(4),
            np.outer(psi, psi.conj()),
        ):
            lam = delta_robustness(rho)
            tight = spectrum(lam * dephase(rho) - rho)[0]
            assert abs(tight) < 1e-10
            slack = spectrum((lam - 0.01) * dephase(rho) - rho)[0]
            assert slack < -1e-6

    def test_dilution_dimension_rounds_up(self):
        assert dilution_dimension(delta_robustness(noisy_max_coherent(0.3))) == 2
        assert dilution_dimension(delta_robustness(np.diag([0.5, 0.5]))) == 1
        phi = max_coherent(5)
        assert dilution_dimension(delta_robustness(np.outer(phi, phi.conj()))) == 5

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_flag_mixtures_sit_exactly_at_two(self, d):
        assert delta_robustness(fourier_flag_mixture(d)) == pytest.approx(
            2.0, abs=1e-10
        )
        assert dilution_dimension(delta_robustness(fourier_flag_mixture(d))) == 2


class TestRankCertificate:
    def test_power_with_witness(self):
        rho = noisy_power(0.2, 3)
        cert = rank_certificate(rho, "omega-power", alpha=0.2, n=3)
        assert (cert.lower, cert.upper) == (2, 2)
        assert cert.exact
        assert cert.upper_method == "ensemble-witness"
        assert isinstance(cert.witness, OrbitWitness)
        report = verify_ensemble(cert.witness, rho)
        assert report.feasible and report.max_member_rank == cert.upper

    def test_flag_mixture_with_witness(self):
        cert = rank_certificate(fourier_flag_mixture(5), "rho-d", d=5)
        assert (cert.lower, cert.upper) == (6, 6)
        assert cert.exact
        assert cert.lower_method == "analytic-family"

    def test_diagonal_state(self):
        cert = rank_certificate(np.diag([0.2, 0.3, 0.5]))
        assert (cert.lower, cert.upper) == (1, 1)
        assert cert.exact

    def test_beyond_boundary_reports_open_interval(self):
        rho = noisy_power(0.3, 3)  # (1.3)^3 = 2.197 > 2: witness unavailable
        cert = rank_certificate(rho, "omega-power", alpha=0.3, n=3)
        assert cert.lower == 3
        assert cert.upper == 8
        assert not cert.exact
        assert cert.upper_method == "eigenvector-ensemble"

    def test_pure_state_uses_pure_rank(self):
        rng = np.random.default_rng(25)
        psi = random_pure(rng, 6)
        cert = rank_certificate(np.outer(psi, psi.conj()))
        assert cert.upper_method == "pure-rank"
        assert cert.upper == pure_coherence_rank(psi)

    def test_mismatched_hint_falls_back(self):
        cert = rank_certificate(fourier_flag_mixture(3), "omega-power", alpha=0.2, n=2)
        assert cert.upper_method == "eigenvector-ensemble"
        assert cert.lower <= cert.upper

    def test_wrong_flag_hint_does_not_poison_lower_bound(self):
        diag = np.diag([0.5, 0.5] + [0.0] * 4).astype(complex)
        cert = rank_certificate(diag, "rho-d", d=3)  # dims match, content does not
        assert (cert.lower, cert.upper) == (1, 1)
        assert cert.lower_method != "analytic-family"

    @pytest.mark.parametrize(
        "family,params",
        [("rho_d", {"d": 3}), ("rho-d", {}), ("omega-power", {"alpha": 0.2}),
         ("omega-power", {"n": 2})],
    )
    def test_unknown_or_incomplete_hint_raises(self, family, params):
        rho = fourier_flag_mixture(3)
        with pytest.raises(ValueError, match="family"):
            rank_certificate(rho, family, **params)
        with pytest.raises(ValueError, match="family"):
            schmidt_certificate(mc_lift(rho), family=family, **params)
        with pytest.raises(ValueError, match="family"):
            schmidt_certificate(random_density(np.random.default_rng(3), 4), (2, 2),
                                family, **params)

    def test_zero_alpha_hint_is_legal(self):
        cert = rank_certificate(noisy_power(0.0, 2), "omega-power", alpha=0.0, n=2)
        assert (cert.lower, cert.upper) == (1, 1)

    def test_sub_threshold_amplitude_keeps_bounds_ordered(self):
        # The eigenvectors carry ~2.5e-9 on the second level, below TAU_AMP,
        # so their counted rank is 1 while the l1 bound is 2.
        rho = validate_density_matrix(np.array([[0.9, 2e-9], [2e-9, 0.1]]))
        for cert in (rank_certificate(rho), schmidt_certificate(mc_lift(rho))):
            assert (cert.lower, cert.upper) == (2, 2)
            assert cert.lower_method == "l1"
            assert cert.upper_method == "eigenvector-ensemble"
            assert cert.witness is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_rejected_by_name(self, bad):
        rho = noisy_max_coherent(0.3)
        rho[1, 0] = bad
        with pytest.raises(ValueError, match=r"non-finite.*index \(1, 0\)"):
            rank_certificate(rho)
        with pytest.raises(ValueError, match=r"non-finite.*index \(0, 0\)"):
            rank_certificate(np.full((2, 2), bad))

    def test_lower_bound_above_dimension_rejects_input(self):
        not_psd = np.array([[0.5, 0.6], [0.6, 0.5]])
        swap_coherent = 0.25 * np.eye(4) + np.fliplr(np.eye(4))
        for call in (
            lambda: rank_certificate(not_psd),
            lambda: schmidt_certificate(mc_lift(not_psd)),
            lambda: schmidt_certificate(swap_coherent),
        ):
            with pytest.raises(ValueError, match="not a density matrix"):
                call()


class TestSchmidtCertificate:
    def test_lifted_flag_mixture(self):
        lifted = mc_lift(fourier_flag_mixture(4))
        cert = schmidt_certificate(lifted, family="rho-d", d=4)
        assert (cert.lower, cert.upper) == (5, 5)
        assert cert.exact
        report = verify_ensemble(cert.witness, lifted)
        assert report.feasible and report.max_member_rank == 5

    def test_lifted_power_lifts_pair_witness_by_index(self):
        alpha, n = 0.2, 3
        lifted = mc_lift(noisy_power(alpha, n))
        cert = schmidt_certificate(lifted, family="omega-power", alpha=alpha, n=n)
        assert (cert.lower, cert.upper) == (2, 2)
        assert isinstance(cert.witness, OrbitWitness)
        report = verify_ensemble(cert.witness, lifted)
        assert report.feasible and report.max_member_rank == 2
        dense = power_pair_ensemble(alpha, n).lifted()
        np.testing.assert_array_equal(cert.witness.weights, dense.weights)
        np.testing.assert_array_equal(
            np.array([psi for _, psi in cert.witness.members()]), dense.states
        )

    def test_correlated_branch_forms_no_partial_transpose(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("negativity called on a maximally correlated state")

        monkeypatch.setattr(bounds, "negativity", refuse)
        ebit = mc_lift(np.outer(max_coherent(2), max_coherent(2).conj()))
        image = mcdc_apply(dio_synthesize(fourier_flag_mixture(5), 2), ebit)
        cert = schmidt_certificate(image, family="rho-d", d=5)
        assert (cert.lower, cert.upper) == (6, 6)

    def test_correlated_branch_scratch_is_small(self):
        lifted = mc_lift(fourier_flag_mixture(24))
        tracemalloc.start()
        try:
            cert = schmidt_certificate(lifted, family="rho-d", d=24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (cert.lower, cert.upper) == (25, 25)
        assert peak < lifted.nbytes / 8

    def test_nan_off_the_correlated_block_is_rejected(self):
        # the leak is NaN and NaN > TOL_MC is False: this used to certify (2, 2)
        lifted = mc_lift(noisy_max_coherent(0.3))
        lifted[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*index \(1, 2\)"):
            schmidt_certificate(lifted)

    def test_non_finite_base_is_rejected(self):
        lifted = mc_lift(noisy_max_coherent(0.3))
        lifted[0, 3] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*index \(0, 1\)"):
            schmidt_certificate(lifted)

    @pytest.mark.parametrize(
        "rho_hat,dims,index",
        [
            (np.full((6, 6), np.nan), (2, 3), (0, 0)),
            (np.where(np.eye(4) > 0, np.inf, 0.25), (2, 2), (0, 0)),
        ],
        ids=["unequal-sides", "infinite-leak"],
    )
    def test_non_finite_uncorrelated_state_is_rejected_before_eigh(
        self, rho_hat, dims, index, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh reached with a non-finite matrix")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        with pytest.raises(ValueError, match=rf"non-finite.*index \({index[0]}, {index[1]}\)"):
            schmidt_certificate(rho_hat, dims)

    def test_pure_schmidt_rank(self):
        assert pure_schmidt_rank(mc_lift_vector(max_coherent(2)), 2, 2) == 2
        product = np.kron(np.array([1.0, 0.0]), max_coherent(2))
        assert pure_schmidt_rank(product, 2, 2) == 1

    def test_non_correlated_state_uses_negativity(self):
        rng = np.random.default_rng(26)
        rho = random_density(rng, 4)
        cert = schmidt_certificate(rho, dims=(2, 2))
        assert cert.lower_method == "negativity"
        assert cert.lower <= cert.upper


class TestRegularizedCostBounds:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_coincidence_points(self, m):
        lower, upper = regularized_cost_bounds(2 ** (1 / m) - 1)
        assert lower == pytest.approx(1 / m, abs=1e-12)
        assert upper == pytest.approx(1 / m, abs=1e-12)

    def test_non_coincident_point(self):
        lower, upper = regularized_cost_bounds(0.2)
        assert lower == pytest.approx(math.log2(1.2))
        assert upper == pytest.approx(1 / 3)

    def test_half_bit_point(self):
        lower, upper = regularized_cost_bounds(math.sqrt(2) - 1)
        assert (lower, upper) == (pytest.approx(0.5), pytest.approx(0.5))

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.2])
    def test_range_errors(self, alpha):
        with pytest.raises(ValueError):
            regularized_cost_bounds(alpha)


class TestEntanglementCost:
    def test_endpoints_and_midpoint(self):
        assert asymptotic_entanglement_cost(0.0) == 0.0
        assert asymptotic_entanglement_cost(1.0) == pytest.approx(1.0)
        assert asymptotic_entanglement_cost(0.6) == pytest.approx(0.46900, abs=1e-4)

    def test_binary_entropy_conventions(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_range_error(self):
        with pytest.raises(ValueError):
            asymptotic_entanglement_cost(1.5)


def _refuse_dense(monkeypatch):
    """Make tensor_power (in every cohrank module that holds it) and the dense
    eigensolvers raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix algebra on the structured path")

    modules = [cohrank] + [
        importlib.import_module(f"cohrank.{info.name}")
        for info in pkgutil.iter_modules(cohrank.__path__)
    ]
    for module in modules:
        if hasattr(module, "tensor_power"):
            monkeypatch.setattr(module, "tensor_power", refuse)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)


class TestOmegaPowerCertificate:
    @pytest.mark.parametrize("n", [2, 6, 11, 12, 16])
    @pytest.mark.parametrize("side", [0.9, 1.5])
    def test_cost_forms_no_dense_matrix(self, n, side, monkeypatch):
        _refuse_dense(monkeypatch)
        alpha = side * (2 ** (1 / n) - 1)
        rep = cost_report(alpha, n)
        assert (rep.certified_rank == 2) == (side < 1)

    def test_nonadd_forms_no_dense_matrix(self, monkeypatch, capsys):
        from cohrank.cli import main

        _refuse_dense(monkeypatch)
        assert main(["nonadd", "--alpha-min", "0.01", "--alpha-max", "0.3",
                     "--steps", "3", "--n-max", "16"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 16

    @pytest.mark.parametrize("n", [12, 16])
    def test_infeasible_cost_reports_the_l1_bracket(self, n, monkeypatch):
        _refuse_dense(monkeypatch)
        alpha = 1.5 * (2 ** (1 / n) - 1)
        rep = cost_report(alpha, n)
        l1 = math.ceil((1 + alpha) ** n - 1e-9)
        assert rep.l1_lower == l1 >= 3
        assert rep.certified_rank is None
        assert rep.zero_error == (math.log2(l1) / n, 1.0)

    def test_witness_and_tags(self):
        cert, l1_lower = omega_power_certificate(0.1, 5)
        assert isinstance(cert.witness, OrbitWitness) and cert.exact
        assert (cert.lower_method, cert.upper_method, l1_lower) == (
            "l1", "ensemble-witness", 2
        )
        cert, _ = omega_power_certificate(1.0, 3)  # the pure power |+><+|^(x)3
        assert (cert.lower, cert.upper, cert.upper_method) == (8, 8, "pure-rank")
        assert cert.witness is None
        cert, _ = omega_power_certificate(0.5, 3)
        assert (cert.lower, cert.upper, cert.upper_method) == (4, 8, "eigenvector-ensemble")

    def test_rejects_alpha_outside_unit_interval(self):
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError, match="mixing parameter"):
                omega_power_certificate(alpha, 2)


class TestCostReport:
    def test_third_bit_coincidence(self):
        alpha = 2 ** (1 / 3) - 1
        rep = cost_report(alpha, 3)
        assert rep.zero_error == pytest.approx(1 / 3, abs=1e-9)
        assert rep.regularized_lower == pytest.approx(1 / 3, abs=1e-12)
        assert rep.regularized_upper == pytest.approx(1 / 3, abs=1e-12)

    def test_single_copy(self):
        rep = cost_report(0.2, 1)
        assert rep.zero_error == pytest.approx(1.0)

    def test_incoherent_endpoint(self):
        rep = cost_report(0.0, 4)
        assert rep.zero_error == 0.0
        assert rep.regularized_lower == 0.0
        assert rep.regularized_upper == 0.0
        assert rep.asymptotic_ec == 0.0

    def test_uncertified_interval(self):
        rep = cost_report(0.3, 3)
        assert isinstance(rep.zero_error, tuple)
        low, high = rep.zero_error
        assert low == pytest.approx(math.log2(3) / 3)
        assert high == pytest.approx(1.0)
        assert rep.zero_error_upper == high

    def test_chain_ordering(self):
        for alpha in np.linspace(0.02, math.sqrt(2) - 1, 12).tolist():
            rep = cost_report(alpha, 1)
            assert rep.asymptotic_ec <= rep.regularized_lower + 1e-9
            assert rep.regularized_lower <= rep.regularized_upper + 1e-9
            assert rep.regularized_upper <= rep.zero_error_upper + 1e-9

import numpy as np
import pytest

from cohrank import (
    DimensionCapError,
    DioInfeasibleError,
    NotMaximallyCorrelatedError,
    choi_apply,
    covariance_report,
    cptp_report,
    delta_robustness,
    dephase,
    dio_feasible,
    dio_synthesize,
    fourier_flag_mixture,
    max_coherent,
    mc_lift,
    mc_lift_vector,
    mc_twirl,
    mcdc_apply,
    noisy_max_coherent,
    pure_coherence_rank,
    schmidt_certificate,
    sign_flip_check,
    spectrum,
)
from helpers import (
    covariance_violation_loop,
    dio_boundary_cases,
    random_density,
    random_pure,
)


def uniform_projector(d):
    phi = max_coherent(d)
    return np.outer(phi, phi.conj())


class TestDioFeasible:
    @pytest.mark.parametrize("d_reg", [1, 2, 4, 6])
    def test_flag_mixtures_reachable_from_qubit_input(self, d_reg):
        assert dio_feasible(fourier_flag_mixture(d_reg), 2)

    def test_uniform_superposition_needs_full_dimension(self):
        rho = uniform_projector(4)
        assert not dio_feasible(rho, 3)
        assert dio_feasible(rho, 4)

    def test_diagonal_state_always_reachable(self):
        assert dio_feasible(np.diag([0.3, 0.7]), 2)

    def test_trivial_input_requires_diagonal_target(self):
        assert dio_feasible(np.diag([0.2, 0.8]), 1)
        assert not dio_feasible(noisy_max_coherent(0.5), 1)

    def test_synthesis_succeeds_exactly_when_feasible(self):
        above = []
        for label, rho, d, feasible in dio_boundary_cases():
            assert dio_feasible(rho, d) == feasible, (label, d)
            try:
                dio_synthesize(rho, d)
                built = True
            except DioInfeasibleError:
                built = False
            assert built == feasible, (label, d)
            if feasible and delta_robustness(rho) > d:
                above.append(label)
        # robustness a few ulps above d on feasible targets: the decision is
        # the gap test with its slack, not delta_robustness(rho) <= d
        assert above


class TestDioSynthesize:
    def test_flag_mixture_target(self):
        rho = fourier_flag_mixture(3)
        ch = dio_synthesize(rho, 2)
        np.testing.assert_allclose(
            ch.component_b, 2 * dephase(rho) - rho, atol=1e-14
        )
        np.testing.assert_array_equal(ch.component_a, rho)

    def test_diagonal_target_has_no_coherent_block(self):
        sigma = np.diag([0.25, 0.25, 0.5]).astype(complex)
        ch = dio_synthesize(sigma, 2)
        np.testing.assert_array_equal(ch.component_a, sigma)
        np.testing.assert_allclose(ch.component_b, sigma, atol=1e-15)
        assert np.abs(ch.component_z).max() == 0.0

    def test_noisy_coherent_target_components(self):
        ch = dio_synthesize(noisy_max_coherent(0.5), 2)
        np.testing.assert_allclose(
            ch.component_b, [[0.5, -0.25], [-0.25, 0.5]], atol=1e-15
        )
        assert spectrum(ch.component_b)[0] >= -1e-12

    def test_component_relations(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 4)
        d = int(np.ceil(4.5))  # safely above any robustness of a dim-4 state
        ch = dio_synthesize(rho, d)
        np.testing.assert_allclose(
            ch.component_a, ch.component_d + ch.component_z, atol=1e-14
        )
        np.testing.assert_allclose(
            ch.component_b,
            ch.component_d - ch.component_z / (d - 1),
            atol=1e-14,
        )
        assert np.trace(ch.component_a) == pytest.approx(1.0)
        assert np.trace(ch.component_b) == pytest.approx(1.0)

    def test_choi_block_form(self):
        rho = fourier_flag_mixture(2)
        ch = dio_synthesize(rho, 2)
        proj = uniform_projector(2)
        expected = np.kron(proj, ch.component_a) + np.kron(
            np.eye(2) - proj, ch.component_b
        )
        assert np.abs(ch.choi - expected).max() < 1e-12

    def test_shared_diagonal_constraint(self):
        rho = fourier_flag_mixture(4)
        d = 2
        ch = dio_synthesize(rho, d)
        mixed = ch.component_a / d + (1 - 1 / d) * ch.component_b
        assert np.abs(mixed - dephase(ch.component_a)).max() < 1e-10
        assert np.abs(mixed - dephase(ch.component_b)).max() < 1e-10

    def test_infeasible_target_raises(self):
        with pytest.raises(DioInfeasibleError):
            dio_synthesize(uniform_projector(4), 3)

    def test_rejects_trivial_input_dimension(self):
        with pytest.raises(ValueError):
            dio_synthesize(np.diag([0.5, 0.5]), 1)

    def test_infeasible_over_cap_is_infeasible(self, monkeypatch):
        # feasibility is decided before the cap: the Choi sides 3 x 4 and
        # 4 x 4 both exceed a cap of 8
        monkeypatch.setenv("COHRANK_DIM_CAP", "8")
        with pytest.raises(DioInfeasibleError):
            dio_synthesize(uniform_projector(4), 3)
        with pytest.raises(DimensionCapError, match="exceeds cap"):
            dio_synthesize(uniform_projector(4), 4)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "check",
        [
            lambda m: dio_feasible(m, 2),
            lambda m: dio_synthesize(m, 2),
            lambda m: cptp_report(m, 1, 2),
            delta_robustness,
            spectrum,
        ],
        ids=["dio_feasible", "dio_synthesize", "cptp_report", "delta_robustness", "spectrum"],
    )
    def test_rejected_with_value_error(self, check, bad):
        m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check(m)
        with pytest.raises(ValueError, match="non-finite"):
            check(np.full((2, 2), bad))


class TestApplyChannel:
    def test_uniform_input_hits_target(self):
        rho = fourier_flag_mixture(5)
        ch = dio_synthesize(rho, 2)
        out = choi_apply(ch.choi, ch.input_dim, ch.output_dim, uniform_projector(2))
        assert np.abs(out - rho).max() < 1e-10

    def test_basis_input_gives_dephased_target(self):
        rho = noisy_max_coherent(0.4)
        ch = dio_synthesize(rho, 2)
        for i in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, i] = 1.0
            out = choi_apply(ch.choi, ch.input_dim, ch.output_dim, basis)
            assert np.abs(out - dephase(rho)).max() < 1e-10

    def test_trace_preserving_on_random_inputs(self):
        rng = np.random.default_rng(42)
        ch = dio_synthesize(fourier_flag_mixture(3), 2)
        for _ in range(10):
            sigma = random_density(rng, 2)
            out = choi_apply(ch.choi, ch.input_dim, ch.output_dim, sigma)
            assert np.trace(out).real == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        ch = dio_synthesize(noisy_max_coherent(0.3), 2)
        with pytest.raises(ValueError):
            choi_apply(ch.choi, ch.input_dim, ch.output_dim, np.eye(3) / 3)


class TestChannelValidation:
    @pytest.mark.parametrize("d_reg", [1, 2, 5])
    def test_synthesized_channels_are_cptp_and_covariant(self, d_reg):
        ch = dio_synthesize(fourier_flag_mixture(d_reg), 2)
        cptp = cptp_report(ch.choi, ch.input_dim, ch.output_dim)
        assert cptp.passed
        assert cptp.trace_out_violation <= 1e-9
        cov = covariance_report(ch.choi, ch.input_dim, ch.output_dim)
        assert cov.passed
        assert cov.max_violation <= 1e-9
        assert cov.basis_size == 4

    def test_raw_dephasing_choi_is_covariant(self):
        d = 3
        choi = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            choi[i * d + i, i * d + i] = 1.0
        assert cptp_report(choi, d, d).passed
        assert covariance_report(choi, d, d).passed

    def test_rotation_channel_is_not_covariant(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                choi += np.kron(unit, h @ unit @ h.conj().T)
        report = covariance_report(choi, 2, 2)
        assert not report.passed
        assert report.max_violation > 0.1

    @pytest.mark.parametrize("din,dout", [(1, 1), (1, 4), (2, 2), (3, 2), (2, 5), (4, 3)])
    def test_covariance_matches_loop_oracle_on_random_choi(self, din, dout):
        rng = np.random.default_rng(100 * din + dout)
        dim = din * dout
        choi = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        report = covariance_report(choi, din, dout)
        assert report.max_violation == covariance_violation_loop(choi, din, dout)
        assert report.basis_size == din * din

    @pytest.mark.parametrize(
        "target,d",
        [(fourier_flag_mixture(3), 2), (fourier_flag_mixture(6), 5), (noisy_max_coherent(0.3), 7)],
    )
    def test_covariance_matches_loop_oracle_on_synthesized(self, target, d):
        ch = dio_synthesize(target, d)
        args = (ch.choi, ch.input_dim, ch.output_dim)
        assert covariance_report(*args).max_violation == covariance_violation_loop(*args)

    def test_covariance_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="Choi dimension"):
            covariance_report(np.eye(6), 2, 2)

    def test_non_trace_preserving_choi_flagged(self):
        report = cptp_report(2 * np.eye(4), 2, 2)
        assert not report.passed


class TestSignFlip:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_reflection_identity_holds(self, d):
        assert sign_flip_check(d)

    def test_unitary_squares_to_identity(self):
        d = 5
        signs = np.concatenate([np.ones(d), -np.ones(d)])
        np.testing.assert_array_equal(signs * signs, np.ones(2 * d))


class TestMcTwirl:
    def test_kills_uncorrelated_coherence(self):
        psi = (mc_lift_vector(np.array([1.0, 0.0])) + np.eye(4)[1]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())  # coherence between |00> and |01>
        out = mc_twirl(rho)
        assert out[0, 1] == 0.0
        assert out[0, 0] == pytest.approx(0.5)

    def test_lifted_states_are_invariant(self):
        rng = np.random.default_rng(43)
        lifted = mc_lift(random_density(rng, 3))
        assert np.abs(mc_twirl(lifted) - lifted).max() == 0.0

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim * dim)
            once = mc_twirl(rho)
            assert np.abs(mc_twirl(once) - once).max() < 1e-15
            assert np.trace(once).real == pytest.approx(1.0)
            assert spectrum(once)[0] >= -1e-10

    def test_rejects_non_square_dimension(self):
        with pytest.raises(ValueError):
            mc_twirl(np.eye(6) / 6)


class TestMcdcApply:
    def test_lifted_rank_explosion_chain(self):
        for d_reg in (2, 3, 6):
            ch = dio_synthesize(fourier_flag_mixture(d_reg), 2)
            ebit = np.outer(
                mc_lift_vector(max_coherent(2)), mc_lift_vector(max_coherent(2)).conj()
            )
            out = mcdc_apply(ch, ebit)
            assert np.abs(out - mc_lift(fourier_flag_mixture(d_reg))).max() < 1e-12
            cert = schmidt_certificate(out, family="rho-d", d=d_reg)
            assert cert.exact and cert.lower == d_reg + 1

    def test_diagonal_fixed_point(self):
        sigma = np.diag([0.25, 0.75]).astype(complex)
        ch = dio_synthesize(sigma, 2)
        lifted = mc_lift(sigma)
        out = mcdc_apply(ch, lifted)
        assert np.abs(out - lifted).max() < 1e-14

    def test_rejects_uncorrelated_input(self):
        ch = dio_synthesize(noisy_max_coherent(0.3), 2)
        bad = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotMaximallyCorrelatedError):
            mcdc_apply(ch, bad)

    def test_rejects_wrong_dimension(self):
        ch = dio_synthesize(noisy_max_coherent(0.3), 2)
        with pytest.raises(ValueError):
            mcdc_apply(ch, np.eye(9) / 9)


class TestPureStateMonotonicity:
    def test_feasibility_tracks_coherence_rank(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            psi = random_pure(rng, dim)
            rho = np.outer(psi, psi.conj())
            rank = pure_coherence_rank(psi)
            assert dio_feasible(rho, rank)
            assert not dio_feasible(rho, rank - 1)

"""Property tests: the orbit pair witness and the structured omega-family
certificate against the dense oracles, the feasibility boundary
alpha = 2**(1/n) - 1, the maximally correlated Schmidt certificate against the
partial-transpose negativity bound, and the DIO feasibility test and
synthesized channel against the dephasing robustness."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cohrank import (
    InfeasiblePairEnsembleError,
    choi_apply,
    covariance_report,
    cptp_report,
    delta_robustness,
    dilution_dimension,
    dio_feasible,
    dio_synthesize,
    l1_rank_lower_bound,
    max_coherent,
    mc_lift,
    mc_unlift,
    negativity_rank_lower_bound,
    noisy_max_coherent,
    noisy_power_row,
    omega_power_certificate,
    power_pair_ensemble,
    power_pair_feasible,
    power_pair_members,
    power_pair_witness,
    rank_certificate,
    schmidt_certificate,
    tensor_power,
    verify_ensemble,
    verify_orbit,
)


def boundary(n):
    return 2 ** (1 / n) - 1


@st.composite
def feasible_params(draw, max_n=8):
    """n <= max_n and alpha in (0, boundary], the boundary itself included."""
    n = draw(st.integers(1, max_n))
    fraction = draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
    return boundary(n) * fraction, n


@st.composite
def near_boundary(draw):
    """alpha within four ulps of 2**(1/n) - 1, or within a relative 1e-3 of
    it, kept in (0, 1]; n <= 8."""
    n = draw(st.integers(1, 8))
    alpha = boundary(n)
    if draw(st.booleans()):
        steps = draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            alpha = float(np.nextafter(alpha, math.inf if steps > 0 else 0.0))
    else:
        alpha *= 1.0 + draw(st.floats(-1e-3, 1e-3))
    return min(alpha, 1.0), n


@settings(max_examples=25, deadline=None)
@given(feasible_params())
def test_pair_witness_matches_dense_oracle(params):
    alpha, n = params
    witness = power_pair_witness(alpha, n)
    oracle = power_pair_ensemble(alpha, n)
    assert len(witness) == len(oracle) == power_pair_members(alpha, n)
    np.testing.assert_array_equal(witness.weights, oracle.weights)
    np.testing.assert_array_equal(
        np.array([psi for _, psi in witness.members()]), oracle.states
    )
    target = tensor_power(noisy_max_coherent(alpha), n)
    fast, dense = verify_ensemble(witness, target), verify_ensemble(oracle, target)
    assert fast.max_member_rank == dense.max_member_rank == 2
    assert fast.feasible and dense.feasible
    assert fast.weight_sum == dense.weight_sum
    assert abs(fast.reconstruction_trace_distance - dense.reconstruction_trace_distance) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(feasible_params(max_n=10), st.floats(0.0, 1.0))
def test_structured_distance_matches_dense_eigvalsh(params, target_alpha):
    """verify_orbit's Walsh-Hadamard distance is the dense eigvalsh distance,
    for the witness's own target and for the power at another alpha."""
    alpha, n = params
    witness = power_pair_witness(alpha, n)
    for other in (alpha, target_alpha):
        fast = verify_orbit(witness, noisy_power_row(other, n))
        dense = verify_ensemble(witness, tensor_power(noisy_max_coherent(other), n))
        assert abs(fast.reconstruction_trace_distance - dense.reconstruction_trace_distance) <= 1e-12
        assert fast.feasible == dense.feasible
        assert fast.max_member_rank == dense.max_member_rank
        assert fast.weight_sum == pytest.approx(dense.weight_sum, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.floats(1e-6, 1.0), st.booleans())
def test_structured_certificate_matches_dense(n, fraction, beyond):
    """omega_power_certificate gives rank_certificate's bounds and tags on the
    dense power, and l1_rank_lower_bound's l1 bound, on either side of the
    boundary (beyond it, alpha runs from the boundary up to 1)."""
    edge = boundary(n)
    alpha = edge + fraction * (1.0 - edge) if beyond else edge * fraction
    rho = tensor_power(noisy_max_coherent(alpha), n)
    dense = rank_certificate(rho, "omega-power", alpha=alpha, n=n)
    fast, l1_lower = omega_power_certificate(alpha, n)
    assert (fast.lower, fast.upper, fast.lower_method, fast.upper_method) == (
        dense.lower, dense.upper, dense.lower_method, dense.upper_method
    )
    assert l1_lower == l1_rank_lower_bound(rho)


@settings(max_examples=40, deadline=None)
@given(near_boundary())
def test_feasibility_build_and_exactness_flip_together(params):
    alpha, n = params
    feasible = power_pair_feasible(alpha, n)
    try:
        power_pair_witness(alpha, n)
        built = True
    except InfeasiblePairEnsembleError:
        built = False
    rho = tensor_power(noisy_max_coherent(alpha), n)
    exact = rank_certificate(rho, "omega-power", alpha=alpha, n=n).exact
    assert feasible == built == exact


@pytest.mark.parametrize("excess,feasible", [(0.99e-12, True), (0.99e-12 * 2**10, False)])
def test_feasibility_tests_total_missing_mass(excess, feasible):
    """At n = 10 with (1+alpha)**n = 2 + excess, the witness is feasible and
    certifies exactly when the missing diagonal mass -excess is >= -1e-12."""
    alpha = (2 + excess) ** (1 / 10) - 1
    assert power_pair_feasible(alpha, 10) == feasible
    rho = tensor_power(noisy_max_coherent(alpha), 10)
    cert = rank_certificate(rho, "omega-power", alpha=alpha, n=10)
    assert cert.upper_method == ("ensemble-witness" if feasible else "eigenvector-ensemble")
    assert cert.exact == feasible


@st.composite
def densities(draw, max_dim=6):
    """Density matrix of dimension 1..max_dim and rank 1..dim from a seeded Gaussian factor."""
    dim = draw(st.integers(1, max_dim))
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


@settings(max_examples=40, deadline=None)
@given(densities())
def test_lift_round_trip_is_exact(rho):
    """mc_unlift inverts mc_lift exactly: the lift only moves entries."""
    np.testing.assert_array_equal(mc_unlift(mc_lift(rho)), rho)


@settings(max_examples=40, deadline=None)
@given(densities())
def test_correlated_schmidt_certificate_matches_negativity_oracle(rho):
    """On a lift, the base certificate's lower bound already includes the
    negativity bound: ||lift(rho)^G||_1 = 1 + ||rho||_l1."""
    d = rho.shape[0]
    lifted = mc_lift(rho)
    base = rank_certificate(rho)
    cert = schmidt_certificate(lifted)
    assert cert.lower == max(base.lower, negativity_rank_lower_bound(lifted, d, d))
    assert (cert.upper, cert.lower_method, cert.upper_method) == (
        base.upper,
        base.lower_method,
        base.upper_method,
    )


@settings(max_examples=100, deadline=None)
@given(densities(max_dim=8), st.integers(1, 9))
def test_dio_feasibility_matches_dilution_dimension(rho, d):
    """Away from the boundary, the gap test d * dephase(rho) - rho >= 0 and the
    robustness eigensolve that dio prints agree on feasibility."""
    robustness = delta_robustness(rho)
    assume(abs(robustness - d) > 1e-6)
    assert dio_feasible(rho, d) == (d >= dilution_dimension(robustness))


@settings(max_examples=40, deadline=None)
@given(densities(), st.integers(0, 3))
def test_synthesized_channel_is_a_covariant_channel_onto_the_target(rho, extra):
    """For any d >= dilution_dimension (and >= 2), dio_synthesize gives a
    channel that is CPTP, commutes with dephasing and maps the uniform d-level
    superposition onto the target."""
    robustness = delta_robustness(rho)
    d = max(2, dilution_dimension(robustness)) + extra
    assume(abs(robustness - d) > 1e-6)
    ch = dio_synthesize(rho, d)
    assert cptp_report(ch.choi, d, rho.shape[0]).passed
    assert covariance_report(ch.choi, d, rho.shape[0]).passed
    phi = max_coherent(d)
    image = choi_apply(ch.choi, d, rho.shape[0], np.outer(phi, phi.conj()))
    assert np.abs(image - rho).max() <= 1e-9

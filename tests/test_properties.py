"""Property tests: the index-array pair witness against the dense oracle, and
the feasibility boundary alpha = 2**(1/n) - 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohrank import (
    InfeasiblePairEnsembleError,
    noisy_max_coherent,
    power_pair_ensemble,
    power_pair_feasible,
    power_pair_members,
    power_pair_witness,
    rank_certificate,
    tensor_power,
    verify_ensemble,
)


def boundary(n):
    return 2 ** (1 / n) - 1


@st.composite
def feasible_params(draw):
    """n <= 8 and alpha in (0, boundary], the boundary itself included."""
    n = draw(st.integers(1, 8))
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

"""Dephasing-covariant channel synthesis from Choi matrices, validation, and the correlated lift."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    DimensionCapError,
    _require_finite,
    as_complex_matrix,
    dephase,
    dim_cap,
    psd_tol,
    spectrum,
)
from .states import (
    CorrelatedState,
    fourier_flag_mixture,
    max_coherent,
    mc_labels,
    mc_unlift,
)

TOL_COV = 1e-9
TOL_TRACE_OUT = 1e-9
# sign_flip_check: entrywise match of the reflection, and its PSD slack.
TOL_REFLECT = 1e-12
TOL_REFLECT_PSD = 1e-10


class DioInfeasibleError(Exception):
    """The requested target cannot be reached from the chosen uniform input."""


@dataclass(frozen=True)
class DioChannel:
    """Channel taking the uniform d-level superposition to a fixed target state.

    choi is the unnormalized Choi matrix on input (x) output, assembled in the
    permutation-symmetrized form

        choi = P (x) component_a + (I - P) (x) component_b,

    where P projects onto the uniform superposition of the input levels.
    component_a is the target itself, component_d its diagonal part,
    component_z its off-diagonal part, and
    component_b = component_d - component_z / (d - 1). Both component_a and
    component_b are unit-trace and positive semidefinite, which makes the
    channel completely positive and trace preserving; the shared-diagonal
    relation dephase(a) = dephase(b) = a/d + (1 - 1/d) b makes it commute
    with full dephasing.
    """

    input_dim: int
    output_dim: int
    choi: np.ndarray
    component_a: np.ndarray
    component_b: np.ndarray
    component_d: np.ndarray
    component_z: np.ndarray


@dataclass(frozen=True)
class CptpReport:
    min_choi_eigenvalue: float
    trace_out_violation: float
    passed: bool


@dataclass(frozen=True)
class CovarianceReport:
    max_violation: float
    basis_size: int
    passed: bool


def dio_feasible(rho, d: int, tol_psd: float | None = None) -> bool:
    """Whether the uniform d-level superposition reaches rho dephasing-covariantly.

    True iff d * dephase(rho) - rho is positive semidefinite up to a slack:
    tol_psd when given (finite, >= 0), else the scale-aware psd_tol of the
    gap. Equivalently, d is at least the dephasing robustness of rho. This
    is the one place DIO feasibility is decided; dio_synthesize asks it. A
    non-finite target raises ValueError before the gap is formed.
    """
    rho = as_complex_matrix(rho)
    _require_finite(rho, "target")
    if d < 1:
        raise ValueError(f"input dimension must be >= 1, got {d}")
    if tol_psd is not None and not 0.0 <= tol_psd < math.inf:
        raise ValueError(f"PSD tolerance must be finite and >= 0, got {tol_psd}")
    gap = d * dephase(rho) - rho
    slack = psd_tol(gap) if tol_psd is None else tol_psd
    return float(spectrum(gap)[0]) >= -slack


def dio_synthesize(rho, d: int, tol_psd: float | None = None) -> DioChannel:
    """Build the channel mapping the uniform d-level superposition onto rho.

    Raises DioInfeasibleError when dio_feasible(rho, d, tol_psd) is False:
    the complementary component (d * dephase(rho) - rho) / (d - 1) is then
    not positive semidefinite. Only a feasible request is checked against
    the cap: DimensionCapError, before the Choi matrix is built, when the
    d * dim(rho) Choi side exceeds dim_cap().
    """
    rho = as_complex_matrix(rho)
    if d < 2:
        raise ValueError(f"synthesis needs input dimension >= 2, got {d}")
    if not dio_feasible(rho, d, tol_psd):
        raise DioInfeasibleError(
            f"d * dephase(rho) - rho is not positive semidefinite; "
            f"the target needs a larger input dimension than {d}"
        )
    limit = dim_cap()
    if d * rho.shape[0] > limit:
        raise DimensionCapError(
            f"channel Choi dimension {d} x {rho.shape[0]} exceeds cap {limit}"
        )
    diag_part = dephase(rho)
    off_part = rho - diag_part
    comp_a = rho
    comp_b = diag_part - off_part / (d - 1)
    phi = max_coherent(d)
    proj = np.outer(phi, phi.conj())
    choi = np.kron(proj, comp_a) + np.kron(np.eye(d) - proj, comp_b)
    return DioChannel(
        input_dim=d,
        output_dim=rho.shape[0],
        choi=choi,
        component_a=comp_a,
        component_b=comp_b,
        component_d=diag_part,
        component_z=off_part,
    )


def choi_apply(choi, din: int, dout: int, sigma) -> np.ndarray:
    """Apply a channel given by its unnormalized Choi matrix on input (x) output.

    Action: trace out the input factor of (sigma^T (x) I) choi. Accepts any
    square matrix of the input dimension, not just states.
    """
    choi = as_complex_matrix(choi)
    sigma = as_complex_matrix(sigma)
    if choi.shape[0] != din * dout:
        raise ValueError(f"Choi dimension {choi.shape[0]} != {din} * {dout}")
    if sigma.shape[0] != din:
        raise ValueError(f"input dimension {sigma.shape[0]} != {din}")
    blocks = choi.reshape(din, dout, din, dout)
    return np.einsum("ki,kaib->ab", sigma, blocks)


def cptp_report(choi, din: int, dout: int) -> CptpReport:
    """Complete positivity (Choi PSD) and trace preservation (input marginal = I)."""
    choi = as_complex_matrix(choi)
    if choi.shape[0] != din * dout:
        raise ValueError(f"Choi dimension {choi.shape[0]} != {din} * {dout}")
    min_eig = float(spectrum(choi)[0])
    marginal = np.einsum("iaja->ij", choi.reshape(din, dout, din, dout))
    violation = float(np.abs(marginal - np.eye(din)).max())
    passed = min_eig >= -psd_tol(choi) and violation <= TOL_TRACE_OUT
    return CptpReport(
        min_choi_eigenvalue=min_eig, trace_out_violation=violation, passed=passed
    )


def covariance_report(choi, din: int, dout: int) -> CovarianceReport:
    """Check commutation with full dephasing on all din^2 matrix units.

    By linearity this basis is sufficient: the report carries the largest
    trace-norm mismatch between dephase-then-apply and apply-then-dephase.
    The channel maps E_ij to the Choi block B_ij, so the mismatch is
    B_ii - dephase(B_ii) for i == j and -dephase(B_ij) otherwise; all din^2
    trace norms come from one batched singular-value call.
    """
    choi = as_complex_matrix(choi)
    if choi.shape[0] != din * dout:
        raise ValueError(f"Choi dimension {choi.shape[0]} != {din} * {dout}")
    _require_finite(choi, "Choi matrix")
    blocks = choi.reshape(din, dout, din, dout).transpose(0, 2, 1, 3)
    units, levels = np.arange(din)[:, None], np.arange(dout)
    mismatch = np.zeros(blocks.shape, dtype=complex)
    mismatch[:, :, levels, levels] = -blocks[:, :, levels, levels]
    mismatch[units, units] = blocks[units, units]
    mismatch[units, units, levels, levels] = 0.0
    worst = float(np.linalg.svd(mismatch, compute_uv=False).sum(-1).max())
    return CovarianceReport(
        max_violation=worst, basis_size=din * din, passed=worst <= TOL_COV
    )


def sign_flip_check(d: int) -> bool:
    """Verify the reflection identity behind the flag-mixture feasibility proof.

    Conjugating the flag mixture by the diagonal unitary that negates the
    upper register flips the sign of its off-diagonal block:
    U rho U^dagger = dephase(rho) - (rho - dephase(rho)), and the result is
    positive semidefinite, which is exactly 2 * dephase(rho) - rho >= 0.
    """
    rho = fourier_flag_mixture(d)
    signs = np.concatenate([np.ones(d), -np.ones(d)])
    conjugated = rho * np.outer(signs, signs)
    reflected = 2.0 * dephase(rho) - rho
    if float(np.abs(conjugated - reflected).max()) > TOL_REFLECT:
        return False
    return float(spectrum(reflected)[0]) >= -TOL_REFLECT_PSD


def mc_twirl(rho_hat) -> np.ndarray:
    """Project a d x d bipartite state onto the diagonal-twirl-invariant algebra.

    Keeps every diagonal entry <ij|rho|ij> and the correlated block
    <ii|rho|jj>, zeroing everything else. This is the exact average over
    conjugations by U (x) U* with U diagonal unitary; it is idempotent,
    trace preserving and positive.
    """
    rho_hat = as_complex_matrix(rho_hat)
    dim = rho_hat.shape[0]
    d = math.isqrt(dim)
    if d * d != dim:
        raise ValueError(f"dimension {dim} is not a perfect square")
    out = np.diag(np.diag(rho_hat))
    idx = mc_labels(d)
    out[np.ix_(idx, idx)] = rho_hat[np.ix_(idx, idx)]
    return out


def mcdc_apply(ch: DioChannel, rho_hat) -> CorrelatedState:
    """Apply the correlated lift of a synthesized channel to a correlated state.

    The input must be maximally correlated (a dense matrix or a
    CorrelatedState, so lifted channels chain) with local dimension equal to
    the channel's input dimension. The output is the lift of the channel
    acting on the unlifted state, returned as a CorrelatedState: only the
    output_dim-sided base is formed, never the output_dim**2-sided lift.
    """
    if not isinstance(rho_hat, CorrelatedState):
        rho_hat = as_complex_matrix(rho_hat)
    if rho_hat.shape[0] != ch.input_dim**2:
        raise ValueError(
            f"correlated input dimension {rho_hat.shape[0]} != {ch.input_dim}^2"
        )
    base = mc_unlift(rho_hat)
    return CorrelatedState(choi_apply(ch.choi, ch.input_dim, ch.output_dim, base))

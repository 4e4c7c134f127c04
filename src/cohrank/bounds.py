"""Rank lower bounds, matched certificates, and zero-error / asymptotic cost quantities."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .decompositions import (
    Ensemble,
    WeightedEnsemble,
    dual_flag_ensemble,
    power_pair_feasible,
    power_pair_witness,
    verify_ensemble,
    verify_orbit,
)
from .kernel import (
    _require_finite,
    as_complex_matrix,
    binomial_sum,
    binomials,
    krawtchouk,
    partial_transpose,
    trace_norm,
)
from .states import TAU_AMP, CorrelatedState, NotMaximallyCorrelatedError, mc_unlift

# ceil(x - CEIL_GUARD) keeps float noise from inflating an exactly-integer bound;
# floor(x + CEIL_GUARD) is the matching guard in the other direction.
CEIL_GUARD = 1e-9
# Off-diagonal l1 mass above this counts as genuine nondiagonality.
NONDIAG_TOL = 1e-9
# Eigenvalues at or below this are dropped from eigenvector ensembles.
EIG_CUTOFF = 1e-12
# Diagonal entries at or below this are outside the dephased support
# (positivity forces the corresponding rows to vanish).
DIAG_SUPPORT_TOL = 1e-12


def l1_coherence(m) -> float:
    """Sum of |entry| over all off-diagonal positions; ValueError on a non-finite entry."""
    m = np.asarray(m, dtype=complex)
    _require_finite(m, "matrix")
    a = np.abs(m)
    return float(a.sum() - np.trace(a))


def _l1_bound(offdiag: float) -> int:
    return math.ceil(offdiag + 1.0 - CEIL_GUARD)


def l1_rank_lower_bound(m) -> int:
    """Coherence rank is at least the off-diagonal l1 mass plus one."""
    return _l1_bound(l1_coherence(m))


def negativity(rho_hat, dim_a: int, dim_b: int) -> float:
    """(trace norm of the partial transpose - 1) / 2 for a bipartite state.

    Raises ValueError on a non-finite entry before the singular values.
    """
    rho_hat = as_complex_matrix(rho_hat)
    _require_finite(rho_hat, "matrix")
    return 0.5 * (trace_norm(partial_transpose(rho_hat, dim_a, dim_b)) - 1.0)


def negativity_rank_lower_bound(rho_hat, dim_a: int, dim_b: int) -> int:
    """Schmidt number is at least twice the negativity plus one."""
    return math.ceil(2.0 * negativity(rho_hat, dim_a, dim_b) + 1.0 - CEIL_GUARD)


def delta_robustness(rho) -> float:
    """Smallest lam such that lam * dephase(rho) - rho is positive semidefinite.

    Computed as the top eigenvalue of D^(-1/2) rho D^(-1/2) restricted to the
    support of D = dephase(rho); diagonal entries at or below
    DIAG_SUPPORT_TOL are dropped. Equals 1 exactly on diagonal states and the
    coherence rank on pure states.
    """
    rho = as_complex_matrix(rho)
    _require_finite(rho, "matrix")
    diag = np.diag(rho).real
    support = np.flatnonzero(diag > DIAG_SUPPORT_TOL)
    if support.size == 0:
        return 1.0
    sub = rho[np.ix_(support, support)]
    scale = 1.0 / np.sqrt(diag[support])
    balanced = sub * np.outer(scale, scale)
    return float(np.linalg.eigvalsh(balanced)[-1])


def dilution_dimension(robustness: float) -> int:
    """Smallest d >= 1 with d * dephase(rho) - rho PSD, given delta_robustness(rho)."""
    return max(1, math.ceil(robustness - CEIL_GUARD))


def pure_schmidt_rank(psi, dim_a: int, dim_b: int) -> int:
    """Number of singular values of the amplitude matrix above TAU_AMP."""
    psi = np.asarray(psi, dtype=complex)
    if psi.size != dim_a * dim_b:
        raise ValueError(f"vector size {psi.size} does not factor as {dim_a} x {dim_b}")
    _require_finite(psi, "state vector")
    sv = np.linalg.svd(psi.reshape(dim_a, dim_b), compute_uv=False)
    return int(np.count_nonzero(sv > TAU_AMP))


@dataclass(frozen=True)
class RankCertificate:
    """Matched lower/upper bounds on a rank with method provenance.

    lower_method is one of "l1", "negativity", "analytic-family",
    "nondiagonality"; upper_method is "ensemble-witness",
    "eigenvector-ensemble" or "pure-rank". The rank is certified exactly
    when the two bounds meet.
    """

    lower: int
    upper: int | None
    lower_method: str
    upper_method: str | None
    witness: Ensemble | None = None

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper


def _eigenvector_ensemble(rho: np.ndarray, member_rank) -> tuple[int, str, WeightedEnsemble]:
    """Upper bound, method tag and witness from the eigenvector ensemble of rho.

    The bound is member_rank(ensemble), its largest member rank. A single
    member is rho itself, so the bound is then the pure-state rank.
    """
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > EIG_CUTOFF
    witness = WeightedEnsemble(weights=vals[keep], states=vecs[:, keep].T)
    method = "pure-rank" if len(witness) == 1 else "eigenvector-ensemble"
    return member_rank(witness), method, witness


def _check_family(family: str | None, **params) -> None:
    """Reject a family hint that is unknown or lacks its own parameters."""
    needs = {None: (), "omega-power": ("alpha", "n"), "rho-d": ("d",)}
    if family not in needs:
        raise ValueError(f"unknown family {family!r}; expected omega-power or rho-d")
    missing = [name for name in needs[family] if params[name] is None]
    if missing:
        raise ValueError(f"family {family!r} needs {', '.join(missing)}")


def _lower_bound(offdiag: float, analytic: int | None = None) -> tuple[int, str]:
    """Best of the analytic family floor, the l1 bound and the nondiagonality floor 2.

    Among equal bounds the first listed wins.
    """
    candidates: list[tuple[int, str]] = []
    if analytic is not None:
        candidates.append((analytic, "analytic-family"))
    candidates.append((_l1_bound(offdiag), "l1"))
    if offdiag > NONDIAG_TOL:
        candidates.append((2, "nondiagonality"))
    return max(candidates, key=lambda c: c[0])


def _settled(cert: RankCertificate, max_rank: int) -> RankCertificate:
    """Keep lower <= upper <= max_rank, the largest rank any state here has.

    A larger lower bound means the input is not a density matrix. An upper
    bound below the lower one counted amplitudes or singular values under
    TAU_AMP as zero; max_rank bounds every member regardless.
    """
    if cert.lower > max_rank:
        raise ValueError(
            f"rank lower bound {cert.lower} exceeds {max_rank}: not a density matrix"
        )
    return replace(cert, upper=max_rank) if cert.upper < cert.lower else cert


def rank_certificate(
    rho,
    family: str | None = None,
    *,
    alpha: float | None = None,
    n: int | None = None,
    d: int | None = None,
) -> RankCertificate:
    """Certify the coherence rank of a state with matched bounds.

    The lower bound is the best of the l1 bound, the nondiagonality floor of 2,
    and (for verified flag mixtures, family="rho-d") the analytic floor d+1.
    The upper bound comes from the named ensemble construction when a family
    hint is given and its witness verifies against rho ("omega-power" needs
    alpha and n, "rho-d" needs d); otherwise it falls back to the eigenvector
    ensemble, which is generally loose, so exactness is only claimed when both
    bounds meet. A hint whose witness fails to verify is dropped entirely,
    which keeps lower <= upper even for mislabeled inputs; so is a hint whose
    dimension (2**n, 2d) is not the matrix side, before its witness is built.
    Unknown or incomplete hints, non-finite entries and non-states whose
    lower bound exceeds the dimension raise ValueError.
    """
    _check_family(family, alpha=alpha, n=n, d=d)
    rho = as_complex_matrix(rho)
    offdiag = l1_coherence(rho)  # raises on a non-finite entry

    side = rho.shape[0]
    ens: Ensemble | None = None
    if (family == "omega-power" and 0 < alpha < math.inf
            and side & (side - 1) == 0 and n == side.bit_length() - 1):
        ens = power_pair_witness(alpha, n) if power_pair_feasible(alpha, n) else None
    elif family == "rho-d" and 2 * d == side:
        ens = dual_flag_ensemble(d)
    witness: Ensemble | None = None
    upper: int | None = None
    upper_method: str | None = None
    if ens is not None:
        report = verify_ensemble(ens, rho)
        if report.feasible:
            witness, upper, upper_method = ens, report.max_member_rank, "ensemble-witness"

    analytic = d + 1 if family == "rho-d" and witness is not None else None
    lower, lower_method = _lower_bound(offdiag, analytic)

    if witness is None:
        if offdiag <= NONDIAG_TOL:
            # Diagonal state: the basis-state ensemble is its eigenvector
            # ensemble, independent of how the solver orders degeneracies.
            diag = np.diag(rho).real
            keep = np.flatnonzero(diag > EIG_CUTOFF)
            witness = WeightedEnsemble(
                weights=diag[keep], states=np.eye(rho.shape[0])[keep]
            )
            upper = 1
            upper_method = "eigenvector-ensemble"
        else:
            upper, upper_method, witness = _eigenvector_ensemble(
                rho, WeightedEnsemble.max_member_rank
            )

    cert = RankCertificate(lower, upper, lower_method, upper_method, witness)
    return _settled(cert, rho.shape[0])


def schmidt_certificate(
    rho_hat,
    dims: tuple[int, int] | None = None,
    family: str | None = None,
    *,
    alpha: float | None = None,
    n: int | None = None,
    d: int | None = None,
) -> RankCertificate:
    """Certify the Schmidt number of a bipartite state.

    On maximally correlated states the Schmidt number equals the coherence
    rank of the unlifted state, so the full coherence certificate transfers
    (its witness is lifted by the label map i -> ii) and no partial
    transpose is formed. A CorrelatedState is certified from its base alone,
    with no lift and no scan; its dims, when given, must be (d, d). A dense
    input is scanned by mc_unlift. Otherwise only the negativity lower bound
    and an eigenvector upper bound are reported. Raises ValueError like
    rank_certificate.
    """
    _check_family(family, alpha=alpha, n=n, d=d)
    base = None
    if isinstance(rho_hat, CorrelatedState):
        side = rho_hat.base.shape[0]
        if dims is not None and tuple(dims) != (side, side):
            raise ValueError(f"a correlated state with base dimension {side} has dims "
                             f"({side}, {side}), not {tuple(dims)}")
        base = rho_hat.base
    else:
        rho_hat = as_complex_matrix(rho_hat)
        if dims is None:
            side = math.isqrt(rho_hat.shape[0])
            dims = (side, side)
        dim_a, dim_b = dims
        if dim_a * dim_b != rho_hat.shape[0]:
            raise ValueError(
                f"dimension {rho_hat.shape[0]} does not factor as {dim_a} x {dim_b}"
            )
        if dim_a == dim_b:
            try:
                base = mc_unlift(rho_hat)
            except NotMaximallyCorrelatedError:
                pass
    if base is not None:
        # ||lift(rho)^G||_1 = 1 + ||rho||_l1, so the negativity bound is the
        # base l1 bound, which rank_certificate already takes.
        cert = rank_certificate(base, family, alpha=alpha, n=n, d=d)
        witness = None if cert.witness is None else cert.witness.lifted()
        return RankCertificate(
            cert.lower, cert.upper, cert.lower_method, cert.upper_method, witness
        )

    # negativity raises on a non-finite entry, before the eigh below.
    neg_lower = negativity_rank_lower_bound(rho_hat, dim_a, dim_b)
    upper, upper_method, witness = _eigenvector_ensemble(
        rho_hat,
        lambda ens: max((pure_schmidt_rank(v, dim_a, dim_b) for v in ens.states), default=1),
    )
    cert = RankCertificate(neg_lower, upper, "negativity", upper_method, witness)
    return _settled(cert, min(dim_a, dim_b))


def omega_power_certificate(alpha: float, n: int) -> tuple[RankCertificate, int]:
    """Certify the coherence rank of omega(alpha)^(x)n, 0 < alpha <= 1, with no 2**n-sized array.

    Returns the certificate and the l1 bound by itself. The power is
    M[i, j] = row[popcount(i ^ j)] / 2**n with row[w] = alpha**w, so its l1
    mass is binomial_sum(row) minus the trace 1 and its eigenvalues are
    krawtchouk(row) / 2**n. The upper bound is the orbit witness checked by
    verify_orbit when it is feasible; otherwise the eigenvector ensemble,
    whose members are the Hadamard rows, each of coherence rank 2**n, so the
    bound is the dimension and no member is materialized ("pure-rank" when
    exactly one eigenvalue exceeds EIG_CUTOFF). These are the bounds and tags
    rank_certificate gives on the dense power, in O(n**2) time and memory.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"mixing parameter must lie in (0, 1], got {alpha}")
    feasible = power_pair_feasible(alpha, n)
    target = alpha ** np.arange(n + 1, dtype=float)
    # Total mass minus the trace 1, the order l1_coherence sums in: at
    # alpha = 1e-9, n = 1 the mass sits on NONDIAG_TOL and rounding decides.
    # Rounded once, the mass never exceeds 2**n, nor the l1 bound the dimension.
    offdiag = binomial_sum(target) - 1.0
    witness, upper, upper_method = None, 2**n, None
    if feasible:
        orbit = power_pair_witness(alpha, n)
        report = verify_orbit(orbit, target)
        if report.feasible:
            witness, upper, upper_method = orbit, report.max_member_rank, "ensemble-witness"
    if witness is None:
        above = binomials(n)[np.ldexp(krawtchouk(target), -n) > EIG_CUTOFF].sum()
        upper_method = "pure-rank" if above == 1 else "eigenvector-ensemble"
    lower, lower_method = _lower_bound(offdiag)
    cert = RankCertificate(lower, upper, lower_method, upper_method, witness)
    return _settled(cert, 2**n), _l1_bound(offdiag)


def regularized_cost_bounds(alpha: float) -> tuple[float, float]:
    """Lower and upper bounds on the per-copy zero-error cost of the noisy coherent qubit.

    The lower bound log2(1+alpha) comes from the l1 bound applied per copy; the
    upper bound 1/m with m = floor(1/log2(1+alpha)) comes from the rank-2 pair
    ensemble at m copies. The bounds coincide exactly when 1/log2(1+alpha) is
    an integer.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"mixing parameter must lie in (0, 1], got {alpha}")
    if 1.0 + alpha == 1.0:
        raise ValueError(
            f"mixing parameter {alpha} is below double precision: log2(1+alpha) rounds to 0"
        )
    lower = math.log2(1.0 + alpha)
    copies = math.floor(1.0 / lower + CEIL_GUARD)
    return lower, 1.0 / copies


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2(1-x), with the 0 log 0 = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def asymptotic_entanglement_cost(alpha: float) -> float:
    """Vanishing-error entanglement cost of the lifted noisy coherent qubit state.

    Equals the binary entropy of (1 - sqrt(1 - alpha^2)) / 2; additivity of the
    entanglement of formation for this family makes the single-letter formula
    exact.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {alpha}")
    return binary_entropy(0.5 * (1.0 - math.sqrt(1.0 - alpha * alpha)))


@dataclass(frozen=True)
class CostReport:
    """Resource costs for n copies of the noisy coherent qubit family.

    zero_error is log2(certified_rank)/n when the rank is certified exactly,
    otherwise an interval (lower, upper) from the matched bounds, and
    certified_rank is then None. l1_lower is the l1 bound on the rank of
    omega(alpha)^(x)n by itself. The chain
    asymptotic_ec <= regularized_lower <= regularized_upper <= zero_error
    upper value always holds (within 1e-9).
    """

    alpha: float
    n: int
    zero_error: float | tuple[float, float]
    regularized_lower: float
    regularized_upper: float
    asymptotic_ec: float
    l1_lower: int
    certified_rank: int | None

    @property
    def zero_error_upper(self) -> float:
        if isinstance(self.zero_error, tuple):
            return self.zero_error[1]
        return self.zero_error


def cost_report(alpha: float, n: int = 1) -> CostReport:
    """Assemble the zero-error / regularized / asymptotic cost chain.

    The rank comes from omega_power_certificate, so nothing 2**n-sized is
    formed and n is held to MAX_COPIES (alpha = 0 needs no rank).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {alpha}")
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    if alpha == 0.0:
        return CostReport(alpha, n, 0.0, 0.0, 0.0, 0.0, l1_lower=1, certified_rank=1)

    cert, l1_lower = omega_power_certificate(alpha, n)
    certified = cert.upper if cert.exact else None
    if certified is not None:
        zero_error: float | tuple[float, float] = math.log2(certified) / n
    else:
        zero_error = (math.log2(cert.lower) / n, math.log2(cert.upper) / n)
    reg_lower, reg_upper = regularized_cost_bounds(alpha)
    rep = CostReport(
        alpha, n, zero_error, reg_lower, reg_upper, asymptotic_entanglement_cost(alpha),
        l1_lower, certified,
    )

    chain = (rep.asymptotic_ec, reg_lower, reg_upper, rep.zero_error_upper)
    for left, right in zip(chain, chain[1:]):
        if left > right + 1e-9:
            raise RuntimeError(f"cost chain ordering violated: {chain}")
    return rep

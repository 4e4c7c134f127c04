"""Explicit pure-state ensembles certifying rank upper bounds, and their verification.

Two ensemble types share one interface (target_dim, weights, len, members,
reconstruction, max_member_rank, lifted): WeightedEnsemble stores dense
amplitude rows, PairEnsemble stores the two-level pair witness by basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import as_complex_matrix, dim_cap, DimensionCapError
from .states import TAU_AMP, fourier_flag_dual

# Members whose weight falls at or below cutoff/size are dropped as exact zeros.
WEIGHT_CUTOFF = 1e-12
# Amplitude of each level in a two-level member (|i> + |j>)/sqrt(2).
PAIR_AMP = 1.0 / math.sqrt(2)


class InfeasiblePairEnsembleError(Exception):
    """The requested pair ensemble has negative residual weight.

    The construction only closes for alpha <= 2**(1/n) - 1; the offending
    boundary value is carried on the exception.
    """

    def __init__(self, alpha: float, n: int):
        self.alpha = alpha
        self.n = n
        self.boundary_alpha = 2.0 ** (1.0 / n) - 1.0
        super().__init__(
            f"pair ensemble infeasible: alpha={alpha} exceeds boundary "
            f"{self.boundary_alpha:.12g} for n={n}"
        )


@dataclass(frozen=True)
class WeightedEnsemble:
    """Convex mixture of pure states, stored row-wise.

    weights: shape (m,) floats, nonnegative up to -1e-12, summing to 1.
    states: shape (m, target_dim); rows are normalized amplitude vectors
    (float64 when all amplitudes are real, else complex128).
    """

    weights: np.ndarray
    states: np.ndarray

    @property
    def target_dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.weights.size

    def members(self):
        """Iterate (weight, amplitude-vector) pairs."""
        return zip(self.weights.tolist(), self.states)

    def reconstruction(self) -> np.ndarray:
        """The mixture sum_k w_k |psi_k><psi_k| as a dense matrix."""
        weighted = self.states * self.weights[:, None]
        return weighted.T @ self.states.conj()

    def max_member_rank(self) -> int:
        """Largest number of amplitudes above TAU_AMP in any member."""
        return int((np.abs(self.states) > TAU_AMP).sum(axis=1).max())

    def lifted(self) -> "WeightedEnsemble":
        """Maximally correlated lift: each amplitude on |i> moves to |ii>."""
        dim = self.target_dim
        states = np.zeros((len(self), dim * dim), dtype=self.states.dtype)
        states[:, np.arange(dim) * (dim + 1)] = self.states
        return WeightedEnsemble(weights=self.weights, states=states)


@dataclass(frozen=True)
class PairEnsemble:
    """Two-level pure ensemble stored by basis index, never as amplitude rows.

    Member k < len(rows) is (|rows[k]> + |cols[k]>)/sqrt(2) with weight
    pair_weights[k] (rows[k] < cols[k], each pair listed once); then every
    label in basis enters as a basis state with weight residual. Labels index
    a space of dimension target_dim. Storage and reconstruction are
    O(members), where dense rows would cost O(members * target_dim).
    """

    target_dim: int
    rows: np.ndarray
    cols: np.ndarray
    pair_weights: np.ndarray
    basis: np.ndarray
    residual: float

    @property
    def weights(self) -> np.ndarray:
        """All member weights, pairs first, in member order."""
        return np.concatenate([self.pair_weights, np.full(self.basis.size, self.residual)])

    def __len__(self) -> int:
        return self.rows.size + self.basis.size

    def members(self):
        """Iterate (weight, amplitude-vector) pairs, building one dense vector at a time."""
        for i, j, w in zip(self.rows.tolist(), self.cols.tolist(), self.pair_weights.tolist()):
            psi = np.zeros(self.target_dim)
            psi[i] = psi[j] = PAIR_AMP
            yield w, psi
        for b in self.basis.tolist():
            psi = np.zeros(self.target_dim)
            psi[b] = 1.0
            yield self.residual, psi

    def reconstruction(self) -> np.ndarray:
        """The mixture as a dense matrix, scatter-added from the index arrays."""
        size = self.target_dim
        half = 0.5 * self.pair_weights
        # (|i> + |j>)(<i| + <j|)/2 puts w/2 on (i, j), (j, i), (i, i) and (j, j).
        off = np.bincount(self.rows * size + self.cols, half, size * size)
        off = off.reshape(size, size)
        recon = off + off.T
        recon.flat[:: size + 1] += (
            np.bincount(self.rows, half, size)
            + np.bincount(self.cols, half, size)
            + self.residual * np.bincount(self.basis, minlength=size)
        )
        return recon

    def max_member_rank(self) -> int:
        """2 if any pair member is present, else 1 if any basis member is."""
        return 2 if self.rows.size else int(self.basis.size > 0)

    def lifted(self) -> "PairEnsemble":
        """Maximally correlated lift: label i maps to |ii>, i.e. i * (target_dim + 1)."""
        stride = self.target_dim + 1
        return PairEnsemble(
            target_dim=self.target_dim**2,
            rows=self.rows * stride,
            cols=self.cols * stride,
            pair_weights=self.pair_weights,
            basis=self.basis * stride,
            residual=self.residual,
        )


Ensemble = WeightedEnsemble | PairEnsemble


@dataclass(frozen=True)
class EnsembleReport:
    reconstruction_trace_distance: float
    max_member_rank: int
    weight_sum: float
    feasible: bool


def power_pair_feasible(alpha: float, n: int) -> bool:
    """Whether the two-level ensemble for the n-fold noisy coherent power closes.

    The test is on the total missing diagonal mass 2 - (1+alpha)**n, so a
    feasible witness always passes the 1e-9 weight-sum check of
    verify_ensemble, whatever n.
    """
    return 2.0 - (1.0 + alpha) ** n >= -WEIGHT_CUTOFF


def _pair_residual(alpha: float, n: int, cap: int | None) -> float:
    """Validate the pair-ensemble parameters; return the per-basis-state residual weight."""
    if alpha <= 0.0:
        raise ValueError(f"mixing parameter must be positive, got {alpha}")
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    size = 2**n
    limit = dim_cap() if cap is None else cap
    if size > limit:
        raise DimensionCapError(f"ensemble dimension {size} exceeds cap {limit}")
    if not power_pair_feasible(alpha, n):
        raise InfeasiblePairEnsembleError(alpha, n)
    return (2.0 - (1.0 + alpha) ** n) / size


def _keeps_basis(residual: float, size: int) -> bool:
    return residual > WEIGHT_CUTOFF / size


def power_pair_members(alpha: float, n: int, cap: int | None = None) -> int:
    """Member count of power_pair_witness(alpha, n), without building it; raises like it."""
    residual = _pair_residual(alpha, n, cap)
    size = 2**n
    return size * (size - 1) // 2 + (size if _keeps_basis(residual, size) else 0)


def power_pair_witness(alpha: float, n: int, cap: int | None = None) -> PairEnsemble:
    """Index-array form of power_pair_ensemble: same members, order and weights.

    Stores the pair labels (i, j), i < j in lexicographic order, their weights
    2 * alpha**hamming(i, j) / 2**n and the basis residual
    (2 - (1+alpha)**n) / 2**n, in O(4**n) memory instead of O(8**n). Raises
    like power_pair_ensemble.
    """
    residual = _pair_residual(alpha, n, cap)
    size = 2**n
    rows, cols = np.triu_indices(size, k=1)
    hamming = np.bitwise_count(rows ^ cols)
    pair_weights = 2.0 * alpha ** hamming.astype(float) / size
    return PairEnsemble(
        target_dim=size,
        rows=rows,
        cols=cols,
        pair_weights=pair_weights,
        basis=np.arange(size if _keeps_basis(residual, size) else 0),
        residual=residual,
    )


def power_pair_ensemble(alpha: float, n: int, cap: int | None = None) -> WeightedEnsemble:
    """Two-level pure ensemble reconstructing the n-fold noisy coherent power.

    For every unordered pair of distinct n-bitstrings {i, j}, the member
    (|i> + |j>)/sqrt(2) enters with weight 2 * alpha**hamming(i, j) / 2**n;
    the leftover diagonal mass (2 - (1+alpha)**n) / 2**n is spread over the
    2**n basis states. All members have coherence rank <= 2. Raises
    InfeasiblePairEnsembleError when the leftover mass is negative, i.e. for
    alpha > 2**(1/n) - 1 (the boundary itself is accepted, with the then-zero
    basis members pruned).

    Members are ordered pairs-first in lexicographic (i, j) order, then basis
    states ascending. The rows are dense, O(8**n) memory: this is the
    reference that tests compare power_pair_witness against.
    """
    residual = _pair_residual(alpha, n, cap)
    size = 2**n

    labels = np.arange(size)
    hamming = np.bitwise_count(np.bitwise_xor.outer(labels, labels))
    rows, cols = np.triu_indices(size, k=1)
    pair_weights = 2.0 * alpha ** hamming[rows, cols].astype(float) / size

    keep_basis = residual > WEIGHT_CUTOFF / size
    n_pairs = rows.size
    total = n_pairs + (size if keep_basis else 0)
    states = np.zeros((total, size))
    states[np.arange(n_pairs), rows] = 1.0 / math.sqrt(2)
    states[np.arange(n_pairs), cols] = 1.0 / math.sqrt(2)
    weights = np.empty(total)
    weights[:n_pairs] = pair_weights
    if keep_basis:
        states[n_pairs:, :] = np.eye(size)
        weights[n_pairs:] = residual
    return WeightedEnsemble(weights=weights, states=states)


def dual_flag_ensemble(d: int) -> WeightedEnsemble:
    """Uniform ensemble of the d dual flag states; reconstructs the flag mixture.

    Every member has coherence rank exactly d+1, which certifies the rank of
    the mixture from above.
    """
    if d < 1:
        raise ValueError(f"register size must be >= 1, got {d}")
    states = np.array([fourier_flag_dual(d, j) for j in range(d)])
    weights = np.full(d, 1.0 / d)
    return WeightedEnsemble(weights=weights, states=states)


def verify_ensemble(ens: Ensemble, target, tol_recon: float = 1e-9) -> EnsembleReport:
    """Reconstruct the weighted mixture and compare against the target state.

    Reports the trace distance (half trace norm of the difference), the
    largest member coherence rank, and the weight sum. The ensemble is
    feasible when the distance is within tol_recon, no weight dips below
    -1e-12, and the weights sum to 1 within 1e-9. Each ensemble type supplies
    its own reconstruction and member rank. A difference with no imaginary
    part is a real symmetric matrix with the same spectrum, and the real
    eigensolver finds it about three times faster than the complex one.
    """
    target = as_complex_matrix(target)
    if ens.target_dim != target.shape[0]:
        raise ValueError(
            f"ensemble dimension {ens.target_dim} != target {target.shape[0]}"
        )
    diff = ens.reconstruction() - target
    if not diff.imag.any():
        diff = diff.real
    distance = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
    weights = ens.weights
    weight_sum = float(weights.sum())
    feasible = (
        distance <= tol_recon
        and float(weights.min()) >= -1e-12
        and abs(weight_sum - 1.0) <= 1e-9
    )
    return EnsembleReport(
        reconstruction_trace_distance=distance,
        max_member_rank=ens.max_member_rank(),
        weight_sum=weight_sum,
        feasible=feasible,
    )

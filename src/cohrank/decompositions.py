"""Explicit pure-state ensembles certifying rank upper bounds, and their verification.

Two ensemble types share one interface (target_dim, weights, len, members,
reconstruction, max_member_rank, lifted): WeightedEnsemble stores dense
amplitude rows, OrbitWitness stores the two-level pair witness of the noisy
coherent powers with one weight per XOR class. verify_ensemble checks any
ensemble against a dense target; verify_orbit checks an OrbitWitness against
an XOR-structured target in O(n 2**n), with no dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernel import (
    DimensionCapError,
    as_complex_matrix,
    dim_cap,
    require_amplitude_budget,
    walsh_hadamard,
)
from .states import TAU_AMP, fourier_flag_dual, mc_labels

# Members whose weight falls at or below cutoff/size are dropped as exact zeros.
WEIGHT_CUTOFF = 1e-12
# Amplitude of each level in a two-level member (|i> + |j>)/sqrt(2).
PAIR_AMP = 1.0 / math.sqrt(2)
# An ensemble verifies when its mixture is within this trace distance of the target.
TOL_RECON = 1e-9


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
        states[:, mc_labels(dim)] = self.states
        return WeightedEnsemble(weights=self.weights, states=states)


@dataclass(frozen=True)
class OrbitWitness:
    """The rank-2 pair witness stored by XOR class, never as amplitude rows.

    For every unordered pair {i, j} of distinct labels of a 2**n-dim space,
    the member (|i> + |j>)/sqrt(2) enters with weight class_weights[i ^ j]
    (entry 0 is ignored); then, when keep_basis, every label enters as a
    basis state with weight residual. Members are listed pairs-first in
    lexicographic (i, j) order, then basis states ascending, and built one at
    a time, so storage is O(2**n) where the member list is O(4**n). With
    lift, label i stands for |ii> of the 4**n-dim maximally correlated lift.
    """

    class_weights: np.ndarray
    residual: float
    keep_basis: bool
    lift: bool = False

    @property
    def target_dim(self) -> int:
        size = self.class_weights.size
        return size * size if self.lift else size

    @property
    def weights(self) -> np.ndarray:
        """All member weights, pairs first, in member order (O(4**n))."""
        size = self.class_weights.size
        rows, cols = np.triu_indices(size, k=1)
        basis = np.full(size if self.keep_basis else 0, self.residual)
        return np.concatenate([self.class_weights[rows ^ cols], basis])

    def __len__(self) -> int:
        size = self.class_weights.size
        return size * (size - 1) // 2 + (size if self.keep_basis else 0)

    def members(self):
        """Iterate (weight, amplitude-vector) pairs, building one dense vector at a time."""
        size, dim = self.class_weights.size, self.target_dim
        labels = (mc_labels(size) if self.lift else np.arange(size)).tolist()
        weights = self.class_weights.tolist()
        for i, label_i in enumerate(labels):
            for j in range(i + 1, size):
                psi = np.zeros(dim)
                psi[label_i] = psi[labels[j]] = PAIR_AMP
                yield weights[i ^ j], psi
        if self.keep_basis:
            for label in labels:
                psi = np.zeros(dim)
                psi[label] = 1.0
                yield self.residual, psi

    def row(self) -> np.ndarray:
        """XOR row of the unlifted mixture, from the member semantics alone.

        Pair {i, i ^ k} puts w_k/2 on (i, i ^ k), on (i ^ k, i) and on both
        diagonal entries, and every label lies in exactly one pair of each
        class k != 0. So the mixture is M[i, j] = row[i ^ j] with
        row[k] = w_k/2 for k != 0 and row[0] = sum_k w_k/2 plus the residual
        of the basis members.
        """
        row = 0.5 * self.class_weights
        row[0] = row[1:].sum() + (self.residual if self.keep_basis else 0.0)
        return row

    def reconstruction(self) -> np.ndarray:
        """The mixture as a dense matrix, scatter-added member by member.

        O(4**n) (O(16**n) lifted); it does not go through row(), so the dense
        oracle checks the member semantics on its own.
        """
        size = self.class_weights.size
        rows, cols = np.triu_indices(size, k=1)
        half = 0.5 * self.class_weights[rows ^ cols]
        # (|i> + |j>)(<i| + <j|)/2 puts w/2 on (i, j), (j, i), (i, i) and (j, j).
        off = np.bincount(rows * size + cols, half, size * size).reshape(size, size)
        recon = off + off.T
        recon.flat[:: size + 1] += (
            np.bincount(rows, half, size)
            + np.bincount(cols, half, size)
            + (self.residual if self.keep_basis else 0.0)
        )
        if not self.lift:
            return recon
        out = np.zeros((size * size, size * size))
        idx = mc_labels(size)
        out[np.ix_(idx, idx)] = recon
        return out

    def max_member_rank(self) -> int:
        """2 if any pair member is present, else 1 if any basis member is."""
        return 2 if self.class_weights.size > 1 else int(self.keep_basis)

    def lifted(self) -> "OrbitWitness":
        """Maximally correlated lift: label i maps to |ii>."""
        if self.lift:
            raise ValueError("witness is already lifted")
        return replace(self, lift=True)


Ensemble = WeightedEnsemble | OrbitWitness


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


def _pair_residual(alpha: float, n: int) -> float:
    """Validate the pair-ensemble parameters; return the per-basis-state residual weight.

    The witness is O(2**n), so 2**n is held to the amplitude budget
    dim_cap()**2 before anything is built.
    """
    if alpha <= 0.0:
        raise ValueError(f"mixing parameter must be positive, got {alpha}")
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    require_amplitude_budget(n, "ensemble")
    if not power_pair_feasible(alpha, n):
        raise InfeasiblePairEnsembleError(alpha, n)
    return (2.0 - (1.0 + alpha) ** n) / 2**n


def _keeps_basis(residual: float, size: int) -> bool:
    return residual > WEIGHT_CUTOFF / size


def power_pair_members(alpha: float, n: int) -> int:
    """Member count of power_pair_witness(alpha, n), without building it; raises like it."""
    residual = _pair_residual(alpha, n)
    size = 2**n
    return size * (size - 1) // 2 + (size if _keeps_basis(residual, size) else 0)


def power_pair_witness(alpha: float, n: int) -> OrbitWitness:
    """Orbit form of power_pair_ensemble: same members, order and weights.

    The pair {i, j} has weight 2 * alpha**hamming(i, j) / 2**n, which depends
    only on the class k = i ^ j, so one weight per class (n + 1 distinct
    values, gathered by popcount) and the basis residual
    (2 - (1+alpha)**n) / 2**n are stored, in O(2**n) memory instead of the
    dense oracle's O(8**n). Raises like power_pair_ensemble, except that the
    dimension is held to dim_cap()**2 rather than dim_cap().
    """
    residual = _pair_residual(alpha, n)
    size = 2**n
    by_weight = 2.0 * alpha ** np.arange(n + 1, dtype=float) / size
    return OrbitWitness(
        class_weights=by_weight[np.bitwise_count(np.arange(size, dtype=np.min_scalar_type(size - 1)))],
        residual=residual,
        keep_basis=_keeps_basis(residual, size),
    )


def power_pair_ensemble(alpha: float, n: int) -> WeightedEnsemble:
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
    residual = _pair_residual(alpha, n)
    size = 2**n
    limit = dim_cap()
    if size > limit:
        raise DimensionCapError(f"ensemble dimension {size} exceeds cap {limit}")

    labels = np.arange(size)
    hamming = np.bitwise_count(np.bitwise_xor.outer(labels, labels))
    rows, cols = np.triu_indices(size, k=1)
    pair_weights = 2.0 * alpha ** hamming[rows, cols].astype(float) / size

    keep_basis = _keeps_basis(residual, size)
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


def verify_ensemble(ens: Ensemble, target) -> EnsembleReport:
    """Reconstruct the weighted mixture and compare against the target state.

    Reports the trace distance (half trace norm of the difference), the
    largest member coherence rank, and the weight sum. The ensemble is
    feasible when the distance is within TOL_RECON, no weight dips below
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
    return _report(distance, ens.max_member_rank(), float(weights.sum()), float(weights.min()))


def verify_orbit(witness: OrbitWitness, target_row) -> EnsembleReport:
    """verify_ensemble for an orbit witness against the target M[i, j] = target_row[i ^ j].

    Both the target and witness.row() are XOR rows, and every matrix of that
    form has the Hadamard rows as eigenvectors with the Walsh-Hadamard
    transform of its row as eigenvalues. So the trace distance is half the
    l1 norm of the transform of witness.row() - target_row: exact, in
    O(n 2**n), with no dense matrix. The weight sum and smallest weight come
    from the classes (2**(n-1) pairs each) and the basis residual, and
    feasibility is decided as in verify_ensemble.
    """
    target_row = np.asarray(target_row, dtype=float)
    size = witness.class_weights.size
    if witness.lift or target_row.shape != (size,):
        raise ValueError(
            f"orbit witness of dimension {witness.target_dim} does not match "
            f"a target row of shape {target_row.shape}"
        )
    spectrum = walsh_hadamard(witness.row() - target_row)
    distance = 0.5 * float(np.abs(spectrum, out=spectrum).sum())
    pair_weights = witness.class_weights[1:]
    weight_sum = 0.5 * size * float(pair_weights.sum())
    lowest = float(pair_weights.min(initial=math.inf))
    if witness.keep_basis:
        weight_sum += size * witness.residual
        lowest = min(lowest, witness.residual)
    return _report(distance, witness.max_member_rank(), weight_sum, lowest)


def _report(distance: float, max_rank: int, weight_sum: float, lowest: float) -> EnsembleReport:
    """Feasible when the distance is within TOL_RECON, no weight dips below
    -1e-12 and the weights sum to 1 within 1e-9."""
    feasible = distance <= TOL_RECON and lowest >= -1e-12 and abs(weight_sum - 1.0) <= 1e-9
    return EnsembleReport(
        reconstruction_trace_distance=distance,
        max_member_rank=max_rank,
        weight_sum=weight_sum,
        feasible=feasible,
    )

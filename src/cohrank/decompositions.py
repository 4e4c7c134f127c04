"""Explicit pure-state ensembles certifying rank upper bounds, and their verification.

Two ensemble types share one interface (target_dim, weights, len, members,
reconstruction, max_member_rank, lifted): WeightedEnsemble stores dense
amplitude rows, OrbitWitness stores the two-level pair witness of the noisy
coherent powers with one weight per Hamming distance. Both lift to the
maximally correlated block by a label map (|i> -> |ii>), with no lifted rows
stored. verify_ensemble checks any ensemble against a dense target;
verify_orbit checks an OrbitWitness against a target given by Hamming
distance in O(n**2), with no 2**n-sized array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .kernel import (
    DimensionCapError,
    _require_finite,
    as_complex_matrix,
    binomials,
    dim_cap,
    krawtchouk,
)
from .states import TAU_AMP, fourier_flag_dual, mc_labels, mc_lift

# Basis members are dropped as exact zeros when the missing diagonal mass they
# share, 2**n times each one's weight, is at or below this.
WEIGHT_CUTOFF = 1e-12
# Amplitude of each level in a two-level member (|i> + |j>)/sqrt(2).
PAIR_AMP = 1.0 / math.sqrt(2)
# An ensemble verifies when its mixture is within this trace distance of the target.
TOL_RECON = 1e-9
# Largest copy count: up to it 2**n, (1 + alpha)**n <= 2**n and each C(n, w) are finite doubles.
MAX_COPIES = sys.float_info.max_exp - 1


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


class _LabelLift:
    """lifted() for an ensemble whose lift flag maps label i to |ii>."""

    def lifted(self):
        """Maximally correlated lift: label i maps to |ii>; nothing is copied."""
        if self.lift:
            raise ValueError("witness is already lifted")
        return replace(self, lift=True)


@dataclass(frozen=True)
class WeightedEnsemble(_LabelLift):
    """Convex mixture of pure states, stored row-wise.

    weights: shape (m,) floats, nonnegative up to -1e-12, summing to 1.
    states: shape (m, size); rows are normalized amplitude vectors
    (float64 when all amplitudes are real, else complex128). With lift, each
    row stands for its maximally correlated lift (amplitude on |i> moves to
    |ii>), so target_dim is size**2 while states keeps the unlifted rows.
    """

    weights: np.ndarray
    states: np.ndarray
    lift: bool = False

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.states) else float
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=dtype))

    @property
    def target_dim(self) -> int:
        size = self.states.shape[1]
        return size * size if self.lift else size

    def check_finite(self) -> None:
        """Raise the non-finite ValueError on a NaN or inf weight or amplitude."""
        _require_finite(self.weights, "ensemble weights")
        _require_finite(self.states, "ensemble amplitudes")

    def __len__(self) -> int:
        return self.weights.size

    def members(self):
        """Iterate (weight, amplitude-vector) pairs; lifted vectors are built one at a time."""
        pairs = zip(self.weights.tolist(), self.states)
        if not self.lift:
            yield from pairs
            return
        labels, dim = mc_labels(self.states.shape[1]), self.target_dim
        for weight, row in pairs:
            psi = np.zeros(dim, dtype=row.dtype)
            psi[labels] = row
            yield weight, psi

    def reconstruction(self) -> np.ndarray:
        """The mixture sum_k w_k |psi_k><psi_k| as a dense matrix (mc_lift of it when lifted)."""
        weighted = self.states * self.weights[:, None]
        recon = weighted.T @ self.states.conj()
        return mc_lift(recon) if self.lift else recon

    def max_member_rank(self) -> int:
        """Largest number of amplitudes above TAU_AMP in any member (the lift keeps it)."""
        return int((np.abs(self.states) > TAU_AMP).sum(axis=1).max())


@dataclass(frozen=True)
class OrbitWitness(_LabelLift):
    """The rank-2 pair witness stored by Hamming distance, never as amplitude rows.

    For every unordered pair {i, j} of distinct labels of a 2**n-dim space,
    the member (|i> + |j>)/sqrt(2) enters with weight
    distance_weights[popcount(i ^ j)] / 2**n (entry 0 is ignored); then, when
    keep_basis, every label enters as a basis state with weight
    residual / 2**n. Kept times 2**n, the n + 2 numbers stay normal doubles
    up to MAX_COPIES. Members are listed pairs-first in lexicographic (i, j)
    order, then basis states ascending; only members(), weights and
    reconstruction() expand the 2**n classes, and label_blocks() lists the
    members by their labels. With lift, label i stands for |ii> of the
    4**n-dim maximally correlated lift.
    """

    distance_weights: np.ndarray
    residual: float
    keep_basis: bool
    lift: bool = False

    @property
    def n(self) -> int:
        """Copy count: the witness acts on 2**n labels."""
        return self.distance_weights.size - 1

    @property
    def target_dim(self) -> int:
        return 4**self.n if self.lift else 2**self.n

    def check_finite(self) -> None:
        """Raise the non-finite ValueError on a NaN or inf stored number (index n + 1: the residual)."""
        _require_finite(np.append(self.distance_weights, self.residual), "witness weights")

    def _class_weights(self) -> np.ndarray:
        """Pair weight by XOR class k = i ^ j (entry 0 unused): 2**n numbers."""
        return np.ldexp(self.distance_weights, -self.n)[np.bitwise_count(np.arange(2**self.n))]

    @property
    def weights(self) -> np.ndarray:
        """All member weights, pairs first, in member order (O(4**n))."""
        size = 2**self.n
        rows, cols = np.triu_indices(size, k=1)
        basis = np.full(size if self.keep_basis else 0, math.ldexp(self.residual, -self.n))
        return np.concatenate([self._class_weights()[rows ^ cols], basis])

    def __len__(self) -> int:
        size = 2**self.n
        return size * (size - 1) // 2 + (size if self.keep_basis else 0)

    def members(self):
        """Iterate (weight, amplitude-vector) pairs, building one dense vector at a time."""
        size, dim = 2**self.n, self.target_dim
        labels = (mc_labels(size) if self.lift else np.arange(size)).tolist()
        weights = self._class_weights().tolist()
        for i, label_i in enumerate(labels):
            for j in range(i + 1, size):
                psi = np.zeros(dim)
                psi[label_i] = psi[labels[j]] = PAIR_AMP
                yield weights[i ^ j], psi
        if self.keep_basis:
            for label in labels:
                psi = np.zeros(dim)
                psi[label] = 1.0
                yield math.ldexp(self.residual, -self.n), psi

    def label_blocks(self, count: int):
        """The members by their labels, up to count at a time, in members() order.

        Yields (weights, labels): labels has shape (k, 2) in a block of pair
        members (|a> + |b>)/sqrt(2), a < b, and shape (k, 1) in a block of
        basis members |a>. Labels index the target_dim space, so a lifted
        witness gives mc_labels. No amplitude vector is formed, and memory
        is O(2**n + count).
        """
        size = 2**self.n
        labels = mc_labels(size) if self.lift else np.arange(size)
        weights = np.ldexp(self.distance_weights, -self.n)
        # pairs (i, i + 1), ..., (i, size - 1) are members starts[i] onward
        rows = np.arange(size)
        starts = rows * size - rows * (rows + 1) // 2
        pairs = size * (size - 1) // 2
        for begin in range(0, pairs, count):
            k = np.arange(begin, min(begin + count, pairs))
            i = np.searchsorted(starts, k, side="right") - 1
            j = k - starts[i] + i + 1
            yield weights[np.bitwise_count(i ^ j)], np.stack([labels[i], labels[j]], axis=1)
        if self.keep_basis:
            basis = math.ldexp(self.residual, -self.n)
            for begin in range(0, size, count):
                part = labels[begin : begin + count]
                yield np.full(part.size, basis), part[:, None]

    def row(self) -> np.ndarray:
        """2**n times the unlifted mixture by Hamming distance, from the member semantics alone.

        Pair {i, j} puts half its weight on (i, j), (j, i) and both diagonal
        entries, and every label lies in C(n, w) pairs at distance w. So
        row[w] = distance_weights[w] / 2 for w > 0, and row[0], the trace and
        weight sum, is sum_w C(n, w) row[w] plus the basis residual.
        """
        row = 0.5 * self.distance_weights
        row[0] = float(binomials(self.n)[1:] @ row[1:]) + (self.residual if self.keep_basis else 0.0)
        return row

    def reconstruction(self) -> np.ndarray:
        """The mixture as a dense matrix, scatter-added member by member.

        O(4**n) (O(16**n) lifted); it does not go through row(), so the dense
        oracle checks the member semantics on its own.
        """
        size = 2**self.n
        rows, cols = np.triu_indices(size, k=1)
        half = 0.5 * self._class_weights()[rows ^ cols]
        # (|i> + |j>)(<i| + <j|)/2 puts w/2 on (i, j), (j, i), (i, i) and (j, j).
        off = np.bincount(rows * size + cols, half, size * size).reshape(size, size)
        recon = off + off.T
        recon.flat[:: size + 1] += (
            np.bincount(rows, half, size)
            + np.bincount(cols, half, size)
            + (math.ldexp(self.residual, -self.n) if self.keep_basis else 0.0)
        )
        return mc_lift(recon) if self.lift else recon

    def max_member_rank(self) -> int:
        """2 if any pair member is present, else 1 if any basis member is."""
        return 2 if self.n else int(self.keep_basis)


Ensemble = WeightedEnsemble | OrbitWitness


@dataclass(frozen=True)
class EnsembleReport:
    reconstruction_trace_distance: float
    max_member_rank: int
    weight_sum: float
    feasible: bool


def require_copies(n: int) -> None:
    """The one copy-count check, ValueError unless 1 <= n <= MAX_COPIES: on integers,
    so a huge n is refused at once, before any 2**n, (1+alpha)**n or binomial."""
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    if n > MAX_COPIES:
        raise ValueError(f"copy count {n} exceeds {MAX_COPIES}, the largest n with 2**n a finite double")


def power_pair_feasible(alpha: float, n: int) -> bool:
    """Whether the two-level ensemble for the n-fold noisy coherent power closes.

    The test is on the total missing diagonal mass 2 - (1+alpha)**n, so a
    feasible witness always passes the 1e-9 weight-sum check of
    verify_ensemble, whatever n. ValueError for a copy count require_copies
    refuses or a non-finite alpha; a (1+alpha)**n past the doubles is False.
    """
    require_copies(n)
    if not math.isfinite(alpha):
        raise ValueError(f"mixing parameter must be finite, got {alpha}")
    try:
        return 2.0 - (1.0 + alpha) ** n >= -WEIGHT_CUTOFF
    except OverflowError:
        return False


def _pair_residual(alpha: float, n: int) -> float:
    """Validate the parameters; return the missing diagonal mass 2 - (1+alpha)**n."""
    if alpha <= 0.0:
        raise ValueError(f"mixing parameter must be positive, got {alpha}")
    if not power_pair_feasible(alpha, n):
        raise InfeasiblePairEnsembleError(alpha, n)
    return 2.0 - (1.0 + alpha) ** n


def power_pair_witness(alpha: float, n: int) -> OrbitWitness:
    """Orbit form of power_pair_ensemble: same members, order and weights.

    The pair {i, j} has weight 2 * alpha**popcount(i ^ j) / 2**n, so n + 1
    weights and the basis residual (2 - (1+alpha)**n) / 2**n are stored,
    times 2**n. Raises like power_pair_ensemble, except that n is held to
    MAX_COPIES rather than 2**n to dim_cap().
    """
    residual = _pair_residual(alpha, n)
    return OrbitWitness(
        distance_weights=2.0 * alpha ** np.arange(n + 1, dtype=float),
        residual=residual,
        keep_basis=residual > WEIGHT_CUTOFF,
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
    mass = _pair_residual(alpha, n)
    size = 2**n
    limit = dim_cap()
    if size > limit:
        raise DimensionCapError(f"ensemble dimension {size} exceeds cap {limit}")

    rows, cols = np.triu_indices(size, k=1)
    pair_weights = 2.0 * alpha ** np.bitwise_count(rows ^ cols).astype(float) / size

    keep_basis = mass > WEIGHT_CUTOFF
    n_pairs = rows.size
    total = n_pairs + (size if keep_basis else 0)
    states = np.zeros((total, size))
    states[np.arange(n_pairs), rows] = 1.0 / math.sqrt(2)
    states[np.arange(n_pairs), cols] = 1.0 / math.sqrt(2)
    weights = np.empty(total)
    weights[:n_pairs] = pair_weights
    if keep_basis:
        states[n_pairs:, :] = np.eye(size)
        weights[n_pairs:] = mass / size
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
    its own reconstruction and member rank. The target and the stored weights
    and amplitudes are scanned first, so a NaN or inf raises the non-finite
    ValueError rather than reaching the reconstruction. A difference with no
    imaginary part is a real symmetric matrix with the same spectrum, and the
    real eigensolver finds it about three times faster than the complex one.
    """
    target = as_complex_matrix(target)
    if ens.target_dim != target.shape[0]:
        raise ValueError(
            f"ensemble dimension {ens.target_dim} != target {target.shape[0]}"
        )
    _require_finite(target, "target")
    ens.check_finite()
    diff = ens.reconstruction() - target
    if not diff.imag.any():
        diff = diff.real
    distance = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
    weights = ens.weights
    return _report(distance, ens.max_member_rank(), float(weights.sum()), float(weights.min()))


def verify_orbit(witness: OrbitWitness, target_row) -> EnsembleReport:
    """verify_ensemble for an orbit witness against M[i, j] = target_row[popcount(i ^ j)] / 2**n.

    target_row is on the scale of witness.row(). A matrix of that form has
    the Hadamard rows of weight v as eigenvectors, with eigenvalue
    krawtchouk(row)[v] / 2**n of multiplicity C(n, v). So the trace distance
    is 1/2 sum_v C(n, v) |krawtchouk(witness.row() - target_row)[v]| / 2**n:
    exact, in O(n**2). The weight sum is row()[0], the smallest weight is
    read off the n + 2 stored ones, and feasibility is decided as in
    verify_ensemble.
    """
    target_row = np.asarray(target_row, dtype=float)
    n = witness.n
    if witness.lift or target_row.shape != (n + 1,):
        dim = witness.target_dim
        raise ValueError(f"witness of dimension {dim} does not match target row shape {target_row.shape}")
    _require_finite(target_row, "target row")
    witness.check_finite()
    row = witness.row()
    share = np.ldexp(binomials(n), -n)  # C(n, v) / 2**n, the eigenvalue multiplicities scaled
    distance = 0.5 * float(share @ np.abs(krawtchouk(row - target_row)))
    basis = witness.residual if witness.keep_basis else math.inf
    lowest = float(witness.distance_weights[1:].min(initial=basis))
    return _report(distance, witness.max_member_rank(), float(row[0]), math.ldexp(lowest, -n))


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

"""Constructors for the named state families, the correlated lift, and pure coherence rank."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    DimensionCapError,
    _require_finite,
    as_complex_matrix,
    dim_cap,
)

# Amplitudes at or below this modulus count as structural zeros when ranking.
TAU_AMP = 1e-8
# Entries off the correlated block above this modulus reject an MC state.
TOL_MC = 1e-9


class NotMaximallyCorrelatedError(ValueError):
    """The bipartite state carries weight outside the |ii><jj| block."""


def max_coherent(m: int) -> np.ndarray:
    """Uniform superposition over the first m basis levels."""
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return np.full(m, 1.0 / math.sqrt(m), dtype=complex)


def noisy_max_coherent(alpha: float) -> np.ndarray:
    """Qubit state mixing the two-level uniform superposition into white noise.

    Diagonal entries are 1/2, off-diagonal entries alpha/2; alpha=0 is the
    maximally mixed state and alpha=1 the pure uniform superposition.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {alpha}")
    return np.array([[0.5, alpha / 2.0], [alpha / 2.0, 0.5]], dtype=complex)


def fourier_flag_state(d: int, k: int) -> np.ndarray:
    """Flag level |k> superposed with the k-th Fourier mode on the upper register.

    Lives in dimension 2d: amplitude 1/sqrt(d+1) on |k>, and
    exp(-i*j*k*2pi/d)/sqrt(d+1) on |d+j> for j = 0..d-1. The d states of this
    family are orthonormal and each has coherence rank d+1.
    """
    if d < 1:
        raise ValueError(f"register size must be >= 1, got {d}")
    if not 0 <= k < d:
        raise ValueError(f"flag index {k} outside [0, {d})")
    amps = np.zeros(2 * d, dtype=complex)
    amps[k] = 1.0
    j = np.arange(d)
    amps[d:] = np.exp(-2j * np.pi * j * k / d)
    return amps / math.sqrt(d + 1)


def fourier_flag_dual(d: int, j: int) -> np.ndarray:
    """Inverse-Fourier recombination of the flag states.

    Equals sum_k exp(i*j*k*2pi/d)/sqrt(d) * fourier_flag_state(d, k): amplitude
    exp(i*j*k*2pi/d)/sqrt(d(d+1)) on |k> for k < d and d/sqrt(d(d+1)) on |d+j>.
    Also orthonormal, with coherence rank exactly d+1.
    """
    if d < 1:
        raise ValueError(f"register size must be >= 1, got {d}")
    if not 0 <= j < d:
        raise ValueError(f"dual index {j} outside [0, {d})")
    amps = np.zeros(2 * d, dtype=complex)
    k = np.arange(d)
    amps[:d] = np.exp(2j * np.pi * j * k / d)
    amps[d + j] = d
    return amps / math.sqrt(d * (d + 1))


def fourier_flag_mixture(d: int) -> np.ndarray:
    """Uniform mixture of the d flag states (dimension 2d)."""
    if d < 1:
        raise ValueError(f"register size must be >= 1, got {d}")
    limit = dim_cap()
    if 2 * d > limit:
        raise DimensionCapError(f"mixture dimension {2 * d} exceeds cap {limit}")
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    for k in range(d):
        psi = fourier_flag_state(d, k)
        out += np.outer(psi, psi.conj())
    return out / d


def pair_state(i: str, j: str) -> np.ndarray:
    """Equal superposition of two distinct equal-length computational bitstrings.

    Bitstrings map to integers with the leftmost bit most significant, matching
    the tensor_power index convention.
    """
    if len(i) != len(j) or not i or set(i + j) - {"0", "1"}:
        raise ValueError(f"need equal-length nonempty bitstrings, got {i!r}, {j!r}")
    if i == j:
        raise ValueError(f"bitstrings must differ, got {i!r} twice")
    amps = np.zeros(2 ** len(i), dtype=complex)
    amps[int(i, 2)] = amps[int(j, 2)] = 1.0 / math.sqrt(2)
    return amps


def pure_coherence_rank(psi) -> int:
    """Number of amplitudes with modulus above TAU_AMP."""
    psi = np.asarray(psi, dtype=complex)
    _require_finite(psi, "state vector")
    return int(np.count_nonzero(np.abs(psi) > TAU_AMP))


def mc_labels(d: int) -> np.ndarray:
    """Correlated labels of a d*d system: |i> lifts to |ii>, label i * (d + 1)."""
    return np.arange(d) * (d + 1)


def mc_lift(rho) -> np.ndarray:
    """Embed a d-dim matrix into the maximally correlated block of a d*d system.

    The lift |i> -> |ii> is an isometry: <ii|out|jj> = <i|rho|j> and every
    other entry is zero, so Hermiticity, trace and positivity carry over, as
    does the off-diagonal l1 mass. Raises DimensionCapError before allocating
    when the lifted dimension d*d exceeds dim_cap().
    """
    rho = as_complex_matrix(rho)
    d = rho.shape[0]
    limit = dim_cap()
    if d * d > limit:
        raise DimensionCapError(f"lifted dimension {d}**2 exceeds cap {limit}")
    out = np.zeros((d * d, d * d), dtype=complex)
    idx = mc_labels(d)
    out[np.ix_(idx, idx)] = rho
    return out


@dataclass(frozen=True, eq=False)
class CorrelatedState:
    """The maximally correlated state mc_lift(base), kept as its d-dim base.

    It stands for the d*d-dim matrix sum_ij base[i, j] |ii><jj| without
    storing it: shape reports the lifted (d*d, d*d) shape, and np.asarray
    materializes the lift through mc_lift, so DimensionCapError is raised
    before allocating when d*d exceeds dim_cap(). mc_unlift,
    schmidt_certificate and mcdc_apply read the base directly. eq=False:
    no elementwise array comparison is attempted.
    """

    base: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", as_complex_matrix(self.base))

    @property
    def shape(self) -> tuple[int, int]:
        dim = self.base.shape[0] ** 2
        return dim, dim

    def __array__(self, dtype=None, copy=None):
        return np.asarray(mc_lift(self.base), dtype=dtype)


def mc_lift_vector(psi) -> np.ndarray:
    """Vector version of mc_lift: amplitudes move from |i> to |ii>."""
    psi = np.asarray(psi, dtype=complex)
    d = psi.size
    out = np.zeros(d * d, dtype=complex)
    out[mc_labels(d)] = psi
    return out


def mc_unlift(rho_hat) -> np.ndarray:
    """Invert mc_lift, rejecting states with weight outside the correlated block.

    Raises NotMaximallyCorrelatedError when any entry off the |ii><jj| block
    has modulus above TOL_MC (an infinite one included), and ValueError when
    one is NaN, which no threshold test would catch. The input is scanned in
    slabs of d rows, so the scratch space is O(d * dim), not a copy of the
    input. A CorrelatedState needs no scan: its base is returned as it is.
    """
    if isinstance(rho_hat, CorrelatedState):
        return rho_hat.base
    rho_hat = as_complex_matrix(rho_hat)
    dim = rho_hat.shape[0]
    d = math.isqrt(dim)
    if d * d != dim:
        raise ValueError(f"dimension {dim} is not a perfect square")
    idx = mc_labels(d)
    block = rho_hat[np.ix_(idx, idx)]
    # Slab i holds rows i*d .. i*d+d-1; its only block row is local row i.
    # The slab maxima go through np.max, so a NaN propagates into leak.
    peaks = np.zeros(d)
    for i in range(d):
        mag = np.abs(rho_hat[i * d : (i + 1) * d])
        mag[i, idx] = 0.0
        peaks[i] = mag.max()
    leak = float(peaks.max()) if d else 0.0
    if math.isnan(leak):
        _require_finite(rho_hat, "matrix")  # raises, naming the first NaN
    if leak > TOL_MC:
        raise NotMaximallyCorrelatedError(
            f"off-block entry of modulus {leak:.3e} exceeds {TOL_MC:.1e}"
        )
    return block

"""Dense complex matrix primitives shared by the state, bound, and channel layers.

Matrices are plain numpy arrays (complex128, row-major). Nothing is mutated in
place; every operation returns a fresh array, so values can be shared freely
across parallel workers.
"""

from __future__ import annotations

import os

import numpy as np

# Hermiticity / trace / normalization checks are absolute; the PSD slack is
# relative (scales with dim * max|entry|) so eigensolver noise on large
# matrices does not reject honest states.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_NORM = 1e-9
PSD_TOL_SCALE = 1e-10

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "COHRANK_DIM_CAP"


class DimensionCapError(ValueError):
    """A tensor power would exceed the configured dimension cap."""


def dim_cap() -> int:
    """Active dimension cap; the COHRANK_DIM_CAP env var overrides the default."""
    raw = os.environ.get(DIM_CAP_ENV)
    return int(raw) if raw else DEFAULT_DIM_CAP


def require_amplitude_budget(n: int, what: str) -> None:
    """Raise DimensionCapError when a length-2**n vector exceeds dim_cap()**2.

    Structured paths that store O(2**n) numbers instead of a dense
    2**n x 2**n matrix are bounded by this amplitude budget; the comparison
    is on bit lengths, so a huge n costs nothing to refuse.
    """
    limit = dim_cap()
    if n >= (limit * limit).bit_length():
        raise DimensionCapError(f"{what} dimension 2**{n} exceeds cap {limit}**2")


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 matrix (no copy when already one)."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    return out


def hermiticity_defect(m) -> float:
    """max |M - M^dagger| over all entries."""
    m = as_complex_matrix(m)
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def psd_tol(m: np.ndarray) -> float:
    """Scale-aware slack below which an eigenvalue counts as nonnegative."""
    scale = float(np.abs(m).max()) if m.size else 0.0
    return PSD_TOL_SCALE * m.shape[0] * scale


def dephase(m) -> np.ndarray:
    """Zero every off-diagonal entry, keeping the diagonal (idempotent)."""
    m = as_complex_matrix(m)
    return np.diag(np.diag(m))


def tensor_power(m, n: int) -> np.ndarray:
    """n-fold Kronecker power of m.

    Index convention: the leftmost factor carries the most significant index,
    i.e. basis label |i_0 i_1 ... i_{n-1}> maps to integer i_0 i_1 ... i_{n-1}
    read as a base-dim numeral. Raises DimensionCapError if dim**n exceeds
    dim_cap().
    """
    m = as_complex_matrix(m)
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    cap = dim_cap()
    if m.shape[0] ** n > cap:
        raise DimensionCapError(
            f"tensor power dimension {m.shape[0]}**{n} exceeds cap {cap}"
        )
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def spectrum(m) -> np.ndarray:
    """All eigenvalues of a finite Hermitian matrix, ascending, as real floats."""
    m = as_complex_matrix(m)
    _require_finite(m, "matrix")
    defect = hermiticity_defect(m)
    if defect > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigvalsh(m)


def walsh_hadamard(f) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a real vector of length 2**n.

    Entry s is sum_k f[k] (-1)**popcount(s & k), in n butterfly passes over
    one copy. It is the spectrum of the matrix M[i, j] = f[i ^ j]: every such
    matrix has the Hadamard rows as eigenvectors.
    """
    out = np.array(f, dtype=float)
    if out.ndim != 1 or out.size & (out.size - 1):
        raise ValueError(f"expected a vector of length 2**n, got shape {out.shape}")
    half = 1
    while half < out.size:
        pairs = out.reshape(-1, 2, half)
        top, bottom = pairs[:, 0], pairs[:, 1]
        total = top + bottom
        np.subtract(top, bottom, out=bottom)
        top[...] = total
        half *= 2
    return out


def partial_transpose(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a (dim_a x dim_b)-partite matrix.

    Viewing m as dim_a x dim_a blocks of size dim_b, each block is transposed
    within itself. Applying twice returns the original matrix.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"dimension {m.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    return (
        m.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 3, 2, 1)
        .reshape(dim_a * dim_b, dim_a * dim_b)
    )


def trace_norm(m) -> float:
    """Sum of singular values (for Hermitian input: sum of |eigenvalues|)."""
    m = as_complex_matrix(m)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _require_finite(a: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(a)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"{what} has {int(bad.sum())} non-finite (NaN or inf) entries, "
            f"first at index {first}"
        )


def validate_density_matrix(rho) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity; return the coerced array."""
    rho = as_complex_matrix(rho)
    _require_finite(rho, "density matrix")
    defect = hermiticity_defect(rho)
    if defect > TOL_HERM:
        raise ValueError(f"density matrix is not Hermitian (defect {defect:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"density matrix trace {tr} is not 1")
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if lowest < -psd_tol(rho):
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def validate_pure_state(psi) -> np.ndarray:
    """Check finiteness and normalization of an amplitude vector; return the coerced array."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValueError(f"expected a nonempty amplitude vector, got shape {psi.shape}")
    _require_finite(psi, "state vector")
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > TOL_NORM:
        raise ValueError(f"state norm^2 = {norm_sq} is not 1")
    return psi

"""Seeded random state generators and dense test oracles shared across test modules."""

import numpy as np

from cohrank import choi_apply, dephase, trace_norm


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def covariance_violation_loop(choi, din, dout):
    """Dense oracle for covariance_report: apply the channel to each of the
    din^2 matrix units and take the largest trace-norm mismatch between
    dephase-then-apply and apply-then-dephase."""
    worst = 0.0
    for i in range(din):
        for j in range(din):
            unit = np.zeros((din, din), dtype=complex)
            unit[i, j] = 1.0
            before = choi_apply(choi, din, dout, dephase(unit))
            after = dephase(choi_apply(choi, din, dout, unit))
            worst = max(worst, trace_norm(before - after))
    return worst

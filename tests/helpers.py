"""Seeded random state generators, dense test oracles and DIO boundary targets
shared across test modules."""

import numpy as np

from cohrank import (
    choi_apply,
    dephase,
    fourier_flag_mixture,
    noisy_max_coherent,
    tensor_power,
    trace_norm,
)


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


def dio_boundary_cases():
    """(label, target, d, feasible) on the DIO boundary d = delta_robustness.

    The flag mixtures sit at robustness 2 and omega(alpha)^(x)n with
    (1 + alpha)^n = m at robustness m, each up to a few ulps either side, so
    every feasible case here needs the PSD slack of the gap test. Only
    d >= 2 (what synthesis accepts) is listed.
    """
    cases = []
    for k in (2, 3, 4, 7, 16):
        cases += [(f"flag{k}", fourier_flag_mixture(k), d, True) for d in (2, 3)]
    for m in (2, 3, 4):
        for n in range(1, 5):
            alpha = m ** (1 / n) - 1
            if alpha > 1:
                continue
            rho = tensor_power(noisy_max_coherent(alpha), n)
            cases.append((f"omega-m{m}-n{n}", rho, m, True))
            if m > 2:
                cases.append((f"omega-m{m}-n{n}", rho, m - 1, False))
    return cases

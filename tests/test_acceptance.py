"""End-to-end acceptance suite.

Each test covers one headline numerical claim at its stated tolerance and
prints a single [PASS]/[FAIL] line with the measured margins (run pytest with
-s to see the lines for passing tests too).
"""

import math
import time

import numpy as np

from cohrank import (
    asymptotic_entanglement_cost,
    choi_apply,
    cost_report,
    covariance_report,
    cptp_report,
    delta_robustness,
    dephase,
    dio_synthesize,
    dual_flag_ensemble,
    fourier_flag_mixture,
    fourier_flag_state,
    l1_coherence,
    l1_rank_lower_bound,
    max_coherent,
    mc_lift,
    mc_lift_vector,
    mcdc_apply,
    negativity_rank_lower_bound,
    noisy_max_coherent,
    partial_transpose,
    power_pair_ensemble,
    power_pair_feasible,
    pure_coherence_rank,
    pure_schmidt_rank,
    rank_certificate,
    regularized_cost_bounds,
    schmidt_certificate,
    sign_flip_check,
    spectrum,
    tensor_power,
    trace_norm,
    verify_ensemble,
)
from cohrank.cli import main
from cohrank.decompositions import InfeasiblePairEnsembleError
from helpers import random_density, random_pure


def _report(name, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    suffix = f": {detail}" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert not failures, f"{name}: " + "; ".join(failures)


def noisy_power(alpha, n):
    return tensor_power(noisy_max_coherent(alpha), n)


def test_criterion_01_rank_two_power_ensembles():
    """Rank of the n-copy noisy coherent state certifies to exactly 2 up to the boundary."""
    failures = []
    start = time.perf_counter()
    worst_distance = 0.0
    for n in range(1, 9):
        boundary = 2 ** (1 / n) - 1
        for alpha in (boundary, boundary / 2):
            rho = noisy_power(alpha, n)
            ens = power_pair_ensemble(alpha, n)
            rep = verify_ensemble(ens, rho)
            worst_distance = max(worst_distance, rep.reconstruction_trace_distance)
            if rep.reconstruction_trace_distance > 1e-9:
                failures.append(f"distance {rep.reconstruction_trace_distance} n={n}")
            if rep.max_member_rank > 2:
                failures.append(f"member rank {rep.max_member_rank} n={n}")
            cert = rank_certificate(rho, "omega-power", alpha=alpha, n=n)
            if not (cert.exact and cert.lower == 2):
                failures.append(f"certificate ({cert.lower},{cert.upper}) n={n}")
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(
        "criterion 1 (rank-2 power ensembles, n<=8)",
        failures,
        f"worst distance {worst_distance:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_boundary_sharpness():
    """Just above the boundary the construction fails while the l1 floor survives."""
    failures = []
    for n in range(1, 9):
        alpha = 1.01 * (2 ** (1 / n) - 1)
        if power_pair_feasible(alpha, n):
            failures.append(f"feasible at alpha={alpha} n={n}")
        try:
            power_pair_ensemble(alpha, n)
            failures.append(f"no infeasibility error n={n}")
        except InfeasiblePairEnsembleError:
            pass
        base = np.array([[0.5, alpha / 2], [alpha / 2, 0.5]])
        bound = l1_rank_lower_bound(tensor_power(base, n))
        expected = math.ceil((1 + alpha) ** n - 1e-9)
        if bound != expected or bound not in (2, 3):
            failures.append(f"l1 bound {bound} != {expected} n={n}")
    _report("criterion 2 (boundary sharpness)", failures)


def test_criterion_03_l1_closed_form():
    """Off-diagonal l1 mass of the n-copy state plus one equals (1+alpha)^n."""
    failures = []
    worst = 0.0
    for n in range(1, 9):
        boundary = 2 ** (1 / n) - 1
        for alpha in (boundary, boundary / 2):
            gap = abs(l1_coherence(noisy_power(alpha, n)) + 1 - (1 + alpha) ** n)
            worst = max(worst, gap)
            if gap > 1e-9:
                failures.append(f"gap {gap} at alpha={alpha} n={n}")
    _report("criterion 3 (l1 closed form)", failures, f"worst gap {worst:.2e}")


def test_criterion_04_regularized_bounds_coincide():
    """At alpha = 2^(1/m) - 1 the per-copy cost bounds meet at 1/m."""
    failures = []
    for m in (1, 2, 3, 4):
        lower, upper = regularized_cost_bounds(2 ** (1 / m) - 1)
        if abs(lower - 1 / m) > 1e-12 or abs(upper - 1 / m) > 1e-12:
            failures.append(f"bounds ({lower}, {upper}) != 1/{m}")
    _report("criterion 4 (coinciding cost bounds)", failures)


def test_criterion_05_flag_combination_rank_floor():
    """Random combinations of the flag states never drop below rank d+1."""
    failures = []
    rng = np.random.default_rng(1234)
    violations = 0
    for d in range(2, 9):
        flags = np.array([fourier_flag_state(d, k) for k in range(d)])
        for _ in range(200):
            coeff = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi = coeff @ flags
            psi /= np.linalg.norm(psi)
            if np.count_nonzero(np.abs(psi) > 1e-6) < d + 1:
                violations += 1
    if violations:
        failures.append(f"{violations} rank-floor violations")
    _report("criterion 5 (rank floor, 200 draws per register)", failures)


def test_criterion_06_flag_mixture_reproduction():
    """Flag mixtures decompose at rank d+1 and are reachable from a qubit input."""
    failures = []
    start = time.perf_counter()
    phi2 = np.outer(max_coherent(2), max_coherent(2).conj())
    for d in range(2, 17):
        mix = fourier_flag_mixture(d)
        ens = dual_flag_ensemble(d)
        rep = verify_ensemble(ens, mix)
        if rep.reconstruction_trace_distance > 1e-10:
            failures.append(f"distance {rep.reconstruction_trace_distance} d={d}")
        ranks = (np.abs(ens.states) > 1e-8).sum(axis=1)
        if not np.all(ranks == d + 1):
            failures.append(f"member ranks {set(ranks.tolist())} d={d}")
        if spectrum(2 * dephase(mix) - mix)[0] < -1e-10:
            failures.append(f"reflection not PSD d={d}")
        if not sign_flip_check(d):
            failures.append(f"sign-flip identity d={d}")
        ch = dio_synthesize(mix, 2)
        cptp = cptp_report(ch.choi, ch.input_dim, ch.output_dim)
        cov = covariance_report(ch.choi, ch.input_dim, ch.output_dim)
        if not cptp.passed or cptp.trace_out_violation > 1e-9:
            failures.append(f"cptp d={d}")
        if not cov.passed or cov.max_violation > 1e-9:
            failures.append(f"covariance {cov.max_violation} d={d}")
        hit = 0.5 * trace_norm(choi_apply(ch.choi, ch.input_dim, ch.output_dim, phi2) - mix)
        if hit > 1e-10:
            failures.append(f"channel misses target by {hit} d={d}")
    elapsed = time.perf_counter() - start
    if elapsed > 20.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 20s")
    _report(
        "criterion 6 (flag mixtures, d<=16)", failures, f"{elapsed:.1f}s"
    )


def test_criterion_07_lift_correspondence():
    """The lift turns the l1 rank bound into the negativity rank bound exactly."""
    failures = []
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        lifted = mc_lift(rho)
        if l1_rank_lower_bound(rho) != negativity_rank_lower_bound(lifted, dim, dim):
            failures.append(f"bound mismatch at dim {dim}")
        gap = abs(
            l1_coherence(rho)
            - (trace_norm(partial_transpose(lifted, dim, dim)) - 1.0)
        )
        worst = max(worst, gap)
        if gap > 1e-9:
            failures.append(f"l1 vs transpose-norm gap {gap}")
    _report(
        "criterion 7 (lift correspondence, 100 draws)",
        failures,
        f"worst gap {worst:.2e}",
    )


def test_criterion_08_cost_values_and_chain():
    """Entanglement cost values and the zero-error cost chain ordering."""
    failures = []
    for alpha, expected, tol in ((0.0, 0.0, 1e-12), (1.0, 1.0, 1e-12), (0.6, 0.46900, 1e-4)):
        got = asymptotic_entanglement_cost(alpha)
        if abs(got - expected) > tol:
            failures.append(f"ec({alpha}) = {got} != {expected}")
    grid = np.linspace(0.0, math.sqrt(2) - 1, 51)[1:]
    for alpha in grid.tolist():
        rep = cost_report(alpha, 1)
        chain = (
            rep.asymptotic_ec,
            rep.regularized_lower,
            rep.regularized_upper,
            rep.zero_error_upper,
        )
        for left, right in zip(chain, chain[1:]):
            if left > right + 1e-9:
                failures.append(f"chain {chain} broken at alpha={alpha}")
    _report("criterion 8 (cost values and chain, 50-point grid)", failures)


def test_criterion_09_delta_robustness_values():
    """Dephasing robustness matches coherence rank on pure states and 1+alpha on the qubit family."""
    failures = []
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        psi = random_pure(rng, dim)
        gap = abs(
            delta_robustness(np.outer(psi, psi.conj())) - pure_coherence_rank(psi)
        )
        worst = max(worst, gap)
        if gap > 1e-8:
            failures.append(f"pure-state gap {gap} at dim {dim}")
    for d in range(1, 17):
        phi = max_coherent(d)
        gap = abs(delta_robustness(np.outer(phi, phi.conj())) - d)
        if gap > 1e-9:
            failures.append(f"uniform superposition gap {gap} at d={d}")
    for alpha in np.linspace(0.0, 1.0, 20).tolist():
        gap = abs(delta_robustness(noisy_max_coherent(alpha)) - (1 + alpha))
        if gap > 1e-9:
            failures.append(f"qubit family gap {gap} at alpha={alpha}")
    _report(
        "criterion 9 (dephasing robustness)", failures, f"worst pure gap {worst:.2e}"
    )


def test_criterion_10_schmidt_rank_explosion():
    """A Schmidt-rank-2 input certifies to Schmidt number d+1 after the lifted channel."""
    failures = []
    ebit_vec = mc_lift_vector(max_coherent(2))
    if pure_schmidt_rank(ebit_vec, 2, 2) != 2:
        failures.append("input Schmidt rank != 2")
    ebit = np.outer(ebit_vec, ebit_vec.conj())
    for d in range(2, 13):
        ch = dio_synthesize(fourier_flag_mixture(d), 2)
        out = mcdc_apply(ch, ebit)
        cert = schmidt_certificate(out, family="rho-d", d=d)
        if not (cert.exact and cert.lower == d + 1):
            failures.append(f"certificate ({cert.lower},{cert.upper}) d={d}")
    _report("criterion 10 (Schmidt rank explosion, d<=12)", failures)


def test_criterion_11_sweep_determinism(tmp_path):
    """Identical sweep config and seed produce byte-identical CSV output."""
    failures = []
    args = [
        "nonadd",
        "--alpha-min", "0",
        "--alpha-max", "0.41",
        "--steps", "5",
        "--n-max", "3",
        "--seed", "7",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    if main(args + ["--out", str(first)]) != 0:
        failures.append("first run failed")
    if main(args + ["--out", str(second)]) != 0:
        failures.append("second run failed")
    if first.read_bytes() != second.read_bytes():
        failures.append("outputs differ")
    _report("criterion 11 (sweep determinism)", failures)

"""Independent checkers for cohrank outputs.

Every expected value here comes from a closed form evaluated with numpy and
the standard library; nothing in this module imports cohrank, so a defect in
the package cannot hide itself by also corrupting the reference.

Each ``check_*`` function raises ``CheckFailure`` with a short reason when an
output disagrees with the closed form, and returns nothing otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Same absolute tolerance the package documents for its own identities. At
# n=2 and alpha = 2**(1/2) - 1 the regularized bounds differ by one ulp, so
# exact equality would reject a correct output.
TOL = 1e-9
# Feasibility is decided on alpha itself; only the exact coincidence points
# sit closer to the boundary than this, and the workloads draw no others.
BOUNDARY_SLACK = 1e-12
CEIL_GUARD = 1e-9
AMP_ZERO = 1e-8

NONADD_HEADER = (
    "alpha,n,l1_lower,construction_feasible,certified_rank,"
    "zero_error_per_copy,reg_lower,reg_upper,ec_asymptotic"
)


class CheckFailure(Exception):
    """An output disagrees with the closed form."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------- closed forms


def boundary(n: int) -> float:
    """Largest alpha for which n copies still have coherence rank 2."""
    return 2.0 ** (1.0 / n) - 1.0


def pair_feasible(alpha: float, n: int) -> bool:
    return alpha <= boundary(n) + BOUNDARY_SLACK


def l1_lower(alpha: float, n: int) -> int:
    """ceil(||omega^(x)n||_l1 + 1) with ||.||_l1 = (1+alpha)^n - 1."""
    return math.ceil((1.0 + alpha) ** n - CEIL_GUARD)


def reg_bounds(alpha: float) -> tuple[float, float]:
    lower = math.log2(1.0 + alpha)
    return lower, 1.0 / math.floor(1.0 / lower + CEIL_GUARD)


def asymptotic_ec(alpha: float) -> float:
    x = 0.5 * (1.0 - math.sqrt(1.0 - alpha * alpha))
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def omega_power(alpha: float, n: int) -> np.ndarray:
    """omega(alpha)^(x)n entrywise: alpha**hamming(i, j) / 2**n."""
    labels = np.arange(2**n)
    hamming = np.bitwise_count(np.bitwise_xor.outer(labels, labels))
    return (alpha ** hamming.astype(float) / 2**n).astype(complex)


def flag_mixture(d: int) -> np.ndarray:
    """rho_d entrywise: 1/(d(d+1)) on the flag diagonal, 1/(d+1) on the
    Fourier diagonal, exp(2 pi i j k / d) / (d(d+1)) between flag k and mode j."""
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    k = np.arange(d)
    out[k, k] = 1.0 / (d * (d + 1))
    out[d + k, d + k] = 1.0 / (d + 1)
    cross = np.exp(2j * np.pi * np.outer(k, k) / d) / (d * (d + 1))
    out[:d, d:] = cross
    out[d:, :d] = cross.conj().T
    return out


def robustness(target: dict) -> float:
    """Dephasing robustness of a workload target: 2 for rho_d, (1+alpha)^n
    for the omega powers."""
    if target["family"] == "rho-d":
        return 2.0
    return (1.0 + target["alpha"]) ** target["n"]


def matrix_json(m: np.ndarray) -> dict:
    flat = m.ravel()
    entries = np.empty(2 * flat.size)
    entries[0::2] = flat.real
    entries[1::2] = flat.imag
    return {"dim": m.shape[0], "entries": entries.tolist()}


def matrix_from(doc: dict) -> np.ndarray:
    flat = np.asarray(doc["entries"], dtype=float)
    dim = int(doc["dim"])
    expect(flat.size == 2 * dim * dim, f"matrix payload has {flat.size} floats for dim {dim}")
    return (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim)


def vector_from(doc: dict) -> np.ndarray:
    flat = np.asarray(doc["amplitudes"], dtype=float)
    return flat[0::2] + 1j * flat[1::2]


def load_json(out: bytes) -> dict:
    try:
        return json.loads(out)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


# ------------------------------------------------------------------- checkers


def check_zero_error(alpha: float, n: int, value) -> None:
    """The certified rank is 2 exactly when the pair witness is feasible;
    otherwise the l1 bound is the lower end (and the whole answer if exact)."""
    lower = l1_lower(alpha, n)
    if pair_feasible(alpha, n):
        expect(not isinstance(value, list), "feasible alpha left the rank uncertified")
        expect(close(value, 1.0 / n), f"zero_error {value} != 1/n for a rank-2 witness")
        return
    expect(lower > 2, f"l1 bound {lower} should exceed 2 beyond the boundary")
    if isinstance(value, list):
        lo, hi = value
        expect(close(lo, math.log2(lower) / n), f"zero_error lower {lo} != log2({lower})/n")
        expect(lo <= hi + TOL and hi <= 1.0 + TOL, f"zero_error bracket {value} out of order")
    else:
        expect(close(value, math.log2(lower) / n), f"rank certified as {2 ** (value * n):.6g} beyond the boundary")


def check_cost(alpha: float, n: int, rc: int, out: bytes) -> None:
    expect(rc == 0, f"cost exited {rc}")
    doc = load_json(out)
    expect(doc["alpha"] == alpha and doc["n"] == n, "cost echoes other parameters")
    check_zero_error(alpha, n, doc["zero_error"])
    reg_lower, reg_upper = reg_bounds(alpha)
    expect(close(doc["regularized_lower"], reg_lower), "regularized_lower != log2(1+alpha)")
    expect(close(doc["regularized_upper"], reg_upper), "regularized_upper != 1/floor(1/log2(1+alpha))")
    expect(close(doc["asymptotic_ec"], asymptotic_ec(alpha)), "asymptotic_ec != h((1-sqrt(1-a^2))/2)")
    zero_upper = doc["zero_error"][1] if isinstance(doc["zero_error"], list) else doc["zero_error"]
    chain = (doc["asymptotic_ec"], doc["regularized_lower"], doc["regularized_upper"], zero_upper)
    expect(all(a <= b + TOL for a, b in zip(chain, chain[1:])), f"cost chain out of order: {chain}")


def check_decompose(alpha: float, n: int, rc: int, out: bytes) -> None:
    doc = load_json(out)
    expect(doc["params"] == {"alpha": alpha, "n": n}, "decompose echoes other parameters")
    if not pair_feasible(alpha, n):
        expect(rc == 2, f"infeasible decompose exited {rc}")
        expect(doc["feasible"] is False, "infeasible decompose reported feasible")
        expect(close(doc["boundary_alpha"], boundary(n), 1e-12), "boundary_alpha != 2^(1/n)-1")
        return
    expect(rc == 0, f"feasible decompose exited {rc}")
    expect(doc["feasible"] is True, "feasible decompose reported infeasible")
    size = 2**n
    residual = 2.0 - (1.0 + alpha) ** n
    expected_members = size * (size - 1) // 2 + (size if residual > 1e-12 else 0)
    members = doc["members"]
    expect(len(members) == expected_members, f"{len(members)} members, expected {expected_members}")
    weights = np.array([m["weight"] for m in members])
    states = np.array([vector_from(m) for m in members])
    expect(states.shape == (expected_members, size), f"member amplitudes have shape {states.shape}")
    expect(weights.min() >= -1e-12 and close(weights.sum(), 1.0), "weights are not a distribution")
    ranks = (np.abs(states) > AMP_ZERO).sum(axis=1)
    expect(ranks.max() == 2, f"members reach coherence rank {ranks.max()}")
    recon = (states * weights[:, None]).T @ states.conj()
    err = float(np.abs(recon - omega_power(alpha, n)).max())
    expect(err <= TOL, f"ensemble misses omega^(x)n by {err:.3e}")
    report = doc["report"]
    expect(report["feasible"] is True and report["max_member_rank"] == 2, "report disagrees")
    expect(report["reconstruction_trace_distance"] <= TOL, "reported reconstruction distance too large")


def check_nonadd(grid: dict, rc: int, out: bytes) -> None:
    expect(rc == 0, f"nonadd exited {rc}")
    lines = out.decode("utf-8").splitlines()
    expect(lines[0] == NONADD_HEADER, "nonadd header changed")
    alphas = np.linspace(grid["alpha_min"], grid["alpha_max"], grid["steps"]).tolist()
    expected = [(a, n) for a in alphas for n in range(1, grid["n_max"] + 1)]
    expect(len(lines) - 1 == len(expected), f"{len(lines) - 1} rows, expected {len(expected)}")
    for line, (alpha, n) in zip(lines[1:], expected):
        cells = line.split(",")
        expect(len(cells) == 9, f"row has {len(cells)} cells")
        expect(close(float(cells[0]), alpha, 1e-11 * max(1.0, alpha)) and int(cells[1]) == n, "row order")
        expect(int(cells[2]) == l1_lower(alpha, n), f"l1_lower {cells[2]} at alpha={alpha}, n={n}")
        feasible = pair_feasible(alpha, n)
        expect(cells[3] == ("true" if feasible else "false"), f"feasibility flipped at alpha={alpha}, n={n}")
        if feasible:
            expect(cells[4] == "2", f"certified rank {cells[4]!r} for a feasible row")
        else:
            expect(cells[4] in ("", str(l1_lower(alpha, n))), f"certified rank {cells[4]!r} beyond the boundary")
        if cells[4]:
            expect(close(float(cells[5]), math.log2(int(cells[4])) / n), "zero_error_per_copy")
        reg_lower, reg_upper = reg_bounds(alpha)
        expect(close(float(cells[6]), reg_lower) and close(float(cells[7]), reg_upper), "regularized bounds")
        expect(close(float(cells[8]), asymptotic_ec(alpha)), "ec_asymptotic")


def check_dio(target: dict, matrix: np.ndarray, d_in: int, rc: int, out: bytes) -> None:
    """Exit code from the robustness rule; the Choi matrix must map the
    uniform d_in-level superposition back onto the target."""
    rob = robustness(target)
    feasible = d_in >= rob - TOL
    doc = load_json(out)
    expect(rc == (0 if feasible else 2), f"dio exited {rc}, robustness {rob:.6g} vs d={d_in}")
    expect(doc["feasible"] is feasible and doc["d"] == d_in, "dio feasibility flag")
    expect(doc["target_dim"] == matrix.shape[0], "dio target_dim")
    expect(close(doc["delta_robustness"], rob, TOL * rob), f"delta_robustness {doc['delta_robustness']} != {rob}")
    expect(doc["dilution_dimension"] == max(1, math.ceil(rob - CEIL_GUARD)), "dilution_dimension")
    if not feasible:
        return
    channel = doc["channel"]
    dout = matrix.shape[0]
    expect(channel["input_dim"] == d_in and channel["output_dim"] == dout, "channel dimensions")
    expect(channel["choi"].get("dims") == [d_in, dout], "Choi dims")
    choi = matrix_from(channel["choi"]).reshape(d_in, dout, d_in, dout)
    image = np.einsum("kaib->ab", choi) / d_in
    err = float(np.abs(image - matrix).max())
    expect(err <= TOL, f"Choi maps the uniform input {err:.3e} away from the target")
    expect(doc["cptp"]["passed"] is True and doc["covariance"]["passed"] is True, "channel reports failed")
    expect(doc["covariance"]["basis_size"] == d_in * d_in, "covariance basis size")


def check_schmidt(d: int, lower: int, upper: int) -> None:
    expect(lower == upper == d + 1, f"Schmidt bounds [{lower}, {upper}] != d+1 = {d + 1}")

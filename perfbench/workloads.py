"""Seeded workload generators and the per-op correctness dispatch.

A workload is an endless sequence of cycles. Every cycle holds the same
cells (command, size, side of the feasibility boundary) with fresh seeded
parameters, in a seeded order. Fixing the cells keeps the cost of a cycle
nearly independent of the seed, so runs with different seeds measure the same
work. The seeded parameters (alpha) do not change an op's cost; the rho_d
targets have no free parameter and repeat.

Cell multiplicities place each reported percentile a quarter or less of the
way into a group of equal-cost ops, never on the step between two cells and
never at the middle of one cell. The host these were tuned on switches
between a fast and a slow speed state (up to 2x) every second or so; the
middle of one cell's samples then jumps between the two states from run to
run, while a point near the low end of a group stays in the fast state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# Tail percentile reported per workload: the highest percentile with at least
# ten samples beyond it at the seed commit. It is fixed rather than derived
# from the op count, so a faster program that completes more ops is not
# charged a higher percentile.
TAIL_PERCENTILE = {"omega-certify": 95, "dio-channel": 95, "capacity-ladder": 90}

# Cycles in a traced run: about five seconds of untraced work at the seed
# commit, fixed so that per-layer counts compare across commits.
TRACE_CYCLES = {"omega-certify": 6, "dio-channel": 5, "capacity-ladder": 5}

# omega-certify cost cells: n -> (feasible, infeasible) ops per cycle. With
# one decompose per n = 4, 5, 6 and one nonadd, 15 ops; the median falls
# early among the three feasible n=7 ops.
COST_CELLS = {5: (1, 1), 6: (1, 1), 7: (3, 1), 8: (2, 1)}

# Sizes the capacity-ladder workload times in-process: the rungs the seed
# commit certifies within budget, so that a change which makes them cheaper
# shows as lower latency while the ladder itself reports how far it reaches.
# n=6 and n=7 run twice, so the median falls early among the n=7 ops.
EDGE_N = (6, 6, 7, 7, 8)
EDGE_D = (8, 16)

# dio-channel cells: (d, d_in) for rho_d targets, and (n, d_in, feasible) for
# omega powers, feasible exactly when d_in >= (1+alpha)^n. 15 ops in cost
# tiers: seven under 10 ms, the two (3, 9) ops near 15 ms, five from 30 to
# 110 ms, and (4, 16) at more than twice the next. The median falls early
# among the (3, 9) ops and the tail early in (4, 16)'s samples.
RHO_CELLS = ((4, 2), (8, 3), (10, 5), (16, 4), (13, 8), (15, 6))
OMEGA_CELLS = (
    (2, 2, True), (3, 4, True), (3, 9, True), (3, 9, True), (5, 6, True), (4, 16, True),
    (3, 2, False), (5, 3, False), (4, 5, False),
)


@dataclass
class Op:
    """One closed-loop request: a CLI argv (``--out`` is appended by the
    runner) or, when ``argv`` is None, the library Schmidt pipeline."""

    kind: str
    params: dict
    argv: list[str] | None = None
    target: np.ndarray | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        """Canonical description, independent of file names."""
        return json.dumps([self.kind, self.params], sort_keys=True)


def cost_op(alpha: float, n: int) -> Op:
    return Op("cost", {"alpha": alpha, "n": n}, ["cost", "--alpha", repr(alpha), "--n", str(n)])


def decompose_op(alpha: float, n: int) -> Op:
    argv = ["decompose", "--family", "omega-power", "--alpha", repr(alpha), "--n", str(n)]
    return Op("decompose", {"alpha": alpha, "n": n}, argv)


def nonadd_op(alpha_min: float, alpha_max: float, steps: int, n_max: int) -> Op:
    grid = {"alpha_min": alpha_min, "alpha_max": alpha_max, "steps": steps, "n_max": n_max}
    argv = ["nonadd", "--alpha-min", repr(alpha_min), "--alpha-max", repr(alpha_max),
            "--steps", str(steps), "--n-max", str(n_max)]
    return Op("nonadd", grid, argv)


def dio_op(target: dict, d_in: int, path: Path) -> Op:
    if target["family"] == "rho-d":
        matrix = checks.flag_mixture(target["d"])
    else:
        matrix = checks.omega_power(target["alpha"], target["n"])
    path.write_text(json.dumps(checks.matrix_json(matrix)), encoding="utf-8")
    return Op("dio", {"target": target, "d": d_in}, ["dio", "--state", str(path), "--d", str(d_in)], matrix)


def schmidt_op(d: int) -> Op:
    return Op("schmidt", {"d": d})


def _feasible_alpha(rng: random.Random, n: int) -> float:
    """Inside the boundary, or exactly on a coincidence point 2^(1/m)-1, m >= n."""
    if rng.random() < 0.5:
        return checks.boundary(n + rng.randint(0, 2))
    return checks.boundary(n) * rng.uniform(0.25, 0.95)


def _infeasible_alpha(rng: random.Random, n: int) -> float:
    """Beyond the boundary, or on a coincidence point 2^(1/m)-1 with m < n."""
    if rng.random() < 0.5:
        return checks.boundary(n - rng.randint(1, 2))
    return checks.boundary(n) * rng.uniform(1.15, 2.5)


def omega_certify(rng: random.Random, workdir: Path):
    while True:
        ops = []
        for n, (feasible, infeasible) in COST_CELLS.items():
            ops += [cost_op(_feasible_alpha(rng, n), n) for _ in range(feasible)]
            ops += [cost_op(_infeasible_alpha(rng, n), n) for _ in range(infeasible)]
        ops.append(decompose_op(checks.boundary(4) * rng.uniform(1.1, 3.0), 4))
        ops.append(decompose_op(_feasible_alpha(rng, 5), 5))
        ops.append(decompose_op(checks.boundary(6) * rng.uniform(0.25, 0.95), 6))
        ops.append(nonadd_op(rng.uniform(0.01, 0.08), rng.uniform(0.3, 0.6), 4, 4))
        yield ops


def dio_channel(rng: random.Random, workdir: Path):
    rho_ops = [dio_op({"family": "rho-d", "d": d}, d_in, workdir / f"rho-{slot}.json")
               for slot, (d, d_in) in enumerate(RHO_CELLS)]
    while True:
        ops = list(rho_ops)
        for slot, (n, d_in, feasible) in enumerate(OMEGA_CELLS):
            edge = min(1.0, d_in ** (1.0 / n) - 1.0)
            if feasible:
                alpha = edge * rng.uniform(0.3, 0.9)
            else:
                alpha = rng.uniform(1.1 * edge, min(0.98, 2.5 * edge))
            target = {"family": "omega-power", "alpha": alpha, "n": n}
            ops.append(dio_op(target, d_in, workdir / f"omega-{slot}.json"))
        yield ops


def capacity_ladder(rng: random.Random, workdir: Path):
    while True:
        ops = [cost_op(checks.boundary(n) * rng.uniform(0.5, 0.95), n) for n in EDGE_N]
        ops += [schmidt_op(d) for d in EDGE_D]
        yield ops


GENERATORS = {
    "omega-certify": omega_certify,
    "dio-channel": dio_channel,
    "capacity-ladder": capacity_ladder,
}


def cycles(workload: str, seed: int, workdir: Path):
    """Deterministic in (workload, seed): the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    for ops in GENERATORS[workload](rng, workdir):
        rng.shuffle(ops)
        yield ops


def warmup_op(workload: str, workdir: Path) -> Op:
    """One small op of the workload's kind, paid by every fresh process."""
    if workload == "omega-certify":
        return cost_op(0.1, 5)
    if workload == "dio-channel":
        return dio_op({"family": "rho-d", "d": 4}, 2, workdir / "warmup.json")
    return schmidt_op(8)


def check(op: Op, rc: int, out: bytes) -> None:
    """Raise checks.CheckFailure when the op's result disagrees with the closed form."""
    p = op.params
    if op.kind == "cost":
        checks.check_cost(p["alpha"], p["n"], rc, out)
    elif op.kind == "decompose":
        checks.check_decompose(p["alpha"], p["n"], rc, out)
    elif op.kind == "nonadd":
        checks.check_nonadd(p, rc, out)
    elif op.kind == "dio":
        checks.check_dio(p["target"], op.target, p["d"], rc, out)
    else:
        checks.expect(rc == 0, f"Schmidt pipeline exited {rc}")
        lower, upper = (int(v) for v in out.split()[:2])
        checks.check_schmidt(p["d"], lower, upper)

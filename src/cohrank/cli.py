"""Command-line driver: parameter sweeps, witness serialization, channel and cost reports.

Exit codes: 0 success, 2 infeasible-but-valid query, 3 invalid input,
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bounds import cost_report, delta_robustness, dilution_dimension
from .channels import DioInfeasibleError, cptp_report, covariance_report, dio_synthesize
from .decompositions import (
    InfeasiblePairEnsembleError,
    dual_flag_ensemble,
    power_pair_feasible,
    power_pair_members,
    power_pair_witness,
    verify_ensemble,
)
from .kernel import DimensionCapError, dim_cap, tensor_power, validate_density_matrix
from .serialize import channel_to_json, ensemble_to_json, matrix_from_json
from .states import fourier_flag_mixture, noisy_max_coherent

CSV_HEADER = (
    "alpha,n,l1_lower,construction_feasible,certified_rank,"
    "zero_error_per_copy,reg_lower,reg_upper,ec_asymptotic"
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


def sweep_rows(alpha_min: float, alpha_max: float, steps: int, n_max: int) -> list[str]:
    """One CSV row per (alpha, n) from cost_report, alpha ascending then n ascending."""
    rows = []
    for alpha in np.linspace(alpha_min, alpha_max, steps).tolist():
        for n in range(1, n_max + 1):
            rep = cost_report(alpha, n)
            certified = rep.certified_rank is not None
            cells = [
                _fmt(alpha),
                str(n),
                str(rep.l1_lower),
                "true" if power_pair_feasible(alpha, n) else "false",
                str(rep.certified_rank) if certified else "",
                _fmt(rep.zero_error) if certified else "",
                _fmt(rep.regularized_lower),
                _fmt(rep.regularized_upper),
                _fmt(rep.asymptotic_ec),
            ]
            rows.append(",".join(cells))
    return rows


def cmd_nonadd(args: argparse.Namespace) -> int:
    if not 0.0 <= args.alpha_min <= args.alpha_max <= 1.0:
        raise ValueError(
            f"need 0 <= alpha-min <= alpha-max <= 1, got [{args.alpha_min}, {args.alpha_max}]"
        )
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")
    if args.n_max < 1:
        raise ValueError(f"n-max must be >= 1, got {args.n_max}")
    rows = sweep_rows(args.alpha_min, args.alpha_max, args.steps, args.n_max)
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.family == "omega-power":
        if args.alpha is None or args.n is None:
            raise ValueError("omega-power decomposition needs --alpha and --n")
        params = {"alpha": args.alpha, "n": args.n}
        try:
            members = power_pair_members(args.alpha, args.n)
        except InfeasiblePairEnsembleError as exc:
            _emit_json(
                {
                    "family": args.family,
                    "params": params,
                    "feasible": False,
                    "boundary_alpha": exc.boundary_alpha,
                },
                args.out,
            )
            return 2
        # The document lists every member densely: refuse before building
        # anything when it would hold more than dim_cap()**2 amplitudes.
        limit, size = dim_cap(), 2**args.n
        if members * size > limit**2:
            raise DimensionCapError(
                f"decompose output of {members} members x {size} amplitudes "
                f"exceeds cap {limit}**2"
            )
        ens = power_pair_witness(args.alpha, args.n)
        target = tensor_power(noisy_max_coherent(args.alpha), args.n)
    elif args.family == "rho-d":
        if args.d is None:
            raise ValueError("rho-d decomposition needs --d")
        params = {"d": args.d}
        ens = dual_flag_ensemble(args.d)
        target = fourier_flag_mixture(args.d)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    report = verify_ensemble(ens, target)
    doc = {"family": args.family, "params": params, "feasible": True}
    doc.update(ensemble_to_json(ens, report))
    _emit_json(doc, args.out)
    return 0


def cmd_dio(args: argparse.Namespace) -> int:
    if args.d < 2:
        raise ValueError(f"input dimension must be >= 2, got {args.d}")
    raw = json.loads(Path(args.state).read_text(encoding="utf-8"))
    rho = validate_density_matrix(matrix_from_json(raw))
    robustness = delta_robustness(rho)
    doc: dict = {
        "d": args.d,
        "target_dim": rho.shape[0],
        "delta_robustness": robustness,
        "dilution_dimension": dilution_dimension(robustness),
    }
    try:
        ch = dio_synthesize(rho, args.d, tol_psd=args.tol_psd)
    except DioInfeasibleError:
        doc["feasible"] = False
        _emit_json(doc, args.out)
        return 2
    doc["feasible"] = True
    doc["channel"] = channel_to_json(ch)
    doc["cptp"] = asdict(cptp_report(ch.choi, ch.input_dim, ch.output_dim))
    doc["covariance"] = asdict(covariance_report(ch.choi, ch.input_dim, ch.output_dim))
    _emit_json(doc, args.out)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    rep = cost_report(args.alpha, args.n)
    zero_error: float | list[float]
    if isinstance(rep.zero_error, tuple):
        zero_error = list(rep.zero_error)
    else:
        zero_error = rep.zero_error
    _emit_json(
        {
            "alpha": rep.alpha,
            "n": rep.n,
            "zero_error": zero_error,
            "regularized_lower": rep.regularized_lower,
            "regularized_upper": rep.regularized_upper,
            "asymptotic_ec": rep.asymptotic_ec,
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohrank",
        description="Rank certification, channel synthesis and cost reports "
        "for noisy coherent state families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nonadd = sub.add_parser("nonadd", help="sweep (alpha, n) and emit a CSV report")
    nonadd.add_argument("--alpha-min", type=float, default=0.0)
    nonadd.add_argument("--alpha-max", type=float, default=2.0**0.5 - 1.0)
    nonadd.add_argument("--steps", type=int, default=10)
    nonadd.add_argument("--n-max", type=int, default=4)
    nonadd.add_argument(
        "--seed", type=int, default=0, help="accepted for compatibility; no effect"
    )
    nonadd.add_argument(
        "--tol-psd", type=float, default=None, help="accepted for compatibility; no effect"
    )
    nonadd.add_argument("--out", type=str, default=None)
    nonadd.set_defaults(func=cmd_nonadd)

    decompose = sub.add_parser("decompose", help="emit a pure-state witness ensemble")
    decompose.add_argument(
        "--family", type=str, required=True, choices=["omega-power", "rho-d"]
    )
    decompose.add_argument("--alpha", type=float, default=None)
    decompose.add_argument("--n", type=int, default=None)
    decompose.add_argument("--d", type=int, default=None)
    decompose.add_argument("--out", type=str, default=None)
    decompose.set_defaults(func=cmd_decompose)

    dio = sub.add_parser(
        "dio", help="synthesize a dephasing-covariant channel onto a target state"
    )
    dio.add_argument("--state", type=str, required=True, help="target state JSON file")
    dio.add_argument("--d", type=int, required=True, help="input dimension")
    dio.add_argument("--tol-psd", type=float, default=None)
    dio.add_argument("--out", type=str, default=None)
    dio.set_defaults(func=cmd_dio)

    cost = sub.add_parser("cost", help="emit the zero-error/regularized/asymptotic costs")
    cost.add_argument("--alpha", type=float, required=True)
    cost.add_argument("--n", type=int, default=1)
    cost.add_argument("--out", type=str, default=None)
    cost.set_defaults(func=cmd_cost)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 3
    try:
        return args.func(args)
    except InfeasiblePairEnsembleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line driver: parameter sweeps, witness serialization, channel and cost reports.

Exit codes: 0 success, 2 infeasible-but-valid query, 3 invalid input,
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bounds import cost_report, delta_robustness, dilution_dimension
from .channels import DioInfeasibleError, cptp_report, covariance_report, dio_synthesize
from .decompositions import (
    InfeasiblePairEnsembleError,
    dual_flag_ensemble,
    power_pair_feasible,
    power_pair_witness,
    require_copies,
    verify_ensemble,
)
from .kernel import DimensionCapError, dim_cap, tensor_power, validate_density_matrix
from .serialize import channel_to_json, ensemble_to_json, matrix_from_json, write_json
from .states import fourier_flag_mixture, noisy_max_coherent

CSV_HEADER = (
    "alpha,n,l1_lower,construction_feasible,certified_rank,"
    "zero_error_per_copy,reg_lower,reg_upper,ec_asymptotic"
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@contextmanager
def _output(out: str | None):
    """Stdout, or the --out file, which is opened only after every refusal.

    The text is streamed, so a run can still fail partway (MemoryError, an
    interrupt). A regular --out file is therefore written under a temporary
    name beside it and renamed over it once complete: a failed run leaves no
    truncated document, and an earlier file as it was. Stdout and the other
    --out targets (/dev/null, a pipe, a file in a directory that takes no new
    file) are written in place.
    """
    if not out:
        yield sys.stdout
        return
    target = os.path.realpath(out) if os.path.islink(out) else out
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    fd = -1
    if mode is None or stat.S_ISREG(mode):
        head, tail = os.path.split(target)
        part = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.part")
        with suppress(OSError):  # no writable directory: write in place
            # 0o666 under the umask, as open(out, "w") would create it
            fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    if fd < 0:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:  # an existing file keeps its mode
                os.chmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(part, target)
    except BaseException:
        os.unlink(part)
        raise


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    """Stream doc through write_json; every refusal must be raised before this call."""
    with _output(out) as fh:
        write_json(doc, fh)


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
                "true" if alpha == 0.0 or power_pair_feasible(alpha, n) else "false",
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
    if args.alpha_max > 0.0:  # the sweep would fail at the first n past the limit
        require_copies(args.n_max)
    # The CSV is formed in memory: refuse before the sweep when it would hold
    # more rows than the output budget, whatever alpha is.
    count, limit = args.steps * args.n_max, dim_cap()
    if count > limit**2:
        raise DimensionCapError(
            f"nonadd sweep of {args.steps} steps x {args.n_max} copies is {count} rows, "
            f"exceeds cap {limit}**2"
        )
    rows = sweep_rows(args.alpha_min, args.alpha_max, args.steps, args.n_max)
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.family == "omega-power":
        if args.alpha is None or args.n is None:
            raise ValueError("omega-power decomposition needs --alpha and --n")
        params = {"alpha": args.alpha, "n": args.n}
        try:
            ens = power_pair_witness(args.alpha, args.n)  # n + 2 numbers
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
        # The document lists every member densely: refuse before expanding
        # anything when it would hold more than dim_cap()**2 amplitudes.
        limit, size, members = dim_cap(), 2**args.n, ens.__len__()  # len() stops at sys.maxsize
        if members * size > limit**2:
            raise DimensionCapError(
                f"decompose output of {members} members x {size} amplitudes "
                f"exceeds cap {limit}**2"
            )
        target = tensor_power(noisy_max_coherent(args.alpha), args.n)
    else:  # rho-d, the one other choice the parser admits
        if args.d is None:
            raise ValueError("rho-d decomposition needs --d")
        params = {"d": args.d}
        ens = dual_flag_ensemble(args.d)
        target = fourier_flag_mixture(args.d)
    report = verify_ensemble(ens, target)
    doc = {"family": args.family, "params": params, "feasible": True}
    doc.update(ensemble_to_json(ens, report))  # members are generated as they are written
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
    _emit_json(
        {
            "alpha": rep.alpha,
            "n": rep.n,
            "zero_error": rep.zero_error,  # a bracket is a tuple, written as a list
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
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

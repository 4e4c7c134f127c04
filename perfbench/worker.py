"""One workload process: import cohrank, warm up, run the closed loop, report.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
pinned to one thread. Modes:

  worker.py probe --workload W --workdir DIR
      import + one warm-up op, print "ready", exit (a set-up sample).
  worker.py run --workload W --seed S --seconds T --workdir DIR [--trace]
      as probe, then the timed closed loop; last stdout line is a JSON report.
  worker.py rung --family n|d --size K --mem-mb M --workdir DIR
      one capacity rung under an address-space limit; prints "ready" after
      import, then one JSON line with the rung's outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import workloads
from layertrace import LayerTracer

LAYERS = ("cli", "serialize", "bounds", "decompositions", "channels", "states", "kernel")


def _import_cohrank():
    import cohrank
    import cohrank.cli

    return cohrank


def lifted_plus() -> np.ndarray:
    """|+><+| lifted to the maximally correlated block of C^2 (x) C^2."""
    out = np.zeros((4, 4), dtype=complex)
    out[np.ix_([0, 3], [0, 3])] = 0.5
    return out


def schmidt_pipeline(cr, d: int):
    mix = cr.fourier_flag_mixture(d)
    channel = cr.dio_synthesize(mix, 2)
    image = cr.mcdc_apply(channel, lifted_plus())
    return cr.schmidt_certificate(image, family="rho-d", d=d)


class Runner:
    """Executes ops against cohrank; ``call`` is the timed part."""

    def __init__(self, cr, workdir: Path):
        self.cr = cr
        self.out_path = workdir / "out.txt"
        self.out_bytes = 0

    def call(self, op: workloads.Op):
        if op.argv is None:
            return schmidt_pipeline(self.cr, op.params["d"])
        return self.cr.cli.main([*op.argv, "--out", str(self.out_path)])

    def collect(self, op: workloads.Op, result) -> tuple[int, bytes]:
        if op.argv is None:
            return 0, f"{result.lower} {result.upper} {result.lower_method} {result.upper_method}".encode()
        out = self.out_path.read_bytes() if self.out_path.exists() else b""
        self.out_path.unlink(missing_ok=True)
        self.out_bytes += len(out)
        return result, out


class Tally:
    """Closed-loop bookkeeping: latencies, failures and the output digest."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    def record(self, op: workloads.Op, latency: float, rc: int | None, out: bytes, error: str | None,
               digest: bool) -> None:
        self.attempted += 1
        self.kinds.append(op.kind)
        if error is None:
            try:
                workloads.check(op, rc, out)
            except (checks.CheckFailure, KeyError, TypeError, ValueError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is None:
            self.latencies.append(latency)
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.label}: {error}")
        if digest:
            self.digest.update(f"{op.label}\0{rc}\0{len(out)}\0".encode())
            self.digest.update(out)


def run_cycle(ops, runner: Runner, tally: Tally, digest: bool, tracer=None) -> float:
    """Run one cycle closed-loop; return the summed op latency."""
    busy = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = tally.attempted
        rc, out, error = None, b"", None
        start = time.perf_counter()
        try:
            result = runner.call(op)
        except Exception as exc:  # a raising op is a failed op, not a dead run
            latency = time.perf_counter() - start
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - start
            rc, out = runner.collect(op, result)
        busy += latency
        tally.record(op, latency, rc, out, error, digest)
    return busy


def closed_loop(workload: str, seed: int, runner: Runner, workdir: Path, seconds: float | None = None,
                n_cycles: int | None = None, tracer=None) -> tuple[Tally, float, int]:
    """Whole cycles until the summed op latency reaches ``seconds`` (or for
    ``n_cycles``). The digest covers the first cycle, which every run completes."""
    tally, busy, done = Tally(), 0.0, 0
    for ops in workloads.cycles(workload, seed, workdir):
        busy += run_cycle(ops, runner, tally, digest=done == 0, tracer=tracer)
        done += 1
        if (n_cycles is not None and done >= n_cycles) or (seconds is not None and busy >= seconds):
            break
    return tally, busy, done


def end_to_end(workload: str, tally: Tally, busy: float) -> dict:
    lat_ms = np.array(tally.latencies) * 1e3
    pct = workloads.TAIL_PERCENTILE[workload]
    return {
        "ops_per_s": len(tally.latencies) / busy,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_tail_ms": float(np.percentile(lat_ms, pct)),
        "tail_percentile": pct,
        "tail_samples_beyond": int(round(len(lat_ms) * (100 - pct) / 100)),
        "samples": len(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ------------------------------------------------------------------ tracing


def _observe_ensemble(counters, args, kwargs, ens):
    counters["members"] += ens.weights.size
    counters["witness_mb"] = max(counters["witness_mb"], (ens.weights.nbytes + ens.states.nbytes) / 1e6)


def _observe_trace_norm(counters, args, kwargs, result):
    counters["trace_norm_flops"] += float(np.shape(args[0])[0]) ** 3


def _observe_rank_certificate(counters, args, kwargs, cert):
    family = kwargs.get("family", args[1] if len(args) > 1 else None)
    counters["certificates"] += 1
    counters["exact"] += cert.exact
    if family is not None:
        counters["hinted"] += 1
        counters["witness_verified"] += cert.upper_method == "ensemble-witness"


OBSERVERS = {
    "decompositions.power_pair_ensemble": _observe_ensemble,
    "decompositions.dual_flag_ensemble": _observe_ensemble,
    "kernel.trace_norm": _observe_trace_norm,
    "bounds.rank_certificate": _observe_rank_certificate,
}


def per_layer(tracer, alloc_tracer, traced_wall: float, untraced_wall: float, out_bytes: int) -> dict:
    totals = tracer.layer_totals()
    peaks = alloc_tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = totals[layer]["calls"]
        metrics[f"{layer}.self_s"] = totals[layer]["self_s"]
        metrics[f"{layer}.share"] = totals[layer]["self_s"] / traced_wall
        metrics[f"{layer}.alloc_peak_mb"] = peaks[layer]["alloc_peak"] / 1e6
    for key in ("decompositions.verify_ensemble", "decompositions.power_pair_ensemble",
                "bounds.negativity", "bounds.schmidt_certificate", "bounds.rank_certificate",
                "kernel.trace_norm", "kernel.spectrum", "channels.covariance_report",
                "channels.cptp_report", "channels.dio_synthesize"):
        metrics[f"{key}.self_s"] = tracer.self_s.get(key, 0.0)
    c = tracer.counters
    metrics["decompositions.members"] = int(c["members"])
    metrics["decompositions.witness_mb"] = c["witness_mb"]
    metrics["kernel.trace_norm.calls"] = tracer.calls.get("kernel.trace_norm", 0)
    metrics["kernel.trace_norm.flop_est"] = c["trace_norm_flops"]
    metrics["channels.choi_apply.calls"] = tracer.calls.get("channels.choi_apply", 0)
    metrics["bounds.witness_verified_ratio"] = c["witness_verified"] / c["hinted"] if c["hinted"] else 0.0
    metrics["bounds.exact_ratio"] = c["exact"] / c["certificates"] if c["certificates"] else 0.0
    metrics["cli.out_mb"] = out_bytes / 1e6
    metrics["trace_overhead"] = traced_wall / untraced_wall - 1.0
    return metrics


def kind_shares(tracer, kinds: list[str]) -> dict:
    """Per op kind: each layer's share of that kind's self time."""
    child_s: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in tracer.spans:
        child_s[parent] += end - start
    by_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span_id, _, op, name, start, end in tracer.spans:
        by_kind[kinds[op]][name.split(".", 1)[0]] += end - start - child_s[span_id]
    return {
        kind: {layer: round(t / sum(layers.values()), 4) for layer, t in sorted(layers.items())}
        for kind, layers in by_kind.items()
    }


def traced_run(workload: str, seed: int, cr, runner: Runner, workdir: Path) -> dict:
    """Untraced pass, traced replay of the same ops, then one cycle under
    tracemalloc. The op set is a fixed number of cycles, so the counts repeat
    exactly for a seed and the times of two commits cover the same work."""
    n_cycles = workloads.TRACE_CYCLES[workload]
    plain, untraced_wall, _ = closed_loop(workload, seed, runner, workdir, n_cycles=n_cycles)
    runner.out_bytes = 0
    tracer = LayerTracer(cr, LAYERS, OBSERVERS)
    with tracer:
        traced, traced_wall, _ = closed_loop(workload, seed, runner, workdir, n_cycles=n_cycles, tracer=tracer)
    out_bytes = runner.out_bytes
    alloc_tracer = LayerTracer(cr, LAYERS, alloc=True)
    with alloc_tracer:
        alloc, _, _ = closed_loop(workload, seed, runner, workdir, n_cycles=1, tracer=alloc_tracer)
    tracer.write_spans(workdir.parent / f"spans-{workload}-seed{seed}.json")
    layer_self = sum(tracer.layer_totals()[layer]["self_s"] for layer in LAYERS)
    return {
        "attempted": plain.attempted + traced.attempted + alloc.attempted,
        "failed": plain.failed + traced.failed + alloc.failed,
        "failures": plain.failures + traced.failures + alloc.failures,
        "digest": plain.digest.hexdigest(),
        "metrics": per_layer(tracer, alloc_tracer, traced_wall, untraced_wall, out_bytes),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "layer_self_sum_s": layer_self,
        "kind_shares": kind_shares(tracer, traced.kinds),
        "cycles": n_cycles,
    }


# ---------------------------------------------------------------------- env


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


# -------------------------------------------------------------------- modes


def warm_up(workload: str, cr, workdir: Path) -> None:
    op = workloads.warmup_op(workload, workdir)
    runner = Runner(cr, workdir)
    rc, out = runner.collect(op, runner.call(op))
    workloads.check(op, rc, out)


def mode_run(args) -> None:
    workdir = Path(args.workdir)
    cr = _import_cohrank()
    warm_up(args.workload, cr, workdir)
    print("ready", flush=True)
    if args.mode == "probe":
        return
    runner = Runner(cr, workdir)
    if args.trace:
        report = traced_run(args.workload, args.seed, cr, runner, workdir)
    else:
        tally, busy, n_cycles = closed_loop(args.workload, args.seed, runner, workdir, seconds=args.seconds)
        report = {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures,
            "digest": tally.digest.hexdigest(),
            "metrics": end_to_end(args.workload, tally, busy),
            "cycles": n_cycles,
        }
    report["env"] = environment()
    print(json.dumps(report), flush=True)


def mode_rung(args) -> None:
    """Run one rung under RLIMIT_AS; the parent enforces the time budget."""
    limit = args.mem_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    cr = _import_cohrank()
    workdir = Path(args.workdir)
    print("ready", flush=True)
    start = time.perf_counter()
    outcome: dict = {"family": args.family, "size": args.size}
    if args.family == "n":
        alpha = 0.9 * checks.boundary(args.size)
        out_path = workdir / f"rung-n{args.size}.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cr.cli.main(["cost", "--alpha", repr(alpha), "--n", str(args.size), "--out", str(out_path)])
        outcome.update(alpha=alpha, rc=rc, stderr=err.getvalue()[-300:],
                       out=out_path.read_text(encoding="utf-8") if out_path.exists() else "")
    else:
        try:
            cert = schmidt_pipeline(cr, args.size)
        except MemoryError as exc:
            outcome.update(rc=1, stderr=f"MemoryError: {exc}")
        except cr.DimensionCapError as exc:
            outcome.update(rc=3, stderr=f"error: {exc}")
        else:
            outcome.update(rc=0, lower=cert.lower, upper=cert.upper)
    outcome["elapsed_s"] = time.perf_counter() - start
    print(json.dumps(outcome), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["probe", "run", "rung"])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--family", choices=["n", "d"])
    parser.add_argument("--size", type=int)
    parser.add_argument("--mem-mb", type=int)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if args.mode == "rung":
        mode_rung(args)
    else:
        mode_run(args)


if __name__ == "__main__":
    sys.exit(main())

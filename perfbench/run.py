"""cohrank benchmark: seeded closed-loop workloads, a capacity ladder, and a layer trace.

Usage (from the repository root):

  python3 perfbench/run.py --workload omega-certify --seed 1 --seconds 35 --trace 0

--trace 0 prints every end-to-end metric; --trace 1 runs the traced pass and
prints every per-layer metric. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. The full record (environment,
digest, ladder rungs, failures) is also written under .bench_build/perfbench/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Every workload process sees one BLAS thread: on a 2-core box the default
# two threads make small LAPACK calls an order of magnitude slower and noisier.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Set-up samples: probe processes before the timed phase, after it, and after
# the ladder, plus the workload process itself. Spreading them over the run
# keeps one slow stretch of the machine from setting the median.
SETUP_PROBES = 3
SETUP_SAMPLES = 3 * SETUP_PROBES + 1

# Capacity ladder: a rung passes when it certifies within both budgets. At the
# seed commit n=8 peaks at 343 MB of address space and n=9 needs about 1.6 GB;
# d=16 takes about 0.9 s and d=24 about 10 s, so each budget sits a factor of
# two or more from both the last passing and the first failing rung.
N_RUNGS = tuple(range(6, 17))
D_RUNGS = (8, 16, 24, 32, 48, 64, 96, 128)
RUNG_SECONDS = 3.0
RUNG_MEM_MB = 768
READY_TIMEOUT = 60.0
WORKER_TIMEOUT = 150.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "max_n_certified": "count",
    "max_d_certified": "count",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".members")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".flop_est"):
        return "flop"
    return "ratio"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_ENV)
    return env


def spawn(args: list[str], env: dict) -> subprocess.Popen:
    # Unbuffered: read_line must not pull the lines after "ready" into a
    # Python-side buffer, where communicate() would never see them.
    return subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=env, bufsize=0)


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"worker printed nothing within {timeout:.0f} s")
    return proc.stdout.readline().decode().strip()


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """The rest of the worker's stdout once it exits; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        stop(proc)
    return out.decode()


def stop(proc: subprocess.Popen) -> None:
    """Kill if still running and reap."""
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def start_ready(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and wait for its "ready" line: process start through
    import and warm-up."""
    start = time.perf_counter()
    proc = spawn(args, env)
    try:
        line = read_line(proc, READY_TIMEOUT)
    except BaseException:
        stop(proc)
        raise
    if line != "ready":
        stop(proc)
        raise BenchError(f"worker failed before ready (exit {proc.returncode})")
    return proc, time.perf_counter() - start


def setup_probe(workload: str, env: dict, workdir: Path) -> float:
    proc, elapsed = start_ready(["probe", "--workload", workload, "--workdir", str(workdir)], env)
    finish(proc, READY_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"probe exited {proc.returncode}")
    return elapsed


def run_worker(args: argparse.Namespace, env: dict, workdir: Path) -> tuple[dict, float]:
    argv = ["run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.trace:
        argv.append("--trace")
    proc, setup = start_ready(argv, env)
    out = finish(proc, WORKER_TIMEOUT)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


# ------------------------------------------------------------------- ladder


def classify(outcome: dict) -> str:
    """pass / wrong / error count as attempts; oom, timeout and cap are the
    budget running out, which stops the ladder without counting as a failure."""
    err = outcome.get("stderr", "")
    if outcome["rc"] == 0:
        try:
            if outcome["family"] == "n":
                checks.check_cost(outcome["alpha"], outcome["size"], 0, outcome["out"].encode())
            else:
                checks.check_schmidt(outcome["size"], outcome["lower"], outcome["upper"])
        except (checks.CheckFailure, KeyError, TypeError, ValueError) as exc:
            outcome["check"] = str(exc)
            return "wrong"
        return "pass"
    if "Unable to allocate" in err or "MemoryError" in err:
        return "oom"
    if outcome["rc"] == 3 and "exceeds cap" in err:
        return "cap"
    return "error"


def run_rung(family: str, size: int, env: dict, workdir: Path) -> dict:
    argv = ["rung", "--family", family, "--size", str(size), "--mem-mb", str(RUNG_MEM_MB),
            "--workdir", str(workdir)]
    proc, _ = start_ready(argv, env)
    try:
        out = finish(proc, RUNG_SECONDS)
    except subprocess.TimeoutExpired:
        return {"family": family, "size": size, "status": "timeout"}
    lines = out.strip().splitlines()
    if not lines:
        return {"family": family, "size": size, "status": "error", "rc": proc.returncode}
    outcome = json.loads(lines[-1])
    outcome["status"] = classify(outcome)
    outcome.pop("out", None)
    return outcome


def ladder(family: str, sizes, env: dict, workdir: Path) -> tuple[int, list[dict]]:
    """Ascend until the first rung that does not pass; return the last passing
    size (0 if none passes)."""
    best, rungs = 0, []
    for size in sizes:
        outcome = run_rung(family, size, env, workdir)
        rungs.append(outcome)
        if outcome["status"] != "pass":
            break
        best = size
    return best, rungs


# --------------------------------------------------------------------- main


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="cohrank benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    env = child_env()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    def probes() -> list[float]:
        return [setup_probe(args.workload, env, workdir) for _ in range(SETUP_PROBES)]

    setups = [] if args.trace else probes()
    report, setup = run_worker(args, env, workdir)
    record.update(report)
    record["env"].update(
        nproc=os.cpu_count(),
        blas_threads={k: env[k] for k in BLAS_ENV},
        seed=args.seed,
        rung_budget={"seconds": RUNG_SECONDS, "address_space_mb": RUNG_MEM_MB},
    )
    if args.trace:
        return record
    setups += [setup, *probes()]
    max_n, n_rungs = ladder("n", N_RUNGS, env, workdir)
    max_d, d_rungs = ladder("d", D_RUNGS, env, workdir)
    setups += probes()
    record["setup_samples_s"] = setups
    record["metrics"]["setup_s"] = statistics.median(setups)
    record["metrics"].update(max_n_certified=max_n, max_d_certified=max_d)
    record["ladder"] = n_rungs + d_rungs
    for rung in n_rungs + d_rungs:
        record["attempted"] += 1
        if rung["status"] in ("wrong", "error"):
            record["failed"] += 1
            record["failures"].append(f"rung {rung['family']}={rung['size']}: {rung}")
    return record


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "cohrank" / "__init__.py").is_file():
        print(f"no cohrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_build" / "perfbench"
    workdir = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args, workdir)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {name: layer_unit(name) for name in record["metrics"]} if args.trace else END_TO_END
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()}
    (base / "results").mkdir(exist_ok=True)
    result_path = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        mt = record["metrics"]
        print(f"  op_tail_ms is p{mt['tail_percentile']} of {mt['samples']} ops "
              f"({mt['tail_samples_beyond']} beyond); setup_s is the median of {SETUP_SAMPLES} process starts")
        print("  ladder: " + ", ".join(f"{r['family']}={r['size']} {r['status']}" for r in record["ladder"]))
    else:
        print(f"  layer self-time sum {record['layer_self_sum_s']:.4f} s of traced wall "
              f"{record['traced_wall_s']:.4f} s (untraced {record['untraced_wall_s']:.4f} s)")
        for kind, shares in record["kind_shares"].items():
            print(f"  shares[{kind}]: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(f"  fail_frac {record['failed']}/{record['attempted']}  digest sha256:{record['digest']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    print(f"  record {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

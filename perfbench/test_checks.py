"""The benchmark's checkers must catch corrupted outputs, and its metric names
must match BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cohrank  # noqa: E402
import cohrank.cli  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _edit_json(out: bytes, edit) -> bytes:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc).encode()


def _wrong_rank(op, rc, out):
    return rc, _edit_json(out, lambda d: d.update(zero_error=math.log2(3) / op.params["n"]))


def _claim_feasible(op, rc, out):
    return 0, _edit_json(out, lambda d: d.update(feasible=True))


def _perturb_choi(op, rc, out):
    def edit(doc):
        doc["channel"]["choi"]["entries"][0] += 1e-6

    return rc, _edit_json(out, edit)


def _flip_nonadd_feasibility(op, rc, out):
    header, first, *rest = out.decode().splitlines()
    return rc, "\n".join([header, first.replace(",true,", ",false,"), *rest]).encode()


def _drop_member(op, rc, out):
    return rc, _edit_json(out, lambda d: d["members"].pop())


def _wrong_schmidt(op, rc, out):
    lower, upper, *methods = out.split()
    return rc, b" ".join([lower, str(int(upper) + 1).encode(), *methods])


def _cases(tmp_path: Path):
    infeasible = {"family": "omega-power", "alpha": 0.5, "n": 3}  # (1.5)^3 > 2
    return [
        (workloads.cost_op(0.1, 5), _wrong_rank),
        (workloads.decompose_op(0.15, 4), _drop_member),
        (workloads.nonadd_op(0.05, 0.5, 3, 3), _flip_nonadd_feasibility),
        (workloads.dio_op(infeasible, 2, tmp_path / "omega.json"), _claim_feasible),
        (workloads.dio_op({"family": "rho-d", "d": 4}, 2, tmp_path / "rho.json"), _perturb_choi),
        (workloads.schmidt_op(4), _wrong_schmidt),
    ]


class Corrupting(worker.Runner):
    def __init__(self, cr, workdir, corrupt):
        super().__init__(cr, workdir)
        self.corrupt = corrupt

    def collect(self, op, result):
        rc, out = super().collect(op, result)
        return self.corrupt(op, rc, out)


def test_genuine_outputs_pass(tmp_path):
    tally = worker.Tally()
    ops = [op for op, _ in _cases(tmp_path)]
    worker.run_cycle(ops, worker.Runner(cohrank, tmp_path), tally, digest=False)
    assert (tally.attempted, tally.failed) == (len(ops), 0), tally.failures


@pytest.mark.parametrize("index", range(6))
def test_corruption_counts_as_failure(tmp_path, index):
    op, corrupt = _cases(tmp_path)[index]
    honest, tally = worker.Tally(), worker.Tally()
    worker.run_cycle([op], worker.Runner(cohrank, tmp_path), honest, digest=False)
    worker.run_cycle([op], Corrupting(cohrank, tmp_path, corrupt), tally, digest=False)
    assert honest.failed == 0, honest.failures
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.latencies == []


def test_raising_op_counts_as_failure(tmp_path):
    class Raising(worker.Runner):
        def call(self, op):
            raise RuntimeError("boom")

    tally = worker.Tally()
    worker.run_cycle([workloads.cost_op(0.1, 5)], Raising(cohrank, tmp_path), tally, digest=False)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_same_seed_same_digest(tmp_path):
    digests = [
        worker.closed_loop("capacity-ladder", 7, worker.Runner(cohrank, tmp_path), tmp_path, n_cycles=1)[0]
        .digest.hexdigest()
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_same_seed_same_ops(tmp_path):
    for workload in workloads.GENERATORS:
        first, second = (
            [op.label for op in next(workloads.cycles(workload, 5, tmp_path))] for _ in range(2)
        )
        assert first == second
        assert first != [op.label for op in next(workloads.cycles(workload, 6, tmp_path))]


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    from layertrace import LayerTracer

    tracer = LayerTracer(cohrank, worker.LAYERS, worker.OBSERVERS)
    layer_metrics = worker.per_layer(tracer, tracer, 1.0, 1.0, 0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_metrics
    }

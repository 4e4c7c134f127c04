"""The names the benchmark reads must exist, so a rename cannot silently zero a metric.

The layer tracer wraps only public functions defined in a layer module, and the
workload process calls the package by attribute; both are checked here against
the files the benchmark itself reads.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

import cohrank
import cohrank.cli  # the workload process imports it the same way

ROOT = Path(__file__).resolve().parent.parent
PER_FUNCTION = re.compile(r"^(\w+)\.(\w+)\.(self_s|calls|flop_est)$")


def _per_function_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in doc["per_layer"]]
    return sorted({m.groups()[:2] for m in map(PER_FUNCTION.match, names) if m})


def _worker_attributes():
    source = (ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8")
    return sorted(set(re.findall(r"\bcr\.([\w.]+)", source)))


def test_benchmark_names_some_functions():
    assert _per_function_metrics()
    assert _worker_attributes()


@pytest.mark.parametrize("layer,func", _per_function_metrics())
def test_per_function_metric_names_a_traced_function(layer, func):
    module = getattr(cohrank, layer)
    fn = getattr(module, func, None)
    assert inspect.isfunction(fn), f"cohrank.{layer}.{func} is not a function"
    assert not func.startswith("_")
    assert fn.__module__ == module.__name__


@pytest.mark.parametrize("path", _worker_attributes())
def test_worker_attribute_resolves(path):
    obj = cohrank
    for part in path.split("."):
        assert hasattr(obj, part), f"cr.{path} does not resolve"
        obj = getattr(obj, part)

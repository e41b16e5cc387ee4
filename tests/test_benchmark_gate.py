"""The benchmark's in-process workloads, run small: every op must give its
expected verdict, and every traced function must take the arguments its
span counter expects, or the benchmark refuses the run."""
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import pytest

import merokit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["grid_dense", "sampling_small"])
def test_workload_ops_give_their_expected_verdicts(workload, seed):
    ops = getattr(_load("workloads"), workload)(merokit, seed, tiny=True)
    assert ops
    for op in ops:
        out = op.call()
        assert out.verdict == op.expect, op.name
        if out.verdict == "fails":
            assert math.isfinite(out.margin) and out.witness is not None, op.name


def test_span_counters_match_the_wrapped_signatures():
    for layer, module, name, counter in _load("spans").STAGES:
        if counter is None:
            continue
        wrapped = getattr(importlib.import_module(module), name)
        assert len(inspect.signature(counter).parameters) == len(
            inspect.signature(wrapped).parameters
        ), f"{layer}: {module}.{name}"

"""The benchmark in perfbench/ still fits the library.

The benchmark wraps named toepkern functions (tracer.LAYERS) and builds its
workloads from the library's fixtures and CLI helpers; a rename in src/
would break it only when the benchmark runs.  These tests read perfbench/
and never modify it.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def workload_names():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [w["name"] for w in declared["workloads"]]


LAYERS = load("tracer").LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_functions_exist(layer):
    module = importlib.import_module(f"toepkern.{layer}")
    missing = [fn for fn in LAYERS[layer] if not callable(getattr(module, fn, None))]
    assert not missing


@pytest.mark.parametrize("workload", workload_names())
def test_workload_builds_its_calls(workload):
    calls = load("workloads").build(workload, np.random.default_rng(1))
    assert calls
    for call in calls:
        assert call.name and callable(call.run)
        assert callable(call.check) and callable(call.verdict)


def test_traced_pass_of_every_workload_checks_clean():
    # one pass of each workload through the tracer's wrappers: a signature
    # change that breaks a work function (tracer.WORK) or a check fails here
    tracer, workloads = load("tracer"), load("workloads")
    for workload in workload_names():
        recorder = tracer.Recorder()
        calls = workloads.build(workload, np.random.default_rng(1))
        with tracer.installed(recorder):
            failures = {call.name: call.check(call.run()) for call in calls}
        assert failures == {call.name: [] for call in calls}
        if workload == "classify-deep":
            # the cross-check reads singular values from the symbol: no
            # 2N section is built for it
            assert recorder.work["toeplitz.build_toeplitz.mb"] < 1.0

"""The benchmark tracer's contract with the package.

`perfbench/spans.py` wraps the functions it lists in `LAYER_FUNCS` by name
and binds the arguments of `sine_response` and `lqr_gradient_descent` to
read some parameters by name.  A renamed function or parameter would break
traced benchmark runs (`perfbench/run.py --trace 1`), so it is pinned here.
The quick ("toy") round of every workload is run here too, each job checked
by the benchmark's own check, so a change that would fail the benchmark
fails this suite first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lqgpo import lqg, sysid
from lqgpo.lqg import LqrProblem
from lqgpo.ss import StateSpace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _wrapped(spans):
    return {(layer, name): getattr(sys.modules[f"lqgpo.{layer}"], name)
            for layer, names in spans.LAYER_FUNCS.items() for name in names}


def test_install_wraps_every_listed_function_and_uninstall_restores(spans):
    originals = _wrapped(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for key, fn in _wrapped(spans).items():
            assert fn.__wrapped__ is originals[key], key
    finally:
        tracer.uninstall()
    assert _wrapped(spans) == originals


def test_bound_signatures_keep_the_parameters_read_by_name(spans):
    sine = set(spans._SINE_SIG.parameters)
    assert {"g", "omega", "step", "settle_cycles", "sample_cycles"} <= sine
    assert "iters" in spans._LQR_GD_SIG.parameters


def test_hooks_count_traced_calls(spans):
    g = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    prob = LqrProblem([[-1.0]], [[1.0]], np.eye(1), np.eye(1))
    tracer = spans.Tracer()
    try:
        tracer.install()
        with tracer.job("contract"):
            sysid.sine_response(g, 2.0)
            lqg.lqr_gradient_descent(prob, [[0.5]], iters=3)
    finally:
        tracer.uninstall()
    counts = tracer.counters
    assert counts["sysid.sine_response.calls"] == 1
    assert counts["sysid.sine_response.rk4_steps"] > 0
    assert counts["lqg.lqr_gradient_descent.calls"] == 1
    assert 1 <= counts["lqg.lqr_gradient_descent.iters"] <= 3


@pytest.mark.parametrize("workload", ["lifted-descent", "estimation", "classical"])
def test_toy_round_passes_the_benchmark_checks(workloads, workload):
    # one round as `perfbench/run.py --size toy` runs it: jobs in order, each
    # check reading the outputs of the jobs before it
    jobs = workloads.WORKLOADS[workload].make_round(np.random.default_rng(1), "toy")
    done = {}
    for job in jobs:
        out = job.run(done)
        assert job.check(out, done) == [], job.name
        done[job.name] = out

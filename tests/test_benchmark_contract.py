"""The benchmark tracer's contract with the package.

`perfbench/spans.py` wraps the functions it lists in `LAYER_FUNCS` by name
and binds the arguments of `sine_response` and `lqr_gradient_descent` to
read some parameters by name.  A renamed function or parameter would break
traced benchmark runs (`perfbench/run.py --trace 1`), so it is pinned here.
The quick ("toy") round of every workload is run here too, each job checked
by the benchmark's own check, so a change that would fail the benchmark
fails this suite first, and so is its traced replay, with the tracer's
self-checks.
"""

import os
import sys

import numpy as np
import pytest

from conftest import load_perfbench
from lqgpo import lqg, sysid
from lqgpo.lqg import LqrProblem
from lqgpo.ss import StateSpace

@pytest.fixture(scope="module")
def spans():
    return load_perfbench("spans")


@pytest.fixture(scope="module")
def workloads():
    return load_perfbench("workloads")


@pytest.fixture(scope="module")
def run():
    # run.py pins BLAS threads in os.environ when imported; keep this
    # process's environment as it was
    env = dict(os.environ)
    try:
        return load_perfbench("run")
    finally:
        os.environ.clear()
        os.environ.update(env)


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
def test_toy_round_passes_the_benchmark_checks(run, spans, workloads, workload):
    # one round as `perfbench/run.py --size toy` runs it: jobs in order, each
    # check reading the outputs of the jobs before it.  Then the self-checks
    # of its `--trace 1` replay: the round traced (twice here) gives the same
    # outputs, spans nest in their parents and counts repeat.  The limit on a
    # job's time left uncovered by its spans is not checked: millisecond toy
    # jobs cross it by timing noise alone.
    jobs = workloads.WORKLOADS[workload].make_round(np.random.default_rng(1), "toy")
    untraced = run.run_round(jobs, 0)
    assert [(x.job.name, x.failures) for x in untraced] == [(job.name, []) for job in jobs]
    counters = []
    for _ in range(2):
        tracer = spans.Tracer()
        try:
            tracer.install(extra=[workloads])
            traced = run.run_round(jobs, 0, tracer)
        finally:
            tracer.uninstall()
        for a, b in zip(untraced, traced, strict=True):
            assert b.failures == [], b.job.name
            assert run.plain(b.out) == run.plain(a.out), a.job.name
        assert tracer.nesting_violations() == 0
        counters.append(tracer.counters)
    assert counters[0] and counters[0] == counters[1]

"""The benchmark tracer's contract with the package.

`perfbench/spans.py` wraps the functions it lists in `LAYER_FUNCS` by name
and binds the arguments of `sine_response` and `lqr_gradient_descent` to
read some parameters by name.  A renamed function or parameter would break
traced benchmark runs (`perfbench/run.py --trace 1`), so it is pinned here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lqgpo import lqg, sysid
from lqgpo.lqg import LqrProblem
from lqgpo.ss import StateSpace

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

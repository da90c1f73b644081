"""Span recorder for the benchmark's traced runs.

`Tracer.install(extra)` rebinds every wrapped function in each `lqgpo.*`
module, and in the benchmark's own `extra` modules, that holds it by name (for
example `minreal` lives in `ss` and is imported by name into `youla` and
`cli`), and replaces the `np` / `sla` module globals of
`lqgpo` with copies whose kernel entries (`schur`, the Lyapunov and
Sylvester solvers, `eigvals`) are wrapped.  Nothing under `src/` is edited;
`uninstall()` restores every binding.

Spans are recorded only while a job span is open, so the benchmark's own
correctness checks, which also call `lqgpo`, do not enter the counts.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import types

import numpy as np
import scipy.linalg as sla
from lqgpo import lqg, sysid

# Wrapped public functions by layer; the layer is both the `lqgpo` module
# that defines them and the metric prefix.
LAYER_FUNCS = {
    "ss": ("minreal", "stable_antistable_split", "h2_norm_sq", "h2_inner",
           "gramian_ctrb", "gramian_obsv", "hinf_norm_est", "freq_response"),
    "solvers": ("lyap_ct", "care", "sylvester", "psd_sqrt"),
    "lqg": ("close_loop", "lqg_cost", "lqg_gradient", "lqg_optimal",
            "lqr_gradient_descent", "lqr_optimal"),
    "certificate": ("certify", "build_certificate_matrices", "markov_test",
                    "lqr_certificate"),
    "youla": ("build_nominal", "sensitivity", "frechet_gradient", "lifted_cost",
              "estimate_smoothness", "run_lifted_gradient_descent",
              "reconstruct_controller_delta", "assemble_controller"),
    "sysid": ("sine_response", "identify_m22", "fit_rational", "laguerre_project",
              "laguerre_coeffs_zeroth", "reduce_order", "zo_residue_estimate",
              "zo_gradient_estimate"),
}
# The direct scipy/numpy calls the package makes: kernel name -> (host
# module, attribute).
KERNEL_FUNCS = {
    "schur": (sla, "schur"),
    "lyapunov": (sla, "solve_continuous_lyapunov"),
    "sylvester": (sla, "solve_sylvester"),
    "eigvals": (np.linalg, "eigvals"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # enclosing Span, None for a job span
        self.child_time = 0.0


class Tracer:
    """Records nested spans and per-function counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def job(self, name):
        """Context manager for a top-level job span."""
        return _JobSpan(self, name)

    def _open(self, name):
        span = Span(name, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.end - span.start

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        tracer = self
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                # a call that raises is counted too; its time is in the spans
                tracer._close(span)
                tracer.add(calls_key, 1)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, extra=()):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "lqgpo" or k.startswith("lqgpo.")) and m is not None]
        modules += list(extra)
        for layer, names in LAYER_FUNCS.items():
            home = sys.modules[f"lqgpo.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                key = f"{layer}.{fname}"
                wrapped = self.wrap(key, orig, _hook(key))
                for mod in modules:
                    if getattr(mod, fname, None) is orig:
                        self._rebind(mod, fname, wrapped)
        # Kernel calls: give lqgpo modules their own np / sla namespaces.
        linalg = _module_copy(np.linalg)
        np_copy = _module_copy(np)
        np_copy.linalg = linalg
        sla_copy = _module_copy(sla)
        for kname, (host, attr) in KERNEL_FUNCS.items():
            target = linalg if host is np.linalg else sla_copy
            key = f"kernel.{kname}"
            setattr(target, attr, self.wrap(key, getattr(host, attr), _hook(key)))
        for mod in modules[: len(modules) - len(extra)]:
            if getattr(mod, "np", None) is np:
                self._rebind(mod, "np", np_copy)
            if getattr(mod, "sla", None) is sla:
                self._rebind(mod, "sla", sla_copy)

    def _rebind(self, mod, name, value):
        self._saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self):
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-function self time: duration minus the time child spans cover."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.parent is not None:
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - s.child_time
        return out

    def job_spans(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent."""
        bad = 0
        for s in self.spans:
            p = s.parent
            if p is not None:
                bad += not (p.start <= s.start <= s.end <= p.end)
        return bad

    def worst_job_uncovered(self) -> tuple[float, str]:
        """Largest share of a job's wall time not covered by its child spans,
        and the job's name."""
        return max(((s.end - s.start - s.child_time) / (s.end - s.start), s.name)
                   for s in self.job_spans())


class _JobSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open("job." + self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


def _module_copy(mod):
    """A module object with the same attributes, falling back to `mod` for
    lazily loaded names."""
    copy = types.ModuleType(mod.__name__)
    copy.__dict__.update(mod.__dict__)
    copy.__getattr__ = lambda name: getattr(mod, name)
    return copy


# -- counters beyond `calls` -------------------------------------------------
#
# Each hook runs after a successful call of its wrapped function and adds to
# the counters listed next to it; all are exact counts.


def _order(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) else 0


def _rk4_steps(args, kwargs):
    """RK4 steps `sine_response` takes for these arguments, by the step rule it
    documents (h = min(0.01, 0.05/omega), settle plus sample cycles, one pass
    per input channel).  A computed count, not an observed one."""
    bound = _SINE_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    omega = float(a["omega"])
    h = min(0.01, 0.05 / omega) if a["step"] is None else float(a["step"])
    period = 2.0 * math.pi / omega
    n_total = math.ceil(a["settle_cycles"] * period / h) + math.ceil(
        a["sample_cycles"] * period / h
    )
    return n_total * a["g"].n_inputs


_SINE_SIG = inspect.signature(sysid.sine_response)
_LQR_GD_SIG = inspect.signature(lqg.lqr_gradient_descent)


def _kernel_n3(kname):
    def after(tracer, args, kwargs, result):
        # sum of cubed orders of the factorized matrices
        n3 = _order(args[0]) ** 3
        if kname == "sylvester":
            n3 += _order(args[1]) ** 3
        tracer.add(f"kernel.{kname}.n3", n3)
    return after


def _minreal_after(tracer, args, kwargs, result):
    tracer.add("ss.minreal.states_in", args[0].n_states)
    tracer.add("ss.minreal.states_out", result.n_states)


def _lqr_gd_after(tracer, args, kwargs, result):
    bound = _LQR_GD_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    steps = len(result[1]) - 1
    tracer.add("lqg.lqr_gradient_descent.iters", steps)
    tracer.add("lqg.lqr_gradient_descent.budget_hits", int(steps == bound.arguments["iters"]))


def _lifted_after(tracer, args, kwargs, result):
    records = result[0]
    peak = max(r.q_dyn_order for r in records)
    tracer.counters["youla.q_dyn_order.max"] = max(
        tracer.counters.get("youla.q_dyn_order.max", 0), peak
    )
    tracer.add("youla.q_dyn_order.final", records[-1].q_dyn_order)


def _lifted_cost_after(tracer, args, kwargs, result):
    # a cost probe: a lifted_cost call made, at any depth, by the ZO estimator
    if any(s.name == "sysid.zo_residue_estimate" for s in tracer.stack):
        tracer.add("sysid.zo_residue_estimate.cost_probes", 1)


def _sine_after(tracer, args, kwargs, result):
    tracer.add("sysid.sine_response.rk4_steps", _rk4_steps(args, kwargs))


# wrapped function -> (hook, the counters it adds)
COUNTERS = {
    **{f"kernel.{k}": (_kernel_n3(k), (f"kernel.{k}.n3",)) for k in KERNEL_FUNCS},
    "ss.minreal": (_minreal_after, ("ss.minreal.states_in", "ss.minreal.states_out")),
    "lqg.lqr_gradient_descent": (_lqr_gd_after, ("lqg.lqr_gradient_descent.iters",
                                                 "lqg.lqr_gradient_descent.budget_hits")),
    "youla.run_lifted_gradient_descent": (_lifted_after, ("youla.q_dyn_order.max",
                                                          "youla.q_dyn_order.final")),
    "youla.lifted_cost": (_lifted_cost_after, ("sysid.zo_residue_estimate.cost_probes",)),
    "sysid.sine_response": (_sine_after, ("sysid.sine_response.rk4_steps",)),
}


def _hook(key):
    return COUNTERS[key][0] if key in COUNTERS else None


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    keys = [f"{layer}.{f}" for layer, names in LAYER_FUNCS.items() for f in names]
    keys += [f"kernel.{k}" for k in KERNEL_FUNCS]
    out = []
    for key in keys:
        out += [(f"{key}.calls", "count"), (f"{key}.self_pct", "%")]
        out += [(name, "count") for name in COUNTERS.get(key, (None, ()))[1]]
    return out + [("trace.overhead_pct", "%")]

"""The benchmark's three workloads: seeded instances, jobs and their checks.

`make_round(rng, size)` draws a round's instances from `rng` and does the
reference solves the checks need; that is the benchmark's set-up.  The
runner seeds every round with `default_rng(seed)`, so the same seed always
gives the same inputs.  Each job runs one public `lqgpo` call
chain, the one the matching CLI handler runs, and returns its outputs; its
check compares them with the acceptance suite's tolerances.

Jobs run in list order; a check may read the outputs of earlier jobs of the
same round (`done`, keyed by job name).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lqgpo import benchmarks
from lqgpo.certificate import certify, lqr_certificate
from lqgpo.errors import SolverError, UnstableError
from lqgpo.lqg import (
    DynController,
    LqgPlant,
    LqrProblem,
    close_loop,
    loop_matrix,
    lqg_cost,
    lqg_optimal,
    lqr_cost_grad,
    lqr_gradient_descent,
    lqr_optimal,
)
from lqgpo.ss import (
    StateSpace,
    h2_norm_sq,
    minreal,
    parallel,
    rational_to_ss,
    ss_entry_to_rational,
)
from lqgpo.sysid import (
    LaguerreBasis,
    ZoConfig,
    default_grid,
    identify_m22,
    laguerre_coeffs_zeroth,
    laguerre_project,
    reduce_order,
    zo_residue_estimate,
)
from lqgpo.youla import (
    YoulaIterate,
    assemble_controller,
    build_nominal,
    frechet_gradient,
    reconstruct_controller_delta,
    run_lifted_gradient_descent,
    sensitivity,
)

# Sizes per workload: "full" is the measured benchmark, "toy" the quick check.
SIZES = {
    "full": {
        "lifted_orders": (8, 16, 24), "lifted_iters": 10, "example1_iters": 14,
        "sine_grid": (8, 0.3, 10.0), "laguerre_order": 15, "zeroth_order": 4,
        "zo_samples": 1000,
        "classical_orders": (2, 4, 8, 16), "certify_plants": 3, "criterion6_lqr": 10,
    },
    "toy": {
        "lifted_orders": (4,), "lifted_iters": 2, "example1_iters": 3,
        "sine_grid": (6, 3.0, 10.0), "laguerre_order": 6, "zeroth_order": 1,
        "zo_samples": 50,
        "classical_orders": (2,), "certify_plants": 1, "criterion6_lqr": 1,
    },
}

# Seed of the acceptance suite's criterion-6 generator; the first instances
# it draws are `classical`'s fixed LQR set.
CRITERION6_SEED = 20250810 + 6

# Instance-draw budget; a draw is rejected when a generated problem is not
# solvable or its perturbed controller loses too much stability margin.
MAX_DRAWS = 200


@dataclass
class Job:
    kind: str
    name: str
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], list[str]]
    # work units the job performed, from its outputs
    work: Callable[[dict], int] = lambda out: 0
    # result-quality figures of the job, from its outputs (see QUALITY)
    quality: Callable[[dict], dict] = lambda out: {}


# -- instance generators -------------------------------------------------------


def _spd(rng, k):
    M = rng.normal(size=(k, k))
    return M @ M.T / k + 0.5 * np.eye(k)


def _margin(plant, ctrl):
    return -float(np.max(np.linalg.eigvals(loop_matrix(plant, ctrl)).real))


def perturbed_controller(rng, plant, opt, draws=20):
    """lqg_optimal plus N(0, (s/sqrt(n))^2) entries, kept only if the loop
    keeps at least half the optimum's stability margin (None if no draw does).

    s starts at 0.1 and halves after every 5 rejected draws.  At n = 24 a
    third of the plants reject 20 draws at s = 0.1; redrawing the plant
    instead made the set-up time swing fourfold from seed to seed.
    """
    scale = 0.1 / math.sqrt(plant.n)
    floor = 0.5 * _margin(plant, opt)
    for k in range(draws):
        ctrl = DynController(
            *(M + scale * rng.normal(size=M.shape) for M in (opt.A_K, opt.B_K, opt.C_K))
        )
        if _margin(plant, ctrl) >= floor:
            return ctrl
        if k % 5 == 4:
            scale *= 0.5
    return None


def random_lqg_instance(rng, n, m=2):
    """Plant with A = N(0,1)/sqrt(n) - 0.8 I, B, C ~ N(0,1) and SPD weights,
    plus a perturbed optimal controller to start from."""
    for _ in range(MAX_DRAWS):
        A = rng.normal(size=(n, n)) / math.sqrt(n) - 0.8 * np.eye(n)
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(m, n))
        try:
            plant = LqgPlant(A, B, C, _spd(rng, n), _spd(rng, m), _spd(rng, n), _spd(rng, m))
        except (SolverError, ValueError):
            continue
        ctrl = perturbed_controller(rng, plant, lqg_optimal(plant))
        if ctrl is not None:
            return plant, ctrl
    raise RuntimeError(f"no random LQG instance at n={n}")


def _stabilizing_perturbation(prob, k_opt, rng, scale):
    """K* + scale N(0,1), the scale halved until the gain stabilizes."""
    for _ in range(MAX_DRAWS):
        K0 = k_opt + scale * rng.normal(size=k_opt.shape)
        try:
            lqr_cost_grad(prob, K0)
            return K0
        except (UnstableError, SolverError):
            scale *= 0.5
    raise RuntimeError("no stabilizing perturbation of K*")


def _tiny_lqr_instance(rng):
    """Criterion-6 style: n <= 3, Q = I, R = I, K0 = K* + 0.3 N(0,1), falling
    back to K0 = K* when the perturbation destabilizes."""
    for _ in range(MAX_DRAWS):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, int(rng.integers(1, 3))))
        try:
            prob = LqrProblem(A, B, np.eye(n), np.eye(B.shape[1]))
        except (SolverError, ValueError):
            continue
        k_opt, _ = lqr_optimal(prob)
        K0 = k_opt + 0.3 * rng.normal(size=k_opt.shape)
        try:
            lqr_cost_grad(prob, K0)
        except (UnstableError, SolverError):
            K0 = k_opt
        return prob, K0
    raise RuntimeError("no tiny LQR instance")


# -- lifted-descent ------------------------------------------------------------


def _optimize_job(name, plant, ctrl0, eta, iters):
    """The `optimize --save-controller` chain."""

    def run(done):
        jstar = lqg_cost(close_loop(plant, lqg_optimal(plant)))
        nom = build_nominal(plant, ctrl0)
        records, final = run_lifted_gradient_descent(nom, eta=eta, iters=iters)
        ctrl = assemble_controller(ctrl0, reconstruct_controller_delta(nom, final))
        return {
            "jstar": jstar,
            "costs": [r.cost for r in records],
            "orders": [r.q_dyn_order for r in records],
            "reassembled_cost": lqg_cost(close_loop(plant, ctrl)),
        }

    def check(out, done):
        costs, jstar = out["costs"], out["jstar"]
        bad = []
        if not costs[-1] <= costs[0] + 1e-10:
            bad.append(f"final cost {costs[-1]:.12g} above initial {costs[0]:.12g}")
        if not costs[-1] >= jstar - 1e-9:
            bad.append(f"final cost {costs[-1]:.12g} below J* {jstar:.12g}")
        if not abs(out["reassembled_cost"] - costs[-1]) <= 1e-6 * abs(costs[-1]):
            bad.append("reassembled controller cost differs from the lifted cost")
        return bad

    def quality(out):
        return {"final_rel_error": _rel_errors(out)[-1]} if eta is None else {}

    return Job("optimize", name, run, check, work=lambda out: len(out["costs"]) - 1,
               quality=quality)


def _rel_errors(out):
    return [(c - out["jstar"]) / out["jstar"] for c in out["costs"]]


def _example1_pair_check(out, done):
    """Example 1: case 2 decreases strictly; cases 1 and 2 agree within 5%."""
    lift2 = _rel_errors(out)
    lift1 = _rel_errors(done["example1-case1"])
    bad = []
    if not all(b < a for a, b in zip(lift2, lift2[1:])):
        bad.append("example1 case 2 lifted descent not strictly decreasing")
    gap = max(abs(a - b) / abs(b) for a, b in zip(lift1, lift2))
    if not gap < 0.05:
        bad.append(f"example1 cases differ by {gap:.3g} (limit 0.05)")
    return bad


def lifted_round(rng, size):
    cfg = SIZES[size]
    plant = benchmarks.example1_plant()
    case1 = _optimize_job("example1-case1", plant, benchmarks.near_stationary_controller(),
                          0.1, cfg["example1_iters"])
    case2 = _optimize_job("example1-case2", plant, benchmarks.stationary_controller(),
                          0.1, cfg["example1_iters"])
    base_check = case2.check
    case2.check = lambda out, done: base_check(out, done) + _example1_pair_check(out, done)
    jobs = [case1, case2]
    for n in cfg["lifted_orders"]:
        plant_n, ctrl0 = random_lqg_instance(rng, n)
        jobs.append(_optimize_job(f"random-n{n}", plant_n, ctrl0, None, cfg["lifted_iters"]))
    return jobs


# -- estimation ----------------------------------------------------------------


def _coeff_error_pct(fit, truth):
    """Largest coefficient error of a fit, in percent of the truth's largest."""

    def err(a, b):
        width = max(a.size, b.size)
        pa, pb = np.zeros(width), np.zeros(width)
        pa[: a.size], pb[: b.size] = a, b
        return 100.0 * np.abs(pa - pb).max() / np.abs(pb).max()

    return max(err(fit.num, truth.num), err(fit.den, truth.den))


def _jittered_log_grid(rng, n, lo, hi):
    """Log grid with fixed end points and interior points moved by up to a
    tenth of a grid step; the low end sets the acquisition cost, which the
    jitter moves by about 1% from seed to seed."""
    logs = np.linspace(np.log10(lo), np.log10(hi), n)
    step = logs[1] - logs[0]
    logs[1:-1] += rng.uniform(-0.1, 0.1, n - 2) * step
    return 10.0 ** logs


def _identify_job(plant, ctrl0, grid, truths):
    """`identify --mode sine` at the true entry degrees."""
    degrees = {ij: (t.num_degree, t.den_degree) for ij, t in truths.items()}

    def run(done):
        nom = build_nominal(plant, ctrl0)
        return {"fits": identify_m22(nom.M22, grid, degrees, mode="sine"),
                "inputs": nom.M22.n_inputs}

    def check(out, done):
        fits = out["fits"]
        pattern = all(
            (fit is None) == ((i, j) not in truths)
            for i, row in enumerate(fits) for j, fit in enumerate(row)
        )
        return [] if pattern else ["sine-mode fit did not recover the zero pattern"]

    def quality(out):
        return {"fit_err_pct": max(
            _coeff_error_pct(fit, truths[(i, j)])
            for i, row in enumerate(out["fits"]) for j, fit in enumerate(row)
            if fit is not None and (i, j) in truths
        )}

    return Job("identify", "identify-sine", run, check,
               work=lambda out: len(grid) * out["inputs"], quality=quality)


def _laguerre_job(plant, ctrl0, order, s0):
    """`estimate-s --method projection`: Laguerre projection of S0 plus a
    (2, 3) reduced-order fit of every nonzero entry."""
    basis = LaguerreBasis(1.0, order)

    def run(done):
        nom = build_nominal(plant, ctrl0)
        coeffs = laguerre_project(sensitivity(nom, YoulaIterate.zero(nom)), basis)
        grid = default_grid()
        reduced = {
            (i, j): reduce_order(coeffs[i, j], basis, 2, 3, grid)
            for i in range(coeffs.shape[0]) for j in range(coeffs.shape[1])
            if np.max(np.abs(coeffs[i, j])) >= 1e-9
        }
        return {"coeffs": coeffs, "reduced": reduced}

    def check(out, done):
        bad = []
        for (i, j), fit in out["reduced"].items():
            sub = StateSpace(s0.A, s0.B[:, j : j + 1], s0.C[i : i + 1, :], np.zeros((1, 1)))
            nrm = math.sqrt(h2_norm_sq(sub))
            err = math.sqrt(max(h2_norm_sq(minreal(parallel(sub, rational_to_ss(fit), -1))), 0.0))
            if not err <= 0.05 * nrm:
                bad.append(f"reduced-order error {err / nrm:.3g} at entry {(i, j)} (limit 0.05)")
        return bad

    return Job("laguerre", "laguerre-project", run, check)


def _zeroth_job(plant, ctrl0, order):
    """`estimate-s --method derivative` coefficients, checked against the
    projection coefficients of the same round."""
    basis = LaguerreBasis(1.0, order)

    def run(done):
        nom = build_nominal(plant, ctrl0)
        return {"coeffs": laguerre_coeffs_zeroth(nom, YoulaIterate.zero(nom), basis)}

    def check(out, done):
        projected = done["laguerre-project"]["coeffs"][:, :, : order + 1]
        dev = float(np.abs(out["coeffs"] - projected).max())
        return [] if dev <= 1e-3 else [f"zeroth-order coefficients off by {dev:.3g} (limit 1e-3)"]

    return Job("laguerre", "laguerre-zeroth", run, check)


def _zo_job(name, plant, ctrl0, cfg):
    """`estimate-residue`: Monte-Carlo estimate against the exact 2 mask(Res S)."""

    def run(done):
        nom = build_nominal(plant, ctrl0)
        it0 = YoulaIterate.zero(nom)
        estimate = zo_residue_estimate(nom, it0, cfg)
        _, rmask = frechet_gradient(nom, it0)
        truth = 2.0 * rmask
        return {"estimate": estimate, "truth": truth,
                "rel_error": float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))}

    def check(out, done):
        if not np.all(np.isfinite(out["estimate"])):
            return ["non-finite zeroth-order estimate"]
        if not np.linalg.norm(out["truth"]) > 0:
            return ["zero reference residue"]
        return []

    return Job("zo", name, run, check, quality=lambda out: {"zo_rel_error": out["rel_error"]})


def estimation_round(rng, size):
    cfg = SIZES[size]
    plant = benchmarks.example1_plant()
    ctrl0 = benchmarks.example2_controller()
    nom = build_nominal(plant, ctrl0)
    truths = {}
    for i in range(nom.M22.n_outputs):
        for j in range(nom.M22.n_inputs):
            truth = ss_entry_to_rational(nom.M22, i, j)
            if truth is not None:
                truths[(i, j)] = truth
    s0 = sensitivity(nom, YoulaIterate.zero(nom))
    grid = _jittered_log_grid(rng, *cfg["sine_grid"])
    plant2, ctrl2 = random_lqg_instance(rng, 4)
    seeds = rng.integers(0, 2**31, size=2)
    return [
        _identify_job(plant, ctrl0, grid, truths),
        _laguerre_job(plant, ctrl0, cfg["laguerre_order"], s0),
        _zeroth_job(plant, ctrl0, cfg["zeroth_order"]),
        _zo_job("zo-example2", plant, ctrl0, ZoConfig(1e-5, cfg["zo_samples"], int(seeds[0]))),
        _zo_job("zo-random-n4", plant2, ctrl2, ZoConfig(1e-5, cfg["zo_samples"], int(seeds[1]))),
    ]


# -- classical -----------------------------------------------------------------


def _certify_job(name, plant, ctrl_of, expected):
    def run(done):
        return {"report": certify(plant, ctrl_of(done))}

    def check(out, done):
        got = out["report"].verdict.value
        return [] if got == expected else [f"verdict {got}, expected {expected}"]

    return Job("certify", name, run, check)


def _lqr_job(name, prob, K0):
    """State-feedback chain: lqr_optimal, gradient descent from K0 with the
    default 5000-iteration budget, certificate of the returned gain."""

    def run(done):
        _, c_opt = lqr_optimal(prob)
        K, history = lqr_gradient_descent(prob, K0)
        return {"K": K, "c_opt": c_opt, "iters": len(history) - 1,
                "certificate": lqr_certificate(prob, K)}

    def check(out, done):
        bad = []
        gap = out["certificate"].gap_norm
        if not gap <= 1e-6:
            bad.append(f"LQR gap {gap:.3g} (limit 1e-6)")
        cost, _ = lqr_cost_grad(prob, out["K"])
        excess = (cost - out["c_opt"]) / out["c_opt"]
        if not excess <= 1e-6:
            bad.append(f"LQR cost excess {excess:.3g} (limit 1e-6)")
        return bad

    def quality(out):
        # converged: stopped on lqr_gradient_descent's own gap tolerance
        # (default 1e-8 relative to 1 + ||R K||), not on its budget
        scale = 1.0 + np.linalg.norm(prob.R @ out["K"], "fro")
        return {"lqr_converged_frac": float(out["certificate"].gap_norm <= 1e-8 * scale)}

    return Job("lqr", name, run, check, work=lambda out: out["iters"], quality=quality)


def _certify_jobs(tag, plant, perturbed):
    """`solve-lqg` then `certify` of its optimum and of a perturbed controller."""
    return [
        Job("solve", f"{tag}-solve", lambda done: {"ctrl": lqg_optimal(plant)},
            lambda out, done: []),
        _certify_job(f"{tag}-certify-optimal", plant,
                     lambda done: done[f"{tag}-solve"]["ctrl"], "globally_optimal"),
        _certify_job(f"{tag}-certify-perturbed", plant, lambda done: perturbed,
                     "not_stationary"),
    ]


def _plant_lqr_job(tag, plant, rng, scale):
    prob = LqrProblem(plant.A, plant.B, plant.Q, plant.R)
    k_opt, _ = lqr_optimal(prob)
    return _lqr_job(f"{tag}-lqr", prob, _stabilizing_perturbation(prob, k_opt, rng, scale))


def classical_round(rng, size):
    """Certify chains on the paper's plant and seeded random plants, then the
    LQR chains: the paper's plant (from a seeded K0; it uses the whole descent
    budget from every start) and the first criterion-6 instances, the same on
    every seed.

    The LQR chains run on instances the acceptance suite gates, not on seeded
    ones: on about a third of the seeds, a seeded instance's descent ends with
    a gap above criterion 6's 1e-6 gate (see README.md), and whether a seeded
    instance converges changes its time a hundredfold.
    """
    cfg = SIZES[size]
    paper = benchmarks.example1_plant()
    near = perturbed_controller(rng, paper, lqg_optimal(paper), draws=MAX_DRAWS)
    stationary = benchmarks.stationary_controller()
    jobs = _certify_jobs("paper", paper, near) + [
        _certify_job("paper-certify-stationary", paper, lambda done: stationary,
                     "stationary_not_optimal")]
    for n in cfg["classical_orders"]:
        for k in range(cfg["certify_plants"]):
            plant, ctrl = random_lqg_instance(rng, n)
            jobs += _certify_jobs(f"random-n{n}-{k}", plant, ctrl)
    jobs.append(_plant_lqr_job("paper", paper, rng, 0.3))
    c6_rng = np.random.default_rng(CRITERION6_SEED)
    jobs += [_lqr_job(f"criterion6-{k}", *_tiny_lqr_instance(c6_rng))
             for k in range(cfg["criterion6_lqr"])]
    return jobs


# -- registry ------------------------------------------------------------------


def geomean(values):
    """Geometric mean of positive values (0.0 for none)."""
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


# How each job-level quality figure combines over a run's jobs.
QUALITY = {
    "final_rel_error": geomean,
    "fit_err_pct": max,
    "zo_rel_error": geomean,
    "lqr_converged_frac": statistics.fmean,
}


@dataclass(frozen=True)
class Workload:
    make_round: Callable
    # prefix of the workload's named figures in the report
    prefix: str
    # named job timings: report name -> job kinds
    timings: dict
    # job kinds whose median times give `job_s`: the geometric mean over the
    # kinds of each kind's geometric mean, so every kind weighs the same
    job_kinds: tuple
    # the job kind whose work units give `work_per_s`, and the report name
    work_kind: str
    work_name: str
    work_unit: str


WORKLOADS = {
    "lifted-descent": Workload(
        lifted_round, "lifted", {"job_s": ("optimize",)}, ("optimize",),
        "optimize", "iters_per_s", "lifted iterations"),
    "estimation": Workload(
        estimation_round, "sysid", {"job_s": ("identify", "laguerre", "zo")},
        ("identify", "laguerre", "zo"),
        "identify", "points_per_s", "sine-excited (frequency, input channel) pairs"),
    "classical": Workload(
        classical_round, "classical",
        {"certify_s": ("certify",), "lqr_job_s": ("lqr",)},
        ("certify", "lqr"),
        "lqr", "lqr_iters_per_s", "LQR gradient-descent iterations"),
}

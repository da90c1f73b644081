"""The paper's two experiments as functions that return their numbers.

Example 1 (escape): policy gradient and lifted descent, each from the
benchmark's suboptimal stationary point and from a controller near it.
Example 2 (data-driven estimation at the estimation benchmark controller):
(a) exact-degree rational fits of the interconnection M22, (b) Laguerre
expansion and reduced-order errors of the sensitivity system, and (c) the
zeroth-order residue error against the sample count.  Each result gives its
CSV tables (file name -> header and rows), its verdicts and report figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import benchmarks
from .lqg import LqgPlant, close_loop, lqg_cost, lqg_optimal, policy_gradient_run
from .ss import StateSpace, entry, h2_norm_sq, parallel, rational_to_ss, ss_entry_to_rational
from .sysid import (LaguerreBasis, ZoConfig, default_grid, identify_m22, laguerre_project,
                    reduce_order, zo_residue_estimate)
from .youla import (NominalLft, YoulaIterate, build_nominal, frechet_gradient,
                    run_lifted_gradient_descent, sensitivity)

ZO_SAMPLE_COUNTS = (10, 100, 1000, 10000)


def optimal_cost(plant: LqgPlant) -> float:
    """J*, the cost of the Riccati-optimal controller."""
    return lqg_cost(close_loop(plant, lqg_optimal(plant)))


def m22_truths(M22: StateSpace) -> dict:
    """The exact rational entries of M22 by (i, j), structural zeros left out."""
    entries = {(i, j): ss_entry_to_rational(M22, i, j)
               for i in range(M22.n_outputs) for j in range(M22.n_inputs)}
    return {key: truth for key, truth in entries.items() if truth is not None}


def reference_residue(nom: NominalLft, it: YoulaIterate) -> np.ndarray:
    """2 mask(Res S), the static-part gradient the zeroth-order estimator targets."""
    return 2.0 * frechet_gradient(nom, it)[1]


@dataclass(frozen=True)
class Example1Result:
    """PG costs and lifted records per case (1: near the stationary point,
    2: at it), the largest per-step PG cost change in case 2 (0 with no
    steps), and the largest relative gap between the two cases' lifted
    relative-error curves."""

    optimal_cost: float
    pg_costs: dict
    lifted: dict
    pg_step_change: float
    lifted_decreases: bool
    curve_gap: float

    def tables(self) -> dict:
        def rows(method, costs):
            return [[k, method, c, (c - self.optimal_cost) / self.optimal_cost]
                    for k, c in enumerate(costs)]

        return {f"example1_case{case}.csv": (
            ["iter", "method", "cost", "rel_error"],
            rows("lifted", [r.cost for r in self.lifted[case]]) + rows("pg", self.pg_costs[case]),
        ) for case in (1, 2)}

    def summary(self) -> dict:
        return {"curve_gap": self.curve_gap, "verdicts": {
            "pg_stalls_at_stationary_point": bool(self.pg_step_change <= 1e-10),
            "lifted_descent_strictly_decreases": self.lifted_decreases,
            "near_vs_exact_curves_within_5pct": bool(self.curve_gap < 0.05),
        }}


def example1(plant: LqgPlant, eta: float, pg_step: float, iters: int) -> Example1Result:
    """Escape experiment: at the stationary point policy gradient stalls
    while the lifted descent decreases strictly, and near it alike."""
    jstar = optimal_cost(plant)
    pg_costs, lifted = {}, {}
    starts = {1: benchmarks.near_stationary_controller(), 2: benchmarks.stationary_controller()}
    for case, ctrl0 in starts.items():
        pg_costs[case] = [rec.cost for rec in policy_gradient_run(plant, ctrl0, pg_step, iters)]
        lifted[case] = run_lifted_gradient_descent(build_nominal(plant, ctrl0), eta, iters)[0]
    pg2, lift2 = pg_costs[2], [rec.cost for rec in lifted[2]]
    rel = {case: [(rec.cost - jstar) / jstar for rec in recs] for case, recs in lifted.items()}
    return Example1Result(
        jstar, pg_costs, lifted,
        pg_step_change=max((abs(b - a) for a, b in zip(pg2, pg2[1:])), default=0.0),
        lifted_decreases=all(b < a for a, b in zip(lift2, lift2[1:])),
        curve_gap=max(abs(a - b) / abs(b) for a, b in zip(rel[1], rel[2])),
    )


def _coeff_errors_pct(fit, truth):
    """Largest (numerator, denominator) coefficient errors in % of the truth's largest."""

    def err(a, b):
        width = max(a.size, b.size)
        diff = np.pad(a, (0, width - a.size)) - np.pad(b, (0, width - b.size))
        return 100.0 * np.abs(diff).max() / np.abs(b).max()

    return err(fit.num, truth.num), err(fit.den, truth.den)


def fit_table(nom: NominalLft) -> tuple[dict, bool]:
    """(a) Fits of M22's entries at their exact degrees on 200 linearly
    spaced frequencies from 0.1 to 100: the (numerator, denominator)
    coefficient errors in percent by nonzero entry, and whether exactly the
    structurally zero entries came out unfitted."""
    truths = m22_truths(nom.M22)
    degrees = {key: (t.num_degree, t.den_degree) for key, t in truths.items()}
    fits = identify_m22(nom.M22, default_grid(200, 0.1, 100.0, "linear"), degrees, mode="direct")
    fitted = {(i, j): fit for i, row in enumerate(fits) for j, fit in enumerate(row)
              if fit is not None}
    errors = {key: _coeff_errors_pct(fit, truths[key])
              for key, fit in fitted.items() if key in truths}
    return errors, fitted.keys() == truths.keys()


@dataclass(frozen=True)
class LaguerreErrors:
    """By nonzero entry of S at the zero iterate, the relative H2 errors of
    its order-k Laguerre expansion (k = 0..order) and of the reduced fit to
    that expansion (k = 1..order); coeffs are the projection coefficients."""

    coeffs: np.ndarray
    expansion: dict
    reduced: dict

    @property
    def non_increasing(self) -> bool:
        return all(b <= a + 1e-12 for errs in self.expansion.values()
                   for a, b in zip(errs, errs[1:]))


def _rel_h2_error(sub: StateSpace, approx: StateSpace, nrm: float) -> float:
    return np.sqrt(h2_norm_sq(parallel(sub, approx, -1))) / nrm


def laguerre_errors(nom: NominalLft, order: int) -> LaguerreErrors:
    """(b) Laguerre expansion (pole 1) of the sensitivity system at the zero
    iterate, and fits of degrees (min(2, k), min(3, k + 1)) to each order-k
    expansion on the default log grid; an order-k expansion supports no
    higher degrees.  The basis is orthonormal, so an order-k expansion error
    is read off the coefficients: ||S_ij - S_ij,k||^2 = ||S_ij||^2 - the sum
    of the first k + 1 squared coefficients."""
    S0 = sensitivity(nom, YoulaIterate.zero(nom))
    coeffs = laguerre_project(S0, LaguerreBasis(1.0, order))
    grid = default_grid()
    expansion, reduced = {}, {}
    for i in range(S0.n_outputs):
        for j in range(S0.n_inputs):
            sub = entry(S0, i, j)
            nrm_sq = h2_norm_sq(sub)
            if nrm_sq < 1e-18:
                continue
            nrm = np.sqrt(nrm_sq)
            tail = np.maximum(nrm_sq - np.cumsum(coeffs[i, j] ** 2), 0.0)
            expansion[(i, j)] = (np.sqrt(tail) / nrm).tolist()
            reduced[(i, j)] = []
            for k in range(1, order + 1):
                fit = reduce_order(coeffs[i, j, : k + 1], LaguerreBasis(1.0, k),
                                   min(2, k), min(3, k + 1), grid)
                reduced[(i, j)].append(_rel_h2_error(sub, rational_to_ss(fit), nrm))
    return LaguerreErrors(coeffs, expansion, reduced)


@dataclass(frozen=True)
class ZoTable:
    """Relative errors of the zeroth-order residue estimate by sample count,
    for the seeds seed, seed + 1, ..."""

    seed: int
    errors: dict

    @property
    def medians(self) -> dict:
        return {m: float(np.median(errs)) for m, errs in self.errors.items()}


def zo_table(nom: NominalLft, n_seeds: int, radius: float, seed: int) -> ZoTable:
    """(c) Zeroth-order residue estimates at the zero iterate against the
    reference residue, at every sample count of ZO_SAMPLE_COUNTS."""
    it0 = YoulaIterate.zero(nom)
    truth = reference_residue(nom, it0)

    def rel_error(m, k):
        est = zo_residue_estimate(nom, it0, ZoConfig(radius, m, seed + k))
        return float(np.linalg.norm(est - truth) / np.linalg.norm(truth))

    return ZoTable(seed, {m: [rel_error(m, k) for k in range(n_seeds)] for m in ZO_SAMPLE_COUNTS})


@dataclass(frozen=True)
class Example2Result:
    fit_errors: dict
    pattern_ok: bool
    laguerre: LaguerreErrors
    zo: ZoTable

    def tables(self) -> dict:
        lag, medians = self.laguerre, self.zo.medians
        table1 = [[f"({i + 1},{j + 1})", *errs] for (i, j), errs in self.fit_errors.items()]
        lag_rows = [[f"({i + 1},{j + 1})", k, lag.expansion[(i, j)][k], red]
                    for (i, j), reds in lag.reduced.items() for k, red in enumerate(reds, 1)]
        zo_rows = []
        for m, errs in self.zo.errors.items():
            zo_rows += [[m, self.zo.seed + k, 100.0 * e] for k, e in enumerate(errs)]
            zo_rows.append([m, "median", 100.0 * medians[m]])
        return {
            "table1.csv": (["entry", "num_error_pct", "den_error_pct"], table1),
            "laguerre_error.csv": (
                ["entry", "order", "expansion_rel_err", "reduced_rel_err"], lag_rows),
            "table2.csv": (["samples", "seed", "rel_error_pct"], zo_rows),
        }

    def summary(self) -> dict:
        max_err = max((e for errs in self.fit_errors.values() for e in errs), default=0.0)
        med = list(self.zo.medians.values())
        reduced_final = max(reds[-1] for reds in self.laguerre.reduced.values())
        return {"table1_max_error_pct": max_err, "verdicts": {
            "table1_max_error_below_0.1pct": bool(max_err <= 0.1),
            "zero_pattern_recovered": self.pattern_ok,
            "expansion_error_non_increasing": self.laguerre.non_increasing,
            "reduced_error_at_max_order_below_5pct": bool(reduced_final <= 0.05),
            "zo_median_at_10000_below_10pct": bool(med[-1] <= 0.10),
            "zo_median_monotone": all(b <= a for a, b in zip(med, med[1:])),
        }, "zo_medians": {str(m): v for m, v in self.zo.medians.items()}}


def example2(n_seeds: int, radius: float, laguerre_order: int, seed: int) -> Example2Result:
    """Data-driven estimation study at the estimation benchmark controller."""
    nom = build_nominal(benchmarks.example1_plant(), benchmarks.example2_controller())
    return Example2Result(*fit_table(nom), laguerre_errors(nom, laguerre_order),
                          zo_table(nom, n_seeds, radius, seed))

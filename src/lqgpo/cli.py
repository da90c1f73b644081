"""Command-line surface: synthesis, certification, optimization, estimation,
and the two built-in experiment drivers.

File formats: plants and controllers travel as JSON objects of row-major
matrix arrays; tabular results are CSV; structured reports are JSON.  Exit
codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import sys
import time
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__, benchmarks, experiments
from .certificate import TOL_GRAD, TOL_MARKOV, certify
from .experiments import m22_truths, optimal_cost, reference_residue
from .lqg import DynController, LqgPlant, close_loop, lqg_cost, lqg_optimal, policy_gradient_run
from .sysid import (LaguerreBasis, ZoConfig, default_grid, identify_m22, laguerre_coeffs_zeroth,
                    laguerre_project, reduce_order, zo_residue_estimate)
from .youla import (YoulaIterate, assemble_controller, build_nominal, reconstruct_controller_delta,
                    run_lifted_gradient_descent, sensitivity)

FLOAT_FMT = "%.12g"
# Relative gap allowed between a saved controller's closed-loop cost and the
# final lifted cost it must reproduce.
SAVE_COST_RTOL = 1e-8


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _load_plant(path) -> LqgPlant:
    return LqgPlant.from_dict(_load_json(path))


def _load_controller(path, plant: LqgPlant) -> DynController:
    return DynController.from_dict(_load_json(path), plant)


def _dumps(payload, **kwargs) -> str:
    """Strict JSON text: JSON has no Infinity or NaN, so a non-finite figure
    is a numerical failure (exit 3)."""
    try:
        return json.dumps(payload, allow_nan=False, sort_keys=True, **kwargs)
    except ValueError as exc:
        raise ArithmeticError(f"non-finite value in the JSON output: {exc}") from exc


def _write_json(path, payload):
    text = _dumps(payload, indent=2)  # before the file is opened
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, rows):
    """Write a table; float cells are printed with FLOAT_FMT."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % c if isinstance(c, float) else c for c in row])


def _fit_dict(fit):
    return None if fit is None else {"num": fit.num.tolist(), "den": fit.den.tolist()}


def _metadata(seed=None, **settings):
    return {
        "lqgpo_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed": seed,
        "settings": settings,
    }


# Documented ranges for every numeric experiment parameter: (lo, hi,
# integer).  Integer fields include their lower bound, real ones exclude it.
_CONFIG_RANGES = {
    "eta": (0.0, 100.0, False),
    "pg_step": (0.0, 1e6, False),
    "iters": (0, 10_000, True),
    "n_seeds": (1, 1000, True),
    "radius": (0.0, 1.0, False),
    "laguerre_order": (1, 200, True),
    "seed": (0, 2**63, True),
}


def _merge_config(config_path, flags: dict, defaults: dict) -> dict:
    """Layer config: built-in defaults, then config file, then explicit flags.
    Every numeric field is type- and range-checked before any computation
    starts."""
    merged = dict(defaults)
    if config_path:
        file_cfg = _load_json(config_path)
        for key, value in file_cfg.items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = value
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        lo, hi, integer = _CONFIG_RANGES[key]
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise ValueError(
                f"config field {key}={value!r} must be "
                f"{'an integer' if integer else 'a real number'}"
            )
        ok = (value >= lo if integer else value > lo) and value <= hi
        if not ok:
            raise ValueError(
                f"config field {key}={value!r} outside the allowed range "
                f"{'[' if integer else '('}{lo}, {hi}]"
            )
    return merged


def _exit_codes(command):
    """Uniform exit-code contract: 2 for input errors, 3 for numerical failures.

    Applied under the click decorators.  numpy's LinAlgError subclasses
    ValueError, so it is caught first.
    """

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return run


@click.group()
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose):
    """Frequency-domain LQG policy optimization toolkit."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command("solve-lqg")
@click.option("--plant", "plant_path", required=True, type=click.Path(exists=True))
@click.option("--order", type=int, default=None, help="Controller order (default: plant order).")
@click.option("--out-controller", "ctrl_path", required=True, type=click.Path())
@click.option("--summary", "summary_path", type=click.Path(), default=None)
@_exit_codes
def cmd_solve_lqg(plant_path, order, ctrl_path, summary_path):
    """Synthesize the optimal controller for a plant via Riccati equations."""
    plant = _load_plant(plant_path)
    ctrl = lqg_optimal(plant, order)
    cost = lqg_cost(close_loop(plant, ctrl))
    _write_json(ctrl_path, ctrl.to_dict())
    summary = {
        "cost": cost,
        "riccati_residuals": {
            "control": plant.control_riccati.residual_norm,
            "filter": plant.filter_riccati.residual_norm,
        },
        "order": ctrl.order,
    }
    if summary_path:
        _write_json(summary_path, summary)
    click.echo(_dumps(summary))


@main.command("certify")
@click.option("--plant", "plant_path", required=True, type=click.Path(exists=True))
@click.option("--controller", "ctrl_path", required=True, type=click.Path(exists=True))
@click.option("--tol-markov", type=float, default=TOL_MARKOV, show_default=True)
@click.option("--tol-grad", type=float, default=TOL_GRAD, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_exit_codes
def cmd_certify(plant_path, ctrl_path, tol_markov, tol_grad, out_path):
    """Run the global-optimality certificate on a controller."""
    plant = _load_plant(plant_path)
    ctrl = _load_controller(ctrl_path, plant)
    payload = certify(plant, ctrl, tol_markov, tol_grad).to_dict()
    if out_path:
        _write_json(out_path, payload)
    click.echo(_dumps(payload))


@main.command("optimize")
@click.option("--plant", "plant_path", required=True, type=click.Path(exists=True))
@click.option("--controller", "ctrl_path", required=True, type=click.Path(exists=True))
@click.option("--eta", type=float, default=None,
              help="Lifted step size [default: min(0.1, 1.9/L) for the smoothness bound L].")
@click.option("--iters", type=click.IntRange(min=0), default=14, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--save-controller", "save_path", type=click.Path(), default=None,
              help="Write the reassembled controller; exit 3 and write nothing unless "
                   "its closed-loop cost matches the final lifted cost.")
@_exit_codes
def cmd_optimize(plant_path, ctrl_path, eta, iters, out_path, save_path):
    """Lifted-space gradient descent from an initial stabilizing controller."""
    plant = _load_plant(plant_path)
    ctrl0 = _load_controller(ctrl_path, plant)
    jstar = optimal_cost(plant)
    nom = build_nominal(plant, ctrl0)
    records, final_it = run_lifted_gradient_descent(nom, eta=eta, iters=iters)
    final = records[-1].cost
    # checked before anything is written
    if final > records[0].cost:
        raise ArithmeticError(f"lifted descent diverged: cost rose from "
                              f"{records[0].cost:.12g} to {final:.12g}")
    if save_path:
        ctrl_out = assemble_controller(ctrl0, reconstruct_controller_delta(nom, final_it))
        cost_out = lqg_cost(close_loop(plant, ctrl_out))  # UnstableError: exit 3
        if not abs(cost_out - final) <= SAVE_COST_RTOL * final:
            raise ArithmeticError(f"reassembled controller costs {cost_out:.12g}, "
                                  f"not the final lifted cost {final:.12g}")
    _write_csv(
        out_path,
        ["iter", "cost", "rel_error", "grad_norm_U", "q_dyn_order", "wall_ms"],
        [[rec.iter_index, rec.cost, (rec.cost - jstar) / jstar, rec.grad_norm_u,
          rec.q_dyn_order, rec.wall_time * 1e3] for rec in records],
    )
    if save_path:
        _write_json(save_path, ctrl_out.to_dict())
    click.echo(_dumps({"final_cost": final, "rel_error": (final - jstar) / jstar}))


@main.command("pg")
@click.option("--plant", "plant_path", required=True, type=click.Path(exists=True))
@click.option("--controller", "ctrl_path", required=True, type=click.Path(exists=True))
@click.option("--step", type=float, default=10.0, show_default=True)
@click.option("--iters", type=click.IntRange(min=0), default=14, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def cmd_pg(plant_path, ctrl_path, step, iters, out_path):
    """Vanilla policy gradient baseline on the controller parameters."""
    plant = _load_plant(plant_path)
    ctrl0 = _load_controller(ctrl_path, plant)
    jstar = optimal_cost(plant)
    records = policy_gradient_run(plant, ctrl0, step, iters)
    rows = [[rec.iteration, rec.cost, (rec.cost - jstar) / jstar] for rec in records]
    _write_csv(out_path, ["iter", "cost", "rel_error"], rows)
    click.echo(_dumps({"final_cost": records[-1].cost,
                       "skipped": sum(rec.skipped for rec in records)}))


@main.command("identify")
@click.option("--plant", "plant_path", required=True, type=click.Path(exists=True))
@click.option("--controller", "ctrl_path", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["direct", "sine"]), default="direct", show_default=True)
@click.option("--num-deg", type=int, default=2, show_default=True)
@click.option("--den-deg", type=int, default=3, show_default=True)
@click.option("--auto-degrees", is_flag=True,
              help="Use each entry's exact minimal orders (validation aid).")
@click.option("--grid-lo", type=float, default=0.1, show_default=True)
@click.option("--grid-hi", type=float, default=100.0, show_default=True)
@click.option("--grid-n", type=int, default=200, show_default=True)
@click.option("--grid-spacing", type=click.Choice(["log", "linear"]), default="log", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def cmd_identify(plant_path, ctrl_path, mode, num_deg, den_deg, auto_degrees,
                 grid_lo, grid_hi, grid_n, grid_spacing, out_path):
    """Fit each entry of the perturbation interconnection transfer matrix."""
    plant = _load_plant(plant_path)
    ctrl0 = _load_controller(ctrl_path, plant)
    nom = build_nominal(plant, ctrl0)
    grid = default_grid(grid_n, grid_lo, grid_hi, grid_spacing)
    if auto_degrees:
        degrees = {k: (t.num_degree, t.den_degree) for k, t in m22_truths(nom.M22).items()}
    else:
        degrees = (num_deg, den_deg)
    fits = identify_m22(nom.M22, grid, degrees, mode=mode)
    payload = {
        "entries": [[_fit_dict(fit) for fit in row] for row in fits],
        "metadata": _metadata(
            mode=mode, num_deg=num_deg, den_deg=den_deg,
            grid={"lo": grid_lo, "hi": grid_hi, "n": grid_n, "spacing": grid_spacing},
        ),
    }
    _write_json(out_path, payload)
    click.echo(f"wrote {out_path}")


@main.command("estimate-s")
@click.option("--plant", "plant_path", required=True, type=click.Path(exists=True))
@click.option("--controller", "ctrl_path", required=True, type=click.Path(exists=True))
@click.option("--laguerre-order", type=int, default=15, show_default=True)
@click.option("--pole", type=float, default=1.0, show_default=True)
@click.option("--method", type=click.Choice(["projection", "derivative"]), default="projection", show_default=True)
@click.option("--num-deg", type=int, default=2, show_default=True)
@click.option("--den-deg", type=int, default=3, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def cmd_estimate_s(plant_path, ctrl_path, laguerre_order, pole, method, num_deg, den_deg, out_path):
    """Estimate the sensitivity system at the zero iterate via a Laguerre expansion."""
    plant = _load_plant(plant_path)
    ctrl0 = _load_controller(ctrl_path, plant)
    nom = build_nominal(plant, ctrl0)
    basis = LaguerreBasis(pole, laguerre_order)
    it0 = YoulaIterate.zero(nom)
    if method == "projection":
        coeffs = laguerre_project(sensitivity(nom, it0), basis)
    else:
        coeffs = laguerre_coeffs_zeroth(nom, it0, basis)
    grid = default_grid()
    reduced = [[_fit_dict(None if np.max(np.abs(c)) < 1e-9
                          else reduce_order(c, basis, num_deg, den_deg, grid)) for c in row]
               for row in coeffs]
    _write_json(
        out_path,
        {
            "laguerre_coefficients": coeffs.tolist(),
            "reduced_entries": reduced,
            "metadata": _metadata(
                method=method, laguerre_order=laguerre_order, pole=pole,
                num_deg=num_deg, den_deg=den_deg,
            ),
        },
    )
    click.echo(f"wrote {out_path}")


@main.command("estimate-residue")
@click.option("--plant", "plant_path", required=True, type=click.Path(exists=True))
@click.option("--controller", "ctrl_path", required=True, type=click.Path(exists=True))
@click.option("--samples", type=int, default=10000, show_default=True)
@click.option("--radius", type=float, default=1e-5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_exit_codes
def cmd_estimate_residue(plant_path, ctrl_path, samples, radius, seed, out_path):
    """Monte-Carlo zeroth-order estimate of the masked residue gradient."""
    plant = _load_plant(plant_path)
    ctrl0 = _load_controller(ctrl_path, plant)
    nom = build_nominal(plant, ctrl0)
    it0 = YoulaIterate.zero(nom)
    estimate = zo_residue_estimate(nom, it0, ZoConfig(radius, samples, seed))
    truth = reference_residue(nom, it0)
    denom = np.linalg.norm(truth)
    rel = float(np.linalg.norm(estimate - truth) / denom) if denom > 0 else 0.0
    payload = {
        "estimate": estimate.tolist(),
        "reference": truth.tolist(),
        "relative_error": rel,
        "metadata": _metadata(seed=seed, samples=samples, radius=radius),
    }
    if out_path:
        _write_json(out_path, payload)
    click.echo(_dumps({"relative_error": rel}))


def _write_experiment(out_dir, name, result, metadata, t0):
    """Write an experiment's tables and its report; echo its verdicts."""
    out = Path(out_dir)
    for file_name, (header, rows) in result.tables().items():
        _write_csv(out / file_name, header, rows)
    report = {"metadata": metadata, "wall_time_s": time.perf_counter() - t0, **result.summary()}
    _write_json(out / f"{name}_report.json", report)
    click.echo(_dumps(report["verdicts"]))


@main.command("example1")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--eta", type=float, default=None, help="Lifted step size [default: 0.1].")
@click.option("--pg-step", type=float, default=None, help="Policy-gradient step [default: 10].")
@click.option("--iters", type=int, default=None, help="Iterations [default: 14].")
@click.option("--plant", "plant_path", type=click.Path(exists=True), default=None,
              help="Override the built-in plant.")
@_exit_codes
def cmd_example1(out_dir, config_path, eta, pg_step, iters, plant_path):
    """Escape of a suboptimal stationary point: policy gradient vs lifted descent."""
    cfg = _merge_config(
        config_path,
        {"eta": eta, "pg_step": pg_step, "iters": iters},
        {"eta": 0.1, "pg_step": 10.0, "iters": 14},
    )
    t0 = time.perf_counter()
    plant = _load_plant(plant_path) if plant_path else benchmarks.example1_plant()
    result = experiments.example1(plant, **cfg)
    _write_experiment(out_dir, "example1", result,
                      _metadata(**cfg, optimal_cost=result.optimal_cost), t0)


@main.command("example2")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--n-seeds", type=int, default=None, help="Seeds per sample count [default: 5].")
@click.option("--radius", type=float, default=None, help="Sampling radius [default: 1e-5].")
@click.option("--laguerre-order", type=int, default=None, help="Max expansion order [default: 15].")
@click.option("--seed", type=int, default=None, help="Base seed [default: 0].")
@_exit_codes
def cmd_example2(out_dir, config_path, n_seeds, radius, laguerre_order, seed):
    """Data-driven estimation accuracy: interconnection fitting, Laguerre
    expansion of the sensitivity system, and zeroth-order residue estimation."""
    cfg = _merge_config(
        config_path,
        {"n_seeds": n_seeds, "radius": radius, "laguerre_order": laguerre_order, "seed": seed},
        {"n_seeds": 5, "radius": 1e-5, "laguerre_order": 15, "seed": 0},
    )
    t0 = time.perf_counter()
    result = experiments.example2(**cfg)
    metadata = _metadata(**cfg, grid_table1="linear 0.1-100 x200",
                         grid_reduction="log 0.1-100 x200")
    _write_experiment(out_dir, "example2", result, metadata, t0)


if __name__ == "__main__":
    main()

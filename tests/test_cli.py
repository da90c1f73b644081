"""Command-line surface: exit codes, file schemas, determinism."""

import ast
import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from _reference import sine_response_stack
from conftest import same_bits, stiff_plant
from lqgpo import cli
from lqgpo.benchmarks import example1_plant, example2_controller, stationary_controller
from lqgpo.certificate import certify
from lqgpo.cli import main
from lqgpo.experiments import m22_truths
from lqgpo.lqg import DynController, lqg_optimal
from lqgpo.sysid import default_grid, fit_rational
from lqgpo.youla import build_nominal


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def io_dir(tmp_path):
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps(example1_plant().to_dict()))
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(stationary_controller().to_dict()))
    ctrl2 = tmp_path / "ctrl_ex2.json"
    ctrl2.write_text(json.dumps(example2_controller().to_dict()))
    # the unstable mode at s = 1 is not controllable
    (tmp_path / "unstabilizable.json").write_text(json.dumps({
        "A": [[1.0, 0.0], [0.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 1.0]],
        "Q": np.eye(2).tolist(), "R": [[1.0]], "W": np.eye(2).tolist(), "V": [[1.0]],
    }))
    return tmp_path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolveLqg:
    def test_writes_controller_and_summary(self, runner, io_dir):
        out = io_dir / "kstar.json"
        summary = io_dir / "summary.json"
        result = runner.invoke(
            main,
            ["solve-lqg", "--plant", str(io_dir / "plant.json"),
             "--out-controller", str(out), "--summary", str(summary)],
        )
        assert result.exit_code == 0
        ctrl = json.loads(out.read_text())
        assert set(ctrl) == {"A_K", "B_K", "C_K"}
        payload = json.loads(summary.read_text())
        assert payload["cost"] > 0
        assert payload["riccati_residuals"]["control"] < 1e-8

    def test_order_padding_preserves_cost(self, runner, io_dir):
        out2 = io_dir / "k2.json"
        out3 = io_dir / "k3.json"
        r2 = runner.invoke(
            main, ["solve-lqg", "--plant", str(io_dir / "plant.json"),
                   "--out-controller", str(out2)],
        )
        r3 = runner.invoke(
            main, ["solve-lqg", "--plant", str(io_dir / "plant.json"),
                   "--order", "3", "--out-controller", str(out3)],
        )
        assert r2.exit_code == 0 and r3.exit_code == 0
        j2 = json.loads(r2.output)["cost"]
        j3 = json.loads(r3.output)["cost"]
        assert j3 == pytest.approx(j2, rel=1e-9)
        assert len(json.loads(out3.read_text())["A_K"]) == 3

    def test_malformed_json_exits_2_without_output(self, runner, io_dir):
        bad = io_dir / "bad.json"
        bad.write_text("{this is not json")
        out = io_dir / "never.json"
        result = runner.invoke(
            main, ["solve-lqg", "--plant", str(bad), "--out-controller", str(out)]
        )
        assert result.exit_code == 2
        assert not out.exists()


class TestCertify:
    def test_verdicts(self, runner, io_dir):
        kstar = io_dir / "kstar.json"
        runner.invoke(
            main, ["solve-lqg", "--plant", str(io_dir / "plant.json"),
                   "--out-controller", str(kstar)],
        )
        ok = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(kstar)],
        )
        assert ok.exit_code == 0
        report = json.loads(ok.output)
        assert report["verdict"] == "globally_optimal"
        assert set(report) >= {
            "verdict", "grad_norm", "markov_norms", "rank_P2", "rank_Sigma2", "lemma1",
        }
        st = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl.json")],
        )
        assert json.loads(st.output)["verdict"] == "stationary_not_optimal"

    def test_stiff_riccati_optimum_certifies(self, runner, tmp_path):
        # time scales 0.1 to 1e4: ||Acl||^i overflows before the last of the
        # 48 Markov parameters, and the pass on the scaled powers does not
        plant = stiff_plant()
        (tmp_path / "stiff.json").write_text(json.dumps(plant.to_dict()))
        (tmp_path / "kstar.json").write_text(json.dumps(lqg_optimal(plant).to_dict()))
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["certify", "--plant", str(tmp_path / "stiff.json"),
                   "--controller", str(tmp_path / "kstar.json"), "--out", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "globally_optimal"
        assert json.loads(out.read_text()) == report

    def test_non_finite_figure_exits_3_without_output(self, runner, io_dir, monkeypatch):
        # a raw figure past the floating range is inf, and JSON has no Infinity
        def certify_inf(*args):
            report = certify(*args)
            return dataclasses.replace(report, markov_norms=[*report.markov_norms[:-1], np.inf])

        monkeypatch.setattr(cli, "certify", certify_inf)
        out = io_dir / "report.json"
        result = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl.json"), "--out", str(out)],
        )
        assert result.exit_code == 3
        assert "Infinity" not in result.stdout
        assert not out.exists()

    def test_non_stabilizing_controller_exits_3(self, runner, io_dir):
        bad = io_dir / "unstable.json"
        bad.write_text(json.dumps({
            "A_K": [[1.0, 0.0], [0.0, 1.0]],
            "B_K": [[0.0], [0.0]],
            "C_K": [[0.0, 0.0]],
        }))
        result = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(bad)],
        )
        assert result.exit_code == 3


class TestOptimize:
    def test_csv_schema_and_descent(self, runner, io_dir):
        out = io_dir / "run.csv"
        saved = io_dir / "kN.json"
        result = runner.invoke(
            main, ["optimize", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl.json"),
                   "--eta", "0.1", "--iters", "14",
                   "--out", str(out), "--save-controller", str(saved)],
        )
        assert result.exit_code == 0
        header, rows = read_csv(out)
        assert header == ["iter", "cost", "rel_error", "grad_norm_U", "q_dyn_order", "wall_ms"]
        assert len(rows) == 15
        costs = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert saved.exists()

    def test_default_step_descends_from_example2_controller(self, runner, io_dir):
        # L = 70.7 on this nominal: a fixed 0.1 step would diverge
        out = io_dir / "run_ex2.csv"
        result = runner.invoke(
            main, ["optimize", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"), "--out", str(out)],
        )
        assert result.exit_code == 0
        _, rows = read_csv(out)
        costs = [float(r[1]) for r in rows]
        assert len(costs) == 15
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_zero_iters_returns_input(self, runner, io_dir):
        out = io_dir / "run0.csv"
        saved = io_dir / "same.json"
        result = runner.invoke(
            main, ["optimize", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl.json"),
                   "--iters", "0", "--out", str(out),
                   "--save-controller", str(saved)],
        )
        assert result.exit_code == 0
        saved_ctrl = json.loads(saved.read_text())
        original = json.loads((io_dir / "ctrl.json").read_text())
        assert saved_ctrl == original

    def test_diverging_descent_exits_3_unwritten(self, runner, io_dir):
        # L = 70.7 on this nominal: a fixed 0.1 step ends at a cost of 4.93e8
        out = io_dir / "div.csv"
        result = runner.invoke(
            main, ["optimize", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"),
                   "--eta", "0.1", "--iters", "14", "--out", str(out)],
        )
        assert result.exit_code == 3
        assert "lifted descent diverged" in result.output
        assert not out.exists()

    def test_saved_controller_certifies_after_long_descent(self, runner, io_dir):
        # 200 iterations from the example-2 controller, where a truncation of
        # the reassembled controller can lose its stability
        saved = io_dir / "k200.json"
        result = runner.invoke(
            main, ["optimize", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"), "--iters", "200",
                   "--out", str(io_dir / "run200.csv"), "--save-controller", str(saved)],
        )
        assert result.exit_code == 0
        cert = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"), "--controller", str(saved)],
        )
        assert cert.exit_code == 0, cert.output

    @pytest.mark.parametrize("assembled", [
        DynController(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2))),
        stationary_controller(),
    ], ids=["destabilizing", "wrong_cost"])
    def test_unfaithful_controller_exits_3_unsaved(self, runner, io_dir, monkeypatch, assembled):
        monkeypatch.setattr(cli, "assemble_controller", lambda ctrl0, delta: assembled)
        saved, out = io_dir / "bad.json", io_dir / "run.csv"
        result = runner.invoke(
            main, ["optimize", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl.json"), "--iters", "3",
                   "--out", str(out), "--save-controller", str(saved)],
        )
        assert result.exit_code == 3
        assert not saved.exists()
        assert not out.exists()


class TestOrderZeroController:
    # u = 0 stabilizes the open-loop-stable example-1 plant; its record
    # {"A_K": [], "B_K": [], "C_K": [[]]} is read against the plant
    @pytest.fixture()
    def ctrl_path(self, io_dir):
        path = io_dir / "ctrl_order0.json"
        path.write_text(json.dumps(
            DynController(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0))).to_dict()))
        return path

    def test_certify(self, runner, io_dir, ctrl_path):
        result = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(ctrl_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["verdict"] == "stationary_not_optimal"
        assert payload["grad_norm"] == 0.0
        assert (payload["rank_P2"], payload["rank_Sigma2"]) == (0, 0)

    def test_optimize_descends(self, runner, io_dir, ctrl_path):
        out = io_dir / "order0.csv"
        result = runner.invoke(
            main, ["optimize", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(ctrl_path), "--iters", "5", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, rows = read_csv(out)
        costs = [float(row[1]) for row in rows]
        assert costs[0] == pytest.approx(5.0 / 3.0, rel=1e-11)  # printed to 12 digits
        assert all(b < a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("record", [
        {"A_K": [], "B_K": [[1.0]], "C_K": [[]]},
        {"A_K": [], "B_K": [], "C_K": [[], []]},
        {"A_K": [[-1.0]], "B_K": [[0.0, 0.0]], "C_K": [[0.0]]},
        {"A_K": [[], []], "B_K": [], "C_K": [[]]},
        {"A_K": [], "B_K": [[], [], []], "C_K": [[]]},
    ])
    def test_mismatched_dimensions_exit_2(self, runner, io_dir, record):
        bad = io_dir / "ctrl_bad.json"
        bad.write_text(json.dumps(record))
        result = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"), "--controller", str(bad)],
        )
        assert result.exit_code == 2, result.output


class TestPg:
    def test_schema(self, runner, io_dir):
        out = io_dir / "pg.csv"
        result = runner.invoke(
            main, ["pg", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl.json"),
                   "--step", "10", "--iters", "5", "--out", str(out)],
        )
        assert result.exit_code == 0
        header, rows = read_csv(out)
        assert header == ["iter", "cost", "rel_error"]
        assert len(rows) == 6
        assert json.loads(result.output)["skipped"] == 0

    def test_reports_skipped_updates(self, runner, io_dir):
        result = runner.invoke(
            main, ["pg", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"),
                   "--step", "1e8", "--iters", "3", "--out", str(io_dir / "pg.csv")],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["skipped"] == 2


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["optimize", "--iters", "-1"],
        ["pg", "--iters", "-3"],
        ["identify", "--grid-n", "0"],
        ["identify", "--grid-lo", "-1"],
        ["identify", "--grid-lo", "10", "--grid-hi", "1"],
        ["identify", "--num-deg", "-1"],
        ["certify", "--tol-markov", "nan"],
        ["certify", "--tol-markov", "-1"],
        ["certify", "--tol-grad", "nan"],
        ["solve-lqg", "--plant", "unstabilizable.json"],
        ["certify", "--plant", "unstabilizable.json"],
        ["pg", "--step", "-1"],
        ["pg", "--step", "0"],
        ["estimate-residue", "--radius", "nan"],
        ["estimate-residue", "--radius", "inf"],
        ["optimize", "--eta", "inf"],
    ])
    def test_out_of_range_input_exits_2(self, runner, io_dir, args):
        out = io_dir / "out.csv"
        if args[0] == "solve-lqg":
            files = ["--out-controller", str(out)]
        else:
            files = ["--controller", str(io_dir / "ctrl_ex2.json"), "--out", str(out)]
        # a later --plant overrides the default one
        options = [str(io_dir / a) if a.endswith(".json") else a for a in args[1:]]
        result = runner.invoke(
            main, [args[0], "--plant", str(io_dir / "plant.json"), *files, *options],
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_3d_matrix_exits_2(self, runner, io_dir):
        ctrl = example2_controller().to_dict()
        ctrl["B_K"] = [[row] for row in ctrl["B_K"]]
        bad = io_dir / "ctrl_3d.json"
        bad.write_text(json.dumps(ctrl))
        result = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"), "--controller", str(bad)],
        )
        assert result.exit_code == 2
        assert "B_K must be a 2-D matrix, got ndim=3" in result.output

    def test_linalg_error_exits_3(self, runner, io_dir, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "certify", fail)
        result = runner.invoke(
            main, ["certify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl.json")],
        )
        assert result.exit_code == 3


class TestEstimationCommands:
    def test_identify(self, runner, io_dir):
        out = io_dir / "fits.json"
        result = runner.invoke(
            main, ["identify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"),
                   "--num-deg", "2", "--den-deg", "3", "--out", str(out)],
        )
        assert result.exit_code == 2  # uniform (2,3) on the first-order entry
        result = runner.invoke(
            main, ["identify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"),
                   "--auto-degrees", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert "entries" in payload and "metadata" in payload
        assert payload["entries"][1][1]["den"] == pytest.approx([0.5, 1.0], abs=1e-9)

    @staticmethod
    def identify_entries(runner, io_dir, mode):
        out = io_dir / f"fits_{mode}.json"
        result = runner.invoke(
            main, ["identify", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"),
                   "--mode", mode, "--auto-degrees", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        return json.loads(out.read_text())["entries"]

    def test_identify_sine_on_default_grid(self, runner, io_dir):
        direct = self.identify_entries(runner, io_dir, "direct")
        sine = self.identify_entries(runner, io_dir, "sine")
        assert [[fit is None for fit in row] for row in sine] == \
            [[fit is None for fit in row] for row in direct]

    def test_identify_sine_matches_direct(self, runner, io_dir):
        direct = self.identify_entries(runner, io_dir, "direct")
        sine = self.identify_entries(runner, io_dir, "sine")
        for row_d, row_s in zip(direct, sine):
            for fit_d, fit_s in zip(row_d, row_s):
                if fit_d is not None:
                    for key in ("num", "den"):
                        assert np.abs(np.subtract(fit_s[key], fit_d[key])).max() <= 1e-3

    def test_identify_sine_entries_fit_the_reference_stack(self, runner, io_dir):
        # the written fits are bit for bit those of the one-frequency closed
        # form stacked over the default grid
        sine = self.identify_entries(runner, io_dir, "sine")
        M22 = build_nominal(example1_plant(), example2_controller()).M22
        grid = default_grid()
        ref = sine_response_stack(M22, grid)
        truths = m22_truths(M22)
        for (i, j), truth in truths.items():
            want = fit_rational(grid, ref[:, i, j], truth.num_degree, truth.den_degree)
            assert same_bits(sine[i][j]["num"], want.num)
            assert same_bits(sine[i][j]["den"], want.den)
        assert sum(fit is not None for row in sine for fit in row) == len(truths)

    def test_estimate_s(self, runner, io_dir):
        out = io_dir / "shat.json"
        result = runner.invoke(
            main, ["estimate-s", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"),
                   "--laguerre-order", "6", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        coeffs = np.array(payload["laguerre_coefficients"])
        assert coeffs.shape == (3, 3, 7)

    def test_estimate_s_methods_agree(self, runner, io_dir):
        # the derivative method's coefficients, difference quotients of the
        # lifted cost, match the projection of the sensitivity system
        coeffs = {}
        for method in ("projection", "derivative"):
            out = io_dir / f"shat_{method}.json"
            result = runner.invoke(
                main, ["estimate-s", "--plant", str(io_dir / "plant.json"),
                       "--controller", str(io_dir / "ctrl_ex2.json"), "--laguerre-order", "3",
                       "--method", method, "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            payload = json.loads(out.read_text())
            assert payload["metadata"]["settings"]["method"] == method
            coeffs[method] = np.array(payload["laguerre_coefficients"])
        assert coeffs["derivative"].shape == coeffs["projection"].shape == (3, 3, 4)
        assert np.abs(coeffs["derivative"] - coeffs["projection"]).max() <= 1e-9

    def test_estimate_residue(self, runner, io_dir):
        out = io_dir / "residue.json"
        result = runner.invoke(
            main, ["estimate-residue", "--plant", str(io_dir / "plant.json"),
                   "--controller", str(io_dir / "ctrl_ex2.json"),
                   "--samples", "2000", "--radius", "1e-5", "--seed", "0", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["relative_error"] < 0.5
        payload = json.loads(out.read_text())
        assert set(payload) == {"estimate", "reference", "relative_error", "metadata"}
        assert payload["metadata"]["seed"] == 0
        assert np.shape(payload["estimate"]) == np.shape(payload["reference"]) == (3, 3)
        assert json.loads(result.output)["relative_error"] == payload["relative_error"]


class TestExperiments:
    def test_example1_outputs(self, runner, tmp_path):
        out = tmp_path / "ex1"
        result = runner.invoke(main, ["example1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        verdicts = json.loads(result.output)
        assert verdicts == {
            "lifted_descent_strictly_decreases": True,
            "near_vs_exact_curves_within_5pct": True,
            "pg_stalls_at_stationary_point": True,
        }
        for case in (1, 2):
            header, rows = read_csv(out / f"example1_case{case}.csv")
            assert header == ["iter", "method", "cost", "rel_error"]
            assert len(rows) == 30  # 15 iterates x 2 methods
            methods = {r[1] for r in rows}
            assert methods == {"pg", "lifted"}
        report = json.loads((out / "example1_report.json").read_text())
        assert report["metadata"]["settings"]["eta"] == 0.1

    def test_example1_pg_rel_error_constant_case2(self, runner, tmp_path):
        out = tmp_path / "ex1"
        runner.invoke(main, ["example1", "--out", str(out)])
        _, rows = read_csv(out / "example1_case2.csv")
        pg_errors = [float(r[3]) for r in rows if r[1] == "pg"]
        spread = max(pg_errors) - min(pg_errors)
        assert spread <= 1e-12 * max(1.0, abs(pg_errors[0]))

    def test_example2_outputs_and_verdicts(self, runner, tmp_path):
        out = tmp_path / "ex2"
        result = runner.invoke(
            main, ["example2", "--out", str(out), "--n-seeds", "2"]
        )
        assert result.exit_code == 0, result.output
        verdicts = json.loads(result.output)
        assert all(verdicts.values()), verdicts
        header, rows = read_csv(out / "table1.csv")
        assert header == ["entry", "num_error_pct", "den_error_pct"]
        assert len(rows) == 5
        header, rows = read_csv(out / "table2.csv")
        assert header == ["samples", "seed", "rel_error_pct"]
        assert len(rows) == 4 * 3  # 2 seeds + 1 median row per sample count
        header, rows = read_csv(out / "laguerre_error.csv")
        assert header == ["entry", "order", "expansion_rel_err", "reduced_rel_err"]
        assert len(rows) == 4 * 15

    def test_example2_deterministic(self, runner, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(
                main,
                ["example2", "--out", str(out), "--n-seeds", "1",
                 "--laguerre-order", "4", "--seed", "11"],
            )
            assert result.exit_code == 0, result.output
        for name in ("table1.csv", "table2.csv", "laguerre_error.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_example1_zero_iters(self, runner, tmp_path):
        out = tmp_path / "ex1"
        result = runner.invoke(main, ["example1", "--out", str(out), "--iters", "0"])
        assert result.exit_code == 0, result.output
        assert all(json.loads(result.output).values())
        for case in (1, 2):
            _, rows = read_csv(out / f"example1_case{case}.csv")
            assert [r[:2] for r in rows] == [["0", "lifted"], ["0", "pg"]]

    def test_example1_deterministic(self, runner, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, ["example1", "--out", str(out), "--iters", "4"])
            assert result.exit_code == 0, result.output
        for case in (1, 2):
            name = f"example1_case{case}.csv"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_example1_config_file_merging(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 3, "eta": 0.05}))
        out = tmp_path / "ex1"
        result = runner.invoke(
            main, ["example1", "--out", str(out), "--config", str(cfg), "--eta", "0.1"]
        )
        assert result.exit_code == 0
        report = json.loads((out / "example1_report.json").read_text())
        # flag overrides file; file overrides default
        assert report["metadata"]["settings"]["eta"] == 0.1
        assert report["metadata"]["settings"]["iters"] == 3

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        result = runner.invoke(
            main, ["example1", "--out", str(tmp_path / "x"), "--config", str(cfg)]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, field",
        [("example1", {"iters": 2.5}), ("example1", {"eta": "0.1"}),
         ("example1", {"pg_step": True}), ("example2", {"seed": 1.0})],
    )
    def test_mistyped_config_value_rejected(self, runner, tmp_path, command, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(field))
        result = runner.invoke(
            main, [command, "--out", str(tmp_path / "x"), "--config", str(cfg)]
        )
        assert result.exit_code == 2
        assert "must be" in result.output


SRC = Path(__file__).resolve().parent.parent / "src" / "lqgpo"


def _imported(path):
    """Names of the modules a source file imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rsplit(".", 1)[-1]
            if node.module in (None, "lqgpo"):
                yield from (alias.name for alias in node.names)


def test_only_cli_imports_experiments():
    """The experiments sit on top of the library: no module but the CLI
    imports them, and importing the package loads neither."""
    importers = sorted(
        path.name for path in SRC.glob("*.py") if "experiments" in set(_imported(path))
    )
    assert importers == ["cli.py"]
    assert not {"cli", "experiments"} & set(_imported(SRC / "__init__.py"))


def test_certificate_sits_above_the_core():
    """The certificate reads its blocks and the gradient from `lqg`: none of
    the modules below it imports it."""
    for name in ("solvers", "ss", "lqg", "youla"):
        assert "certificate" not in set(_imported(SRC / f"{name}.py")), name

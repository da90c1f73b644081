"""Estimation pipeline: frequency sampling, rational fits, Laguerre
expansions, zeroth-order residue estimation."""

import numpy as np
import pytest

from lqgpo.errors import IdentifiabilityError
from lqgpo.ss import (
    RationalScalar,
    StateSpace,
    freq_response,
    h2_inner,
    h2_norm_sq,
    minreal,
    parallel,
    rational_to_ss,
    zero_system,
)
from lqgpo.sysid import (
    FreqSample,
    LaguerreBasis,
    ZoConfig,
    default_grid,
    fit_rational,
    identify_m22,
    laguerre_coeffs_zeroth,
    laguerre_project,
    laguerre_reconstruct,
    measure_response_direct,
    reduce_order,
    sine_response,
    zo_gradient_estimate,
    zo_residue_estimate,
    _entry_subsystem,
)
from lqgpo.youla import (
    YoulaIterate,
    build_nominal,
    frechet_gradient,
    iterate_from_controller,
    lifted_cost,
    sensitivity,
)
from lqgpo.lqg import DynController, lqg_optimal


def lag_half():
    return StateSpace([[-0.5]], [[1.0]], [[1.0]], [[0.0]])


@pytest.fixture(scope="module")
def nom_ex2(plant1, ctrl_ex2):
    return build_nominal(plant1, ctrl_ex2)


@pytest.fixture(scope="module")
def s0_ex2(nom_ex2):
    return sensitivity(nom_ex2, YoulaIterate.zero(nom_ex2))


class TestMeasureDirect:
    def test_values_on_uniform_grid(self):
        grid = np.linspace(0.1, 100, 200)
        samples = measure_response_direct(lag_half(), grid)
        assert len(samples) == 200
        for s in samples[::40]:
            assert s.value[0, 0] == pytest.approx(1.0 / (1j * s.omega + 0.5), rel=1e-12)
            assert s.weight == 1.0

    def test_zero_system(self):
        samples = measure_response_direct(zero_system(1, 1), [1.0, 2.0])
        assert all(abs(s.value[0, 0]) == 0.0 for s in samples)

    def test_single_point(self):
        samples = measure_response_direct(lag_half(), [2.5])
        assert len(samples) == 1


class TestSineResponse:
    def test_matches_analytic_at_unit_frequency(self):
        g = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        est = sine_response(g, 1.0, c_omega=10.0)
        assert abs(est[0, 0] - (0.5 - 0.5j)) <= 1e-4

    def test_recovers_dc_gain_at_low_frequency(self):
        g = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        est = sine_response(g, 0.01, c_omega=1.0, settle_cycles=2, sample_cycles=1)
        truth = 1.0 / (1.0 + 0.01j)
        assert abs(est[0, 0] - truth) <= 1e-6
        assert abs(abs(est[0, 0]) - 1.0) <= 1e-3

    def test_amplitude_invariance(self):
        g = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        a = sine_response(g, 2.0, c_omega=1.0, settle_cycles=5, sample_cycles=3)
        b = sine_response(g, 2.0, c_omega=2.0, settle_cycles=5, sample_cycles=3)
        assert abs(a[0, 0] - b[0, 0]) < 1e-12

    def test_rejects_coarse_step(self):
        with pytest.raises(ValueError, match="too coarse"):
            sine_response(lag_half(), 10.0, step=0.1)


class TestGridAndSamples:
    @pytest.mark.parametrize("args", [(0, 0.1, 100.0, "log"), (10, -1.0, 100.0, "log"),
                                      (10, 10.0, 1.0, "linear")])
    def test_default_grid_rejects(self, args):
        with pytest.raises(ValueError):
            default_grid(*args)

    @pytest.mark.parametrize("omega", [0.0, float("nan")])
    def test_freq_sample_rejects_non_positive_omega(self, omega):
        with pytest.raises(ValueError, match="omega"):
            FreqSample(omega, np.array([[1.0 + 0.0j]]))


class TestFitRational:
    def test_exact_first_order(self):
        grid = np.linspace(0.1, 100, 200)
        samples = measure_response_direct(lag_half(), grid)
        fit = fit_rational(samples, 0, 1)
        assert fit.num[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.den[0] == pytest.approx(0.5, abs=1e-12)

    def test_constant(self):
        samples = [FreqSample(w, np.array([[1.0 + 0.0j]])) for w in (0.5, 1.0, 2.0)]
        fit = fit_rational(samples, 0, 0)
        assert fit.num[0] == pytest.approx(1.0)

    def test_cubic_entry_accuracy(self, nom_ex2):
        grid = np.linspace(0.1, 100, 200)
        entry = _entry_subsystem(nom_ex2.M22, 0, 0)
        samples = measure_response_direct(entry, grid)
        fit = fit_rational(samples, 2, 3)
        truth_num = np.array([1.0 / 12.0, 17.0 / 24.0, 13.0 / 12.0])
        truth_den = np.array([5.0 / 12.0, 7.0 / 3.0, 2.0, 1.0])
        assert np.abs(fit.num - truth_num).max() / np.abs(truth_num).max() <= 1e-3
        assert np.abs(fit.den - truth_den).max() / np.abs(truth_den).max() <= 1e-3

    def test_needs_enough_samples(self):
        samples = measure_response_direct(lag_half(), [1.0])
        with pytest.raises(IdentifiabilityError):
            fit_rational(samples, 1, 2)

    def test_in_class_recovery_to_machine_precision(self):
        # data generated by a rational function inside the model class is
        # recovered essentially exactly on a well-conditioned grid
        rng = np.random.default_rng(21)
        for _ in range(5):
            poles = -rng.uniform(0.2, 3.0, size=3)
            den = np.polynomial.polynomial.polyfromroots(poles).real
            den = den / den[-1]
            num = rng.normal(size=3)
            truth = RationalScalar(num, den)
            grid = np.logspace(-1.2, 1.2, 40)
            samples = [
                FreqSample(w, np.array([[truth(1j * w)]])) for w in grid
            ]
            fit = fit_rational(samples, 2, 3)
            scale = np.abs(truth.num).max()
            assert np.abs(fit.num - truth.num).max() <= 1e-8 * scale
            assert np.abs(fit.den - truth.den).max() <= 1e-8

    def test_rank_deficiency_reported(self):
        # fitting a first-order response with a (2, 3) model is a
        # two-parameter family: unidentifiable
        grid = np.linspace(0.1, 100, 200)
        samples = measure_response_direct(lag_half(), grid)
        with pytest.raises(IdentifiabilityError) as info:
            fit_rational(samples, 2, 3)
        assert info.value.condition is None or info.value.condition > 0


class TestIdentify:
    def test_zero_pattern_recovered(self, nom_ex2):
        grid = np.linspace(0.1, 100, 200)
        degrees = {
            (0, 0): (2, 3), (0, 2): (2, 3), (2, 0): (2, 3), (2, 2): (2, 3),
            (1, 1): (0, 1),
        }
        fits = identify_m22(nom_ex2.M22, grid, degrees, mode="direct")
        pattern = [[fit is not None for fit in row] for row in fits]
        assert pattern == [
            [True, False, True],
            [False, True, False],
            [True, False, True],
        ]

    def test_held_out_validation(self, nom_ex2):
        grid = np.linspace(0.1, 100, 200)
        degrees = {
            (0, 0): (2, 3), (0, 2): (1, 3), (2, 0): (1, 3), (2, 2): (2, 3),
            (1, 1): (0, 1),
        }
        fits = identify_m22(nom_ex2.M22, grid, degrees, mode="direct")
        held_out = np.linspace(0.23, 87.0, 50)
        for i in range(3):
            for j in range(3):
                fit = fits[i][j]
                if fit is None:
                    continue
                for w in held_out:
                    truth = freq_response(nom_ex2.M22, w)[i, j]
                    assert abs(fit(1j * w) - truth) <= 1e-3 * max(abs(truth), 1e-3)

    def test_sine_mode_matches_direct(self):
        g = lag_half()
        grid = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
        direct = identify_m22(g, grid, (0, 1), mode="direct")[0][0]
        sine = identify_m22(
            g, grid, (0, 1), mode="sine",
            sine_kwargs={"settle_cycles": 10, "sample_cycles": 5},
        )[0][0]
        assert np.abs(direct.num - sine.num).max() <= 1e-3
        assert np.abs(direct.den - sine.den).max() <= 1e-3

    def test_structural_zero_threshold_keeps_small_channels(self):
        # an entry with peak gain well above the threshold must never be
        # declared structurally zero
        tiny = StateSpace([[-1.0]], [[1.0]], [[1e-4]], [[0.0]])
        fits = identify_m22(tiny, np.linspace(0.1, 10, 30), (0, 1))
        assert fits[0][0] is not None


class TestLaguerre:
    def test_orthonormality(self):
        for a in (0.5, 1.0, 2.0):
            basis = LaguerreBasis(a, 20)
            funcs = [basis.function(k) for k in range(21)]
            for i in range(0, 21, 5):
                for j in range(0, 21, 5):
                    expected = 1.0 if i == j else 0.0
                    assert abs(h2_inner(funcs[i], funcs[j]) - expected) <= 1e-10

    def test_projection_of_basis_function(self):
        basis = LaguerreBasis(1.0, 6)
        phi0 = basis.function(0)
        coeffs = laguerre_project(phi0, basis)
        assert coeffs[0, 0, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(coeffs[0, 0, 1:]).max() <= 1e-10

    def test_projection_error_non_increasing(self, s0_ex2):
        basis = LaguerreBasis(1.0, 15)
        coeffs = laguerre_project(s0_ex2, basis)
        sub = _entry_subsystem(s0_ex2, 0, 0)
        nrm = np.sqrt(h2_norm_sq(sub))
        errors = []
        for order in range(16):
            bb = LaguerreBasis(1.0, order)
            approx = laguerre_reconstruct(coeffs[0, 0, : order + 1].reshape(1, 1, -1), bb)
            diff = minreal(parallel(sub, approx, -1))
            errors.append(np.sqrt(max(h2_norm_sq(diff), 0.0)) / nrm)
        assert all(errors[k + 1] <= errors[k] + 1e-12 for k in range(15))
        assert errors[15] <= 0.05

    def test_projection_beats_perturbed_coefficients(self, s0_ex2, rng):
        basis = LaguerreBasis(1.0, 8)
        coeffs = laguerre_project(s0_ex2, basis)
        sub = _entry_subsystem(s0_ex2, 0, 0)
        best = laguerre_reconstruct(coeffs[0, 0].reshape(1, 1, -1), basis)
        err_best = h2_norm_sq(minreal(parallel(sub, best, -1)))
        for _ in range(5):
            noisy = coeffs[0, 0] + 0.05 * rng.normal(size=coeffs[0, 0].shape)
            worse = laguerre_reconstruct(noisy.reshape(1, 1, -1), basis)
            err_worse = h2_norm_sq(minreal(parallel(sub, worse, -1)))
            assert err_worse >= err_best - 1e-12


class TestDerivativeCoefficients:
    def test_matches_projection(self, nom_ex2, s0_ex2):
        basis = LaguerreBasis(1.0, 5)
        projected = laguerre_project(s0_ex2, basis)
        probed = laguerre_coeffs_zeroth(nom_ex2, YoulaIterate.zero(nom_ex2), basis)
        assert np.abs(projected - probed).max() <= 1e-3

    def test_zero_at_lifted_optimum(self, plant1):
        nom = build_nominal(plant1, lqg_optimal(plant1))
        basis = LaguerreBasis(1.0, 3)
        coeffs = laguerre_coeffs_zeroth(nom, YoulaIterate.zero(nom), basis)
        assert np.abs(coeffs).max() <= 1e-6

    def test_linearity_in_the_sensitivity(self, plant1, nom_ex2, ctrl_stationary):
        # at the optimum-based nominal the fixed term vanishes, so scaling the
        # iterate scales the sensitivity; coefficients must follow
        nom = build_nominal(plant1, lqg_optimal(plant1))
        it = iterate_from_controller(nom, ctrl_stationary)
        basis = LaguerreBasis(1.0, 2)
        c1 = laguerre_coeffs_zeroth(nom, it, basis)
        half = YoulaIterate(
            StateSpace(it.Q_dyn.A, it.Q_dyn.B, 0.5 * it.Q_dyn.C, it.Q_dyn.D),
            0.5 * it.Q_stat,
        )
        c2 = laguerre_coeffs_zeroth(nom, half, basis)
        assert np.abs(c1 - 2.0 * c2).max() <= 1e-6 * max(1.0, np.abs(c1).max())


class TestReduceOrder:
    def test_exact_recovery_of_rational_expansion(self):
        basis = LaguerreBasis(1.0, 4)
        coeffs = np.zeros((1, 1, 5))
        coeffs[0, 0, 0] = 1.0  # expansion is exactly phi_0 = sqrt(2)/(s+1)
        fit = reduce_order(coeffs[0, 0], basis, 0, 1, default_grid())
        assert fit.num[0] == pytest.approx(np.sqrt(2.0), abs=1e-8)
        assert fit.den[0] == pytest.approx(1.0, abs=1e-8)

    def test_benchmark_entry_within_tolerance(self, s0_ex2):
        basis = LaguerreBasis(1.0, 15)
        coeffs = laguerre_project(s0_ex2, basis)
        sub = _entry_subsystem(s0_ex2, 0, 0)
        nrm = np.sqrt(h2_norm_sq(sub))
        fit = reduce_order(coeffs[0, 0], basis, 2, 3, default_grid())
        err = np.sqrt(
            max(h2_norm_sq(minreal(parallel(sub, rational_to_ss(fit), -1))), 0.0)
        )
        assert err / nrm <= 0.05

    def test_tracks_expansion_error_at_high_order(self, s0_ex2):
        coeffs_full = laguerre_project(s0_ex2, LaguerreBasis(1.0, 15))
        sub = _entry_subsystem(s0_ex2, 0, 0)
        nrm = np.sqrt(h2_norm_sq(sub))
        for order in range(10, 16):
            bb = LaguerreBasis(1.0, order)
            cc = coeffs_full[0, 0, : order + 1]
            approx = laguerre_reconstruct(cc.reshape(1, 1, -1), bb)
            exp_err = np.sqrt(max(h2_norm_sq(minreal(parallel(sub, approx, -1))), 0.0)) / nrm
            red = rational_to_ss(reduce_order(cc, bb, 2, 3, default_grid()))
            red_err = np.sqrt(max(h2_norm_sq(minreal(parallel(sub, red, -1))), 0.0)) / nrm
            assert red_err <= 2.0 * exp_err


class TestZerothOrder:
    def test_benchmark_accuracy_at_large_sample_count(self, nom_ex2):
        it0 = YoulaIterate.zero(nom_ex2)
        _, rmask = frechet_gradient(nom_ex2, it0)
        truth = 2.0 * rmask
        errors = []
        for seed in range(5):
            est = zo_residue_estimate(nom_ex2, it0, ZoConfig(1e-5, 10000, seed))
            errors.append(np.linalg.norm(est - truth) / np.linalg.norm(truth))
        assert np.median(errors) <= 0.10

    def test_small_sample_count_is_worse(self, nom_ex2):
        it0 = YoulaIterate.zero(nom_ex2)
        _, rmask = frechet_gradient(nom_ex2, it0)
        truth = 2.0 * rmask

        def median_err(m):
            errs = []
            for seed in range(5):
                est = zo_residue_estimate(nom_ex2, it0, ZoConfig(1e-5, m, seed))
                errs.append(np.linalg.norm(est - truth) / np.linalg.norm(truth))
            return np.median(errs)

        errs = [median_err(m) for m in (10, 100, 1000, 10000)]
        assert errs[0] > errs[-1]
        assert all(errs[k + 1] <= errs[k] for k in range(3))

    def test_quadratic_surrogate(self):
        local = np.random.default_rng(0)
        Q0 = local.normal(size=(3, 3))
        Q0[0, 0] = 0.0

        def cost(U):
            return float(np.sum((Q0 + U) ** 2))

        # frozen seed: the estimator's RMS error at this dimension and sample
        # count is about 2.6%, so the bound is seed specific
        est = zo_gradient_estimate(cost, (3, 3), 1, 1, ZoConfig(1e-5, 10000, 2))
        truth = 2.0 * Q0
        truth[0, 0] = 0.0
        assert np.linalg.norm(est - truth) / np.linalg.norm(truth) <= 0.02

    def test_fast_path_matches_honest_evaluation(self, nom_ex2):
        it0 = YoulaIterate.zero(nom_ex2)
        cfg = ZoConfig(1e-2, 40, 3)

        def honest(U):
            return lifted_cost(nom_ex2, YoulaIterate(it0.Q_dyn, it0.Q_stat + U))

        fast = zo_residue_estimate(nom_ex2, it0, cfg)
        slow = zo_gradient_estimate(
            honest, it0.Q_stat.shape, nom_ex2.mask_rows, nom_ex2.mask_cols, cfg
        )
        assert np.allclose(fast, slow, rtol=1e-6, atol=1e-9)

    def test_cost_probe_count(self, nom_ex2, monkeypatch):
        import lqgpo.sysid as sysid

        calls = []

        def counting(*args):
            calls.append(1)
            return lifted_cost(*args)

        monkeypatch.setattr(sysid, "lifted_cost", counting)
        it0 = YoulaIterate.zero(nom_ex2)
        d = nom_ex2.q_rows * nom_ex2.q_cols - nom_ex2.mask_rows * nom_ex2.mask_cols
        assert d == 8
        zo_residue_estimate(nom_ex2, it0, ZoConfig(1e-5, 500, 0))
        assert len(calls) == 2 * d + 2

    def test_empty_masked_block_gives_zero(self, plant1):
        m1, m2 = plant1.B.shape[1], plant1.C.shape[0]
        ctrl = DynController(np.zeros((0, 0)), np.zeros((0, m2)), np.zeros((m1, 0)))
        nom = build_nominal(plant1, ctrl)
        est = zo_residue_estimate(nom, YoulaIterate.zero(nom), ZoConfig(1e-5, 10, 0))
        assert np.array_equal(est, np.zeros((nom.q_rows, nom.q_cols)))

    def test_deterministic_given_seed(self, nom_ex2):
        it0 = YoulaIterate.zero(nom_ex2)
        cfg = ZoConfig(1e-5, 50, 123)
        a = zo_residue_estimate(nom_ex2, it0, cfg)
        b = zo_residue_estimate(nom_ex2, it0, cfg)
        assert np.array_equal(a, b)

    def test_mask_respected(self, nom_ex2):
        it0 = YoulaIterate.zero(nom_ex2)
        est = zo_residue_estimate(nom_ex2, it0, ZoConfig(1e-5, 20, 5))
        assert est[0, 0] == 0.0

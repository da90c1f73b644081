"""Optimality certificate: Markov test, rank and definiteness diagnostics."""

import numpy as np
import pytest

from conftest import random_plant, stiff_plant
from lqgpo import certificate
from lqgpo.certificate import (
    CertificateMatrices,
    Verdict,
    build_certificate_matrices,
    certify,
    coupling_condition_check,
    rank_condition_check,
    lqr_certificate,
    markov_test,
)
from lqgpo.errors import UnstableError
from lqgpo.lqg import (
    DynController,
    LqgPlant,
    LqrProblem,
    close_loop,
    lqg_gradient,
    lqg_optimal,
    lqr_optimal,
)
from lqgpo.ss import StateSpace, freq_response


class TestCertify:
    def test_markov_sequence_computed_once(self, monkeypatch, plant1, ctrl_opt):
        calls = []

        def counted(*args):
            calls.append(args)
            return markov_test(*args)

        monkeypatch.setattr(certificate, "markov_test", counted)
        report = certify(plant1, ctrl_opt)
        assert len(calls) == 1
        raw, normalized = markov_test(*calls[0])
        assert (report.markov_norms, report.markov_norms_normalized) == (raw, normalized)

    def test_gradient_is_the_first_markov_parameter(self, plant1, ctrl_ex2):
        # grad_norm is 2 ||Cterm Bterm|| without its structural-zero block,
        # the norm of lqg_gradient's blocks
        report = certify(plant1, ctrl_ex2)
        grads = lqg_gradient(plant1, ctrl_ex2)
        want = np.sqrt(sum(np.linalg.norm(g, "fro") ** 2 for g in grads))
        assert report.grad_norm == pytest.approx(want, rel=1e-14)


class TestCertificateMatrices:
    def test_decoupled_saddle_kills_the_weight_terms(self, plant1, ctrl_stationary):
        # B_K = 0 and C_K = 0: Cterm and Bterm keep only their Lyapunov terms
        cl = close_loop(plant1, ctrl_stationary)
        assert not np.any(cl.D12.T @ cl.Ccl)
        assert not np.any(cl.Bcl @ cl.D21.T)

    def test_shapes(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        cm = build_certificate_matrices(cl)
        assert cm.Cterm.shape == (3, 4)  # (m1+q) x (n+q)
        assert cm.Bterm.shape == (4, 3)  # (n+q) x (m2+q)

    def test_first_markov_parameter_vanishes_at_optimum(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        cm = build_certificate_matrices(cl)
        lhs = np.linalg.norm(cm.Cterm @ cm.Bterm, "fro")
        scale = np.linalg.norm(cm.Cterm, "fro") * np.linalg.norm(cm.Bterm, "fro")
        assert lhs <= 1e-6 * scale


class TestMarkovTest:
    def test_optimum_passes(self, plant1, ctrl_opt):
        report = certify(plant1, ctrl_opt)
        assert report.verdict is Verdict.GLOBALLY_OPTIMAL
        assert max(report.markov_norms_normalized) <= 1e-6
        assert len(report.markov_norms) == 4

    def test_stationary_point_fails(self, plant1, ctrl_stationary):
        report = certify(plant1, ctrl_stationary)
        assert report.verdict is Verdict.STATIONARY_NOT_OPTIMAL
        assert report.grad_norm <= 1e-6
        assert max(report.markov_norms_normalized) >= 1e-2

    def test_zero_input_matrix_gives_zeros(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        cm = build_certificate_matrices(cl)
        cm_zero = CertificateMatrices(cm.Cterm, np.zeros_like(cm.Bterm))
        raw, normalized = markov_test(cm_zero, cl.Acl, 4)
        assert max(raw) == 0.0
        assert max(normalized) == 0.0

    def test_raw_figures_from_the_scaled_powers(self, rng):
        # raw = normalized ||C|| ||B|| a^i, which matches C A^i B computed
        # directly, and normalized = raw / (||C|| a^i ||B||)
        A, B, C = rng.normal(size=(4, 4)), rng.normal(size=(4, 2)), rng.normal(size=(3, 4))
        cm = CertificateMatrices(C, B)
        raw, normalized = markov_test(cm, A, 6)
        a = np.linalg.norm(A, 2)
        for i in range(6):
            want = np.linalg.norm(C @ np.linalg.matrix_power(A, i) @ B, "fro")
            assert raw[i] == pytest.approx(want, rel=1e-12)
            scale = np.linalg.norm(C, "fro") * a**i * np.linalg.norm(B, "fro")
            assert normalized[i] == pytest.approx(want / scale, rel=1e-12)

    def test_raw_figure_is_inf_only_past_the_floating_range(self):
        # a^2 = 1e320 overflows, but C A^2 B = 1e220 + 0.25 does not; C A^3 B
        # is 1e380
        A = np.diag([1e160, 0.5])
        cm = CertificateMatrices(np.array([[1e-100, 1.0]]), np.ones((2, 1)))
        raw, normalized = markov_test(cm, A, 4)
        assert raw[2] == pytest.approx(1e220, rel=1e-12)
        assert raw[3] == np.inf
        assert all(np.isfinite(normalized)) and max(normalized) <= 1.0

    def test_non_stationary_verdict(self, plant1, ctrl_ex2):
        report = certify(plant1, ctrl_ex2)
        assert report.verdict is Verdict.NOT_STATIONARY


class TestStiffPlant:
    # time scales 0.1 to 1e4: ||Acl||^i overflows before i reaches n + q = 48
    def test_riccati_optimum_is_globally_optimal(self):
        plant = stiff_plant()
        report = certify(plant, lqg_optimal(plant))
        assert report.verdict is Verdict.GLOBALLY_OPTIMAL
        assert max(report.markov_norms_normalized) <= 1e-11
        assert all(np.isfinite(report.markov_norms))

    def test_decoupled_saddle_is_stationary_not_optimal(self):
        # A_K = -I, B_K = 0, C_K = 0 on the open-loop-stable plant: a
        # stationary point whose gradient is exactly zero
        plant = stiff_plant()
        n = plant.n
        report = certify(plant, DynController(-np.eye(n), np.zeros((n, 2)), np.zeros((2, n))))
        assert report.verdict is Verdict.STATIONARY_NOT_OPTIMAL
        assert report.grad_norm == 0.0
        assert max(report.markov_norms_normalized) >= 0.1


class TestRankCondition:
    def test_optimum_full_rank(self, plant1, ctrl_opt):
        report = certify(plant1, ctrl_opt)
        assert (report.rank_P2, report.rank_Sigma2) == (2, 2)
        assert report.rank_condition_passes

    def test_decoupled_stationary_point_rank_zero(self, plant1, ctrl_stationary):
        report = certify(plant1, ctrl_stationary)
        assert report.rank_Sigma2 == 0
        assert not report.rank_condition_passes

    def test_non_stationary_never_passes(self, plant1, ctrl_ex2):
        cl = close_loop(plant1, ctrl_ex2)
        _, _, passes = rank_condition_check(cl, grad_is_zero=False)
        assert not passes


class TestCouplingCondition:
    def test_optimum_satisfies_a_condition(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        cond_p, cond_s = coupling_condition_check(cl)
        assert cond_p or cond_s

    def test_decoupled_stationary_point_fails_sigma(self, plant1, ctrl_stationary):
        cl = close_loop(plant1, ctrl_stationary)
        _, cond_s = coupling_condition_check(cl)
        assert cond_s is False

    def test_scope_guard(self, plant1):
        padded = lqg_optimal(plant1, 3)
        cl = close_loop(plant1, padded)
        assert coupling_condition_check(cl) == (None, None)


class TestLqrCertificate:
    def test_riccati_gain_passes(self):
        prob = LqrProblem(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
        k_opt, _ = lqr_optimal(prob)
        cert = lqr_certificate(prob, k_opt)
        assert cert.passes
        assert max(cert.markov_norms) <= 1e-8

    def test_zero_gain_fails_with_half_gap(self):
        prob = LqrProblem(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
        cert = lqr_certificate(prob, np.zeros((1, 1)))
        assert not cert.passes
        assert cert.gap_norm == pytest.approx(0.5, rel=1e-10)

    def test_gramian_positive_definite(self, rng):
        prob = LqrProblem(
            rng.normal(size=(2, 2)) - 2 * np.eye(2),
            rng.normal(size=(2, 1)),
            np.eye(2),
            np.eye(1),
        )
        cert = lqr_certificate(prob, np.zeros((1, 2)))
        assert cert.sigma_min_gramian > 0

    def test_rejects_destabilizing_gain(self):
        prob = LqrProblem(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
        with pytest.raises(UnstableError):
            lqr_certificate(prob, [[-10.0]])


class TestProperties:
    def test_soundness_on_synthesized_optima(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            plant = random_plant(rng, n=n)
            report = certify(plant, lqg_optimal(plant))
            assert report.verdict is Verdict.GLOBALLY_OPTIMAL

    def test_detects_decoupled_stationary_family(self, plant1, rng):
        # any stable decoupled controller on the open-loop-stable plant is a
        # stationary point but not optimal
        for _ in range(5):
            diag = -rng.uniform(0.2, 3.0, size=2)
            ctrl = DynController(np.diag(diag), np.zeros((2, 1)), np.zeros((1, 2)))
            report = certify(plant1, ctrl)
            assert report.grad_norm <= 1e-6
            assert report.verdict is Verdict.STATIONARY_NOT_OPTIMAL

    def test_scale_covariance(self, plant1, ctrl_opt, ctrl_stationary):
        scaled = LqgPlant(
            plant1.A, plant1.B, plant1.C,
            plant1.Q, plant1.R, 25.0 * plant1.W, plant1.V,
        )
        for ctrl, verdict in (
            (ctrl_opt, None),
            (ctrl_stationary, Verdict.STATIONARY_NOT_OPTIMAL),
        ):
            base = certify(plant1, ctrl)
            boosted = certify(scaled, ctrl)
            if verdict is not None:
                # noise scaling moves raw norms but never flips the verdict
                assert base.verdict is boosted.verdict is verdict
                assert max(boosted.markov_norms) != pytest.approx(
                    max(base.markov_norms)
                )

    def test_scaled_optimum_still_certifies(self, plant1):
        scaled = LqgPlant(
            plant1.A, plant1.B, plant1.C,
            plant1.Q, plant1.R, 25.0 * plant1.W, plant1.V,
        )
        report = certify(scaled, lqg_optimal(scaled))
        assert report.verdict is Verdict.GLOBALLY_OPTIMAL

    def test_markov_equivalent_to_frequency_sweep(self, plant1, ctrl_opt, ctrl_stationary):
        # the optimality transfer function vanishes on a dense grid iff the
        # finite Markov test passes
        for ctrl, should_vanish in ((ctrl_opt, True), (ctrl_stationary, False)):
            cl = close_loop(plant1, ctrl)
            cm = build_certificate_matrices(cl)
            g0 = StateSpace(cl.Acl, cm.Bterm, cm.Cterm, np.zeros((3, 3)))
            peak = max(
                np.abs(freq_response(g0, w)).max()
                for w in np.logspace(-2, 2, 200)
            )
            markov_pass = max(markov_test(cm, cl.Acl, 4)[1]) <= 1e-6
            assert markov_pass == should_vanish
            assert (peak <= 1e-8) == should_vanish

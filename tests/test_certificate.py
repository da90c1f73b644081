"""Optimality certificate: Markov test, rank and definiteness diagnostics."""

import numpy as np
import pytest

from conftest import random_plant
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
    normalized_markov,
)
from lqgpo.errors import UnstableError
from lqgpo.lqg import (
    DynController,
    LqgPlant,
    LqrProblem,
    close_loop,
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
        assert report.markov_norms_normalized == normalized_markov(*calls[0])


class TestCertificateMatrices:
    def test_zero_output_gain_kills_c1(self, plant1, ctrl_stationary):
        cl = close_loop(plant1, ctrl_stationary)
        cm = build_certificate_matrices(plant1, ctrl_stationary, cl)
        assert not np.any(cm.C1)
        assert not np.any(cm.B0)

    def test_shapes(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        cm = build_certificate_matrices(plant1, ctrl_opt, cl)
        assert cm.Cterm.shape == (3, 4)  # (m1+q) x (n+q)
        assert cm.Bterm.shape == (4, 3)  # (n+q) x (m2+q)

    def test_first_markov_parameter_vanishes_at_optimum(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        cm = build_certificate_matrices(plant1, ctrl_opt, cl)
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
        cm = build_certificate_matrices(plant1, ctrl_opt, cl)
        cm_zero = CertificateMatrices(
            cm.B0, cm.C0, cm.B1, cm.C1, cm.Cterm, np.zeros_like(cm.Bterm)
        )
        values = markov_test(cm_zero, cl.Acl, 4)
        assert max(values) == 0.0
        assert max(normalized_markov(cm_zero, cl.Acl, 4)) == 0.0

    def test_non_stationary_verdict(self, plant1, ctrl_ex2):
        report = certify(plant1, ctrl_ex2)
        assert report.verdict is Verdict.NOT_STATIONARY


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
            cm = build_certificate_matrices(plant1, ctrl, cl)
            g0 = StateSpace(cl.Acl, cm.Bterm, cm.Cterm, np.zeros((3, 3)))
            peak = max(
                np.abs(freq_response(g0, w)).max()
                for w in np.logspace(-2, 2, 200)
            )
            markov_pass = max(normalized_markov(cm, cl.Acl, 4)) <= 1e-6
            assert markov_pass == should_vanish
            assert (peak <= 1e-8) == should_vanish

"""LQG core: closed loop, cost, gradients, synthesis, baselines, LQR case."""

import numpy as np
import pytest

from conftest import (MASTER_SEED, load_perfbench, random_plant, random_stabilizing_controller,
                      same_bits)
from _reference import (A_K_STAR, B_K_STAR, C_K_STAR, DISPLAY_TOL, lqg_gradient_blocks,
                        lqg_optimal_blocks, lqr_gradient_descent_loop)
from lqgpo import lqg, solvers
from lqgpo.benchmarks import example1_plant
from lqgpo.errors import SolverError, UnstableError
from lqgpo.lqg import (
    DynController,
    LqgPlant,
    LqrProblem,
    close_loop,
    lqg_cost,
    lqg_gradient,
    lqg_optimal,
    lqr_cost_grad,
    lqr_gradient_descent,
    lqr_optimal,
    performance_realization,
    policy_gradient_run,
)
from lqgpo.solvers import lyap_ct
from lqgpo.ss import StateSpace, h2_norm_sq, stable_residue_sum


def directional_fd(plant, ctrl, dirs, step=1e-5):
    dA, dB, dC = dirs

    def cost_at(c):
        cand = DynController(ctrl.A_K + c * dA, ctrl.B_K + c * dB, ctrl.C_K + c * dC)
        return lqg_cost(close_loop(plant, cand))

    return (cost_at(step) - cost_at(-step)) / (2 * step)


class TestPlantValidation:
    def test_requires_spd_weights(self, plant1):
        with pytest.raises(ValueError, match="positive definite"):
            LqgPlant(
                plant1.A, plant1.B, plant1.C,
                plant1.Q, plant1.R, plant1.W, np.zeros((1, 1)),
            )

    def test_json_round_trip(self, plant1):
        back = LqgPlant.from_dict(plant1.to_dict())
        assert np.array_equal(back.A, plant1.A)

    def test_packed_controller_round_trip(self, ctrl_opt):
        K = ctrl_opt.as_packed()
        assert not np.any(K[:1, :1])
        back = DynController.from_packed(K, 1, 1)
        assert np.array_equal(back.A_K, ctrl_opt.A_K)


class TestCloseLoop:
    def test_optimal_controller_stabilizes(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        assert cl.Acl.shape == (4, 4)
        assert np.linalg.eigvals(cl.Acl).real.max() < 0

    def test_zero_controller_stable_on_stable_plant(self, plant1, ctrl_stationary):
        cl = close_loop(plant1, ctrl_stationary)
        assert np.linalg.eigvals(cl.Acl).real.max() < 0

    def test_unstable_controller_rejected(self, plant1):
        bad = DynController(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(UnstableError, match="not stabilizing"):
            close_loop(plant1, bad)


class TestCost:
    def test_decoupled_controller_equals_open_loop_lyapunov(self, plant1, ctrl_stationary):
        cl = close_loop(plant1, ctrl_stationary)
        X = lyap_ct(plant1.A, plant1.Q).solution
        assert lqg_cost(cl) == pytest.approx(np.trace(plant1.W @ X), rel=1e-10)

    def test_dual_traces_agree(self, plant1, ctrl_opt):
        cl = close_loop(plant1, ctrl_opt)
        primal = np.trace(cl.Bcl @ cl.Bcl.T @ cl.P)
        dual = np.trace(cl.Ccl.T @ cl.Ccl @ cl.Sigma)
        assert primal == pytest.approx(dual, rel=1e-10)
        assert lqg_cost(cl) > 0

    def test_cost_equals_h2_of_performance_map(self, rng):
        for _ in range(10):
            plant = random_plant(rng)
            ctrl = random_stabilizing_controller(rng, plant)
            cl = close_loop(plant, ctrl)
            assert lqg_cost(cl) == pytest.approx(
                h2_norm_sq(performance_realization(cl)), rel=1e-8
            )


class TestGradient:
    def test_zero_at_optimum(self, plant1, ctrl_opt):
        gA, gB, gC = lqg_gradient(plant1, ctrl_opt)
        for g in (gA, gB, gC):
            assert np.linalg.norm(g, "fro") <= 1e-6

    def test_structurally_zero_at_decoupled_stationary_point(self, plant1, ctrl_stationary):
        gA, gB, gC = lqg_gradient(plant1, ctrl_stationary)
        for g in (gA, gB, gC):
            assert not np.any(g)

    def test_matches_block_products(self, rng):
        # the blocks of 2 Cterm Bterm against the six block products of P and
        # Sigma, on criterion-4 style plants and the benchmark's random family
        instances = []
        for _ in range(5):
            plant = random_plant(rng, n=int(rng.integers(2, 4)))
            instances.append((plant, random_stabilizing_controller(rng, plant)))
        workloads = load_perfbench("workloads")
        instances += [workloads.random_lqg_instance(rng, n) for n in (8, 16, 24)]
        for plant, ctrl in instances:
            cl = close_loop(plant, ctrl)
            got, want = lqg_gradient(plant, ctrl, cl), lqg_gradient_blocks(plant, ctrl, cl)
            scale = np.sqrt(sum(np.linalg.norm(g, "fro") ** 2 for g in want))
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.linalg.norm(g - w, "fro") <= 1e-12 * scale

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            plant = random_plant(rng, n=2)
            ctrl = random_stabilizing_controller(rng, plant)
            cl = close_loop(plant, ctrl)
            gA, gB, gC = lqg_gradient(plant, ctrl, cl)
            for _ in range(4):
                dirs = (
                    rng.normal(size=gA.shape),
                    rng.normal(size=gB.shape),
                    rng.normal(size=gC.shape),
                )
                fd = directional_fd(plant, ctrl, dirs)
                analytic = (
                    np.sum(gA * dirs[0]) + np.sum(gB * dirs[1]) + np.sum(gC * dirs[2])
                )
                scale = max(abs(analytic), 1e-8)
                assert abs(fd - analytic) / scale <= 1e-5


class TestSynthesis:
    def test_reproduces_reference_matrices(self, plant1, ctrl_opt):
        assert np.abs(ctrl_opt.A_K - A_K_STAR).max() <= DISPLAY_TOL
        assert np.abs(ctrl_opt.B_K - B_K_STAR).max() <= DISPLAY_TOL
        assert np.abs(ctrl_opt.C_K - C_K_STAR).max() <= DISPLAY_TOL

    def test_padding_preserves_cost_and_stationarity(self, plant1, ctrl_opt):
        padded = lqg_optimal(plant1, 3)
        assert padded.order == 3
        j2 = lqg_cost(close_loop(plant1, ctrl_opt))
        j3 = lqg_cost(close_loop(plant1, padded))
        assert j3 == pytest.approx(j2, rel=1e-10)
        grads = lqg_gradient(plant1, padded)
        assert max(np.linalg.norm(g) for g in grads) <= 1e-8

    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_padding_on_the_packed_matrix_matches_block_padding(self, plant1, extra):
        rng = np.random.default_rng(MASTER_SEED)
        plants = [plant1, random_plant(rng, n=3, m1=2, m2=1), random_plant(rng, n=2, m1=1, m2=2)]
        for plant in plants:
            ctrl = lqg_optimal(plant, plant.n + extra)
            want = lqg_optimal_blocks(plant, plant.n + extra)
            assert all(map(same_bits, (ctrl.A_K, ctrl.B_K, ctrl.C_K), want))

    def test_order_below_plant_rejected(self, plant1):
        with pytest.raises(ValueError):
            lqg_optimal(plant1, 1)


class TestPolicyGradient:
    def test_stalls_at_exact_stationary_point(self, plant1, ctrl_stationary):
        records = policy_gradient_run(plant1, ctrl_stationary, 10.0, 14)
        costs = [r.cost for r in records]
        assert len(costs) == 15
        assert max(abs(costs[i + 1] - costs[i]) for i in range(14)) <= 1e-10

    def test_non_increasing_from_optimum(self, plant1, ctrl_opt):
        records = policy_gradient_run(plant1, ctrl_opt, 0.01, 5)
        costs = [r.cost for r in records]
        assert all(costs[i + 1] <= costs[i] + 1e-8 for i in range(5))

    def test_near_stationary_barely_moves(self, plant1, ctrl_near_stationary, ctrl_opt):
        jstar = lqg_cost(close_loop(plant1, ctrl_opt))
        records = policy_gradient_run(plant1, ctrl_near_stationary, 10.0, 14)
        errors = [(r.cost - jstar) / jstar for r in records]
        assert max(abs(e - errors[0]) for e in errors) < 0.01 * errors[0]

    def test_step_halving_keeps_run_alive(self, rng):
        plant = random_plant(rng, n=2)
        ctrl = random_stabilizing_controller(rng, plant)
        records = policy_gradient_run(plant, ctrl, 1e3, 5)
        assert len(records) == 6  # huge step survives via halving or stalls

    def test_skipped_updates_are_recorded(self, plant1, ctrl_ex2, monkeypatch):
        # a step of 1e8 is taken once; after it every halving still
        # destabilizes, so the next two updates are dropped
        failed = []

        def counted(plant, ctrl):
            try:
                return close_loop(plant, ctrl)
            except (UnstableError, SolverError):
                failed.append(ctrl)
                raise

        monkeypatch.setattr(lqg, "close_loop", counted)
        records = policy_gradient_run(plant1, ctrl_ex2, 1e8, 3)
        assert [r.skipped for r in records] == [False, False, True, True]
        assert records[1].cost == records[2].cost == records[3].cost
        assert records[3].controller is records[1].controller
        assert len(failed) == 2 * (lqg.PG_MAX_HALVINGS + 1)


class TestLqr:
    def scalar_problem(self):
        return LqrProblem(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))

    def test_scalar_stationary_gain(self):
        prob = self.scalar_problem()
        kstar = np.sqrt(2.0) - 1.0  # R^-1 B^T P* with P* = sqrt(2) - 1
        cost, grad = lqr_cost_grad(prob, [[kstar]])
        assert abs(grad[0, 0]) <= 1e-10
        k_opt, c_opt = lqr_optimal(prob)
        assert k_opt[0, 0] == pytest.approx(kstar, abs=1e-10)
        assert cost == pytest.approx(c_opt, rel=1e-10)

    def test_zero_gain_gradient(self):
        prob = self.scalar_problem()
        _, grad = lqr_cost_grad(prob, [[0.0]])
        # -2 B^T P0 Sigma0 with P0 = 1/2, Sigma0 = 1/2
        assert grad[0, 0] == pytest.approx(-0.5, rel=1e-10)
        eps = 1e-6
        c_plus, _ = lqr_cost_grad(prob, [[eps]])
        c_minus, _ = lqr_cost_grad(prob, [[-eps]])
        assert (c_plus - c_minus) / (2 * eps) == pytest.approx(grad[0, 0], rel=1e-6)

    def test_gradient_matches_fd_random(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, 1))
            prob = LqrProblem(A, B, np.eye(n), np.eye(1))
            K0, _ = lqr_optimal(prob)
            K = K0 + 0.1 * rng.normal(size=K0.shape)
            try:
                _, grad = lqr_cost_grad(prob, K)
            except UnstableError:
                continue
            D = rng.normal(size=K.shape)
            eps = 1e-6
            cp, _ = lqr_cost_grad(prob, K + eps * D)
            cm, _ = lqr_cost_grad(prob, K - eps * D)
            fd = (cp - cm) / (2 * eps)
            analytic = np.sum(grad * D)
            assert fd == pytest.approx(analytic, rel=1e-6)

    def test_destabilizing_gain_rejected(self):
        prob = self.scalar_problem()
        with pytest.raises(UnstableError):
            lqr_cost_grad(prob, [[-5.0]])

    def test_gradient_is_twice_stable_residue_sum(self, rng):
        # residue identity for the stationarity transfer function
        prob = self.scalar_problem()
        K = np.array([[0.3]])
        cost, grad = lqr_cost_grad(prob, K)
        Acl = prob.closed_loop(K)
        P = lyap_ct(Acl, prob.Q + K.T @ prob.R @ K).solution
        Sigma = lyap_ct(Acl.T, np.eye(1)).solution
        gap = prob.R @ K - prob.B.T @ P
        tf = StateSpace(Acl, Sigma, gap, np.zeros((1, 1)))
        assert np.allclose(grad, 2.0 * stable_residue_sum(tf), atol=1e-10)

    def test_descent_converges_to_riccati_optimum(self, rng):
        prob = LqrProblem(
            rng.normal(size=(2, 2)), rng.normal(size=(2, 1)), np.eye(2), np.eye(1)
        )
        k_opt, c_opt = lqr_optimal(prob)
        K0 = k_opt + 0.5 * rng.normal(size=k_opt.shape)
        try:
            lqr_cost_grad(prob, K0)
        except UnstableError:
            K0 = k_opt
        K, history = lqr_gradient_descent(prob, K0)
        cost, _ = lqr_cost_grad(prob, K)
        assert cost <= c_opt * (1 + 1e-6)
        assert history[-1] <= history[0] + 1e-12


def criterion6_instances(count):
    """The first `count` problems and starting gains of acceptance criterion 6."""
    rng = np.random.default_rng(MASTER_SEED + 6)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, int(rng.integers(1, 3))))
        try:
            prob = LqrProblem(A, B, np.eye(n), np.eye(B.shape[1]))
        except Exception:
            continue
        k_opt, _ = lqr_optimal(prob)
        K0 = k_opt + 0.3 * rng.normal(size=k_opt.shape)
        try:
            lqr_cost_grad(prob, K0)
        except Exception:
            K0 = k_opt
        out.append((prob, K0))
    return out


class TestLqrDescentParity:
    # the descent prices a candidate by Sigma_K alone and solves P_K only for
    # the accepted one; gains and histories equal those of pricing every
    # candidate in full, bit for bit

    @pytest.mark.parametrize("k", range(10))
    def test_criterion6_instances(self, k):
        prob, K0 = criterion6_instances(k + 1)[k]
        K, history = lqr_gradient_descent(prob, K0)
        K_ref, history_ref = lqr_gradient_descent_loop(prob, K0)
        assert np.array_equal(K, K_ref)
        assert history == history_ref

    def test_example1_problem(self):
        plant = example1_plant()
        prob = LqrProblem(plant.A, plant.B, plant.Q, plant.R)
        K0 = np.zeros((1, 2))
        K, history = lqr_gradient_descent(prob, K0, iters=300)
        K_ref, history_ref = lqr_gradient_descent_loop(prob, K0, iters=300)
        assert len(history) == 301
        assert np.array_equal(K, K_ref)
        assert history == history_ref

    def test_rejected_candidate_costs_one_form_and_one_solve(self, monkeypatch):
        # A = 1, K0 just above 1: the gradient is about -1e4, so the first
        # steps overshoot to stable gains of higher cost and are rejected
        prob = LqrProblem([[1.0]], [[1.0]], np.eye(1), np.eye(1))
        forms, solves = [], {}
        schur_form, solve = solvers.schur_form, solvers.solve

        def counted_form(A):
            form = schur_form(A)
            forms.append(form)
            return form

        def counted_solve(fa, fb, C, trans_a=False, trans_b=False):
            solves[id(fa)] = solves.get(id(fa), 0) + 1
            return solve(fa, fb, C, trans_a, trans_b)

        monkeypatch.setattr(solvers, "schur_form", counted_form)
        monkeypatch.setattr(solvers, "solve", counted_solve)
        K, history = lqr_gradient_descent(prob, [[1.01]], iters=1)
        per_form = [solves.get(id(form), 0) for form in forms]
        assert len(history) == 2 and history[1] < history[0]
        # the start and the accepted candidate: Sigma_K and P_K each; every
        # rejected candidate in between: Sigma_K only
        assert per_form[0] == per_form[-1] == 2
        assert len(per_form) > 2 and per_form[1:-1] == [1] * (len(per_form) - 2)

"""Lifted-space optimizer: nominal data, gradients, descent, reconstruction."""

import numpy as np
import pytest

from conftest import (MASTER_SEED, freq_response_fast, load_perfbench, random_plant, random_spd,
                      random_stabilizing_controller, random_stable_ss, record_schur_forms,
                      same_bits)
from _reference import (M22_ENTRIES, M22_ZERO_ENTRIES, S0_11_AT_0, assembled_controller_blocks,
                        certificate_system, lifted_cost_dense, performance_map_series,
                        sensitivity_dense, sensitivity_projection_dense, static_gram_differences)
from lqgpo import solvers, youla
from lqgpo.certificate import Verdict, build_certificate_matrices, certify
from lqgpo.lqg import (DynController, LqgPlant, close_loop, lqg_cost, lqg_optimal,
                       perturbation_channels)
from lqgpo.solvers import psd_sqrt
from lqgpo.ss import (
    StateSpace,
    freq_response,
    gramian_obsv,
    h2_norm_sq,
    minreal,
    minreal_h2,
    parallel,
    scaled,
    zero_system,
)
from lqgpo.sysid import LaguerreBasis
from lqgpo.youla import (
    TRUNC_TOL,
    IterateRecord,
    _performance_map,
    YoulaIterate,
    assemble_controller,
    build_nominal,
    estimate_smoothness,
    estimate_smoothness_tight,
    frechet_gradient,
    inner_u,
    iterate_from_controller,
    lifted_cost,
    mask_block,
    norm_u,
    reconstruct_controller_delta,
    run_lifted_gradient_descent,
    sensitivity,
    static_quadratic_form,
)


@pytest.fixture(scope="module")
def nom_ex2(plant1, ctrl_ex2):
    return build_nominal(plant1, ctrl_ex2)


@pytest.fixture(scope="module")
def nom_stationary(plant1, ctrl_stationary):
    return build_nominal(plant1, ctrl_stationary)


@pytest.fixture(scope="module")
def nom_opt(plant1, ctrl_opt):
    return build_nominal(plant1, ctrl_opt)


@pytest.fixture(scope="module")
def nom_random8():
    # a random 8-state, 2-input, 2-output plant (A = N(0,1)/sqrt(8) - 0.8 I)
    # at a perturbed optimal controller: a 16-state closed loop
    rng = np.random.default_rng(MASTER_SEED)
    n = 8
    plant = LqgPlant(rng.normal(size=(n, n)) / np.sqrt(n) - 0.8 * np.eye(n),
                     rng.normal(size=(n, 2)), rng.normal(size=(2, n)),
                     random_spd(rng, n), random_spd(rng, 2), random_spd(rng, n), random_spd(rng, 2))
    return build_nominal(plant, random_stabilizing_controller(rng, plant, spread=0.05))


@pytest.fixture(scope="module")
def nom_perfbench8():
    # the benchmark's `random-n8` lifted-descent instance at seed 101
    plant, ctrl0 = load_perfbench("workloads").random_lqg_instance(np.random.default_rng(101), 8)
    return build_nominal(plant, ctrl0)


def h2_distance(g, h):
    """||G - H||_H2 by trapezoid quadrature of the frequency responses: the
    difference of two nearly equal systems lies below the round-off floor of
    a Gramian of their stacked realization."""
    omegas = np.concatenate([[0.0], np.logspace(-4, 6, 4001)])
    diff = freq_response_fast(g, omegas) - freq_response_fast(h, omegas)
    return np.sqrt(np.trapezoid(np.sum(np.abs(diff) ** 2, axis=(1, 2)), omegas) / np.pi)


def rational(num, den, s):
    return np.polynomial.polynomial.polyval(s, num) / np.polynomial.polynomial.polyval(s, den)


def random_iterate(rng, nom, dyn_states=3, scale=0.5):
    q_dyn = scaled(random_stable_ss(rng, dyn_states, nom.q_rows, nom.q_cols), scale)
    q_stat = mask_block(
        scale * rng.normal(size=(nom.q_rows, nom.q_cols)), nom.mask_rows, nom.mask_cols
    )
    return YoulaIterate(q_dyn, q_stat)


class TestNominal:
    def test_interconnection_matches_reference_rationals(self, nom_ex2):
        for w in (0.1, 1.0, 10.0):
            M = freq_response(nom_ex2.M22, w)
            for (i, j), (num, den) in M22_ENTRIES.items():
                expected = rational(num, den, 1j * w)
                assert abs(M[i, j] - expected) <= 1e-6 * abs(expected)
            for i, j in M22_ZERO_ENTRIES:
                assert M[i, j] == 0.0

    def test_cost_is_h2_of_noise_channel(self, plant1, nom_ex2, ctrl_ex2):
        assert h2_norm_sq(nom_ex2.M11) == pytest.approx(
            lqg_cost(close_loop(plant1, ctrl_ex2)), rel=1e-10
        )
        assert nom_ex2.base_cost == pytest.approx(h2_norm_sq(nom_ex2.M11))

    def test_feedthrough_structure_exact(self, plant1, nom_ex2):
        n, q = 2, 2
        m1 = m2 = 1
        D12 = nom_ex2.M12.D
        assert np.array_equal(D12[:n, :], np.zeros((n, m1 + q)))
        assert np.array_equal(D12[n:, :m1], psd_sqrt(plant1.R))
        assert not np.any(D12[n:, m1:])
        D21 = nom_ex2.M21.D
        assert np.array_equal(D21[:m2, n:], psd_sqrt(plant1.V))
        assert not np.any(D21[:, :n])
        assert not np.any(D21[m2:, :])
        assert nom_ex2.M11.is_strictly_proper()
        assert nom_ex2.M22.is_strictly_proper()
        assert nom_ex2.M11.is_stable() and nom_ex2.M22.is_stable()
        g0 = certificate_system(nom_ex2)
        assert g0.is_stable() and g0.is_strictly_proper()


class TestSensitivity:
    def test_vanishes_at_synthesized_optimum(self, nom_opt):
        S = sensitivity(nom_opt, YoulaIterate.zero(nom_opt))
        assert (h2_norm_sq(S) if S.n_states else 0.0) <= 1e-6

    def test_matches_reference_value_at_dc(self, nom_ex2):
        S0 = sensitivity(nom_ex2, YoulaIterate.zero(nom_ex2))
        value = freq_response(S0, 0.0)[0, 0].real
        assert value == pytest.approx(S0_11_AT_0, rel=0.02)

    def test_zero_pattern(self, nom_ex2):
        S0 = sensitivity(nom_ex2, YoulaIterate.zero(nom_ex2))
        for w in (0.0, 0.7, 5.0):
            M = freq_response(S0, w)
            assert np.abs(M[1, :]).max() <= 1e-10
            assert np.abs(M[:, 1]).max() <= 1e-10

    def test_strictly_proper_and_stable(self, nom_ex2, rng):
        it = random_iterate(rng, nom_ex2)
        S = sensitivity(nom_ex2, it)
        assert S.is_strictly_proper()
        assert S.is_stable()


class TestFrechetGradient:
    def test_directional_derivative_oracle(self, nom_ex2, rng):
        it = random_iterate(rng, nom_ex2, dyn_states=2, scale=0.2)
        S, rmask = frechet_gradient(nom_ex2, it)
        basis = LaguerreBasis(1.0, 9)
        c = 1e-5
        checked = 0
        for k in range(10):
            phi = basis.function(k)
            i = int(rng.integers(0, nom_ex2.q_rows))
            j = int(rng.integers(0, nom_ex2.q_cols))
            B_emb = np.zeros((phi.n_states, nom_ex2.q_cols))
            B_emb[:, j] = phi.B[:, 0]
            C_emb = np.zeros((nom_ex2.q_rows, phi.n_states))
            C_emb[i, :] = phi.C[0, :]
            direction = StateSpace(phi.A, B_emb, C_emb, np.zeros((nom_ex2.q_rows, nom_ex2.q_cols)))
            d_stat = mask_block(
                rng.normal(size=(nom_ex2.q_rows, nom_ex2.q_cols)),
                nom_ex2.mask_rows,
                nom_ex2.mask_cols,
            )
            plus = YoulaIterate(
                parallel(it.Q_dyn, scaled(direction, c), 1), it.Q_stat + c * d_stat
            )
            minus = YoulaIterate(
                parallel(it.Q_dyn, scaled(direction, -c), 1), it.Q_stat - c * d_stat
            )
            fd = (lifted_cost(nom_ex2, plus) - lifted_cost(nom_ex2, minus)) / (2 * c)
            analytic = 2.0 * inner_u((S, rmask), (direction, d_stat))
            assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-9)
            checked += 1
        assert checked == 10

    def test_zero_at_lifted_optimum(self, nom_stationary, plant1):
        it_star = iterate_from_controller(nom_stationary, lqg_optimal(plant1))
        S, rmask = frechet_gradient(nom_stationary, it_star)
        assert norm_u((S, rmask)) <= 1e-6

    def test_mask_invariance(self, nom_ex2, rng):
        it = random_iterate(rng, nom_ex2)
        _, rmask = frechet_gradient(nom_ex2, it)
        assert not np.any(rmask[: nom_ex2.mask_rows, : nom_ex2.mask_cols])


class TestLiftedCost:
    def test_zero_iterate_matches_base_cost(self, nom_ex2):
        assert lifted_cost(nom_ex2, YoulaIterate.zero(nom_ex2)) == pytest.approx(
            nom_ex2.base_cost, rel=1e-10
        )

    def test_optimal_controller_iterate_matches_optimal_cost(
        self, nom_stationary, plant1, ctrl_opt
    ):
        jstar = lqg_cost(close_loop(plant1, ctrl_opt))
        it_star = iterate_from_controller(nom_stationary, ctrl_opt)
        assert lifted_cost(nom_stationary, it_star) == pytest.approx(jstar, rel=1e-9)

    def test_convexity_probe(self, nom_ex2, rng):
        for _ in range(3):
            it1 = random_iterate(rng, nom_ex2, scale=0.4)
            it2 = random_iterate(rng, nom_ex2, scale=0.4)
            j1 = lifted_cost(nom_ex2, it1)
            j2 = lifted_cost(nom_ex2, it2)
            for lam in (0.25, 0.5, 0.75):
                blend = YoulaIterate(
                    parallel(scaled(it1.Q_dyn, lam), scaled(it2.Q_dyn, 1 - lam), 1),
                    lam * it1.Q_stat + (1 - lam) * it2.Q_stat,
                )
                j_blend = lifted_cost(nom_ex2, blend)
                assert j_blend <= lam * j1 + (1 - lam) * j2 + 1e-8

    def test_mask_violation_raises(self, nom_ex2):
        bad_stat = np.zeros((nom_ex2.q_rows, nom_ex2.q_cols))
        bad_stat[0, 0] = 0.5
        with pytest.raises(ValueError, match="mask"):
            lifted_cost(nom_ex2, YoulaIterate(zero_system(3, 3), bad_stat))

    @pytest.mark.parametrize("scale", [0.5, 1e3])
    def test_valid_iterate_gives_exactly_zero_feedthrough(self, nom_ex2, nom_random8, rng,
                                                          scale):
        # D12 Q_stat D21 reaches Q_stat only through its mask block, which
        # validate requires to be exactly zero: no tolerance is needed
        for nom in (nom_ex2, nom_random8):
            for _ in range(3):
                it = random_iterate(rng, nom, scale=scale)
                it.validate(nom)
                assert not np.any(_performance_map(nom, it).D)


class TestDescentRun:
    def test_strict_descent_from_stationary_point(self, nom_stationary, plant1, ctrl_opt):
        jstar = lqg_cost(close_loop(plant1, ctrl_opt))
        records, final_it = run_lifted_gradient_descent(nom_stationary, eta=0.1, iters=14)
        costs = [r.cost for r in records]
        assert len(costs) == 15
        assert all(costs[k + 1] < costs[k] for k in range(14))
        rel = [(c - jstar) / jstar for c in costs]
        assert rel[-1] < rel[0]
        final_it.validate(nom_stationary)

    def test_near_and_exact_starts_agree(self, plant1, ctrl_near_stationary, nom_stationary, ctrl_opt):
        jstar = lqg_cost(close_loop(plant1, ctrl_opt))
        nom_near = build_nominal(plant1, ctrl_near_stationary)
        rec_near, _ = run_lifted_gradient_descent(nom_near, eta=0.1, iters=14)
        rec_exact, _ = run_lifted_gradient_descent(nom_stationary, eta=0.1, iters=14)
        for a, b in zip(rec_near, rec_exact):
            ea = (a.cost - jstar) / jstar
            eb = (b.cost - jstar) / jstar
            assert abs(ea - eb) / abs(eb) < 0.05

    def test_fixed_point_at_optimum(self, nom_opt):
        records, _ = run_lifted_gradient_descent(nom_opt, eta=0.1, iters=5)
        costs = [r.cost for r in records]
        assert max(costs) - min(costs) <= 1e-8

    def test_membership_preserved_each_iteration(self, nom_stationary):
        # validate() runs inside the loop; re-check the final iterate here
        records, final_it = run_lifted_gradient_descent(nom_stationary, eta=0.1, iters=6)
        assert final_it.Q_dyn.is_strictly_proper()
        assert final_it.Q_dyn.is_stable()
        assert not np.any(final_it.Q_stat[:1, :1])
        assert all(isinstance(r, IterateRecord) for r in records)

    def test_default_step_from_smoothness(self, nom_stationary):
        records, _ = run_lifted_gradient_descent(nom_stationary, eta=None, iters=2)
        assert records[-1].cost <= records[0].cost

    @pytest.mark.parametrize("eta", [None, 0.1])
    def test_smoothness_estimated_once(self, nom_stationary, monkeypatch, eta):
        import lqgpo.youla as youla

        calls = []

        def counting(nom):
            calls.append(1)
            return estimate_smoothness(nom)

        monkeypatch.setattr(youla, "estimate_smoothness", counting)
        run_lifted_gradient_descent(nom_stationary, eta=eta, iters=1)
        assert len(calls) == 1

    def test_truncations_per_descent(self, plant1, ctrl_stationary, monkeypatch):
        import lqgpo.youla as youla

        reduced = []

        def counting(truncate):
            def counted(g, *args, **kwargs):
                reduced.append(g.n_states)
                return truncate(g, *args, **kwargs)
            return counted

        monkeypatch.setattr(youla, "minreal", counting(minreal))
        monkeypatch.setattr(youla, "minreal_h2", counting(minreal_h2))
        nom = build_nominal(plant1, ctrl_stationary)
        assert reduced == []
        iters = 5
        # per iteration: S_k's truncation (minreal_h2), and Q_dyn's (minreal)
        # except after the last gradient; nothing per nominal, on a fresh
        # nominal as on a warm one
        first, _ = run_lifted_gradient_descent(nom, eta=0.1, iters=iters)
        assert len(reduced) == 2 * iters + 1
        reduced.clear()
        again, _ = run_lifted_gradient_descent(nom, eta=0.1, iters=iters)
        assert len(reduced) == 2 * iters + 1
        assert [r.cost for r in again] == [r.cost for r in first]
        assert [r.q_dyn_order for r in again] == [r.q_dyn_order for r in first]


    @pytest.mark.parametrize("which", ["ex2", "stationary", "random8"])
    def test_gradient_norm_matches_a_solved_h2_norm(self, which, request):
        # ||S_k||_H2^2 as the truncation reads it off (its Hankel values on
        # the balanced realization) against a solved observability Gramian
        import lqgpo.youla as youla

        nom = request.getfixturevalue(f"nom_{which}")
        records, _ = run_lifted_gradient_descent(nom, iters=3)
        for k, rec in enumerate(records):
            it = run_lifted_gradient_descent(nom, iters=k)[1]
            S, rmask = frechet_gradient(nom, it)
            assert youla._cost_and_sensitivity(nom, it)[2] == pytest.approx(h2_norm_sq(S),
                                                                            rel=1e-9)
            assert rec.grad_norm_u == pytest.approx(norm_u((S, rmask)), rel=1e-9)

    def test_observability_gramians_per_descent(self, nom_stationary, monkeypatch):
        import lqgpo.ss as ss_module
        import lqgpo.youla as youla

        solved = []

        def counting(g):
            solved.append(g.n_states)
            return gramian_obsv(g)

        monkeypatch.setattr(ss_module, "gramian_obsv", counting)
        monkeypatch.setattr(youla, "gramian_obsv", counting)
        iters = 5
        run_lifted_gradient_descent(nom_stationary, eta=0.1, iters=iters)
        # per iterate, the cost map's and S_k's truncation's; per update,
        # Q_dyn's truncation's.  The gradient norm reads ||S_k||_H2^2 off
        # S_k's truncation: solving for it took iters + 1 more.
        assert len(solved) == 2 * (iters + 1) + iters

    def test_no_eigendecomposition_in_a_descent(self, nom_random8, monkeypatch,
                                                factorizations):
        calls = []

        def counting(*args, _orig=np.linalg.eigh, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        factorizations.clear()
        iters = 3
        run_lifted_gradient_descent(nom_random8, iters=iters)
        assert calls == []
        # each of the 2 iters + 1 truncations factors its two Gramians
        assert factorizations["pstrf"] == 2 * (2 * iters + 1)


class TestSchurCoordinates:
    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("which", ["ex2", "stationary", "random8"])
    def test_matches_dense_reference(self, which, steps, request):
        nom = request.getfixturevalue(f"nom_{which}")
        it = run_lifted_gradient_descent(nom, iters=steps)[1]
        S, S_ref = sensitivity(nom, it), sensitivity_dense(nom, it)
        assert h2_distance(S, S_ref) <= 1e-8 * np.sqrt(h2_norm_sq(S_ref))
        assert lifted_cost(nom, it) == pytest.approx(lifted_cost_dense(nom, it), rel=1e-10)

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("which", ["ex2", "stationary", "random8"])
    def test_matches_projection_reference(self, which, steps, request):
        # the stable part of M12~ T M21~ taken from the whole product's sorted
        # Schur form, not from the cost map's Gramian
        nom = request.getfixturevalue(f"nom_{which}")
        it = run_lifted_gradient_descent(nom, iters=steps)[1]
        S, S_ref = sensitivity(nom, it), sensitivity_projection_dense(nom, it)
        assert h2_distance(S, S_ref) <= 1e-8 * np.sqrt(h2_norm_sq(S_ref))

    @pytest.mark.parametrize("which", ["ex2", "stationary", "random8"])
    def test_zero_iterate_gives_g0(self, which, request):
        # the certificate transfer function G0 = stable part of M12~ M11 M21~,
        # truncated as S is
        nom = request.getfixturevalue(f"nom_{which}")
        S, G0 = sensitivity(nom, YoulaIterate.zero(nom)), certificate_system(nom)
        assert h2_distance(S, minreal(G0, TRUNC_TOL)) <= 1e-12 * np.sqrt(h2_norm_sq(G0))

    def test_descent_splits_nothing(self, nom_random8, monkeypatch):
        # on a warm nominal no system is split into stable and anti-stable
        # parts, and no matrix as large as the 2(n+q) states of a product
        # with a para-conjugate nominal block is factored; the smoothness
        # bound, whose Hamiltonians have that size, is taken as given
        import lqgpo.ss as ss
        import lqgpo.youla as youla

        L = estimate_smoothness(nom_random8)
        run_lifted_gradient_descent(nom_random8, iters=1)
        splits, sizes = [], []

        def split(g, _orig=ss.stable_antistable_split):
            splits.append(g.n_states)
            return _orig(g)

        monkeypatch.setattr(ss, "stable_antistable_split", split)
        record_schur_forms(monkeypatch, lambda A: sizes.append(A.shape[0]))
        monkeypatch.setattr(youla, "estimate_smoothness", lambda nom: L)
        run_lifted_gradient_descent(nom_random8, iters=5)
        assert splits == []
        assert sizes
        assert max(sizes) < 2 * nom_random8.M12.n_states

    def test_nominal_blocks_are_their_own_forms(self, nom_random8, factorizations):
        # each block, and the certificate transfer function on the same form,
        # is realized on the closed loop's quasi-triangular T, so its form is
        # its own; each has the transfer matrix of its realization on Acl
        plant, ctrl0 = nom_random8.plant, nom_random8.ctrl0
        nom = build_nominal(plant, ctrl0)
        factorizations.clear()
        blocks = (nom.M11, nom.M12, nom.M21, nom.M22, certificate_system(nom))
        assert all(g.form.own for g in blocks)
        assert factorizations == {}
        cl = nom.cl
        B_pert, C_pert = perturbation_channels(plant, cl.q)
        cm = build_certificate_matrices(cl)
        on_acl = [(cl.Bcl, cl.Ccl), (B_pert, cl.Ccl), (cl.Bcl, C_pert), (B_pert, C_pert),
                  (cm.Bterm, cm.Cterm)]
        for g, (B, C) in zip(blocks, on_acl):
            ref = StateSpace(cl.Acl, B, C, g.D)
            for w in (0.1, 1.0, 10.0):
                want = freq_response(ref, w)
                assert np.abs(freq_response(g, w) - want).max() <= 1e-12 * np.abs(want).max()

    def test_closed_loop_factored_once_per_descent(self, nom_random8, monkeypatch):
        # close_loop's form of Acl serves the base cost, the smoothness bound
        # and every Schur-coordinate block of the nominal
        Acl = nom_random8.cl.Acl
        on_acl = []
        record_schur_forms(
            monkeypatch, lambda A: on_acl.append(A.shape == Acl.shape and np.array_equal(A, Acl)))
        nom = build_nominal(nom_random8.plant, nom_random8.ctrl0)
        run_lifted_gradient_descent(nom, iters=2)
        assert sum(on_acl) == 1

    def test_factors_no_more_than_the_iterate(self, nom_random8, monkeypatch):
        # on a warm nominal, gradient and cost factor nothing larger than
        # Q_dyn or the returned S: every product is its own Schur form
        it = run_lifted_gradient_descent(nom_random8, iters=3)[1]
        q = it.Q_dyn
        fresh = YoulaIterate(StateSpace(q.A, q.B, q.C, q.D), it.Q_stat)
        sizes = []
        record_schur_forms(monkeypatch, lambda A: sizes.append(A.shape[0]))
        S, _ = frechet_gradient(nom_random8, fresh)
        lifted_cost(nom_random8, fresh)
        assert sizes
        assert max(sizes) <= max(q.n_states, S.n_states)


class TestOnePassCostMap:
    # (nominal fixture, step size) of the benchmark's descents
    CASES = {"stationary": 0.1, "perfbench8": None}

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("which", CASES)
    def test_matches_the_series_reference(self, which, steps, request):
        nom = request.getfixturevalue(f"nom_{which}")
        it = run_lifted_gradient_descent(nom, eta=self.CASES[which], iters=steps)[1]
        assert (steps == 0) == (it.Q_dyn.n_states == 0)
        T, ref = _performance_map(nom, it), performance_map_series(nom, it)
        for key in StateSpace.KEYS:
            assert same_bits(getattr(T, key), getattr(ref, key)), key
        # built with its own form: the eigenvalues a sniff of A reads
        form = T.form
        assert form.own and form.A is T.A
        assert np.array_equal(form.Z, np.eye(T.n_states))
        assert same_bits(form.eigs, solvers.schur_form(np.array(T.A)).eigs)
        assert same_bits(form.eigs, ref.form.eigs)
        assert not any(arr.flags.writeable for arr in (form.T, form.Z, form.eigs))

    @pytest.mark.parametrize("steps", [0, 3])
    def test_static_probe_factors_nothing(self, nom_ex2, steps, factorizations, sniffs):
        it = run_lifted_gradient_descent(nom_ex2, eta=0.1, iters=steps)[1]
        it.validate(nom_ex2)
        U = np.zeros((nom_ex2.q_rows, nom_ex2.q_cols))
        U[1, 0] = 1.0
        probe = YoulaIterate(it.Q_dyn, it.Q_stat + U)
        factorizations.clear()
        sniffs.clear()
        lifted_cost(nom_ex2, probe)
        assert factorizations.get("schur", 0) == 0
        assert sniffs == []

    def test_iteration_factors_its_two_truncations(self, nom_random8, monkeypatch,
                                                   factorizations, sniffs):
        # one iteration factors S's truncation and Q_dyn's; neither T nor S
        # is sniffed, and S is built on T's A and form
        L = estimate_smoothness(nom_random8)
        monkeypatch.setattr(youla, "estimate_smoothness", lambda nom: L)
        run_lifted_gradient_descent(nom_random8, iters=1)
        maps, pairs = [], []

        def recorded_map(nom, it, _orig=youla._performance_map):
            maps.append(_orig(nom, it))
            return maps[-1]

        def recorded_truncation(g, tol, _orig=youla.minreal_h2):
            pairs.append((maps[-1], g))
            return _orig(g, tol)

        monkeypatch.setattr(youla, "_performance_map", recorded_map)
        monkeypatch.setattr(youla, "minreal_h2", recorded_truncation)
        counts = []
        for iters in (2, 3):
            factorizations.clear()
            sniffs.clear()
            run_lifted_gradient_descent(nom_random8, iters=iters)
            counts.append(factorizations["schur"])
            # every matrix sniffed is a truncated system's, factored right after
            assert len(sniffs) == factorizations["schur"]
            assert not any(A.shape == T.A.shape and np.array_equal(A, T.A)
                           for A in sniffs for T in maps)
        assert counts[1] - counts[0] == 2
        assert pairs and all(S.A is T.A and S.form is T.form for T, S in pairs)


class TestReconstruction:
    def test_zero_iterate_gives_zero_delta(self, nom_ex2, ctrl_ex2):
        # the exact, unreduced DeltaK keeps M22's states, but its transfer
        # function is zero, and assembling it gives back the base controller
        delta = reconstruct_controller_delta(nom_ex2, YoulaIterate.zero(nom_ex2))
        assert not np.any(delta.D)
        assert not np.any(delta.B) or not np.any(delta.C)
        assert not np.any(freq_response(delta, np.array([0.0, 0.3, 1.0, 10.0])))
        assert assemble_controller(ctrl_ex2, delta) is ctrl_ex2

    def test_round_trip_through_known_controller(self, nom_stationary, plant1, rng):
        target = random_stabilizing_controller(rng, plant1)
        it = iterate_from_controller(nom_stationary, target)
        delta = reconstruct_controller_delta(nom_stationary, it)
        expected = target.as_packed() - nom_stationary.ctrl0.as_packed()
        # static-plus-dynamic delta reproduces the packed difference map
        for w in (0.1, 0.9, 4.0):
            got = freq_response(delta, w)
            want = expected.astype(complex)
            assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max())

    def test_final_iterate_cost_consistency(self, nom_stationary, plant1):
        records, final_it = run_lifted_gradient_descent(nom_stationary, eta=0.1, iters=14)
        delta = reconstruct_controller_delta(nom_stationary, final_it)
        ctrl_new = assemble_controller(nom_stationary.ctrl0, delta)
        j_new = lqg_cost(close_loop(plant1, ctrl_new))
        assert j_new == pytest.approx(records[-1].cost, rel=1e-6)


@pytest.fixture(scope="module")
def long_descents(plant1, ctrl_ex2, ctrl_stationary):
    """Descents at the certified default step, long enough that a truncation
    of the reassembled controller can lose its stability: (start, iters) ->
    (nominal, records, final iterate)."""
    starts = {"ex2": ctrl_ex2, "stationary": ctrl_stationary}
    out = {}
    for start, iters in (("ex2", 200), ("ex2", 400), ("stationary", 400)):
        nom = build_nominal(plant1, starts[start])
        out[start, iters] = (nom, *run_lifted_gradient_descent(nom, iters=iters))
    return out


def _reassembled(descent):
    nom, _, final_it = descent
    return assemble_controller(nom.ctrl0, reconstruct_controller_delta(nom, final_it))


class TestLongDescent:
    @pytest.mark.parametrize("iters", [200, 400])
    def test_reassembled_controller_stabilizes_at_the_lifted_cost(self, plant1, long_descents,
                                                                  iters):
        descent = long_descents["ex2", iters]
        cost = lqg_cost(close_loop(plant1, _reassembled(descent)))  # raises if unstable
        assert cost == pytest.approx(descent[1][-1].cost, rel=1e-8)

    @pytest.mark.parametrize("start", ["ex2", "stationary"])
    def test_reassembled_controller_certifies_globally_optimal(self, plant1, long_descents,
                                                               start):
        ctrl = _reassembled(long_descents[start, 400])
        assert certify(plant1, ctrl).verdict is Verdict.GLOBALLY_OPTIMAL

    def test_minreal_keeps_the_unreduced_controller_stable(self, long_descents, monkeypatch):
        # the stable 14-state controller that the 400-iteration reassembly
        # reduces; its unguarded balanced truncation kept 7 states, two of
        # them in the right half-plane
        import lqgpo.youla as youla

        monkeypatch.setattr(youla, "minreal", lambda g, *args, **kwargs: g)
        full = _reassembled(long_descents["ex2", 400])
        monkeypatch.undo()
        g = StateSpace(full.A_K, full.B_K, full.C_K, np.zeros((1, 1)))
        assert g.n_states == 14
        assert g.is_stable()
        assert minreal(g).is_stable()


class TestAssemble:
    def test_zero_delta_identity(self, ctrl_stationary):
        delta = zero_system(3, 3)
        assert assemble_controller(ctrl_stationary, delta) is ctrl_stationary

    def test_static_delta_matches_target_loop(self, plant1, rng):
        base = lqg_optimal(plant1)
        target = random_stabilizing_controller(rng, plant1)
        delta_mat = target.as_packed() - base.as_packed()
        delta = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)), delta_mat
        )
        rebuilt = assemble_controller(base, delta)
        cl_target = close_loop(plant1, target)
        cl_rebuilt = close_loop(plant1, rebuilt)
        tgt = StateSpace(cl_target.Acl, cl_target.Bcl, cl_target.Ccl, np.zeros((3, 3)))
        reb = StateSpace(cl_rebuilt.Acl, cl_rebuilt.Bcl, cl_rebuilt.Ccl, np.zeros((3, 3)))
        for w in (0.2, 1.3, 6.0):
            a = freq_response(tgt, w)
            b = freq_response(reb, w)
            assert np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(a).max())

    @pytest.mark.parametrize("m1, m2, q", [(1, 1, 2), (2, 1, 3), (1, 2, 1), (2, 3, 4)])
    def test_unreduced_controller_matches_block_assembly(self, monkeypatch, m1, m2, q):
        import lqgpo.youla as youla

        reduced = []
        monkeypatch.setattr(youla, "minreal", lambda g, *args, **kwargs: reduced.append(g) or g)
        rng = np.random.default_rng(MASTER_SEED + 10 * m1 + m2)
        for nd in (0, 1, 3):
            ctrl0 = DynController(rng.normal(size=(q, q)), rng.normal(size=(q, m2)),
                                  rng.normal(size=(m1, q)))
            D = rng.normal(size=(m1 + q, m2 + q))
            D[:m1, :m2] *= 1e-12  # within the mask check's tolerance
            delta = StateSpace(rng.normal(size=(nd, nd)), rng.normal(size=(nd, m2 + q)),
                               rng.normal(size=(m1 + q, nd)), D)
            assemble_controller(ctrl0, delta)
            got, want = reduced.pop(), assembled_controller_blocks(ctrl0, delta)
            assert all(same_bits(getattr(got, k), getattr(want, k)) for k in "ABCD")

    def test_mask_violating_delta_rejected(self, ctrl_stationary):
        bad = np.zeros((3, 3))
        bad[0, 0] = 1.0
        delta = StateSpace(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)), bad)
        with pytest.raises(ValueError, match="mask"):
            assemble_controller(ctrl_stationary, delta)


class TestSmoothness:
    def test_descent_lemma_with_reestimation(self, nom_ex2, rng):
        L = estimate_smoothness(nom_ex2)
        tight = None
        for _ in range(4):
            it1 = random_iterate(rng, nom_ex2, scale=0.3)
            it2 = random_iterate(rng, nom_ex2, scale=0.3)
            j1 = lifted_cost(nom_ex2, it1)
            j2 = lifted_cost(nom_ex2, it2)
            S1, r1 = frechet_gradient(nom_ex2, it1)
            d_dyn = parallel(it2.Q_dyn, it1.Q_dyn, -1)
            d_stat = it2.Q_stat - it1.Q_stat
            lin = 2.0 * inner_u((S1, r1), (d_dyn, d_stat))
            sq = norm_u((d_dyn, d_stat)) ** 2
            bound = j1 + lin + 0.5 * L * sq
            if j2 > bound + 1e-9:
                # the cheap estimate proved too small: re-estimate, never fail silently
                tight = tight or estimate_smoothness_tight(nom_ex2)
                bound = j1 + lin + 0.5 * tight * sq
            assert j2 <= bound + 1e-9
            # convexity lower bound comes along for free
            assert j2 >= j1 + lin - 1e-9

    def test_tight_estimate_dominates(self, nom_ex2):
        assert estimate_smoothness_tight(nom_ex2) >= estimate_smoothness(nom_ex2)

    @pytest.mark.parametrize("name, tol", [("example2", 1e-12), ("random4", 1e-8)])
    def test_static_gram_matches_difference_reference(self, nom_ex2, name, tol):
        # the reference reads the residue of the truncated S, hence the
        # looser bound off the benchmark (measured 1.5e-14 and 1.2e-10)
        if name == "example2":
            nom = nom_ex2
        else:
            plant, ctrl = load_perfbench("workloads").random_lqg_instance(
                np.random.default_rng(105), 4)
            nom = build_nominal(plant, ctrl)
        G, ref = static_quadratic_form(nom), static_gram_differences(nom)
        d = nom.q_rows * nom.q_cols - nom.mask_rows * nom.mask_cols
        assert G.shape == ref.shape == (d, d)
        assert np.abs(G - ref).max() <= tol * np.abs(ref).max()

    def test_example2_gram_over_the_free_entries(self, nom_ex2):
        # 8 free entries of the 3 x 3 parameter; the masked one is left out
        G = static_quadratic_form(nom_ex2)
        assert G.shape == (8, 8)
        assert np.linalg.eigvalsh(G).max() == pytest.approx(3.47014, rel=1e-5)

    def test_stationary_saddle_is_flat_along_static_directions(self, nom_stationary):
        G = static_quadratic_form(nom_stationary)
        assert G.shape == (8, 8) and not np.any(G)

    def test_order_zero_controller_has_no_free_static_entry(self, plant1):
        ctrl = DynController(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))
        nom = build_nominal(plant1, ctrl)
        assert static_quadratic_form(nom).shape == (0, 0)
        assert estimate_smoothness_tight(nom) == estimate_smoothness(nom)

    def test_one_solve_per_pair_and_no_factorization(self, nom_ex2, factorizations,
                                                     monkeypatch):
        # each direction's state matrix is its own Schur form, and nothing is
        # truncated: one Sylvester solve per pair of directions
        calls = {"minreal": 0, "solve": 0}

        def counting(name, orig):
            def counted(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            return counted

        monkeypatch.setattr(youla, "minreal", counting("minreal", youla.minreal))
        monkeypatch.setattr(solvers, "solve", counting("solve", solvers.solve))
        static_quadratic_form(nom_ex2)
        assert calls == {"minreal": 0, "solve": 8 * 9 // 2}
        assert factorizations.get("schur", 0) == 0


class TestSublinearEnvelope:
    def test_error_bounded_by_recursion(self, nom_stationary, plant1, ctrl_opt):
        # a posteriori envelope from the run's own initial radius and the
        # smoothness estimate
        jstar = lqg_cost(close_loop(plant1, ctrl_opt))
        it_star = iterate_from_controller(nom_stationary, ctrl_opt)
        r0 = norm_u((it_star.Q_dyn, it_star.Q_stat))
        L = estimate_smoothness(nom_stationary)
        eta = 0.09  # keep eta < 2/L so the guarantee applies
        assert eta < 2.0 / L
        records, _ = run_lifted_gradient_descent(nom_stationary, eta=eta, iters=14)
        gaps = [r.cost - jstar for r in records]
        envelope = gaps[0]
        c = eta * (1 - 0.5 * L * eta) / r0**2
        for gap in gaps[1:]:
            envelope = envelope - c * envelope**2
            assert gap <= envelope + 1e-12


class TestRandomPlantRoundTrip:
    def test_descent_improves_random_instances(self, rng):
        for _ in range(3):
            plant = random_plant(rng, n=2, m1=1, m2=1)
            ctrl0 = random_stabilizing_controller(rng, plant)
            nom = build_nominal(plant, ctrl0)
            jstar = lqg_cost(close_loop(plant, lqg_optimal(plant)))
            records, final_it = run_lifted_gradient_descent(nom, eta=None, iters=10)
            costs = [r.cost for r in records]
            assert costs[-1] <= costs[0] + 1e-10
            # reconstruction stays consistent off the benchmark too
            delta = reconstruct_controller_delta(nom, final_it)
            ctrl_new = assemble_controller(ctrl0, delta)
            j_new = lqg_cost(close_loop(plant, ctrl_new))
            assert j_new == pytest.approx(costs[-1], rel=1e-6)
            assert costs[-1] >= jstar - 1e-9

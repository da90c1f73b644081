"""Matrix-equation solvers: certified residuals, failure modes, and the one
solver layer every caller goes through."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import duplicated, load_perfbench, random_spd, same_bits, stiff_plant
from lqgpo import solvers
from lqgpo.errors import DimensionError, SolverError
from lqgpo.lqg import LqrProblem, close_loop, lqr_optimal, lqr_terms, performance_realization
from lqgpo.solvers import care, lyap_ct, psd_factor, psd_sqrt, sylvester
from lqgpo.ss import (
    StateSpace,
    gramian_ctrb,
    gramian_obsv,
    h2_inner,
    h2_norm_sq,
    minreal,
    stable_antistable_split,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "lqgpo"


class TestLyap:
    def test_scalar(self):
        rep = lyap_ct(np.array([[-1.0]]), np.array([[2.0]]))
        assert rep.solution[0, 0] == pytest.approx(1.0)

    def test_identity(self):
        rep = lyap_ct(-np.eye(2), np.eye(2))
        assert np.allclose(rep.solution, 0.5 * np.eye(2))

    def test_residual_certified(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n)) - (n + 1) * np.eye(n)
            Q = random_spd(rng, n)
            rep = lyap_ct(A, Q)
            res = np.linalg.norm(A.T @ rep.solution + rep.solution @ A + Q, "fro")
            assert res <= 1e-10 * (
                np.linalg.norm(A, "fro") * np.linalg.norm(rep.solution, "fro")
                + np.linalg.norm(Q, "fro")
            ) + 1e-13
            assert np.allclose(rep.solution, rep.solution.T, atol=1e-12)

    def test_psd_of_stable_with_psd_rhs(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.normal(size=(3, 3)) - 4 * np.eye(3)
            M = rng.normal(size=(3, 2))
            rep = lyap_ct(A, M @ M.T)
            assert np.linalg.eigvalsh(rep.solution).min() >= -1e-10

    def test_spectrum_conflict(self):
        A = np.diag([1.0, -1.0])  # A and -A share eigenvalues
        with pytest.raises(SolverError, match="non-unique"):
            lyap_ct(A, np.eye(2))

    def test_near_spectrum_conflict(self):
        with pytest.raises(SolverError, match="non-unique"):
            lyap_ct(np.diag([1.0, -1.0 + 1e-14]), np.eye(2))

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            lyap_ct(-np.eye(2), np.eye(3))

    def test_nan_rhs_is_refused(self):
        # a NaN residual must fail the certificate, not slip past `>`
        Q = np.eye(3)
        Q[1, 2] = Q[2, 1] = np.nan
        with pytest.raises(SolverError):
            lyap_ct(-np.eye(3) + np.triu(np.ones((3, 3)), 1), Q)


class TestSylvester:
    def test_scalar(self):
        X = sylvester(np.array([[-1.0]]), np.array([[-2.0]]), np.array([[3.0]]))
        assert X[0, 0] == pytest.approx(1.0)

    def test_zero_rhs(self):
        X = sylvester(-np.eye(2), -2 * np.eye(3), np.zeros((2, 3)))
        assert np.allclose(X, 0.0)

    def test_random_residual(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3)) - 4 * np.eye(3)
        B = rng.normal(size=(3, 3)) - 4 * np.eye(3)  # spectra of A, -B disjoint
        C = rng.normal(size=(3, 3))
        X = sylvester(A, B, C)
        res = np.linalg.norm(A @ X + X @ B + C, "fro")
        assert res <= 1e-9 * max(1.0, np.linalg.norm(X, "fro"))

    def test_spectrum_overlap(self):
        with pytest.raises(SolverError):
            sylvester(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))

    def test_near_spectrum_overlap(self):
        with pytest.raises(SolverError, match="non-unique"):
            sylvester(np.array([[1.0]]), np.array([[-1.0 + 1e-14]]), np.array([[1.0]]))

    def test_inf_rhs_is_refused(self):
        C = np.ones((2, 3))
        C[0, 1] = np.inf
        with pytest.raises(SolverError), np.errstate(invalid="ignore"):
            sylvester(-np.eye(2), -2 * np.eye(3), C)


class TestCare:
    def test_scalar_closed_form(self):
        rep = care(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
        assert rep.solution[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-10)

    def test_zero_state_cost(self):
        rep = care(-np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert np.allclose(rep.solution, 0.0, atol=1e-12)

    def test_closed_loop_stable_and_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, 2))
            Q = random_spd(rng, n)
            R = random_spd(rng, 2)
            rep = care(A, B, Q, R)
            P = rep.solution
            res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T) @ P + Q
            scale = max(1.0, np.linalg.norm(P))
            assert np.linalg.norm(res, "fro") <= 1e-8 * scale * 10
            Acl = A - B @ np.linalg.solve(R, B.T @ P)
            assert np.linalg.eigvals(Acl).real.max() < 0

    def test_non_stabilizable(self):
        # second state is unstable and unreachable
        A = np.diag([-1.0, 1.0])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(SolverError):
            care(A, B, np.eye(2), np.eye(1))

    def test_newton_kleinman_polishes_a_perturbed_seed(self, monkeypatch):
        # the Schur-method seed comes back 1e-6 (relative) off the stiff
        # plant's solution; the Newton-Kleinman steps bring it back
        plant = stiff_plant(8)
        args = (plant.A, plant.B, plant.Q, plant.R)
        exact = care(*args).solution
        E = np.random.default_rng(0).normal(size=exact.shape)
        E = (E + E.T) * (1e-6 * np.linalg.norm(exact) / np.linalg.norm(E + E.T))
        monkeypatch.setattr(solvers.sla, "solve_continuous_are", lambda *a: exact + E)
        polish, solve = [], solvers.solve

        def counted(*a, **kw):
            polish.append(a)
            return solve(*a, **kw)

        monkeypatch.setattr(solvers, "solve", counted)
        rep = care(*args)  # raises unless the residual is certified
        assert polish
        # below the polishing stop, 1e-10 of about 2 ||A|| ||P||
        scale = 2 * np.linalg.norm(plant.A) * np.linalg.norm(rep.solution)
        assert rep.residual_norm <= 1e-10 * scale
        assert np.linalg.norm(rep.solution - exact) <= 1e-11 * np.linalg.norm(exact)


def test_psd_sqrt():
    rng = np.random.default_rng(4)
    M = random_spd(rng, 4)
    S = psd_sqrt(M)
    assert np.allclose(S @ S, M, atol=1e-10)
    assert np.allclose(S, S.T)
    # round-off clipping: a tiny negative eigenvalue is tolerated
    W = np.diag([1.0, -1e-15])
    S2 = psd_sqrt(W)
    assert S2[1, 1] == 0.0


class TestPsdFactor:
    def test_full_rank(self):
        M = random_spd(np.random.default_rng(5), 6)
        L = psd_factor(M)
        assert L.shape == (6, 6)
        assert np.linalg.norm(L @ L.T - M, 2) <= 1e-14 * np.linalg.norm(M, 2)

    def test_rows_in_the_matrix_order(self):
        # pivoting visits 9, 4, 1; the factor's rows come back in M's order
        L = psd_factor(np.diag([1.0, 4.0, 9.0]))
        assert np.array_equal(np.abs(L), [[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [3.0, 0.0, 0.0]])

    @pytest.mark.parametrize("gramian", [gramian_ctrb, gramian_obsv])
    def test_rank_deficient_gramian(self, gramian):
        g = duplicated(StateSpace([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.5], [0.0, 0.3, -3.0]],
                                  [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                  [[1.0, 0.0, 2.0]], [[0.0, 0.0]]))
        M = gramian(g)
        L = psd_factor(M)
        assert L.shape == (6, 3)
        assert np.linalg.norm(L @ L.T - M, 2) <= 1e-14 * np.linalg.norm(M, 2)

    def test_zero_gramian(self):
        g = StateSpace(-np.eye(3), np.zeros((3, 1)), np.ones((1, 3)), [[0.0]])
        L = psd_factor(gramian_ctrb(g))
        assert L.shape == (3, 0)
        assert np.linalg.norm(L, 2) == 0.0

    def test_empty(self):
        assert psd_factor(np.zeros((0, 0))).shape == (0, 0)


@pytest.mark.parametrize("call", ["close_loop", "lqr_terms", "h2_norm_sq", "minreal"])
def test_one_schur_form_per_matrix(call, plant1, ctrl_opt, factorizations):
    # close_loop and lqr_terms take the stability check, P and Sigma from one
    # form of the loop matrix; h2_norm_sq its check and Gramian; balanced
    # truncation of a stable system both Gramians, each factored by one
    # pivoted Cholesky call.  The truncation's stability guard factors the
    # reduced matrix once, and the reduced system keeps that form: its
    # stability check, poles and H2 norm factor nothing more.
    prob = LqrProblem(plant1.A, plant1.B, plant1.Q, plant1.R)
    K, _ = lqr_optimal(prob)
    g = performance_realization(close_loop(plant1, ctrl_opt))
    run = {
        "close_loop": lambda: close_loop(plant1, ctrl_opt),
        "lqr_terms": lambda: lqr_terms(prob, K),
        "h2_norm_sq": lambda: h2_norm_sq(g),
        "minreal": lambda: minreal(g),
    }[call]
    factorizations.clear()
    out = run()
    if call != "minreal":
        assert factorizations == {"schur": 1}
        return
    assert out.n_states and out is not g
    assert factorizations == {"schur": 2, "pstrf": 2}
    assert out.is_stable()
    assert out.poles().real.max() < 0
    h2_norm_sq(out)
    assert factorizations == {"schur": 2, "pstrf": 2}


def test_quasi_triangular_is_its_own_form(factorizations):
    # standardized 2x2 block (equal diagonal, b c < 0) above two real roots
    T = np.array([[-1.0, 2.0, 0.5, 1.0],
                  [-3.0, -1.0, 0.2, 0.0],
                  [0.0, 0.0, -2.0, 4.0],
                  [0.0, 0.0, 0.0, 3.0]])
    factorizations.clear()
    form = solvers.schur_form(T)
    assert factorizations == {}
    assert np.array_equal(form.T, T)
    assert np.array_equal(form.Z, np.eye(4))
    np.testing.assert_allclose(form.eigs, [-1 + 6**0.5 * 1j, -1 - 6**0.5 * 1j, -2, 3])


def test_read_only_quasi_triangular_is_not_copied():
    T = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    writable = solvers.schur_form(T)
    assert writable.own and writable.T is not T and T.flags.writeable
    T.setflags(write=False)
    form = solvers.schur_form(T)
    assert form.own and form.A is T


def test_own_and_block_diagonal_forms(factorizations):
    # composed forms: nothing is factored, and each is a read-only real
    # Schur form of its matrix
    rng = np.random.default_rng(3)
    fa, fb = solvers.schur_form(rng.normal(size=(4, 4))), solvers.schur_form(rng.normal(size=(3, 3)))
    own = solvers.schur_form(np.triu(rng.normal(size=(3, 3))))
    factorizations.clear()
    for f, g in ((fa, fb), (fa, own), (own, own)):
        k, n = f.A.shape[0], f.A.shape[0] + g.A.shape[0]
        A = np.zeros((n, n))
        A[:k, :k], A[k:, k:] = f.A, g.A
        form = solvers.block_diagonal_form(A, f, g)
        assert form.A is A and form.own == (f.own and g.own)
        assert same_bits(form.eigs, np.concatenate([f.eigs, g.eigs]))
        assert not any(arr.flags.writeable for arr in (form.T, form.Z, form.eigs))
        np.testing.assert_allclose(form.Z @ form.T @ form.Z.T, A, atol=1e-12)
        np.testing.assert_allclose(form.Z.T @ form.Z, np.eye(n), atol=1e-14)
        assert not np.tril(form.T, -2).any()
    assert factorizations == {}
    T = np.triu(rng.normal(size=(4, 4)))
    form = solvers.own_form(T, T.diagonal())
    assert form.own and form.T is T and np.array_equal(form.Z, np.eye(4))
    assert form.eigs.dtype == complex and not T.flags.writeable


def test_spectrum_edge_cases(factorizations):
    assert solvers.spectrum(np.zeros((0, 0))).shape == (0,)
    T = np.array([[-1.0, 2.0, 0.5], [-3.0, -1.0, 0.2], [0.0, 0.0, -2.0]])
    factorizations.clear()
    assert same_bits(solvers.spectrum(T), solvers.schur_form(T).eigs)
    assert factorizations == {}  # its own form: read off its diagonal
    assert same_bits(solvers.spectrum([[-2.0]]), np.array([-2.0 + 0j]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        solvers.spectrum([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        solvers.spectrum(np.ones((2, 3)))


def test_spectrum_of_the_benchmark_hamiltonians(monkeypatch):
    # the M12 Hamiltonians of the benchmark's seed-101 random-n8/16/24
    # instances: one gees without Schur vectors gives the eigenvalues of the
    # Schur form bit for bit, so hinf_norm_est's values do not move
    from lqgpo import ss
    from lqgpo.youla import build_nominal

    workloads = load_perfbench("workloads")
    rng = np.random.default_rng(101)
    hamiltonians = []
    monkeypatch.setattr(solvers, "spectrum",
                        lambda A, _orig=solvers.spectrum: hamiltonians.append(A) or _orig(A))
    for n in (8, 16, 24):
        ss.hinf_norm_est(build_nominal(*workloads.random_lqg_instance(rng, n)).M12)
    monkeypatch.undo()
    assert {H.shape[0] for H in hamiltonians} == {32, 64, 96}
    calls = []

    def recorded(select, A, *args, _orig=solvers.dgees, **kwargs):
        calls.append((A.shape[0], kwargs.get("compute_v", 1)))
        return _orig(select, A, *args, **kwargs)

    monkeypatch.setattr(solvers, "dgees", recorded)
    for H in hamiltonians:
        assert same_bits(solvers.spectrum(H), solvers.schur_form(H).eigs)
    # one gees each, without Schur vectors for the spectrum
    assert calls == [(H.shape[0], v) for H in hamiltonians for v in (0, 1)]


@pytest.mark.parametrize("block", [[[1.0, 2.0], [-3.0, 4.0]], [[1.0, 2.0], [3.0, 1.0]]],
                         ids=["unequal_diagonal", "real_eigenvalues"])
def test_non_standard_block_is_refactored(block, factorizations):
    A = np.zeros((4, 4))
    A[:2, :2] = block
    A[2:, 2:] = [[-1.0, 1.0], [0.0, -2.0]]
    A[0, 2] = 1.0
    factorizations.clear()
    form = solvers.schur_form(A)
    assert factorizations == {"schur": 1}
    np.testing.assert_allclose(form.Z @ form.T @ form.Z.T, A, atol=1e-12)


class TestFormConstants:
    # a form computes ||A||_F and its spectral radius once, for every solve
    # on it; the values are numpy's, bit for bit

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_norm_and_radius_are_numpys(self, n):
        A = np.random.default_rng(n).normal(size=(n, n))
        form = solvers.schur_form(A)
        assert form.norm == np.linalg.norm(A, "fro")
        assert form.radius == np.abs(form.eigs).max()
        assert {"norm", "radius"} <= set(vars(form))  # cached on first use

    def test_lyapunov_gap_is_computed_once(self, plant1):
        # the Sigma_K and P_K solves on one loop form read one gap value
        prob = LqrProblem(plant1.A, plant1.B, plant1.Q, plant1.R)
        K, _ = lqr_optimal(prob)
        form = solvers.schur_form(prob.closed_loop(K))
        solvers.solve(form, form, np.eye(2), trans_b=True)
        assert form.lyapunov_gap == np.abs(form.eigs[:, None] + form.eigs[None, :]).min()
        assert "lyapunov_gap" in vars(form)
        # a Sylvester solve on two forms reads neither form's gap
        other = solvers.schur_form(-np.eye(3) + np.triu(np.ones((3, 3)), 1))
        solvers.solve(form, other, np.ones((2, 3)))
        assert "lyapunov_gap" not in vars(other)

    def test_empty_form(self):
        form = solvers.schur_form(np.zeros((0, 0)))
        assert form.norm == 0.0 and form.radius == 0.0

    def test_frobenius_norm_is_numpys(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        for x in (M, M.T, np.asfortranarray(M), M[1:, ::2], M[:1], np.zeros((2, 3))):
            assert solvers._fro(x) == np.linalg.norm(x, "fro")


def test_schur_form_refuses_non_finite_input():
    # scipy's error, type and message, on triangular and dense input
    dense = np.random.default_rng(1).normal(size=(4, 4))
    for bad in (np.nan, np.inf, -np.inf):
        for A, at in ((np.triu(np.ones((3, 3))), (0, 2)), (dense.copy(), (2, 1))):
            A[at] = bad
            with pytest.raises(ValueError) as want:
                scipy.linalg.schur(A, output="real")
            with pytest.raises(ValueError) as got:
                solvers.schur_form(A)
            assert str(got.value) == str(want.value) == "array must not contain infs or NaNs"


@pytest.mark.parametrize("n", [1, 2, 3, 32, 33, 80, 160])
def test_schur_form_is_scipys(n):
    # one gees call with scipy's workspace gives scipy's T and Z bit for bit,
    # also where the Hessenberg reduction runs blocked, and leaves A intact
    A = np.random.default_rng(n).normal(size=(n, n))
    A0 = A.copy()
    T, Z = scipy.linalg.schur(A, output="real")
    form = solvers.schur_form(A)
    assert np.array_equal(form.T, T) and np.array_equal(form.Z, Z)
    assert np.array_equal(A, A0)


def test_workspace_is_queried_once_per_order(monkeypatch):
    rng = np.random.default_rng(3)
    n = 7
    monkeypatch.setattr(solvers, "_GEES_LWORK", {})
    queries = []

    def gees(select, A, *args, _orig=solvers.dgees, **kwargs):
        queries.append(kwargs.get("lwork") == -1)
        return _orig(select, A, *args, **kwargs)

    monkeypatch.setattr(solvers, "dgees", gees)
    solvers.schur_form(rng.normal(size=(n, n)))
    assert queries == [True, False]
    A = rng.normal(size=(n, n))
    again = solvers.schur_form(A)
    assert queries == [True, False, False]  # the stored workspace serves it
    query = scipy.linalg.lapack.dgees(lambda wr, wi: None, A, lwork=-1)[-2][0]
    assert solvers._GEES_LWORK == {n: int(query)}
    T, Z = scipy.linalg.schur(A, output="real")
    assert np.array_equal(again.T, T) and np.array_equal(again.Z, Z)


def test_failed_schur_iteration_is_scipys_error(monkeypatch):
    exact = solvers.dgees
    monkeypatch.setattr(solvers, "dgees",
                        lambda *args, **kwargs: exact(*args, **kwargs)[:-1] + (1,))
    with pytest.raises(np.linalg.LinAlgError, match="Schur form not found"):
        solvers.schur_form([[1.0, 2.0], [3.0, 4.0]])


def test_trsyl_scaling_is_refused(monkeypatch):
    exact = solvers.dtrsyl
    monkeypatch.setattr(solvers, "dtrsyl",
                        lambda *args, **kwargs: (exact(*args, **kwargs)[0], 0.5, 0))
    with pytest.raises(SolverError, match="trsyl scale"):
        lyap_ct(-np.eye(2), np.eye(2))


def test_reorder_matches_sorted_schur():
    # reordering a matrix's form gives LAPACK's sorted Schur form bit for bit
    rng = np.random.default_rng(5)
    for n in (3, 8, 20, 40):
        A = rng.normal(size=(n, n))
        T, Z, k = scipy.linalg.schur(A, output="real", sort="lhp")
        form, kk = solvers.stable_first_form(solvers.schur_form(A))
        assert kk == k
        assert np.array_equal(form.T, T)
        assert np.array_equal(form.Z, Z)


def _quasi_triangular(rng, n):
    """A stable n x n matrix in standardized real Schur form with a 2 x 2 block
    across every midpoint the blocked solve's halving meets, so every cut
    has to step past a block, and one more block at the end."""
    starts = []

    def halve(lo, hi):
        if hi - lo > solvers.LEAF:
            mid = lo + (hi - lo) // 2
            starts.append(mid - 1)
            halve(lo, mid + 1)  # the cut steps past the block
            halve(mid + 1, hi)

    halve(0, n)
    if all(abs(n - 2 - i) > 1 for i in starts):
        starts.append(n - 2)
    T = np.triu(rng.normal(size=(n, n)), 1) / np.sqrt(n)
    T[np.diag_indices(n)] = -rng.uniform(0.5, 2.0, n)
    for i in starts:
        T[i + 1, i + 1] = T[i, i]
        T[i, i + 1], T[i + 1, i] = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
    return T


BLOCKED_SIZES = [solvers.LEAF - 1, solvers.LEAF, solvers.LEAF + 1, 2 * solvers.LEAF + 1, 150]
TRANS = [(False, False), (False, True), (True, False), (True, True)]


def _one_trsyl(Ta, Tb, C, trans_a, trans_b):
    Y, scale, _ = scipy.linalg.lapack.dtrsyl(Ta, Tb, -C, trana="T" if trans_a else "N",
                                             tranb="T" if trans_b else "N")
    return Y / scale


@pytest.mark.parametrize("trans_a,trans_b", TRANS)
@pytest.mark.parametrize("n", BLOCKED_SIZES)
def test_blocked_sylvester_matches_one_trsyl(n, trans_a, trans_b):
    # both orders of the larger side: B's side is split through the
    # transposed equation
    rng = np.random.default_rng(n)
    for m in (n // 2 + 3, 2 * n + 1):
        Ta, Tb = _quasi_triangular(rng, m), _quasi_triangular(rng, n)
        C = rng.normal(size=(m, n))
        fa, fb = solvers.schur_form(Ta), solvers.schur_form(Tb)
        assert fa.own and fb.own
        X = solvers.solve(fa, fb, C, trans_a, trans_b).solution
        ref = _one_trsyl(Ta, Tb, C, trans_a, trans_b)
        assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("trans_a", [True, False])
@pytest.mark.parametrize("n", BLOCKED_SIZES)
def test_blocked_lyapunov_matches_one_trsyl(n, trans_a):
    rng = np.random.default_rng(n)
    T = _quasi_triangular(rng, n)
    M = rng.normal(size=(n, 3))
    C = M @ M.T
    form = solvers.schur_form(T)
    X = solvers.solve(form, form, C, trans_a, not trans_a).solution
    ref = _one_trsyl(T, T, C, trans_a, not trans_a)
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(X, X.T)


@pytest.fixture()
def perturbed_trsyl(monkeypatch):
    """The layer's triangular solve, returning a solution off by 1e-6 relative."""
    exact = solvers.dtrsyl

    def perturbed(*args, **kwargs):
        Y, scale, info = exact(*args, **kwargs)
        return Y * (1.0 + 1e-6), scale, info

    monkeypatch.setattr(solvers, "dtrsyl", perturbed)


STABLE = StateSpace([[-1.0, 1.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
MIXED = StateSpace([[-1.0, 1.0], [0.0, 2.0]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
# a dense stable system above the leaf size: its solves are blocked
_BIG_RNG = np.random.default_rng(6)
_BIG_N = 2 * solvers.LEAF + 1
BIG = StateSpace(_BIG_RNG.normal(size=(_BIG_N, _BIG_N)) / np.sqrt(_BIG_N) - 2.0 * np.eye(_BIG_N),
                 _BIG_RNG.normal(size=(_BIG_N, 1)), _BIG_RNG.normal(size=(1, _BIG_N)), [[0.0]])


def test_one_schur_form_per_system(factorizations):
    # every query on a system reads the Schur form it keeps; minreal's
    # reduced system is a second system, whose one form its stability guard
    # computes and every later query reads
    g = StateSpace([[-1.0, 1.0, 0.0], [-2.0, -1.0, 0.5], [0.0, 0.3, -3.0]],
                   [[1.0], [0.0], [1.0]], [[1.0, 0.0, 2.0]], [[0.0]])
    factorizations.clear()
    assert g.is_stable()
    assert g.poles().real.max() < 0
    gramian_ctrb(g)
    gramian_obsv(g)
    h2_norm_sq(g)
    assert factorizations == {"schur": 1}
    red = minreal(g)
    assert red is not g
    assert factorizations == {"schur": 2, "pstrf": 2}
    assert red.is_stable()
    assert red.poles().real.max() < 0
    gramian_ctrb(red)
    gramian_obsv(red)
    h2_norm_sq(red)
    assert factorizations == {"schur": 2, "pstrf": 2}


@pytest.mark.parametrize("call", [
    lambda: h2_norm_sq(STABLE),
    lambda: h2_inner(STABLE, STABLE),
    lambda: gramian_ctrb(STABLE),
    lambda: stable_antistable_split(MIXED),
    lambda: h2_norm_sq(BIG),
    lambda: h2_inner(BIG, STABLE),
], ids=["h2_norm_sq", "h2_inner", "gramian_ctrb", "stable_antistable_split",
        "h2_norm_sq_blocked", "h2_inner_blocked"])
def test_residual_check_reaches_ss(call, perturbed_trsyl):
    with pytest.raises(SolverError, match="residual"):
        call()


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_solvers_names_matrix_equation_solvers():
    """A second Lyapunov/Sylvester path, a Schur factorization, or a
    factorization of a Gramian (pivoted Cholesky, eigendecomposition) must
    not creep back outside solvers."""
    offenders = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "solvers.py"
        for name in _names(ast.parse(path.read_text()))
        if name in ("solve_continuous_lyapunov", "solve_sylvester", "eigh")
        or name.endswith(("trsyl", "trsen", "gees", "schur", "pstrf"))
    ]
    assert offenders == []


def test_no_module_names_eigvals():
    """Every eigenvalue and stability decision comes from a Schur form."""
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "eigvals" in _names(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_no_module_subscripts_a_dict():
    """A system's cached form is its own: no module reaches into an object's
    __dict__ to hand one system's form to another."""
    offenders = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__dict__"
    ]
    assert offenders == []


def test_only_lqg_defines_the_packed_layout():
    """The packed controller layout and its structural zero are stated once,
    in lqg: no other module defines mask_block, free_entries or unpack, the
    modules that zero the structural block use lqg's mask_block itself, and
    those that move the free entries use lqg's free_entries."""
    from lqgpo import certificate, lqg, sysid, youla

    names = ("mask_block", "free_entries", "unpack")
    defined = {
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert defined == {("lqg.py", name) for name in names}
    assert certificate.mask_block is youla.mask_block is lqg.mask_block
    assert sysid.free_entries is youla.free_entries is lqg.free_entries


def _calls(tree, names):
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & set(names)}


def test_only_lqg_builds_the_loop_channels():
    """The loop's channels (`lqg.ClosedLoop`) are built once, by close_loop:
    no module but solvers calls perturbation_channels or psd_sqrt outside
    it; the lifted nominal and the certificate read them off the loop."""
    names = ("perturbation_channels", "psd_sqrt")
    inside, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "solvers.py":
            continue
        tree = ast.parse(path.read_text())
        if path.name == "lqg.py":
            inside = {call for func in ast.walk(tree)
                      if isinstance(func, ast.FunctionDef) and func.name == "close_loop"
                      for call in _calls(func, names)}
        outside += [(path.name, call.lineno) for call in _calls(tree, names) - inside]
    assert inside and outside == []

"""Dense Lyapunov, Sylvester and continuous-time Riccati solvers: the one
module that factors a matrix for an equation or a stability decision.  Sized
for desk-scale problems (a few hundred states at most).  A matrix is
factored once, into its real Schur form (`schur_form`), which gives its
eigenvalues, decides its stability (`SchurForm.is_stable`) and serves every
equation on it; a `StateSpace` keeps its form, and callers holding a raw
matrix factor it here.  A form is one direct LAPACK gees call, whose
workspace size is queried once per matrix order and kept; a Python wrapper
around gees would cost several times the call on the 2 x 2 and 3 x 3 loops
of an LQR descent.  A caller that needs only the eigenvalues takes them from
`spectrum`, the same gees call without Schur vectors.  A matrix already
quasi-triangular is its own form (T = A, Z = I).  A matrix that arrives
from outside is sniffed for that (`schur_form`); a matrix composed from
blocks whose forms are known gets its form composed with it and is neither
sniffed nor factored: `own_form` for a block-triangular product of blocks in
Schur coordinates, `block_diagonal_form` for a block-diagonal sum.  A
stable-first form is a reorder of a form (`stable_first_form`), not a
second factorization.  Every Lyapunov and Sylvester solve is one
Bartels-Stewart routine (`solve`) that refuses near-singular equations and
certifies its result by an independently recomputed residual.  An equation
with both sides at most LEAF states is one LAPACK trsyl call; a larger one is
solved by recursive blocked Bartels-Stewart (Jonsson & Kagstrom, RECSY, ACM
TOMS 2002): the larger quasi-triangular factor is cut at its middle, never
inside a 2 x 2 block, and the halves are solved in turn with a matrix-product
update of the right-hand side between them.  A Lyapunov equation solves only
its leading, coupling and trailing blocks and mirrors the coupling block.
When a form is its own (Z = I), the equation is solved on T directly, without
the products by Z.  A form computes the constants its solves read, ||A||_F
(`SchurForm.norm`), the spectral radius (`SchurForm.radius`) and the
Lyapunov spectral gap min |lambda_i + lambda_j| (`SchurForm.lyapunov_gap`),
once, on first use, and reads its eigenvalues off T's diagonal, with the
2 x 2 block arithmetic only where T has such a block.  So the Sigma_K and
P_K solves on one LQR loop share one gap, a Sylvester solve on two forms
computes its own, and a rejected LQR candidate costs one gees call and at
most one Lyapunov solve.  Riccati solutions are polished by Newton-Kleinman.
A certified Gramian, positive semidefinite and often rank deficient, is split
into a factor L L^T by one LAPACK pstrf call (`psd_factor`): Cholesky with
complete pivoting, backward stable on a semidefinite matrix and rank
revealing (Higham 1990), the factorization of square-root balanced truncation
(Tombs & Postlethwaite 1987)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgees, dpstrf, dtrsen, dtrsyl

from .errors import DimensionError, SolverError

# Stability margin: eigenvalues must satisfy Re(lambda) < -EPS_STAB.
EPS_STAB = 1e-9
# psd_sqrt zeroes eigenvalues below PSD_CLIP times the largest (at least 1).
PSD_CLIP = 1e-12
# psd_factor stops at the first pivot at or below PSD_CUT times M's largest
# diagonal entry: the round-off directions of a Gramian.
PSD_CUT = 1e-14
# Newton-Kleinman polishing steps allowed after care's Schur-method seed.
MAX_NEWTON = 50
# Largest side, in states, of an equation solved by one LAPACK trsyl call;
# `solve` splits larger ones into blocks of at most this size.
LEAF = 32
# gees's optimal workspace by matrix order, queried once per order: the query
# reads only the order.
_GEES_LWORK: dict[int, int] = {}


@dataclass(frozen=True)
class SolveReport:
    """A matrix-equation solution plus its certified residual."""

    solution: np.ndarray
    residual_norm: float


@dataclass(frozen=True, eq=False)
class SchurForm:
    """Real Schur form A = Z T Z^T; eigs are read off T's diagonal blocks."""

    A: np.ndarray
    T: np.ndarray
    Z: np.ndarray
    eigs: np.ndarray

    def is_stable(self, eps: float = EPS_STAB) -> bool:
        """Every eigenvalue has Re(lambda) < -eps (true when A is empty)."""
        return bool((self.eigs.real < -eps).all())

    @cached_property
    def norm(self) -> float:
        """||A||_F, computed once per form."""
        return _fro(self.A)

    @cached_property
    def radius(self) -> float:
        """The spectral radius max |lambda|, computed once per form (0 when A
        is empty)."""
        return np.abs(self.eigs).max(initial=0.0)

    @cached_property
    def lyapunov_gap(self) -> float:
        """min |lambda_i + lambda_j| over the eigenvalues: how far a Lyapunov
        (or Sylvester) equation on this one form is from singular, computed
        once per form."""
        return np.abs(self.eigs[:, None] + self.eigs[None, :]).min()

    @property
    def own(self) -> bool:
        """A is its own form: T is A and Z = I."""
        return self.T is self.A

    def on(self, A) -> "SchurForm":
        """This form on A, a read-only matrix equal to self.A: T is A when the
        form is its own."""
        return SchurForm(A, A if self.own else self.T, self.Z, self.eigs)


def _square(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got {M.shape}")
    return M


def _fro(x) -> float:
    """||x||_F by the arithmetic of numpy.linalg.norm(x, "fro"), without its
    argument handling."""
    x = x.ravel("K")
    return np.sqrt(x.dot(x))


def _eigs(T):
    """The eigenvalues of quasi-triangular T, read off its diagonal blocks."""
    eigs = T.diagonal().astype(complex)
    sub = T.diagonal(-1)
    if sub.any():  # T has 2x2 blocks: read their complex pairs
        k = np.flatnonzero(sub)  # leading rows of the 2x2 blocks
        a, b, c, d = T[k, k], T[k, k + 1], T[k + 1, k], T[k + 1, k + 1]
        re = 0.5 * (a + d)
        im = np.sqrt(np.maximum(-b * c - 0.25 * (a - d) ** 2, 0.0))
        eigs[k], eigs[k + 1] = re + 1j * im, re - 1j * im
    return eigs


def _form(A, T, Z, eigs):
    for arr in (T, Z, eigs):
        arr.setflags(write=False)
    return SchurForm(A, T, Z, eigs)


def _is_quasi_triangular(A) -> bool:
    """A has three or more rows and is in LAPACK's standardized real Schur
    form: zero below the first subdiagonal, no two adjacent nonzero
    subdiagonal entries, and every 2 x 2 diagonal block [[a, b], [c, a]]
    with b c < 0."""
    if A.shape[0] < 3 or A[-1, 0]:
        return False  # small or dense input is rejected in O(1)
    sub = np.diagonal(A, -1)
    k = np.flatnonzero(sub)
    return bool(np.isfinite(A).all() and not np.tril(A, -2).any()
                and np.all(np.diff(k) > 1) and np.all(A[k, k] == A[k + 1, k + 1])
                and np.all(A[k, k + 1] * sub[k] < 0))


def _no_sort(wr, wi):
    """gees's eigenvalue selector; never called, as no ordering is asked."""


def _gees(A, compute_v):
    """T, and Z when compute_v, of square A with n >= 1: one LAPACK gees call
    with the workspace that scipy's schur queries, so T and Z are scipy's
    bits.  Without Z, T has the same bits: the QR sweeps that update Z never
    feed back into T."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    n = A.shape[0]
    lwork = _GEES_LWORK.get(n)
    if lwork is None:
        lwork = _GEES_LWORK[n] = int(dgees(_no_sort, A, lwork=-1)[-2][0])
    T, _, _, _, Z, _, info = dgees(_no_sort, A, compute_v=compute_v, lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Z


def schur_form(A) -> SchurForm:
    """The real Schur form of a square matrix: one LAPACK gees call (`_gees`).
    A non-finite A raises ValueError and a failed QR iteration LinAlgError,
    with scipy's messages.  A matrix of three or more rows already in
    standardized real Schur form is its own form (T = A, Z = I), copied
    first unless it is read-only: a matrix from outside is sniffed for that
    (`_is_quasi_triangular`), as a composite whose form is not known is."""
    A = _square(A, "A")
    n = A.shape[0]
    if n == 0:
        return SchurForm(A, A, A, np.zeros(0, complex))
    if _is_quasi_triangular(A):
        T = A.copy() if A.flags.writeable else A
        return own_form(T, _eigs(T))
    T, Z = _gees(A, 1)
    return _form(A, T, Z, _eigs(T))


def spectrum(A) -> np.ndarray:
    """The eigenvalues of a square matrix, bit for bit `schur_form(A).eigs`,
    from the same gees call without Schur vectors: for a caller, such as
    the H-infinity axis test, that needs nothing else."""
    A = _square(A, "A")
    if A.shape[0] == 0:
        return np.zeros(0, complex)
    return _eigs(A if _is_quasi_triangular(A) else _gees(A, 0)[0])


def own_form(T, eigs) -> SchurForm:
    """The form of T, already in standardized real Schur form, whose
    eigenvalues `eigs` are known as `_eigs` reads them off T's diagonal: T
    is its own form (Z = I).  Nothing is checked or factored; the caller
    composed T from blocks whose forms it holds."""
    return _form(T, T, np.eye(T.shape[0]), np.asarray(eigs, dtype=complex))


def block_diagonal_form(A, fa: SchurForm, fb: SchurForm) -> SchurForm:
    """The form of A = diag(fa.A, fb.A), composed from its blocks' forms: its
    own when both are, else T = diag(Ta, Tb) and Z = diag(Za, Zb).  The
    eigenvalues are fa's then fb's."""
    eigs = np.concatenate([fa.eigs, fb.eigs])
    if fa.own and fb.own:
        return own_form(A, eigs)
    k, n = fa.T.shape[0], A.shape[0]
    T, Z = np.zeros((n, n)), np.zeros((n, n))
    T[:k, :k], T[k:, k:] = fa.T, fb.T
    Z[:k, :k], Z[k:, k:] = fa.Z, fb.Z
    return _form(A, T, Z, eigs)


def stable_first_form(form: SchurForm) -> tuple[SchurForm, int]:
    """The form reordered (LAPACK trsen) so that its k eigenvalues of Re < 0
    lead, and k.  Reordering a form costs a fraction of computing one."""
    T, Z, _, _, k, _, _, info = dtrsen(form.eigs.real < 0, form.T, form.Z, job="N")
    if info:
        raise SolverError("Schur form could not be reordered: eigenvalues too close")
    return _form(form.A, T, Z, _eigs(T)), int(k)


def decoupling(form: SchurForm, k: int) -> np.ndarray:
    """X with T11 X - X T22 + T12 = 0 for T split after row k: the similarity
    [[I, X], [0, I]] block-diagonalizes T."""
    lead, trail, eye = form.T[:k, :k], -form.T[k:, k:], np.eye(form.T.shape[0])
    return solve(SchurForm(lead, lead, eye[:k, :k], form.eigs[:k]),
                 SchurForm(trail, trail, eye[k:, k:], -form.eigs[k:]), form.T[:k, k:]).solution


def _trsyl(Ta, Tb, F, trans_a, trans_b):
    """Y with op(Ta) Y + Y op(Tb) = F for quasi-triangular Ta, Tb: one LAPACK
    trsyl call, refused when trsyl scales the solution down to avoid
    overflow."""
    Y, scale, _ = dtrsyl(Ta, Tb, F, trana="T" if trans_a else "N",
                         tranb="T" if trans_b else "N")
    if scale < 1.0:
        raise SolverError(f"triangular solve overflows (trsyl scale {scale:.3e})")
    return Y


def _split(T) -> int:
    """A cut near the middle of quasi-triangular T that keeps its 2 x 2 blocks
    whole."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] else k


def _sylvester(Ta, Tb, F, trans_a, trans_b):
    """Y with op(Ta) Y + Y op(Tb) = F, recursively blocked: the larger side is
    split in two and the halves are solved in turn."""
    m, n = F.shape
    if max(m, n) <= LEAF:
        return _trsyl(Ta, Tb, F, trans_a, trans_b)
    if m < n:  # the transposed equation splits B's side as A's
        return _sylvester(Tb, Ta, F.T, not trans_b, not trans_a).T
    k = _split(Ta)
    T11, T12, T22 = Ta[:k, :k], Ta[:k, k:], Ta[k:, k:]
    Y = np.empty_like(F)
    if trans_a:  # op(Ta) is block lower triangular: the leading half first
        Y[:k] = _sylvester(T11, Tb, F[:k], trans_a, trans_b)
        Y[k:] = _sylvester(T22, Tb, F[k:] - T12.T @ Y[:k], trans_a, trans_b)
    else:
        Y[k:] = _sylvester(T22, Tb, F[k:], trans_a, trans_b)
        Y[:k] = _sylvester(T11, Tb, F[:k] - T12 @ Y[k:], trans_a, trans_b)
    return Y


def _lyapunov(T, F, trans_a):
    """Y with op(T) Y + Y op(T)^T = F for symmetric F, recursively blocked:
    only the two diagonal blocks and the coupling block Y12 are solved, and
    Y21 = Y12^T."""
    n = T.shape[0]
    if n <= LEAF:
        return _trsyl(T, T, F, trans_a, not trans_a)
    k = _split(T)
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    Y = np.empty_like(F)
    if trans_a:  # T^T Y + Y T: the leading block first
        Y[:k, :k] = _lyapunov(T11, F[:k, :k], True)
        Y[:k, k:] = _sylvester(T11, T22, F[:k, k:] - Y[:k, :k] @ T12, True, False)
        W = T12.T @ Y[:k, k:]
        Y[k:, k:] = _lyapunov(T22, F[k:, k:] - W - W.T, True)
    else:  # T Y + Y T^T: the trailing block first
        Y[k:, k:] = _lyapunov(T22, F[k:, k:], False)
        Y[:k, k:] = _sylvester(T11, T22, F[:k, k:] - T12 @ Y[k:, k:], False, True)
        W = T12 @ Y[:k, k:].T
        Y[:k, :k] = _lyapunov(T11, F[:k, :k] - W - W.T, False)
    Y[k:, :k] = Y[:k, k:].T
    return Y


def solve(
    fa: SchurForm, fb: SchurForm, C, trans_a: bool = False, trans_b: bool = False
) -> SolveReport:
    """Solve op(A) X + X op(B) + C = 0 from the Schur forms of A and B, with
    op(M) = M^T where trans_* is set (Bartels-Stewart on LAPACK trsyl,
    recursively blocked above LEAF states).

    With fa and fb the same form and one side transposed, this is a Lyapunov
    equation and X comes out exactly symmetric.  Raises SolverError when
    min |lambda_i + mu_j| <= 1e-12 max(1, |lambda|max, |mu|max) over the
    eigenvalues of A and B (the solution is not unique), when trsyl has to
    scale the solution to avoid overflow, or unless the residual is at most
    the larger of 1e-10 ((||A|| + ||B||) ||X|| + ||C||) (Frobenius norms,
    ||A|| once for a Lyapunov equation) and 1e-12 (so a non-finite residual
    fails).
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    shape = (fa.A.shape[0], fb.A.shape[0])
    if C.shape != shape:
        raise DimensionError(f"right-hand side must have shape {shape}, got {C.shape}")
    if C.size == 0:
        return SolveReport(np.zeros(shape), 0.0)
    gap = fa.lyapunov_gap if fa is fb else np.abs(fa.eigs[:, None] + fb.eigs[None, :]).min()
    if gap <= 1e-12 * max(1.0, fa.radius, fb.radius):
        raise SolverError("non-unique solution: spectra of op(A) and -op(B) overlap "
                          f"(min |lambda_i + mu_j| = {gap:.3e})")
    F = C if fb.own else C @ fb.Z
    F = -(F if fa.own else fa.Z.T @ F)
    lyapunov = fa is fb and trans_a != trans_b
    Y = _lyapunov(fa.T, F, trans_a) if lyapunov else _sylvester(fa.T, fb.T, F, trans_a, trans_b)
    X = Y if fa.own else fa.Z @ Y
    X = X if fb.own else X @ fb.Z.T
    A = fa.A.T if trans_a else fa.A
    if lyapunov:
        X = 0.5 * (X + X.T)
        AX = A @ X  # X op(A)^T = (op(A) X)^T for the exactly symmetric X
        residual = _fro(AX + AX.T + C)
        norm_ab = fa.norm
    else:
        B = fb.A.T if trans_b else fb.A
        residual = _fro(A @ X + X @ B + C)
        norm_ab = fa.norm + fb.norm
    bound = 1e-10 * (norm_ab * _fro(X) + _fro(C))
    if not residual <= max(bound, 1e-12):
        raise SolverError(f"residual {residual:.3e} exceeds certified bound {bound:.3e}")
    return SolveReport(X, float(residual))


def psd_sqrt(M) -> np.ndarray:
    """Symmetric PSD principal square root via eigendecomposition.

    Eigenvalues below PSD_CLIP (relative) are treated as round-off and set to
    zero before taking the root.
    """
    M = _square(M, "M")
    if M.size == 0:
        return M
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    w = np.where(w > PSD_CLIP * max(1.0, abs(w).max()), w, 0.0)
    return (V * np.sqrt(w)) @ V.T


def psd_factor(M) -> np.ndarray:
    """L, n x rank, with L L^T = M up to round-off, for a symmetric positive
    semidefinite M such as a certified Gramian: one LAPACK pstrf call
    (Cholesky with complete pivoting, lower triangle of M read), its rows put
    back in M's order.  The factorization stops at the first pivot at or
    below PSD_CUT times M's largest diagonal entry, so the directions of M
    below that are dropped as round-off; a zero M gives an n x 0 factor."""
    M = _square(M, "M")
    n = M.shape[0]
    tol = PSD_CUT * max(M.diagonal().max(initial=0.0), 0.0)
    c, piv, rank, _ = dpstrf(M, tol=tol, lower=1)
    L = np.empty((n, rank))
    L[piv - 1] = np.tril(c[:, :rank])
    return L


def lyap_ct(A, Qrhs) -> SolveReport:
    """Solve A^T X + X A + Qrhs = 0 for symmetric X.

    Requires that A and -A share no eigenvalue (automatic for stable A);
    otherwise the solution is not unique and a SolverError is raised.
    """
    form = schur_form(A)
    return solve(form, form, Qrhs, trans_a=True)


def sylvester(A, Bm, Cm) -> np.ndarray:
    """Solve A X + X Bm + Cm = 0.

    Requires the spectra of A and -Bm to be disjoint.
    """
    return solve(schur_form(A), schur_form(Bm), Cm).solution


def _care_residual(A, B, Qw, Rinv_Bt, P):
    return A.T @ P + P @ A - P @ B @ Rinv_Bt @ P + Qw


def care(A, B, Qw, Rw) -> SolveReport:
    """Stabilizing solution of A^T P + P A - P B Rw^-1 B^T P + Qw = 0.

    A Schur-method solve provides the seed; up to MAX_NEWTON Newton-Kleinman
    iterations (each a Lyapunov solve at the current closed loop) polish the
    residual below 1e-10 relative.  Fails with a diagnostic when the data is not
    stabilizable/detectable or the closed loop does not come out stable.
    """
    A = _square(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Qw = _square(Qw, "Qw")
    Rw = _square(Rw, "Rw")
    if B.shape[0] != A.shape[0]:
        raise DimensionError("B row count must match A")
    if Rw.shape[0] != B.shape[1]:
        raise DimensionError("Rw must match the input dimension")
    try:
        P = sla.solve_continuous_are(A, B, Qw, Rw)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"Riccati solve failed: {exc}") from exc
    P = 0.5 * (P + P.T)
    Rinv_Bt = np.linalg.solve(Rw, B.T)

    def scale(P):
        return max(
            1.0,
            2 * np.linalg.norm(A, "fro") * np.linalg.norm(P, "fro")
            + np.linalg.norm(P @ B @ Rinv_Bt @ P, "fro")
            + np.linalg.norm(Qw, "fro"),
        )

    res = np.linalg.norm(_care_residual(A, B, Qw, Rinv_Bt, P), "fro")
    for _ in range(MAX_NEWTON):
        if res <= 1e-10 * scale(P):
            break
        K = Rinv_Bt @ P
        form = schur_form(A - B @ K)
        if not form.is_stable(0.0):
            raise SolverError("Newton-Kleinman lost closed-loop stability")
        P = solve(form, form, Qw + K.T @ Rw @ K, trans_a=True).solution
        res = np.linalg.norm(_care_residual(A, B, Qw, Rinv_Bt, P), "fro")
    if res > 1e-8 * scale(P):
        raise SolverError(f"Riccati residual {res:.3e} not certified")
    if not schur_form(A - B @ (Rinv_Bt @ P)).is_stable(0.0):
        raise SolverError(
            "Riccati solution is not stabilizing; check stabilizability/detectability"
        )
    return SolveReport(P, float(res))

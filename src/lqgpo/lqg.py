"""LQG problem objects: plant, dynamic output-feedback controller, closed
loop, cost, the certificate matrices and the gradient they carry, Riccati
synthesis, the policy-gradient baseline, and the state-feedback (LQR) case.

Conventions
-----------
The plant is  dx = A x + B u + w,  y = C x + v  with noise intensities
W, V and quadratic weights Q, R.  The controller is the triple
(A_K, B_K, C_K):  dxh = A_K xh + B_K y,  u = C_K xh,  packed as the
structured matrix [[0, C_K], [B_K, A_K]] (rows u | xh, columns y | xh)
whose top-left block is structurally zero.  The certificate's first Markov
parameter and the LQG gradient share the layout, stated once by `unpack`,
`mask_block` and `free_entries` (the entries a descent moves); a controller
grows states by appending them to its packed matrix.

For the LQR case the gain enters the loop negatively (u = -K x, closed
loop A - B K), so the unique stationary gain is the Riccati gain
K* = R^-1 B^T P* and the gradient is 2 (R K - B^T P_K) Sigma_K.

Every matrix of a plant, controller or LQR problem is an `ss.frozen_matrix`
(finite, 2-D, read-only); weights are also symmetric positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import solvers
from .errors import DimensionError, SolverError, UnstableError
from .ss import StateSpace, frozen_matrix, json_values, set_fields

# Dual-trace agreement required of every constructed closed loop.
COST_CONSISTENCY_RTOL = 1e-8
# Step halvings policy_gradient_run tries before it skips an update.
PG_MAX_HALVINGS = 20
# lqr_gradient_descent's initial step, its stopping gap ||R K - B^T P_K||
# relative to 1 + ||R K||, and its halvings per update before it stops.
LQR_STEP = 0.1
LQR_GAP_TOL = 1e-8
LQR_MAX_HALVINGS = 40


def _check_spd(M, name):
    M = frozen_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square")
    if np.linalg.norm(M - M.T, "fro") > 1e-10 * max(1.0, np.linalg.norm(M, "fro")):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(0.5 * (M + M.T)).min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    return M


def _riccati(what, A, B, Q, R) -> solvers.SolveReport:
    """The stabilizing CARE solution, read-only.  Problem data without one
    fail the stabilizability/detectability check: a ValueError."""
    try:
        report = solvers.care(A, B, Q, R)
    except SolverError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    report.solution.setflags(write=False)
    return report


@dataclass(frozen=True)
class LqgPlant:
    """Problem data (A, B, C, Q, R, W, V) of the continuous-time LQG problem,
    with the stabilizing solutions of its control and filter Riccati
    equations; solving them is the stabilizability/detectability check."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    W: np.ndarray
    V: np.ndarray
    control_riccati: solvers.SolveReport = field(init=False, repr=False, compare=False)
    filter_riccati: solvers.SolveReport = field(init=False, repr=False, compare=False)

    KEYS = ("A", "B", "C", "Q", "R", "W", "V")

    def __post_init__(self):
        A, B, C = (frozen_matrix(getattr(self, k), k) for k in "ABC")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError("A must be square")
        if B.shape[0] != n or C.shape[1] != n:
            raise DimensionError("B/C dimensions inconsistent with A")
        Q, R, W, V = (_check_spd(getattr(self, k), k) for k in "QRWV")
        if Q.shape[0] != n or W.shape[0] != n:
            raise DimensionError("Q/W must be n x n")
        if R.shape[0] != B.shape[1]:
            raise DimensionError("R must match the input dimension")
        if V.shape[0] != C.shape[0]:
            raise DimensionError("V must match the output dimension")
        set_fields(self, A=A, B=B, C=C, Q=Q, R=R, W=W, V=V,
                   control_riccati=_riccati("plant is not stabilizable", A, B, Q, R),
                   filter_riccati=_riccati("plant is not detectable", A.T, C.T, W, V))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    def to_dict(self) -> dict:
        return {k: getattr(self, k).tolist() for k in self.KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "LqgPlant":
        return cls(*json_values(data, cls.KEYS, "plant"))


def unpack(K: np.ndarray, m1: int, m2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A_K, B_K, C_K) of a packed matrix whose structural block is m1 x m2."""
    return K[m1:, m2:], K[m1:, :m2], K[:m1, m2:]


def mask_block(M: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Zero the top-left rows x cols block, leaving the rest unchanged."""
    out = np.array(M, dtype=float, copy=True)
    out[:rows, :cols] = 0.0
    return out


def free_entries(shape, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries outside the top-left rows x cols
    block, in row-major order."""
    return np.nonzero(mask_block(np.ones(shape), rows, cols))


@dataclass(frozen=True)
class DynController:
    """Dynamic output-feedback controller triple (A_K, B_K, C_K)."""

    A_K: np.ndarray
    B_K: np.ndarray
    C_K: np.ndarray

    KEYS = ("A_K", "B_K", "C_K")

    def __post_init__(self):
        A_K, B_K, C_K = (frozen_matrix(getattr(self, k), k) for k in self.KEYS)
        q = A_K.shape[0]
        if A_K.shape != (q, q):
            raise DimensionError("A_K must be square")
        if B_K.shape[0] != q or C_K.shape[1] != q:
            raise DimensionError("B_K/C_K dimensions inconsistent with A_K")
        set_fields(self, A_K=A_K, B_K=B_K, C_K=C_K)

    @property
    def order(self) -> int:
        return self.A_K.shape[0]

    def as_packed(self) -> np.ndarray:
        """The structured matrix [[0, C_K], [B_K, A_K]] (zero top-left block)."""
        m1 = self.C_K.shape[0]
        m2 = self.B_K.shape[1]
        q = self.order
        K = np.zeros((m1 + q, m2 + q))
        K[:m1, m2:] = self.C_K
        K[m1:, :m2] = self.B_K
        K[m1:, m2:] = self.A_K
        return K

    @classmethod
    def from_packed(cls, K, m1: int, m2: int) -> "DynController":
        return cls(*unpack(frozen_matrix(K, "K"), m1, m2))

    def to_dict(self) -> dict:
        return {k: getattr(self, k).tolist() for k in self.KEYS}

    @classmethod
    def from_dict(cls, data: dict, plant: LqgPlant) -> "DynController":
        """An order-0 record has no column count for B_K: it is read against
        the plant's output count, as `StateSpace.from_dict` reads B against D."""
        A_K, B_K, C_K = json_values(data, cls.KEYS, "controller")
        if len(A_K) == 0 and len(B_K) == 0:
            A_K, B_K = np.zeros((0, 0)), np.zeros((0, plant.n_outputs))
        return cls(A_K, B_K, C_K)


@dataclass(frozen=True)
class ClosedLoop:
    """The closed loop as one generalized plant (Zhou, Doyle & Glover, Robust
    and Optimal Control, 1996) and its two Lyapunov solutions.

    Acl is the (n+q) x (n+q) loop matrix.  Its channels, built once from the
    square roots of the weights, are the lifted nominal's and the
    certificate's: Bcl takes the noise (w | v) in, Ccl the performance
    (x | u) out, B_pert and C_pert a controller perturbation in (u | x_K) and
    out (y | x_K); D12 is sqrt R on (u, u) and D21 sqrt V on (y, v), zero
    elsewhere.  P and Sigma solve

        Acl^T P + P Acl + Ccl^T Ccl = 0,
        Acl Sigma + Sigma Acl^T + Bcl Bcl^T = 0.

    form is the real Schur form of Acl that decided stability and served
    both solves; every block of the lifted nominal is realized on its
    quasi-triangular T, in its coordinates, and takes T as its own form.
    """

    Acl: np.ndarray
    Bcl: np.ndarray
    Ccl: np.ndarray
    B_pert: np.ndarray
    C_pert: np.ndarray
    D12: np.ndarray
    D21: np.ndarray
    P: np.ndarray
    Sigma: np.ndarray
    n: int
    q: int
    form: solvers.SchurForm = field(repr=False, compare=False)


def loop_matrix(plant: LqgPlant, ctrl: DynController) -> np.ndarray:
    n, q = plant.n, ctrl.order
    A = np.zeros((n + q, n + q))
    A[:n, :n] = plant.A
    A[:n, n:] = plant.B @ ctrl.C_K
    A[n:, :n] = ctrl.B_K @ plant.C
    A[n:, n:] = ctrl.A_K
    return A


def perturbation_channels(plant: LqgPlant, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The maps through which a perturbation of an order-q controller enters
    and leaves the loop: B_pert = [[B, 0], [0, I]], C_pert = [[C, 0], [0, I]]."""
    (n, m1), m2 = plant.B.shape, plant.n_outputs
    B_pert, C_pert = np.zeros((n + q, m1 + q)), np.zeros((m2 + q, n + q))
    B_pert[:n, :m1], B_pert[n:, m1:] = plant.B, np.eye(q)
    C_pert[:m2, :n], C_pert[m2:, n:] = plant.C, np.eye(q)
    return B_pert, C_pert


def close_loop(plant: LqgPlant, ctrl: DynController) -> ClosedLoop:
    """Assemble the augmented loop and its channels, once; fails if the
    controller does not stabilize."""
    if ctrl.B_K.shape[1] != plant.n_outputs:
        raise DimensionError("B_K column count must equal the plant output count")
    if ctrl.C_K.shape[0] != plant.n_inputs:
        raise DimensionError("C_K row count must equal the plant input count")
    n, q, m1, m2 = plant.n, ctrl.order, plant.n_inputs, plant.n_outputs
    form = solvers.schur_form(loop_matrix(plant, ctrl))
    if not form.is_stable():
        raise UnstableError("controller not stabilizing")
    sqrt_R, sqrt_V = solvers.psd_sqrt(plant.R), solvers.psd_sqrt(plant.V)
    B_pert, C_pert = perturbation_channels(plant, q)
    Bcl = np.zeros((n + q, n + m2))
    Bcl[:n, :n] = solvers.psd_sqrt(plant.W)
    Bcl[n:, n:] = ctrl.B_K @ sqrt_V
    Ccl = np.zeros((n + m1, n + q))
    Ccl[:n, :n] = solvers.psd_sqrt(plant.Q)
    Ccl[n:, n:] = sqrt_R @ ctrl.C_K
    D12 = np.zeros((n + m1, m1 + q))
    D12[n:, :m1] = sqrt_R
    D21 = np.zeros((m2 + q, n + m2))
    D21[:m2, n:] = sqrt_V
    P = solvers.solve(form, form, Ccl.T @ Ccl, trans_a=True).solution
    Sigma = solvers.solve(form, form, Bcl @ Bcl.T, trans_b=True).solution
    return ClosedLoop(form.A, Bcl, Ccl, B_pert, C_pert, D12, D21, P, Sigma, n, q, form)


def performance_realization(cl: ClosedLoop) -> StateSpace:
    """The strictly proper closed-loop map whose squared H2 norm is the cost."""
    return StateSpace(cl.Acl, cl.Bcl, cl.Ccl, np.zeros((cl.Ccl.shape[0], cl.Bcl.shape[1])))


def lqg_cost(cl: ClosedLoop) -> float:
    """Steady-state quadratic cost via the primal Gramian trace.

    The dual trace is evaluated as well and the two are required to agree to
    COST_CONSISTENCY_RTOL relative; disagreement indicates a broken solve.
    """
    primal = float(np.trace(cl.Bcl @ cl.Bcl.T @ cl.P))
    dual = float(np.trace(cl.Ccl.T @ cl.Ccl @ cl.Sigma))
    if abs(primal - dual) > COST_CONSISTENCY_RTOL * max(1.0, abs(primal)):
        raise ArithmeticError(
            f"cost trace mismatch: {primal:.15e} vs {dual:.15e}"
        )
    return primal


@dataclass(frozen=True)
class CertificateMatrices:
    """Constant blocks of the certificate transfer function Cterm (sI -
    Acl)^-1 Bterm, Cterm = D12^T Ccl + B_pert^T P and Bterm = Bcl D21^T +
    Sigma C_pert^T on the loop's channels, which vanishes identically exactly
    at a global optimum and is the lifted sensitivity at the zero iterate.
    The first Markov parameter Cterm Bterm is laid out like the packed
    controller; without its structural-zero top-left block, twice it is the
    cost gradient (`lqg_gradient`)."""

    Cterm: np.ndarray
    Bterm: np.ndarray


def build_certificate_matrices(cl: ClosedLoop) -> CertificateMatrices:
    # row-major like the other blocks: a product's rounding depends on the layout
    B_pert_T, C_pert_T = np.ascontiguousarray(cl.B_pert.T), np.ascontiguousarray(cl.C_pert.T)
    return CertificateMatrices(cl.D12.T @ cl.Ccl + B_pert_T @ cl.P,
                               cl.Bcl @ cl.D21.T + cl.Sigma @ C_pert_T)


def lqg_gradient(
    plant: LqgPlant, ctrl: DynController, cl: ClosedLoop | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost gradients with respect to (A_K, B_K, C_K): the blocks of
    2 Cterm Bterm, the certificate's first Markov parameter, where the packed
    controller holds A_K, B_K and C_K."""
    if cl is None:
        cl = close_loop(plant, ctrl)
    cm = build_certificate_matrices(cl)
    return unpack(2.0 * (cm.Cterm @ cm.Bterm), plant.n_inputs, plant.n_outputs)


def lqg_optimal(plant: LqgPlant, order: int | None = None) -> DynController:
    """Riccati synthesis of the optimal controller, padded to `order`.

    Requires order >= n; padding appends order - n decoupled states (state
    matrix -I) to the packed matrix: same cost, still a stationary point.
    """
    n = plant.n
    q = n if order is None else int(order)
    if q < n:
        raise ValueError(f"controller order {q} cannot be below the plant order {n}")
    P = solvers.care(plant.A, plant.B, plant.Q, plant.R).solution
    K = np.linalg.solve(plant.R, plant.B.T @ P)
    H = solvers.care(plant.A.T, plant.C.T, plant.W, plant.V).solution
    L = np.linalg.solve(plant.V, plant.C @ H).T
    packed = DynController(plant.A - plant.B @ K - L @ plant.C, L, -K).as_packed()
    (rows, cols), pad = packed.shape, q - n
    return DynController.from_packed(
        np.block([[packed, np.zeros((rows, pad))], [np.zeros((pad, cols)), -np.eye(pad)]]),
        plant.n_inputs, plant.n_outputs)


@dataclass(frozen=True)
class PgRecord:
    """One policy-gradient iterate; skipped marks an iteration whose update
    still destabilized the loop after PG_MAX_HALVINGS halvings and was
    dropped."""

    iteration: int
    controller: DynController
    cost: float
    skipped: bool = False


def policy_gradient_run(
    plant: LqgPlant,
    ctrl0: DynController,
    step: float,
    iters: int,
) -> list[PgRecord]:
    """Vanilla policy gradient on (A_K, B_K, C_K) with a shared step size.

    An update that would destabilize the loop is retried with a halved step
    (per update, up to PG_MAX_HALVINGS); if it still destabilizes, the update
    is skipped and its record says so (PgRecord.skipped).  Stalling is a
    valid outcome, not an error.  Raises ValueError unless 0 < step < inf.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step size must be positive and finite, got {step}")
    ctrl = ctrl0
    cl = close_loop(plant, ctrl)
    records = [PgRecord(0, ctrl, lqg_cost(cl))]
    for it in range(1, iters + 1):
        gA, gB, gC = lqg_gradient(plant, ctrl, cl)
        eta, skipped = step, True
        for _ in range(PG_MAX_HALVINGS + 1):
            cand = DynController(
                ctrl.A_K - eta * gA, ctrl.B_K - eta * gB, ctrl.C_K - eta * gC
            )
            try:
                cl_cand = close_loop(plant, cand)
            except (UnstableError, SolverError):
                # destabilizing or numerically marginal update: halve and retry
                eta *= 0.5
                continue
            ctrl, cl, skipped = cand, cl_cand, False
            break
        records.append(PgRecord(it, ctrl, lqg_cost(cl), skipped))
    return records


# ----------------------------------------------------------------------
# State-feedback (LQR) special case, noise intensity I.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LqrProblem:
    """State-feedback problem data, with the stabilizing solution of its
    Riccati equation; the loop closes as A - B K."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    riccati: solvers.SolveReport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B = frozen_matrix(self.A, "A"), frozen_matrix(self.B, "B")
        Q, R = _check_spd(self.Q, "Q"), _check_spd(self.R, "R")
        if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0]:
            raise DimensionError("A/B dimensions inconsistent")
        if Q.shape[0] != A.shape[0] or R.shape[0] != B.shape[1]:
            raise DimensionError("Q/R dimensions inconsistent")
        set_fields(self, A=A, B=B, Q=Q, R=R,
                   riccati=_riccati("problem is not stabilizable", A, B, Q, R))

    def closed_loop(self, K) -> np.ndarray:
        return self.A - self.B @ np.atleast_2d(np.asarray(K, dtype=float))


def _lqr_sigma(prob: LqrProblem, K):
    """Schur form of the loop, weight Q + K^T R K, Sigma_K and cost
    tr(Sigma_K (Q + K^T R K)) of a stabilizing gain K: one Schur form and one
    Lyapunov solve."""
    form = solvers.schur_form(prob.closed_loop(K))
    if not form.is_stable():
        raise UnstableError("gain does not stabilize the loop")
    weight = prob.Q + K.T @ prob.R @ K
    Sigma = solvers.solve(form, form, np.eye(form.A.shape[0]), trans_b=True).solution
    return form, weight, Sigma, float((Sigma @ weight).trace())


def _lqr_gap(prob: LqrProblem, K, form, weight):
    """Stationarity gap R K - B^T P_K and P_K, from the loop's form."""
    P = solvers.solve(form, form, weight, trans_a=True).solution
    return prob.R @ K - prob.B.T @ P, P


def lqr_terms(prob: LqrProblem, K):
    """Cost, stationarity gap R K - B^T P_K, and the Lyapunov pair Sigma_K,
    P_K of a stabilizing gain K."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    form, weight, Sigma, cost = _lqr_sigma(prob, K)
    gap, P = _lqr_gap(prob, K, form, weight)
    return cost, gap, Sigma, P


def lqr_cost_grad(prob: LqrProblem, K) -> tuple[float, np.ndarray]:
    """Cost and gradient of the state-feedback problem at gain K.

    P_K and Sigma_K solve the closed-loop Lyapunov pair; the cost is
    tr(Sigma_K (Q + K^T R K)) and the gradient 2 (R K - B^T P_K) Sigma_K,
    which is also twice the stable residue sum of the associated
    optimality transfer function.
    """
    cost, gap, Sigma, _ = lqr_terms(prob, K)
    return cost, 2.0 * gap @ Sigma


def lqr_optimal(prob: LqrProblem) -> tuple[np.ndarray, float]:
    """Riccati gain K* = R^-1 B^T P* and its cost."""
    P = prob.riccati.solution
    K = np.linalg.solve(prob.R, prob.B.T @ P)
    cost, _ = lqr_cost_grad(prob, K)
    return K, cost


def lqr_gradient_descent(
    prob: LqrProblem, K0, iters: int = 5000
) -> tuple[np.ndarray, list[float]]:
    """Gradient descent with a per-update backtracking step from LQR_STEP.

    An update that destabilizes the loop or increases the cost is retried
    with a halved step, and the descent ends after LQR_MAX_HALVINGS failed
    tries; a clean success lets the step grow back.  A candidate gain is
    priced by the Schur form of its loop, the stability test and Sigma_K
    alone: a rejected one costs one Schur form and at most one Lyapunov
    solve, and P_K, hence the gap and the next gradient, is solved only for
    the accepted one, on the same form and its one spectral-gap value.
    Stops on the stationarity gap ||R K - B^T P_K|| (LQR_GAP_TOL relative to
    the gain scale), which certifies optimality directly, rather than on the
    gradient norm, which can be small while the gap is not.
    """
    K = np.atleast_2d(np.asarray(K0, dtype=float))
    cost, gap, Sigma, _ = lqr_terms(prob, K)
    history = [cost]
    eta = LQR_STEP
    best = (np.linalg.norm(gap, "fro"), K)

    def converged(gap, K):
        scale = 1.0 + np.linalg.norm(prob.R @ K, "fro")
        return np.linalg.norm(gap, "fro") <= LQR_GAP_TOL * scale

    for _ in range(iters):
        if converged(gap, K):
            break
        grad = 2.0 * gap @ Sigma
        halved = False
        # Near the optimum true cost decrements drop below double-precision
        # resolution while the Lyapunov-based gradient stays accurate, so
        # steps are accepted up to the evaluation noise floor.
        floor = 1e-14 * (1.0 + abs(cost))
        for _ in range(LQR_MAX_HALVINGS):
            cand = K - eta * grad
            try:
                form, weight, cand_Sigma, cand_cost = _lqr_sigma(prob, cand)
                if cand_cost <= cost + floor:
                    gap, _ = _lqr_gap(prob, cand, form, weight)
                    K, cost, Sigma = cand, cand_cost, cand_Sigma
                    break
            except (UnstableError, SolverError):
                pass
            eta *= 0.5
            halved = True
        else:
            break
        if not halved:
            # backtracking makes an aggressive cap safe; narrow valleys need
            # steps far beyond the nominal one
            eta = min(eta * 2.0, 1e8 * LQR_STEP)
        gap_norm = np.linalg.norm(gap, "fro")
        if gap_norm < best[0]:
            best = (gap_norm, K)
        history.append(cost)
    if not converged(gap, K):
        K = best[1]
    return K, history

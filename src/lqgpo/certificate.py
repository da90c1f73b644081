"""Global-optimality certificate for dynamic output-feedback controllers.

A stabilizing controller is globally optimal iff a specially constructed
closed-loop transfer function vanishes identically; by Cayley-Hamilton this
reduces to n+q Markov parameters being zero.  The module assembles the
constant blocks of that transfer function, runs the finite Markov test,
and reports the auxiliary rank and definiteness diagnostics that give
sufficient conditions of the same flavor.

Block convention: the constant matrices enter the product with the full
weights V and R (not their square roots); the square roots appearing in the
noise/performance channels get squared when the para-conjugate factors are
composed.  This is the form that provably annihilates at the Riccati
optimum, which the test suite checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lqg import (
    ClosedLoop,
    DynController,
    LqgPlant,
    LqrProblem,
    close_loop,
    lqg_cost,
    lqg_gradient,
    lqr_terms,
    perturbation_channels,
)

TOL_GRAD = 1e-6
TOL_MARKOV = 1e-6
TOL_RANK = 1e-8
TOL_DET = 1e-10


class Verdict(enum.Enum):
    GLOBALLY_OPTIMAL = "globally_optimal"
    STATIONARY_NOT_OPTIMAL = "stationary_not_optimal"
    NOT_STATIONARY = "not_stationary"


@dataclass(frozen=True)
class CertificateMatrices:
    """Constant blocks of the optimality transfer function.

    Cterm (sI - Acl)^-1 Bterm must vanish identically for global optimality;
    Cterm = C1 - B1 P and Bterm = B0 - Sigma C0.
    """

    B0: np.ndarray
    C0: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    Cterm: np.ndarray
    Bterm: np.ndarray


def build_certificate_matrices(
    plant: LqgPlant, ctrl: DynController, cl: ClosedLoop
) -> CertificateMatrices:
    n, q = cl.n, cl.q
    m1, m2 = plant.n_inputs, plant.n_outputs
    B0 = np.zeros((n + q, m2 + q))
    B0[n:, :m2] = ctrl.B_K @ plant.V
    B_p, C_p = perturbation_channels(plant, q)
    # row-major like the other blocks: a product's rounding depends on the layout
    C0, B1 = np.ascontiguousarray(-C_p.T), np.ascontiguousarray(-B_p.T)
    C1 = np.zeros((m1 + q, n + q))
    C1[:m1, n:] = plant.R @ ctrl.C_K
    Cterm = C1 - B1 @ cl.P
    Bterm = B0 - cl.Sigma @ C0
    return CertificateMatrices(B0, C0, B1, C1, Cterm, Bterm)


def _markov_norms(C: np.ndarray, A: np.ndarray, B: np.ndarray, count: int) -> list[float]:
    """Frobenius norms of C A^i B for i = 0..count-1."""
    norms = []
    M = B
    for _ in range(count):
        norms.append(float(np.linalg.norm(C @ M, "fro")))
        M = A @ M
    return norms


def markov_test(cm: CertificateMatrices, Acl: np.ndarray, count: int) -> list[float]:
    """Frobenius norms of Cterm Acl^i Bterm for i = 0..count-1.

    All of them vanishing is equivalent to the optimality transfer function
    being identically zero.
    """
    return _markov_norms(cm.Cterm, Acl, cm.Bterm, count)


def normalized_markov(cm: CertificateMatrices, Acl: np.ndarray, count: int) -> list[float]:
    """Markov norms divided by ||Cterm|| ||Acl||^i ||Bterm|| (0/0 -> 0)."""
    return _normalize(cm, Acl, markov_test(cm, Acl, count))


def _normalize(cm: CertificateMatrices, Acl: np.ndarray, raw: list[float]) -> list[float]:
    c_scale = np.linalg.norm(cm.Cterm, "fro")
    b_scale = np.linalg.norm(cm.Bterm, "fro")
    a_scale = np.linalg.norm(Acl, 2)
    out = []
    for i, value in enumerate(raw):
        denom = c_scale * (a_scale**i) * b_scale
        out.append(float(value / denom) if denom > 0 else 0.0)
    return out


def rank_condition_check(cl: ClosedLoop, grad_is_zero: bool) -> tuple[int, int, bool]:
    """Rank-based sufficient certificate: the lower block rows of P and
    Sigma both have full rank (the controller order, singular values above
    TOL_RANK relative) at a stationary point.
    """
    n, q = cl.n, cl.q
    P2 = cl.P[n:, :]
    S2 = cl.Sigma[n:, :]

    def rank_of(M):
        if M.size == 0:
            return 0
        sv = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(sv > TOL_RANK * sv[0])) if sv[0] > 0 else 0

    rank_P2 = rank_of(P2)
    rank_S2 = rank_of(S2)
    return rank_P2, rank_S2, bool(rank_P2 == q and rank_S2 == q and grad_is_zero)


def coupling_condition_check(cl: ClosedLoop) -> tuple[bool | None, bool | None]:
    """Definiteness-plus-coupling sufficient conditions (full-order case only).

    Checks P > 0 with invertible off-diagonal block P12 (|det| > TOL_DET),
    and the Sigma analogue.  Returns (None, None) when the controller order
    differs from the plant order, where the conditions do not apply.
    """
    n, q = cl.n, cl.q
    if n != q:
        return None, None

    def condition(M):
        if np.linalg.eigvalsh(0.5 * (M + M.T)).min() <= 0:
            return False
        block = M[:n, n:]
        return bool(abs(np.linalg.det(block)) > TOL_DET)

    return condition(cl.P), condition(cl.Sigma)


@dataclass(frozen=True)
class CertificateReport:
    verdict: Verdict
    cost: float
    grad_norm: float
    markov_norms: list[float]
    markov_norms_normalized: list[float]
    rank_P2: int
    rank_Sigma2: int
    rank_condition_passes: bool
    coupling_P: bool | None
    coupling_Sigma: bool | None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "cost": self.cost,
            "grad_norm": self.grad_norm,
            "markov_norms": self.markov_norms,
            "markov_norms_normalized": self.markov_norms_normalized,
            "rank_P2": self.rank_P2,
            "rank_Sigma2": self.rank_Sigma2,
            "rank_condition_passes": self.rank_condition_passes,
            "lemma1": {"P": self.coupling_P, "Sigma": self.coupling_Sigma},
        }


def certify(
    plant: LqgPlant,
    ctrl: DynController,
    tol_markov: float = TOL_MARKOV,
    tol_grad: float = TOL_GRAD,
) -> CertificateReport:
    """Classify a stabilizing controller.

    globally_optimal      -- stationary and the normalized Markov test passes;
    stationary_not_optimal -- stationary but the Markov test fails;
    not_stationary        -- the gradient is not numerically zero.
    A tolerance that is negative or not finite raises ValueError.
    """
    if not (0 <= tol_markov < np.inf and 0 <= tol_grad < np.inf):
        raise ValueError(f"tolerances must be finite and >= 0, got {tol_markov}, {tol_grad}")
    cl = close_loop(plant, ctrl)
    cost = lqg_cost(cl)
    grads = lqg_gradient(plant, ctrl, cl)
    grad_norm = float(np.sqrt(sum(np.linalg.norm(g, "fro") ** 2 for g in grads)))
    cm = build_certificate_matrices(plant, ctrl, cl)
    count = cl.n + cl.q
    raw = markov_test(cm, cl.Acl, count)
    normalized = _normalize(cm, cl.Acl, raw)
    stationary = grad_norm <= tol_grad * (1.0 + abs(cost))
    if not stationary:
        verdict = Verdict.NOT_STATIONARY
    elif max(normalized) <= tol_markov:
        verdict = Verdict.GLOBALLY_OPTIMAL
    else:
        verdict = Verdict.STATIONARY_NOT_OPTIMAL
    rank_P2, rank_S2, rank_pass = rank_condition_check(cl, stationary)
    coup_P, coup_S = coupling_condition_check(cl)
    return CertificateReport(
        verdict=verdict,
        cost=cost,
        grad_norm=grad_norm,
        markov_norms=raw,
        markov_norms_normalized=normalized,
        rank_P2=rank_P2,
        rank_Sigma2=rank_S2,
        rank_condition_passes=rank_pass,
        coupling_P=coup_P,
        coupling_Sigma=coup_S,
    )


@dataclass(frozen=True)
class LqrCertificate:
    """Stationarity certificate for the state-feedback problem.

    Because the closed-loop controllability Gramian is positive definite,
    the Markov test collapses to the single condition ||R K - B^T P_K|| = 0.
    """

    markov_norms: list[float]
    gap_norm: float
    sigma_min_gramian: float
    passes: bool


def lqr_certificate(prob: LqrProblem, K) -> LqrCertificate:
    """The certificate of gain K; it passes when ||R K - B^T P_K|| is at most
    TOL_MARKOV (1 + ||B^T P_K||)."""
    _, gap, Sigma, P = lqr_terms(prob, K)
    Acl = prob.closed_loop(K)
    norms = _markov_norms(gap, Acl, Sigma, Acl.shape[0])
    gap_norm = float(np.linalg.norm(gap, "fro"))
    sigma_min = float(np.linalg.eigvalsh(Sigma).min())
    return LqrCertificate(
        markov_norms=norms,
        gap_norm=gap_norm,
        sigma_min_gramian=sigma_min,
        passes=bool(gap_norm <= TOL_MARKOV * (1.0 + np.linalg.norm(prob.B.T @ P, "fro"))),
    )

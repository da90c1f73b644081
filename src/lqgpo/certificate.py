"""Global-optimality certificate for dynamic output-feedback controllers.

A stabilizing controller is globally optimal iff the certificate transfer
function Cterm (sI - Acl)^-1 Bterm vanishes identically; by Cayley-Hamilton
this reduces to its first n+q Markov parameters being zero.  Its blocks
(`lqg.build_certificate_matrices`, products of the closed loop's channels
that make it the lifted sensitivity at the zero iterate) are the one source
of both verdicts: the first Markov parameter, with its structural-zero block
dropped, is half the cost gradient (the stationarity test), and one
overflow-free pass over the Markov sequence is the optimality test.  The
module also reports the auxiliary rank and definiteness diagnostics that
give sufficient conditions of the same flavor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .lqg import (
    CertificateMatrices,
    ClosedLoop,
    DynController,
    LqgPlant,
    LqrProblem,
    build_certificate_matrices,
    close_loop,
    lqg_cost,
    lqr_terms,
    mask_block,
)

TOL_GRAD = 1e-6
TOL_MARKOV = 1e-6
TOL_RANK = 1e-8
TOL_DET = 1e-10


class Verdict(enum.Enum):
    GLOBALLY_OPTIMAL = "globally_optimal"
    STATIONARY_NOT_OPTIMAL = "stationary_not_optimal"
    NOT_STATIONARY = "not_stationary"


def _markov_norms(
    C: np.ndarray, A: np.ndarray, B: np.ndarray, count: int
) -> tuple[list[float], list[float]]:
    """Raw and normalized Frobenius norms of C A^i B for i = 0..count-1.

    The pass runs on the scaled powers (A/a)^i B/b, a = ||A||_2 and
    b = ||B||_F, none of whose norms exceeds 1, so no product overflows.  The
    normalized norm is ||C (A/a)^i B/b||_F / c, c = ||C||_F, that is
    ||C A^i B|| / (c a^i b), and 0 when c or b is.  The raw norm is the
    normalized one times c b a^i, carried as mantissa and exponent: 0
    wherever the normalized one is, and inf only past the floating range.
    """
    c, b = float(np.linalg.norm(C, "fro")), float(np.linalg.norm(B, "fro"))
    if not (c > 0 and b > 0):
        return [0.0] * count, [0.0] * count
    a = float(np.linalg.norm(A, 2))
    A_scaled, M = A / a, B / b
    (mc, ec), (mb, eb), (ma, ea) = math.frexp(c), math.frexp(b), math.frexp(a)
    mant, expo = mc * mb, ec + eb  # c b a^i = mant 2^expo
    raw, normalized = [], []
    for _ in range(count):
        value = float(np.linalg.norm(C @ M, "fro")) / c
        normalized.append(value)
        try:
            raw.append(math.ldexp(value * mant, expo))
        except OverflowError:
            raw.append(math.inf)
        mant, e = math.frexp(mant * ma)
        expo += e + ea
        M = A_scaled @ M
    return raw, normalized


def markov_test(cm: CertificateMatrices, Acl: np.ndarray, count: int) -> tuple[list, list]:
    """Raw and normalized Frobenius norms of Cterm Acl^i Bterm for
    i = 0..count-1 (`_markov_norms`).

    All of them vanishing is equivalent to the certificate transfer function
    being identically zero.
    """
    return _markov_norms(cm.Cterm, Acl, cm.Bterm, count)


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
    cm = build_certificate_matrices(cl)
    # without its structural zero, half the gradient
    first = mask_block(cm.Cterm @ cm.Bterm, plant.n_inputs, plant.n_outputs)
    grad_norm = 2.0 * float(np.linalg.norm(first, "fro"))
    raw, normalized = markov_test(cm, cl.Acl, cl.n + cl.q)
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
    norms, _ = _markov_norms(gap, Acl, Sigma, Acl.shape[0])
    gap_norm = float(np.linalg.norm(gap, "fro"))
    sigma_min = float(np.linalg.eigvalsh(Sigma).min())
    return LqrCertificate(
        markov_norms=norms,
        gap_norm=gap_norm,
        sigma_min_gramian=sigma_min,
        passes=bool(gap_norm <= TOL_MARKOV * (1.0 + np.linalg.norm(prob.B.T @ P, "fro"))),
    )

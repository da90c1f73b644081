"""Gradient descent in the lifted controller space.

Fixing a stabilizing controller K0 turns the closed loop into a four-block
nominal system M; any controller perturbation acts through the feedback
parameter Q = DeltaK (I - M22 DeltaK)^-1, which splits uniquely into a
strictly proper stable part Q_dyn and a masked static part Q_stat.  In the
(Q_dyn, Q_stat) coordinates the cost

    J(Q_dyn, Q_stat) = || M11 + M12 (Q_dyn + Q_stat) M21 ||_H2^2

is convex, and its gradient is carried by a single stable transfer matrix
S (the sensitivity system) together with the masked residue sum of S.
The iteration here updates both parts with a common step size and controls
state growth with balanced truncation; the final iterate maps back to a
conventional controller through the inverse parameterization.

The update uses S itself (the factor 2 of the Frechet derivative is folded
into the step size), so a step eta corresponds to 2*eta in gradient-flow
scaling.

The cost and S come from one realization of the cost map
T = [M11 M12] [I; Q M21], whose states are closed loop | Q_dyn | closed loop.
The nominal blocks are realized once, in the Schur coordinates of the
closed-loop form that `close_loop` made, and each iterate's Q_dyn is put in
its own, so T's state matrix is quasi-triangular and is its own Schur form
(`solvers.schur_form`).  The cost is read off T's observability Gramian X_T,
and S is T's state matrix with an input map from one Sylvester solve and an
output map from the closed-loop rows of X_T (see `sensitivity`): no product
with a para-conjugate is formed and nothing is split into stable and
anti-stable parts.  Per iterate, only Q_dyn and the truncated systems are
factored.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnstableError
from .lqg import (ClosedLoop, DynController, LqgPlant, close_loop, free_entries, lqg_cost,
                  mask_block)
from .solvers import SchurForm, solve
from .ss import (
    StateSpace,
    frozen_matrix,
    gramian_obsv,
    h2_inner,
    h2_norm_sq,
    hinf_norm_est,
    minreal,
    minreal_h2,
    parallel,
    scaled,
    series,
    set_fields,
    static_gain,
    zero_system,
)

logger = logging.getLogger(__name__)

# Relative Hankel singular-value threshold of every truncation in the lifted
# descent: the sensitivity system and each iterate.
TRUNC_TOL = 1e-9


def _on_basis(g: StateSpace, form: SchurForm) -> StateSpace:
    """g realized in the Schur coordinates of `form`, a form of g.A."""
    return StateSpace(form.T, form.Z.T @ g.B, g.C @ form.Z, g.D)


@dataclass(frozen=True)
class NominalLft:
    """Four-block nominal data at a fixed stabilizing controller.

    M11 maps noise to performance (its squared H2 norm is the cost at the
    base controller, base_cost); M12/M21 carry the perturbation in/out; M22
    is the interconnection seen by the perturbation.  All four share the
    state matrix T of the closed loop's Schur form: each is realized as
    (T, Z^T B, C Z, D), so each is its own Schur form.
    """

    plant: LqgPlant
    ctrl0: DynController
    cl: ClosedLoop
    M11: StateSpace
    M12: StateSpace
    M21: StateSpace
    M22: StateSpace
    base_cost: float

    @functools.cached_property
    def _head(self) -> StateSpace:
        # [M11 M12] on one copy of the closed loop: both have state matrix T
        # and output map Ccl Z
        M11, M12 = self.M11, self.M12
        return StateSpace(M11.A, np.hstack([M11.B, M12.B]), M11.C, np.hstack([M11.D, M12.D]))

    @property
    def q_rows(self) -> int:
        # rows of the lifted parameter: m1 + q
        return self.plant.n_inputs + self.ctrl0.order

    @property
    def q_cols(self) -> int:
        # columns of the lifted parameter: m2 + q
        return self.plant.n_outputs + self.ctrl0.order

    @property
    def mask_rows(self) -> int:
        return self.plant.n_inputs

    @property
    def mask_cols(self) -> int:
        return self.plant.n_outputs


def build_nominal(plant: LqgPlant, ctrl0: DynController) -> NominalLft:
    """Assemble the nominal four-block system at a stabilizing controller."""
    cl = close_loop(plant, ctrl0)
    # every block in close_loop's Schur coordinates, each channel product formed once
    T, Z = cl.form.T, cl.form.Z
    B_noise, B_pert = Z.T @ cl.Bcl, Z.T @ cl.B_pert
    C_perf, C_pert = cl.Ccl @ Z, cl.C_pert @ Z
    M11 = StateSpace(T, B_noise, C_perf, np.zeros((C_perf.shape[0], B_noise.shape[1])))
    M12 = StateSpace(T, B_pert, C_perf, cl.D12)
    M21 = StateSpace(T, B_noise, C_pert, cl.D21)
    M22 = StateSpace(T, B_pert, C_pert, np.zeros((C_pert.shape[0], B_pert.shape[1])))
    return NominalLft(plant, ctrl0, cl, M11, M12, M21, M22, lqg_cost(cl))


@dataclass(frozen=True)
class YoulaIterate:
    """A point (Q_dyn, Q_stat) of the lifted parameter space.

    Q_dyn is strictly proper and stable; Q_stat is a real matrix whose
    top-left mask block (plant inputs x plant outputs) is zero.
    """

    Q_dyn: StateSpace
    Q_stat: np.ndarray

    def __post_init__(self):
        set_fields(self, Q_stat=frozen_matrix(self.Q_stat, "Q_stat"))

    @classmethod
    def zero(cls, nom: NominalLft) -> "YoulaIterate":
        return cls(
            zero_system(nom.q_rows, nom.q_cols),
            np.zeros((nom.q_rows, nom.q_cols)),
        )

    def validate(self, nom: NominalLft) -> None:
        if (self.Q_dyn.n_outputs, self.Q_dyn.n_inputs) != (nom.q_rows, nom.q_cols):
            raise DimensionError("Q_dyn has wrong transfer dimensions")
        if self.Q_stat.shape != (nom.q_rows, nom.q_cols):
            raise DimensionError("Q_stat has wrong shape")
        if not self.Q_dyn.is_strictly_proper():
            raise ValueError("Q_dyn must be strictly proper")
        if not self.Q_dyn.is_stable():
            raise UnstableError("Q_dyn must be stable")
        if np.any(self.Q_stat[: nom.mask_rows, : nom.mask_cols]):
            raise ValueError("Q_stat mask block must be zero")

    def combined(self) -> StateSpace:
        """Q_dyn + Q_stat as one proper system (the static part rides on D)."""
        return self.Q_dyn.with_feedthrough(self.Q_stat)


def inner_u(a: tuple[StateSpace, np.ndarray], b: tuple[StateSpace, np.ndarray]) -> float:
    """Inner product on the lifted space: H2 pairing plus Frobenius pairing."""
    ga, ma = a
    gb, mb = b
    return h2_inner(ga, gb) + float(np.sum(ma * mb))


def norm_u(a: tuple[StateSpace, np.ndarray]) -> float:
    g, m = a
    return float(np.sqrt(h2_norm_sq(g) + np.sum(m * m)))


def _performance_map(nom: NominalLft, it: YoulaIterate) -> StateSpace:
    """The cost map T = M11 + M12 (Q_dyn + Q_stat) M21, strictly proper.

    It is realized as [M11 M12] [I; Q M21], with states closed loop | Q_dyn |
    closed loop, so its A is block upper triangular with quasi-triangular
    diagonal blocks: it is its own Schur form.  Its feedthrough D12 Q_stat D21
    reads only Q_stat's mask block, which `validate` requires to be exactly 0.
    """
    it.validate(nom)
    qm = series(_on_basis(it.combined(), it.Q_dyn.form), nom.M21)
    w = nom.M21.n_inputs  # the noise channels, passed to M11 unchanged
    tail = StateSpace(qm.A, qm.B, np.vstack([np.zeros((w, qm.n_states)), qm.C]),
                      np.vstack([np.eye(w), qm.D]))
    return series(nom._head, tail)


def _cost_and_sensitivity(
    nom: NominalLft, it: YoulaIterate
) -> tuple[float, StateSpace, float]:
    """The cost ||T||_H2^2 and the sensitivity system S, from one
    observability Gramian X_T of the performance map T (see `sensitivity`),
    and ||S||_H2^2 as S's truncation reads it off (`ss.minreal_h2`)."""
    T = _performance_map(nom, it)
    X = gramian_obsv(T)
    cost = float(max(np.trace(T.B.T @ X @ T.B), 0.0))
    M12, M21 = nom.M12, nom.M21
    # A_T W + W A21^T + B_T B21^T = 0
    W = solve(T.form, M21.form, T.B @ M21.B.T, trans_b=True).solution
    S = StateSpace(T.A, W @ M21.C.T + T.B @ M21.D.T,
                   M12.B.T @ X[:M12.n_states] + M12.D.T @ T.C,
                   np.zeros((M12.n_inputs, M21.n_outputs)))
    return (cost, *minreal_h2(S, TRUNC_TOL))


def sensitivity(nom: NominalLft, it: YoulaIterate) -> StateSpace:
    """The stable sensitivity system S at the given iterate, reduced by
    balanced truncation.

    S is the stable part of M12~ T M21~, T = M11 + M12 (Q_dyn + Q_stat) M21
    the cost map.  With
    T = (A_T, B_T, C_T, 0) and X_T its observability Gramian, the projection
    identity for the stable part of G~ H, G and H stable (Zhou, Doyle &
    Glover, Robust and Optimal Control, 1996, ch. 8), gives

        S = (A_T, W C21^T + B_T D21^T, B12^T X_T[:nc] + D12^T C_T, 0).

    - (A_T, W C21^T + B_T D21^T, C_T, 0) is the stable part of T M21~; W
      solves A_T W + W A21^T + B_T B21^T = 0 (one `solvers.solve`).
    - X_T[:nc], the rows of X_T on T's leading closed-loop states, solves
      Tcl^T Y + Y A_T + C12^T C_T = 0, the equation of the stable part of
      M12~ times that system: A_T's first block column is [Tcl; 0] and
      C_T's first block is C12, M12's output map.

    At the zero iterate, where X_T is P and W is Sigma on one copy of the
    closed loop, S is the certificate transfer function Cterm (sI - Acl)^-1
    Bterm (`lqg.build_certificate_matrices`).

    Before its truncation S is exactly strictly proper and has T's
    quasi-triangular state matrix, its own Schur form.
    """
    return _cost_and_sensitivity(nom, it)[1]


def _masked_residue(nom: NominalLft, S: StateSpace) -> np.ndarray:
    # S is stable, so its residue sum is C B
    return mask_block(S.C @ S.B, nom.mask_rows, nom.mask_cols)


def frechet_gradient(nom: NominalLft, it: YoulaIterate) -> tuple[StateSpace, np.ndarray]:
    """Gradient carrier (S, masked residue of S); the true Frechet derivative
    is twice this pair."""
    S = sensitivity(nom, it)
    return S, _masked_residue(nom, S)


def lifted_cost(nom: NominalLft, it: YoulaIterate) -> float:
    """Cost of the iterate: squared H2 norm of M11 + M12 (Q_dyn+Q_stat) M21,
    evaluated on the unreduced performance map."""
    return h2_norm_sq(_performance_map(nom, it))


@dataclass(frozen=True)
class IterateRecord:
    iter_index: int
    cost: float
    grad_norm_u: float
    q_dyn_order: int
    wall_time: float


def estimate_smoothness(nom: NominalLft) -> float:
    """Upper bound on the gradient Lipschitz constant of the dynamic part:
    L = 2 ||M12||_inf^2 ||M21||_inf^2, each norm an upper value from
    `hinf_norm_est`."""
    h12 = hinf_norm_est(nom.M12)
    h21 = hinf_norm_est(nom.M21)
    return 2.0 * (h12**2) * (h21**2)


def static_quadratic_form(nom: NominalLft) -> np.ndarray:
    """Gram matrix of U -> ||M12 U M21||_H2^2 over the free static entries
    (`lqg.free_entries`, in their order), used for the tight smoothness
    bound of the static part.

    Entry (k, l) is the H2 inner product of M12 E_k M21 with M12 E_l M21,
    E_k the unit matrix of the k-th free entry.  Off the mask block
    D12 E_k D21 is a product of exact zeros, so each direction is strictly
    proper as built, and its state matrix [[T, *], [0, T]] is its own Schur
    form.
    """
    shape = (nom.q_rows, nom.q_cols)
    systems = []
    for pos in zip(*free_entries(shape, nom.mask_rows, nom.mask_cols)):
        E = np.zeros(shape)
        E[pos] = 1.0
        systems.append(series(nom.M12, series(static_gain(E), nom.M21)))
    G = np.zeros((len(systems), len(systems)))
    for i, gi in enumerate(systems):
        for j in range(i, len(systems)):
            G[i, j] = G[j, i] = h2_inner(gi, systems[j])
    return G


def estimate_smoothness_tight(nom: NominalLft) -> float:
    """Smoothness estimate that also covers static directions, for use when
    the peak-gain bound proves too small on a descent-lemma check."""
    G = static_quadratic_form(nom)
    lam = float(np.linalg.eigvalsh(G).max()) if G.size else 0.0
    return max(estimate_smoothness(nom), 4.0 * lam)


def run_lifted_gradient_descent(
    nom: NominalLft,
    eta: float | None = None,
    iters: int = 14,
) -> tuple[list[IterateRecord], YoulaIterate]:
    """Fixed-step descent on the lifted cost from the zero iterate.

    Per iteration: form the sensitivity S_k, subtract eta * S_k from Q_dyn
    (with balanced truncation), and subtract eta times the masked residue
    from Q_stat.  Records cost, gradient norm, and the dynamic order at
    every iterate including the final one; the gradient norm is
    `norm_u` of (S_k, masked residue), with ||S_k||_H2^2 read off S_k's
    truncation rather than solved for.  With eta None the step is
    min(0.1, 1.9 / L) for the bound L of `estimate_smoothness`.  Raises
    ValueError unless a given eta is positive and finite.
    """
    if eta is not None and not 0 < eta < math.inf:
        raise ValueError(f"step size must be positive and finite, got {eta}")
    L_hat = estimate_smoothness(nom)
    if eta is None:
        eta = min(0.1, 1.9 / L_hat) if L_hat > 0 else 0.1
    if L_hat > 0 and eta >= 2.0 / L_hat:
        logger.warning(
            "step size %.3g exceeds the 2/L guideline (L bound %.3g)", eta, L_hat
        )
    it = YoulaIterate.zero(nom)
    records: list[IterateRecord] = []
    t0 = time.perf_counter()
    for k in range(iters + 1):
        cost, S, s_h2 = _cost_and_sensitivity(nom, it)
        res_mask = _masked_residue(nom, S)
        gnorm = float(np.sqrt(s_h2 + np.sum(res_mask * res_mask)))
        records.append(
            IterateRecord(k, cost, gnorm, it.Q_dyn.n_states, time.perf_counter() - t0)
        )
        if k == iters:
            break
        # both terms in their Schur coordinates: the sum is its own form
        q_next = minreal(parallel(_on_basis(it.Q_dyn, it.Q_dyn.form),
                                  scaled(_on_basis(S, S.form), eta), -1), TRUNC_TOL)
        it = YoulaIterate(q_next, it.Q_stat - eta * res_mask)
    return records, it


def iterate_from_controller(nom: NominalLft, target: DynController) -> YoulaIterate:
    """The lifted coordinates of a conventional controller.

    For DeltaK = target - ctrl0 the static part is DeltaK itself and the
    dynamic part is DeltaK C_pert (sI - Acl')^-1 B_pert DeltaK, on the
    channels of the loop closed with the target controller.
    """
    if target.order != nom.ctrl0.order:
        raise DimensionError("target controller order must match the base controller")
    delta = target.as_packed() - nom.ctrl0.as_packed()
    cl = close_loop(nom.plant, target)  # also verifies stabilization
    Q_dyn = _on_basis(StateSpace(cl.Acl, cl.B_pert @ delta, delta @ cl.C_pert,
                                 np.zeros_like(delta)), cl.form)
    return YoulaIterate(minreal(Q_dyn), delta)


def reconstruct_controller_delta(nom: NominalLft, it: YoulaIterate) -> StateSpace:
    """Invert the parameterization: DeltaK = (I + Q M22)^-1 Q with Q = Q_dyn+Q_stat.

    Realized exactly, unreduced, as a feedback interconnection (well posed
    because M22 is strictly proper); `assemble_controller` reduces.
    """
    it.validate(nom)
    Q = it.combined()
    M = nom.M22
    nq, nm = Q.n_states, M.n_states
    A = np.zeros((nq + nm, nq + nm))
    A[:nq, :nq] = Q.A
    A[:nq, nq:] = -Q.B @ M.C
    A[nq:, :nq] = M.B @ Q.C
    A[nq:, nq:] = M.A - M.B @ Q.D @ M.C
    B = np.vstack([Q.B, M.B @ Q.D])
    C = np.hstack([Q.C, -Q.D @ M.C])
    return StateSpace(A, B, C, Q.D)


def assemble_controller(ctrl0: DynController, delta: StateSpace) -> DynController:
    """Absorb a controller perturbation DeltaK into the base controller.

    DeltaK has the packed layout (outputs u | x_K, inputs y | x_K), and its
    states are appended to the packed matrix: [[packed(ctrl0) + D, C], [B, A]]
    with rows u | x_K | x_Delta and columns y | x_K | x_Delta.  D's top-left
    block must be zero so the controller remains strictly proper.  The result
    is reduced here, once; a DeltaK whose transfer function is zero gives
    back ctrl0 itself.
    """
    m1, m2 = ctrl0.C_K.shape[0], ctrl0.B_K.shape[1]
    if (delta.n_outputs, delta.n_inputs) != (m1 + ctrl0.order, m2 + ctrl0.order):
        raise DimensionError("delta has wrong dimensions for this controller")
    if not np.any(delta.D) and not (np.any(delta.B) and np.any(delta.C)):
        return ctrl0
    D = delta.D
    if np.max(np.abs(D[:m1, :m2])) > 1e-9 * max(1.0, np.max(np.abs(D))):
        raise ValueError("delta feedthrough mask block must be zero")
    full = DynController.from_packed(
        np.block([[ctrl0.as_packed() + D, delta.C], [delta.B, delta.A]]), m1, m2)
    reduced = minreal(StateSpace(full.A_K, full.B_K, full.C_K, np.zeros((m1, m2))))
    return DynController(reduced.A, reduced.B, reduced.C)

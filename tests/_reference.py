"""Frozen reference values for the built-in benchmark systems, the
step-by-step RK4 simulation that `sysid.sine_response` replaced by its
closed form, and the lifted sensitivity and cost assembled on the nominal's
dense realizations, which `youla` replaced by blocks in Schur coordinates:
the sensitivity once through the reduced weights M12~ M12 and M21 M21~ and
once as the stable part of the whole product M12~ T M21~, where `youla`
reads it off the cost map's observability Gramian; the certificate transfer
function on the nominal's closed-loop form, the sensitivity system at the
zero iterate; the LQG gradient as six block products of P and Sigma, where
`lqg` reads it off the certificate's first Markov parameter; and the LQR
gradient descent that evaluated every candidate gain in full (`lqr_terms`:
Sigma_K and P_K), where `lqg` solves P_K only for the accepted one; the
unreduced controller that `youla.assemble_controller` built from hand-sliced
blocks of DeltaK, and the Riccati controller that `lqg_optimal` padded block
by block, where both now append states to the packed matrix; and the
eigendecomposition factor of a Gramian that balanced truncation used, where
`solvers.psd_factor` now runs a pivoted Cholesky factorization; and the
static Gram matrix of the lifted cost by differences of the gradient
carrier, where `youla.static_quadratic_form` builds it from the
realizations.  The para-conjugate and the stable projection, which only
these references build on, live here too.

The optimal-controller matrices are two-decimal reference values; note the
sign of the second output-gain entry is -0.22, the only sign consistent
with A_K* = A - B K - L C at the same displayed precision.
"""

import math

import numpy as np

from lqgpo import solvers
from lqgpo.errors import SolverError, UnstableError
from lqgpo.lqg import (LQR_GAP_TOL, LQR_MAX_HALVINGS, LQR_STEP, build_certificate_matrices,
                       free_entries, lqr_terms)
from lqgpo.ss import (StateSpace, h2_norm_sq, minreal, parallel, series,
                      stable_antistable_split)
from lqgpo.youla import TRUNC_TOL, YoulaIterate, frechet_gradient

# Optimal controller for the two-state benchmark plant (two decimals).
A_K_STAR = np.array([[-1.1, 0.13], [1.19, -1.64]])
B_K_STAR = np.array([[0.11], [0.45]])
C_K_STAR = np.array([[0.62, -0.22]])
DISPLAY_TOL = 0.005

# Exact rational entries of the perturbation interconnection at the
# estimation benchmark controller (monic cubic denominator; ascending
# coefficients).  Fractions are exact: 13/12 = 1.0833..., 17/24 = 0.7083...,
# 1/12 = 0.0833..., 7/3 = 2.333..., 5/12 = 0.4166...
M22_DEN = np.array([5.0 / 12.0, 7.0 / 3.0, 2.0, 1.0])
M22_ENTRIES = {
    (0, 0): (np.array([1.0 / 12.0, 17.0 / 24.0, 13.0 / 12.0]), M22_DEN),
    (0, 2): (np.array([-1.0 / 6.0, -13.0 / 12.0]), M22_DEN),
    (1, 1): (np.array([1.0]), np.array([0.5, 1.0])),
    (2, 0): (np.array([1.0 / 6.0, 13.0 / 12.0]), M22_DEN),
    (2, 2): (np.array([0.5, 1.5, 1.0]), M22_DEN),
}
M22_ZERO_ENTRIES = [(0, 1), (1, 0), (1, 2), (2, 1)]

# Four-significant-digit reference values of the sensitivity system at the
# zero iterate for the same controller (used as a loose cross-check).
S0_11_AT_0 = -1.671 / 0.4167
S0_13_AT_0 = -2.081 / 0.4167
S0_31_AT_0 = 2.081 / 0.4167
S0_33_AT_0 = 2.683 / 0.4167


def para_conjugate(g):
    """Realize G~(s) = G(-s)^T.  Stable inputs become anti-stable."""
    return StateSpace(-g.A.T, -g.C.T, g.B.T, g.D.T)


def stable_projection(g):
    """The stable term of the unique stable/anti-stable decomposition."""
    return stable_antistable_split(g)[0]


def _rk4_step_ops_vector(A, b, h):
    """Propagation matrix and input weights of one fixed-step RK4 update
    for a single input column b."""
    n = A.shape[0]

    def update(x, u1, u2, u3):
        k1 = A @ x + b * u1
        k2 = A @ (x + 0.5 * h * k1) + b * u2
        k3 = A @ (x + 0.5 * h * k2) + b * u2
        k4 = A @ (x + h * k3) + b * u3
        return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    M0 = np.column_stack([update(e, 0.0, 0.0, 0.0) for e in np.eye(n)]) if n else np.zeros((0, 0))
    z = np.zeros(n)
    w1 = update(z, 1.0, 0.0, 0.0)
    w2 = update(z, 0.0, 1.0, 0.0)
    w3 = update(z, 0.0, 0.0, 1.0)
    return M0, w1, w2, w3


def sine_response_loop(g, omega, c_omega=1.0, settle_cycles=20, sample_cycles=10, step=None):
    """Sine-excitation estimate of G(j omega) by stepping the RK4 recursion
    one sample at a time, one pass per input channel, then least-squares
    fitting alpha sin + beta cos over the sample window (the step rule and
    window of `sysid.sine_response`)."""
    h = min(0.01, 0.05 / omega) if step is None else float(step)
    period = 2.0 * math.pi / omega
    n_settle = int(np.ceil(settle_cycles * period / h))
    n_sample = int(np.ceil(sample_cycles * period / h))
    n_total = n_settle + n_sample
    t = np.arange(n_total + 1) * h
    u_full = c_omega * np.sin(omega * t)
    u_mid = c_omega * np.sin(omega * (t + 0.5 * h))
    t_s = t[n_settle:]
    design = np.column_stack([np.sin(omega * t_s), np.cos(omega * t_s)])
    out = np.zeros((g.n_outputs, g.n_inputs), dtype=complex)
    for j in range(g.n_inputs):
        M0, w1, w2, w3 = _rk4_step_ops_vector(g.A, g.B[:, j], h)
        x = np.zeros(g.n_states)
        ys = np.empty((n_sample + 1, g.n_outputs))
        for k in range(n_total + 1):
            if k >= n_settle:
                ys[k - n_settle] = g.C @ x + g.D[:, j] * u_full[k]
            if k < n_total:
                x = M0 @ x + w1 * u_full[k] + w2 * u_mid[k] + w3 * u_full[k + 1]
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        out[:, j] = (coef[0] + 1j * coef[1]) / c_omega
    return out


def certificate_system(nom):
    """The certificate transfer function Cterm (sI - Acl)^-1 Bterm of the
    nominal's base controller, realized on the closed loop's Schur form as
    (T, Z^T Bterm, Cterm Z, 0): its own form."""
    cm = build_certificate_matrices(nom.cl)
    T, Z = nom.cl.form.T, nom.cl.form.Z
    return StateSpace(T, Z.T @ cm.Bterm, cm.Cterm @ Z,
                      np.zeros((cm.Cterm.shape[0], cm.Bterm.shape[1])))


def lqg_gradient_blocks(plant, ctrl, cl):
    """The cost gradients with respect to (A_K, B_K, C_K) as six block
    products of the closed loop's P and Sigma."""
    n = cl.n
    P1, P2 = cl.P[:n, :], cl.P[n:, :]
    S1, S2 = cl.Sigma[:n, :], cl.Sigma[n:, :]
    P22, S22 = cl.P[n:, n:], cl.Sigma[n:, n:]
    gA = 2.0 * (P2 @ S2.T)
    gB = 2.0 * (P22 @ ctrl.B_K @ plant.V + P2 @ S1.T @ plant.C.T)
    gC = 2.0 * (plant.R @ ctrl.C_K @ S22 + plant.B.T @ P1 @ S2.T)
    return gA, gB, gC


def assembled_controller_blocks(ctrl0, delta):
    """The unreduced controller of ctrl0 with DeltaK absorbed, as a strictly
    proper system built from seven blocks of DeltaK: states x_K | x_Delta."""
    q = ctrl0.order
    m1 = ctrl0.C_K.shape[0]
    m2 = ctrl0.B_K.shape[1]
    D = delta.D
    D12 = D[:m1, m2:]
    D21 = D[m1:, :m2]
    D22 = D[m1:, m2:]
    C1d = delta.C[:m1, :]
    C2d = delta.C[m1:, :]
    B1d = delta.B[:, :m2]
    B2d = delta.B[:, m2:]
    nd = delta.n_states
    A_new = np.zeros((q + nd, q + nd))
    A_new[:q, :q] = ctrl0.A_K + D22
    A_new[:q, q:] = C2d
    A_new[q:, :q] = B2d
    A_new[q:, q:] = delta.A
    B_new = np.vstack([ctrl0.B_K + D21, B1d])
    C_new = np.hstack([ctrl0.C_K + D12, C1d])
    return StateSpace(A_new, B_new, C_new, np.zeros((m1, m2)))


def lqg_optimal_blocks(plant, q):
    """The Riccati controller's (A_K, B_K, C_K), zero-padded block by block
    to order q >= n with -I on the padded states."""
    n = plant.n
    P = solvers.care(plant.A, plant.B, plant.Q, plant.R).solution
    K = np.linalg.solve(plant.R, plant.B.T @ P)
    H = solvers.care(plant.A.T, plant.C.T, plant.W, plant.V).solution
    L = np.linalg.solve(plant.V, plant.C @ H).T
    A_K = plant.A - plant.B @ K - L @ plant.C
    B_K = L
    C_K = -K
    if q > n:
        pad = q - n
        A_full = np.zeros((q, q))
        A_full[:n, :n] = A_K
        A_full[n:, n:] = -np.eye(pad)
        B_full = np.vstack([B_K, np.zeros((pad, B_K.shape[1]))])
        C_full = np.hstack([C_K, np.zeros((C_K.shape[0], pad))])
        return A_full, B_full, C_full
    return A_K, B_K, C_K


def sensitivity_dense(nom, it):
    """The sensitivity system as the stable part of G0 + M12~ M12 Q M21 M21~,
    G0 the certificate transfer function (`certificate_system`), on the
    nominal's own realizations: the reduced weights as `minreal` returns
    them, the iterate as given, and the stable projection of the sum from
    its own (sorted) Schur form."""
    left = minreal(series(para_conjugate(nom.M12), nom.M12), TRUNC_TOL)
    right = minreal(series(nom.M21, para_conjugate(nom.M21)), TRUNC_TOL)
    total = parallel(certificate_system(nom), series(left, series(it.combined(), right)), 1)
    S = stable_projection(total)
    S = S.with_feedthrough(np.zeros((S.n_outputs, S.n_inputs)))
    return minreal(S, TRUNC_TOL)


def lifted_cost_dense(nom, it):
    """`youla.lifted_cost` on the nominal's own realizations."""
    T = parallel(nom.M11, series(nom.M12, series(it.combined(), nom.M21)), 1)
    return h2_norm_sq(T.with_feedthrough(np.zeros((T.n_outputs, T.n_inputs))))


def sensitivity_projection_dense(nom, it):
    """The stable part of M12~ T M21~, T = M11 + M12 Q M21 realized as in
    `lifted_cost_dense`, from the sorted Schur form of the whole product and
    truncated as the descent truncates S, by `minreal` at `TRUNC_TOL`, whose
    truncation never leaves a stable system unstable: the sensitivity system
    from its definition, without the Gramian identity of `youla.sensitivity`."""
    T = parallel(nom.M11, series(nom.M12, series(it.combined(), nom.M21)), 1)
    T = T.with_feedthrough(np.zeros((T.n_outputs, T.n_inputs)))
    S = stable_projection(series(para_conjugate(nom.M12), series(T, para_conjugate(nom.M21))))
    return minreal(S, TRUNC_TOL)


def static_gram_differences(nom):
    """The Gram matrix of `youla.static_quadratic_form` from d + 1 gradient
    evaluations: the carrier's static part is affine in Q_stat with that
    matrix as its slope, so column l is the static part of `frechet_gradient`
    at Q_stat = E_l minus the one at zero, read on the free entries."""
    shape = (nom.q_rows, nom.q_cols)
    free = free_entries(shape, nom.mask_rows, nom.mask_cols)
    zero = YoulaIterate.zero(nom)
    base = frechet_gradient(nom, zero)[1]
    G = np.zeros((free[0].size, free[0].size))
    for l, pos in enumerate(zip(*free)):
        E = np.zeros(shape)
        E[pos] = 1.0
        G[:, l] = (frechet_gradient(nom, YoulaIterate(zero.Q_dyn, E))[1] - base)[free]
    return G


def psd_factor_eigh(M):
    """L with L L^T = M for a Gramian M, dropping its round-off directions,
    and ||L||_2, the square root of M's largest eigenvalue: one
    eigendecomposition, keeping the eigenvalues above 1e-14 of the largest."""
    w, V = np.linalg.eigh(M)
    w = np.clip(w, 0.0, None)
    top = w.max() if w.size else 0.0
    keep = w > top * 1e-14
    if not np.any(keep):
        return np.zeros((M.shape[0], 0)), 0.0
    return V[:, keep] * np.sqrt(w[keep]), float(np.sqrt(top))


def lqr_gradient_descent_loop(prob, K0, iters=5000):
    """`lqg.lqr_gradient_descent` with every candidate priced by `lqr_terms`:
    its cost, gap, Sigma_K and P_K, accepted or not."""
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
        floor = 1e-14 * (1.0 + abs(cost))
        for _ in range(LQR_MAX_HALVINGS):
            cand = K - eta * grad
            try:
                cand_cost, cand_gap, cand_Sigma, _ = lqr_terms(prob, cand)
            except (UnstableError, SolverError):
                eta *= 0.5
                halved = True
                continue
            if cand_cost <= cost + floor:
                K, cost, gap, Sigma = cand, cand_cost, cand_gap, cand_Sigma
                break
            eta *= 0.5
            halved = True
        else:
            break
        if not halved:
            eta = min(eta * 2.0, 1e8 * LQR_STEP)
        gap_norm = np.linalg.norm(gap, "fro")
        if gap_norm < best[0]:
            best = (gap_norm, K)
        history.append(cost)
    if not converged(gap, K):
        K = best[1]
    return K, history

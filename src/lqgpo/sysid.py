"""Data-driven estimation: frequency-response acquisition, rational fitting,
Laguerre-basis expansion of the sensitivity system, and Monte-Carlo
zeroth-order estimation of the masked residue.  Estimation works on whole
grids and whole bases: a grid's exact responses come from one batched
`freq_response` call, a rational fit takes arrays of frequencies, values
and weights, and all Laguerre coefficients of a system come from one
Sylvester solve against the block basis chain.  The zeroth-order estimator
runs on the odd part of the lifted cost, which is linear in the static
parameter and is measured once from exact cost probes.

The sine-excitation simulator and the zeroth-order estimator are written
against the noise-free setting; they validate the estimation pipeline
itself rather than robustness to measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import matrix_power

from . import solvers
from .errors import IdentifiabilityError
from .lqg import free_entries
from .ss import RationalScalar, StateSpace, _check_h2, freq_response, parallel, scaled
from .youla import NominalLft, YoulaIterate, lifted_cost

# Sampled responses uniformly below this are declared structurally zero
# channels.
STRUCTURAL_ZERO_TOL = 1e-10
# Amplitude of the cost probes along each Laguerre direction.
PROBE_STEP = 1e-5


def default_grid(n_points: int = 200, lo: float = 0.1, hi: float = 100.0, spacing: str = "log") -> np.ndarray:
    if n_points < 1 or not hi > lo:
        raise ValueError(f"grid needs n_points >= 1 and hi > lo, got {n_points}, {lo}, {hi}")
    if spacing == "log":
        if not lo > 0:
            raise ValueError(f"log-spaced grid needs lo > 0, got {lo}")
        return np.logspace(np.log10(lo), np.log10(hi), n_points)
    if spacing == "linear":
        return np.linspace(lo, hi, n_points)
    raise ValueError(f"unknown spacing {spacing!r}")


def _rk4_step_ops(A, B, h):
    """Propagation matrix and input weights of one fixed-step RK4 update,
    x+ = M0 x + W1 u(t) + W2 u(t + h/2) + W3 u(t + h), with one column of
    each W per input channel."""
    n, m = B.shape

    def update(x, u1, u2, u3):
        k1 = A @ x + B @ u1
        k2 = A @ (x + 0.5 * h * k1) + B @ u2
        k3 = A @ (x + 0.5 * h * k2) + B @ u2
        k4 = A @ (x + h * k3) + B @ u3
        return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    rest = np.zeros((m, n))
    M0 = update(np.eye(n), rest, rest, rest)
    I, O, x0 = np.eye(m), np.zeros((m, m)), np.zeros((n, m))
    return M0, update(x0, I, O, O), update(x0, O, I, O), update(x0, O, O, I)


def sine_response(
    g: StateSpace,
    omega: float,
    settle_cycles: int = 20,
    sample_cycles: int = 10,
    step: float | None = None,
) -> np.ndarray:
    """Estimate G(j omega) from sinusoidal excitation of every input channel.

    Each input channel is driven from rest with sin(omega t) through a
    fixed-step classical RK4 integrator (step h = min(0.01, 0.05 / omega)
    unless given); after settle_cycles periods, and at least until the
    slowest mode of the update M0 has decayed to rho(M0)^n <= eps, the
    outputs are least-squares fit to alpha sin + beta cos over sample_cycles
    periods, giving the response alpha + j beta.  The system is linear and
    starts from rest, so the estimate does not depend on the amplitude.

    The recursion is not stepped: with z = e^{j omega h} its update is
    x_{k+1} = M0 x_k + Im(z^k F), F = W1 + e^{j omega h/2} W2 + z W3, so
    its samples are x_k = Im(z^k X) - M0^k Im X with the periodic
    steady state X = (zI - M0)^-1 F, all channels in one solve.  The
    steady state fits exactly, to C X + D.  The fit of the M0^k transient
    over the window of N samples from step a takes the window sum
    S = sum_k (z M0)^k = (z M0)^a (I - z M0)^-1 (I - (z M0)^N) and the Gram
    matrix of the sin/cos design from the geometric sum of z^{2k}.  The
    result equals the stepped simulation's to rounding, at a cost
    independent of the number of steps.

    Raises ValueError for NaN or non-positive omega or step,
    settle_cycles < 0 or sample_cycles < 1, an unstable system, a step with
    omega h > 0.2, and a step outside RK4's stability region (spectral
    radius of M0 at least 1), where the recursion has no steady state.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    h = min(0.01, 0.05 / omega) if step is None else float(step)
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    if not (settle_cycles >= 0 and sample_cycles >= 1):
        raise ValueError("need settle_cycles >= 0 and sample_cycles >= 1, "
                         f"got {settle_cycles}, {sample_cycles}")
    if not g.is_stable():
        raise ValueError("sine excitation requires a stable system")
    if omega * h > 0.2:
        raise ValueError(f"step {h} too coarse for omega {omega} (omega*h > 0.2)")
    if g.n_states == 0:
        return g.D.astype(complex)
    M0, W1, W2, W3 = _rk4_step_ops(g.A, g.B, h)
    # M0 = R(hA) with RK4's stability function R(z) = 1 + z + z^2/2 + z^3/6 +
    # z^4/24, so its eigenvalues are R(h lambda) over the system's poles
    radius = np.abs(np.polynomial.polynomial.polyval(
        h * g.poles(), [1.0, 1.0, 1 / 2, 1 / 6, 1 / 24])).max()
    if radius >= 1.0:
        raise ValueError(f"step {h} is outside the RK4 stability region "
                         f"(spectral radius {radius:.6g} of the update)")
    period = 2.0 * math.pi / omega
    n_decay = math.ceil(math.log(np.finfo(float).eps) / math.log(radius)) if radius > 0 else 0
    n_settle = max(int(np.ceil(settle_cycles * period / h)), n_decay)
    n_window = int(np.ceil(sample_cycles * period / h)) + 1
    theta = omega * h
    z = np.exp(1j * theta)
    eye = np.eye(g.n_states)
    X = np.linalg.solve(z * eye - M0, W1 + np.exp(0.5j * theta) * W2 + z * W3)
    P, v = z * M0, X.imag
    Sv = matrix_power(P, n_settle) @ np.linalg.solve(eye - P, v - matrix_power(P, n_window) @ v)
    # sum over the window of z^{2k}, a Dirichlet kernel
    E = (np.exp(1j * theta * (2 * n_settle + n_window - 1))
         * math.sin(n_window * theta) / math.sin(theta))
    gram = 0.5 * np.array([[n_window - E.real, E.imag], [E.imag, n_window + E.real]])
    transient = np.linalg.solve(gram, np.stack([g.C @ Sv.imag, g.C @ Sv.real]).reshape(2, -1))
    transient = transient.reshape(2, g.n_outputs, g.n_inputs)
    return g.C @ X + g.D - (transient[0] + 1j * transient[1])


def fit_rational(omega, values, num_deg: int, den_deg: int, weights=None) -> RationalScalar:
    """Linearized least-squares fit of a scalar rational function.

    Solves min || sum a_k s^k - M(s) (s^n2 + sum b_k s^k) || over the
    samples M(j omega) = values (weights 1 unless given) with the
    denominator normalized monic, stacking real and imaginary parts of
    every weighted sample.  Raises IdentifiabilityError when the design
    matrix is rank deficient, ValueError for a negative degree, arrays that
    are not 1-D of one length, an omega that is not positive, and a weight
    that is not positive and finite.
    """
    if num_deg < 0 or den_deg < 0:
        raise ValueError(f"degrees must be non-negative, got {num_deg}, {den_deg}")
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=complex)
    weights = np.ones_like(omega) if weights is None else np.asarray(weights, dtype=float)
    if omega.ndim != 1 or values.shape != omega.shape or weights.shape != omega.shape:
        raise ValueError("omega, values and weights must be 1-D arrays of one length, got "
                         f"shapes {omega.shape}, {values.shape}, {weights.shape}")
    if not np.all(omega > 0):
        raise ValueError("omega must be positive")
    if not np.all((weights > 0) & (weights < math.inf)):
        raise ValueError("weights must be positive and finite")
    n_unknowns = num_deg + 1 + den_deg
    if omega.size < n_unknowns:
        raise IdentifiabilityError(f"need at least {n_unknowns} samples, got {omega.size}")
    powers = (1j * omega)[:, None] ** np.arange(max(num_deg, den_deg) + 1)
    A = weights[:, None] * np.hstack([powers[:, : num_deg + 1],
                                      -values[:, None] * powers[:, :den_deg]])
    b = weights * values * powers[:, den_deg]
    A_real = np.vstack([A.real, A.imag])
    b_real = np.concatenate([b.real, b.imag])
    col_scale = np.linalg.norm(A_real, axis=0)
    col_scale[col_scale == 0] = 1.0
    x, _, rank, sv = np.linalg.lstsq(A_real / col_scale, b_real, rcond=None)
    if rank < n_unknowns:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        raise IdentifiabilityError(
            "unidentifiable: rank-deficient normal system",
            condition=cond,
            rank=int(rank),
            unknowns=n_unknowns,
        )
    x = x / col_scale
    num = x[: num_deg + 1]
    den = np.concatenate([x[num_deg + 1 :], [1.0]])
    return RationalScalar(num, den)


def identify_m22(
    g: StateSpace, grid, degrees, mode: str = "direct"
) -> list[list[RationalScalar | None]]:
    """Fit every entry of a transfer matrix individually.

    `degrees` is either one (num_deg, den_deg) pair for all entries or a
    dict keyed by (i, j).  In mode "sine" the responses come from
    `sine_response`.  Entries whose sampled response stays below
    STRUCTURAL_ZERO_TOL across the grid are reported as structurally zero
    (None) and skipped.
    """
    grid = np.asarray(list(grid), dtype=float)
    if mode == "direct":
        responses = freq_response(g, grid)
    elif mode == "sine":
        responses = np.array([sine_response(g, w) for w in grid])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result: list[list[RationalScalar | None]] = []
    for i in range(g.n_outputs):
        row: list[RationalScalar | None] = []
        for j in range(g.n_inputs):
            values = responses[:, i, j]
            if np.max(np.abs(values)) < STRUCTURAL_ZERO_TOL:
                row.append(None)
                continue
            n1, n2 = degrees[(i, j)] if isinstance(degrees, dict) else degrees
            row.append(fit_rational(grid, values, n1, n2))
        result.append(row)
    return result


@dataclass(frozen=True)
class LaguerreBasis:
    """Orthonormal H2 basis sqrt(2a)/(s+a) * ((s-a)/(s+a))^k, k = 0..order."""

    pole: float
    order: int

    def __post_init__(self):
        if not 0 < self.pole < math.inf:
            raise ValueError(f"pole must be positive and finite, got {self.pole}")
        if self.order < 0:
            raise ValueError("order must be nonnegative")

    def chain(self) -> StateSpace:
        """One-input system whose outputs are the first order+1 basis functions.

        The k-th output only involves the first k+1 states of the chain, so
        truncating states is exact for lower-order functions.
        """
        a = self.pole
        n = self.order + 1
        root = math.sqrt(2.0 * a)
        A = -2.0 * a * np.tril(np.ones((n, n)), -1)
        np.fill_diagonal(A, -a)
        A[1:, 0] = root
        B = np.zeros((n, 1))
        B[0, 0] = 1.0
        C = -2.0 * a * np.tril(np.ones((n, n)))
        C[:, 0] = root
        return StateSpace(A, B, C, np.zeros((n, 1)))

    def function(self, k: int) -> StateSpace:
        """SISO realization of the k-th basis function."""
        if not 0 <= k <= self.order:
            raise ValueError(f"k must be in [0, {self.order}]")
        chain = self.chain()
        m = k + 1
        return StateSpace(
            chain.A[:m, :m], chain.B[:m], chain.C[k : k + 1, :m], np.zeros((1, 1))
        )


def laguerre_project(s_true: StateSpace, basis: LaguerreBasis) -> np.ndarray:
    """Per-entry expansion coefficients <S_ij, phi_k> of a stable strictly
    proper system; shape (outputs, inputs, order+1).

    All of them come from one Sylvester solve against the block chain
    kron(I_m, chain) of (A_ch, B_ch): <S_ij, phi_k> = C_i X_j c_k^T, where
    X = [X_1 .. X_m] solves A X + X A_ch^T + B B_ch^T = 0 and c_k is the
    chain's k-th output row.  The chain is lower triangular, so A_ch^T is
    its own Schur form.  Raises UnstableError for an unstable system and
    ValueError for one with a feedthrough.
    """
    _check_h2(s_true, "laguerre_project")
    chain = basis.chain()
    eye = np.eye(s_true.n_inputs)
    block = solvers.schur_form(np.kron(eye, chain.A).T)
    X = solvers.solve(s_true.form, block, s_true.B @ np.kron(eye, chain.B).T).solution
    return (s_true.C @ X).reshape(s_true.n_outputs, s_true.n_inputs, -1) @ chain.C.T


def laguerre_reconstruct(coeffs: np.ndarray, basis: LaguerreBasis) -> StateSpace:
    """Assemble the truncated expansion sum_k c_k(i,j) phi_k as one system."""
    coeffs = np.asarray(coeffs, dtype=float)
    p, m, n_fun = coeffs.shape
    if n_fun != basis.order + 1:
        raise ValueError("coefficient count must match the basis order")
    chain = basis.chain()
    nc = chain.n_states
    A = np.kron(np.eye(m), chain.A)
    B = np.zeros((m * nc, m))
    C = np.zeros((p, m * nc))
    for j in range(m):
        B[j * nc : (j + 1) * nc, j : j + 1] = chain.B
        C[:, j * nc : (j + 1) * nc] = coeffs[:, j, :] @ chain.C
    return StateSpace(A, B, C, np.zeros((p, m)))


def laguerre_coeffs_zeroth(
    nom: NominalLft, it: YoulaIterate, basis: LaguerreBasis
) -> np.ndarray:
    """Expansion coefficients of the sensitivity system from cost probes.

    Each coefficient is the symmetric difference quotient of the lifted cost
    along the matching basis direction, (J(+c) - J(-c)) / (4c) with
    c = PROBE_STEP; the factor accounts for the derivative carrying twice the
    sensitivity system.
    """
    rows, cols = nom.q_rows, nom.q_cols
    out = np.zeros((rows, cols, basis.order + 1))
    for k in range(basis.order + 1):
        phi = basis.function(k)
        for i in range(rows):
            for j in range(cols):
                B_emb = np.zeros((phi.n_states, cols))
                B_emb[:, j] = phi.B[:, 0]
                C_emb = np.zeros((rows, phi.n_states))
                C_emb[i, :] = phi.C[0, :]
                direction = StateSpace(phi.A, B_emb, C_emb, np.zeros((rows, cols)))
                plus = YoulaIterate(
                    parallel(it.Q_dyn, scaled(direction, PROBE_STEP), 1), it.Q_stat
                )
                minus = YoulaIterate(
                    parallel(it.Q_dyn, scaled(direction, -PROBE_STEP), 1), it.Q_stat
                )
                out[i, j, k] = (
                    lifted_cost(nom, plus) - lifted_cost(nom, minus)
                ) / (4.0 * PROBE_STEP)
    return out


def reduce_order(
    coeffs_entry: np.ndarray,
    basis: LaguerreBasis,
    num_deg: int,
    den_deg: int,
    grid,
) -> RationalScalar:
    """Fit a reduced-order rational function to one entry's Laguerre expansion.

    The expansion is evaluated on the grid and passed through the rational
    least-squares fit.  The weights combine trapezoid quadrature cell widths
    with a denominator-magnitude rolloff, which compensates the
    high-frequency amplification of the linearized residual and makes the
    weighted fit track the H2 error.
    """
    coeffs_entry = np.asarray(coeffs_entry, dtype=float).reshape(1, 1, -1)
    expansion = laguerre_reconstruct(coeffs_entry, basis)
    grid = np.asarray(list(grid), dtype=float)
    edges = np.concatenate(
        [[grid[0]], np.sqrt(grid[:-1] * grid[1:]), [grid[-1]]]
    )
    weights = np.sqrt(np.diff(edges)) / (1.0 + grid**2) ** (den_deg / 2.0)
    return fit_rational(grid, freq_response(expansion, grid)[:, 0, 0], num_deg, den_deg, weights)


@dataclass(frozen=True)
class ZoConfig:
    """Monte-Carlo settings for the zeroth-order residue estimator."""

    radius: float
    samples: int
    seed: int

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.samples <= 0:
            raise ValueError("samples must be positive")


def zo_gradient_estimate(cost_fn, shape, mask_rows, mask_cols, cfg: ZoConfig) -> np.ndarray:
    """Two-point sphere-sampling gradient estimate over the masked subspace.

    Directions are uniform on the Frobenius-norm sphere of radius cfg.radius
    inside the subspace of matrices with zero top-left mask block.  Each
    sample draws from an independent substream of the master seed and the
    sum is accumulated in sample order, so the result is reproducible.
    """
    positions = free_entries(shape, mask_rows, mask_cols)
    d = positions[0].size
    acc = np.zeros(shape)
    factor = d / (2.0 * cfg.radius**2)
    for i in range(cfg.samples):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        v = rng.standard_normal(d)
        v *= cfg.radius / np.linalg.norm(v)
        U = np.zeros(shape)
        U[positions] = v
        diff = cost_fn(U) - cost_fn(-U)
        if not np.isfinite(diff):
            raise ArithmeticError("non-finite cost probe in zeroth-order estimate")
        acc += factor * diff * U
    return acc / cfg.samples


def zo_residue_estimate(nom: NominalLft, it: YoulaIterate, cfg: ZoConfig) -> np.ndarray:
    """Zeroth-order estimate of the static-part gradient 2*mask(Res(S)).

    The two-point estimator only sees the odd part of the cost,
    J(U) - J(-U) = 2 g^T u, because the lifted cost is exactly quadratic in
    the static parameter.  So g is taken once from 2d exact central
    differences over the d masked entries, checked against one honest probe
    along all of them, and the Monte-Carlo sweep runs on U -> g^T u.  The
    estimate is that of honest probes up to rounding.
    """
    it.validate(nom)
    shape = (nom.q_rows, nom.q_cols)
    positions = free_entries(shape, nom.mask_rows, nom.mask_cols)
    if not positions[0].size:
        return np.zeros(shape)

    def honest(U):
        return lifted_cost(nom, YoulaIterate(it.Q_dyn, it.Q_stat + U))

    g = np.zeros(shape)
    for pos in zip(*positions):
        E = np.zeros(shape)
        E[pos] = 1.0
        g[pos] = (honest(E) - honest(-E)) / 2.0
    probe = np.zeros(shape)
    probe[positions] = 0.37
    j_plus = honest(probe)
    if abs(j_plus - honest(-probe) - 2.0 * np.vdot(g, probe)) > 1e-8 * max(1.0, abs(j_plus)):
        raise ArithmeticError("odd part of the cost failed validation")

    def odd_part(U):
        return float(np.vdot(g, U))

    return zo_gradient_estimate(odd_part, shape, nom.mask_rows, nom.mask_cols, cfg)

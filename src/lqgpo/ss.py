"""State-space algebra for rational transfer matrices.

Every frequency-domain object in this package is carried as a real
state-space quadruple (A, B, C, D) with transfer matrix
G(s) = C (sI - A)^-1 B + D.  The module provides the compositions
(series, parallel), the additive stable/anti-stable decomposition, H2 norms
and inner products via Gramians, an upper bound on the H-infinity norm by
the Hamiltonian level-set iteration, balanced-truncation minimal
realizations, and conversion from scalar rational functions.

All operations are pure; `StateSpace` values are immutable after
construction and safe to share across threads.  Every matrix field of a
problem record, here and in `lqg` and `youla`, is a `frozen_matrix`: a
finite, 2-D, read-only float copy.  A system's real Schur form
(`StateSpace.form`) is computed on first use, or composed by the `ss`
constructor that built it, and kept with it; every stability decision, pole,
Gramian and H2 value of the system reads that one form.  A system re-wired or
rescaled from another (`StateSpace.with_io`, `scaled`) shares that system's
A and form, and `parallel` of two systems whose forms are known composes
the block-diagonal form from theirs: no part is factored just to compose it.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import InitVar, dataclass

import numpy as np

from . import solvers
from .errors import AxisPoleError, DimensionError, UnstableError

logger = logging.getLogger(__name__)
# Minimum distance of eigenvalues from the imaginary axis for the
# stable/anti-stable split to be well posed.
EPS_SPLIT = 1e-8
# Default relative Hankel singular value threshold for minreal.
MINREAL_TOL = 1e-8
# Hankel threshold of the minimal entry realization in ss_entry_to_rational.
ENTRY_TOL = 1e-10
# hinf_norm_est's relative accuracy: its value lies within a factor
# 1 + 2 HINF_TOL above the H-infinity norm whenever its axis test decides.
HINF_TOL = 1e-10
# A Hamiltonian eigenvalue counts as imaginary when |Re| <= AXIS_TOL ||H||_1.
AXIS_TOL = 1e-10


def frozen_matrix(value, name: str, copy: bool = True) -> np.ndarray:
    """value as a finite, 2-D, read-only float copy: the one check of every
    matrix field of a problem record.  A bad value raises DimensionError or
    ValueError naming the field.  With copy False, a value that already is a
    C-ordered float array is kept, not copied."""
    arr = np.array(value, dtype=float, order="C", ndmin=2, copy=True if copy else None)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def set_fields(record, **values) -> None:
    """Set the fields of a frozen dataclass record from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(record, name, value)


def json_values(data: dict, keys, what: str) -> list:
    """A JSON record's values at keys, in order; missing keys raise ValueError."""
    missing = set(keys) - set(data)
    if missing:
        raise ValueError(f"{what} JSON missing keys: {sorted(missing)}")
    return [data[k] for k in keys]


@dataclass(frozen=True)
class StateSpace:
    """Immutable state-space realization of a rational transfer matrix.

    given_form, when given, is a real Schur form of A that the constructor
    which composed the system hands over; the system keeps it as its `form`, on
    its own frozen A.  A form on the very read-only, C-ordered matrix passed
    as A keeps that matrix, not a copy, so the two systems of `with_io`
    share A and one form."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    given_form: InitVar[solvers.SchurForm | None] = None

    KEYS = ("A", "B", "C", "D")

    def __post_init__(self, given_form):
        keep = (given_form is not None and given_form.A is self.A
                and self.A.flags.c_contiguous and not self.A.flags.writeable)
        A = frozen_matrix(self.A, "A", copy=not keep)
        B, C, D = (frozen_matrix(getattr(self, k), k) for k in self.KEYS[1:])
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionError(f"C has {C.shape[1]} cols, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionError(
                f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}"
            )
        set_fields(self, A=A, B=B, C=C, D=D)
        if given_form is not None:
            if given_form.A.shape != A.shape:
                raise DimensionError(f"form of a {given_form.A.shape} matrix, A is {A.shape}")
            # the system's own form, set once here, as `form` would on first use
            set_fields(self, form=given_form if keep else given_form.on(A))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @functools.cached_property
    def form(self) -> solvers.SchurForm:
        # the one real Schur form of A, computed on first use, or composed by
        # the `ss` constructor that built the system; a pure function of the
        # read-only A, so concurrent first use only computes it twice
        return solvers.schur_form(self.A)

    def poles(self) -> np.ndarray:
        return self.form.eigs

    def is_stable(self) -> bool:
        return self.form.is_stable()

    def is_strictly_proper(self) -> bool:
        return not np.any(self.D)

    def with_io(self, B, C, D) -> "StateSpace":
        """The system (A, B, C, D) on this one's A, sharing this one's form
        (computed here if it is not yet known)."""
        return StateSpace(self.A, B, C, D, self.form)

    def with_feedthrough(self, D) -> "StateSpace":
        return self.with_io(self.B, self.C, D)

    def to_dict(self) -> dict:
        return {k: getattr(self, k).tolist() for k in self.KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "StateSpace":
        A, B, C, D = json_values(data, cls.KEYS, "state-space")
        D = np.asarray(D, dtype=float)
        n = len(A)
        return cls(A if n else np.zeros((0, 0)), B if n else np.zeros((0, D.shape[1])),
                   np.asarray(C, dtype=float).reshape(D.shape[0], n), D)


def zero_system(n_outputs: int, n_inputs: int) -> StateSpace:
    """The identically-zero transfer matrix with no states."""
    return static_gain(np.zeros((n_outputs, n_inputs)))


def entry(g: StateSpace, i: int, j: int) -> StateSpace:
    """The SISO system of entry (i, j): (A, B[:, j], C[i, :], D[i, j])."""
    return StateSpace(g.A, g.B[:, j : j + 1], g.C[i : i + 1, :], g.D[i : i + 1, j : j + 1])


def static_gain(D) -> StateSpace:
    """A constant transfer matrix G(s) = D."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return StateSpace(np.zeros((0, 0)), np.zeros((0, D.shape[1])), np.zeros((D.shape[0], 0)), D)


def scaled(g: StateSpace, alpha: float) -> StateSpace:
    """alpha * G(s), on g's A and form."""
    return g.with_io(g.B, alpha * g.C, alpha * g.D)


def _known_form(g: StateSpace) -> solvers.SchurForm | None:
    # g's form if it is computed or was composed, without computing it
    return vars(g).get("form")


def series(g: StateSpace, h: StateSpace) -> StateSpace:
    """Realize the product G(s) H(s); the signal passes through H first."""
    if g.n_inputs != h.n_outputs:
        raise DimensionError(
            f"series: G expects {g.n_inputs} inputs, H supplies {h.n_outputs} outputs"
        )
    ng, nh = g.n_states, h.n_states
    A = np.zeros((ng + nh, ng + nh))
    A[:ng, :ng] = g.A
    A[:ng, ng:] = g.B @ h.C
    A[ng:, ng:] = h.A
    B = np.vstack([g.B @ h.D, h.B])
    C = np.hstack([g.C, g.D @ h.C])
    D = g.D @ h.D
    return StateSpace(A, B, C, D)


def parallel(g: StateSpace, h: StateSpace, sign: int = 1) -> StateSpace:
    """Realize G(s) + sign * H(s) on a block-diagonal state.  When both forms
    are known, the sum's is composed from them
    (`solvers.block_diagonal_form`)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if (g.n_inputs, g.n_outputs) != (h.n_inputs, h.n_outputs):
        raise DimensionError("parallel: input/output dimensions must match")
    ng, nh = g.n_states, h.n_states
    A = np.zeros((ng + nh, ng + nh))
    A[:ng, :ng] = g.A
    A[ng:, ng:] = h.A
    B = np.vstack([g.B, h.B])
    C = np.hstack([g.C, sign * h.C])
    D = g.D + sign * h.D
    fg, fh = _known_form(g), _known_form(h)
    form = None if fg is None or fh is None else solvers.block_diagonal_form(A, fg, fh)
    return StateSpace(A, B, C, D, form)


def freq_response(g: StateSpace, omega) -> np.ndarray:
    """Evaluate G(j omega) by a direct complex linear solve.

    omega is one frequency or an array of them; an array gives the responses
    stacked on a leading axis, from one batched solve.  Raises AxisPoleError
    when j omega is an eigenvalue of A for any omega given.
    """
    w = np.asarray(omega, dtype=float)
    if g.n_states == 0:
        return np.broadcast_to(g.D.astype(complex), w.shape + g.D.shape).copy()
    M = 1j * w[..., None, None] * np.eye(g.n_states) - g.A
    try:
        X = np.linalg.solve(M, g.B)
    except np.linalg.LinAlgError as exc:
        raise AxisPoleError(f"j*w is an eigenvalue of A for a w in "
                            f"{np.array2string(w, threshold=8)}") from exc
    return g.C @ X + g.D


def stable_antistable_split(g: StateSpace) -> tuple[StateSpace, StateSpace]:
    """Additive decomposition G = G_stable + G_anti.

    The anti-stable term is strictly proper; the feedthrough D stays with
    the stable term.  Requires no eigenvalue within EPS_SPLIT of the axis.
    The system's own Schur form is reordered stable-first, and both terms
    come out in its Schur coordinates: their A is quasi-triangular, which
    `solvers.schur_form` takes as its own form.
    """
    n = g.n_states
    if n == 0:
        return g, zero_system(g.n_outputs, g.n_inputs)
    # T = Z^T A Z with the first k states spanning the stable subspace.
    form, k = solvers.stable_first_form(g.form)
    worst = form.eigs[np.argmin(np.abs(form.eigs.real))]
    if abs(worst.real) <= EPS_SPLIT:
        raise AxisPoleError(f"eigenvalue {worst} within {EPS_SPLIT} of the imaginary axis")
    T, Z = form.T, form.Z
    Bz = Z.T @ g.B
    Cz = g.C @ Z
    X = solvers.decoupling(form, k)
    # In the decoupled coordinates: B <- S^-1 Bz, C <- Cz S with S = [[I,X],[0,I]].
    B1 = Bz[:k] - X @ Bz[k:]
    B2 = Bz[k:]
    C1 = Cz[:, :k]
    C2 = Cz[:, :k] @ X + Cz[:, k:]
    stable = StateSpace(T[:k, :k], B1, C1, g.D)
    anti = StateSpace(T[k:, k:], B2, C2, np.zeros_like(g.D))
    return stable, anti


def stable_residue_sum(g: StateSpace) -> np.ndarray:
    """Sum of the matrix residues of a strictly proper G at its stable poles.

    Equals C_s B_s for the stable subsystem of the additive decomposition.
    """
    if np.any(g.D):
        raise ValueError("stable_residue_sum requires a strictly proper system")
    stable, _ = stable_antistable_split(g)
    if stable.n_states == 0:
        return np.zeros((g.n_outputs, g.n_inputs))
    return stable.C @ stable.B


def gramian_ctrb(g: StateSpace) -> np.ndarray:
    """Controllability Gramian P of a stable system: A P + P A^T + B B^T = 0."""
    return solvers.solve(g.form, g.form, g.B @ g.B.T, trans_b=True).solution


def gramian_obsv(g: StateSpace) -> np.ndarray:
    """Observability Gramian X of a stable system: A^T X + X A + C^T C = 0."""
    return solvers.solve(g.form, g.form, g.C.T @ g.C, trans_a=True).solution


def _check_h2(g, what):
    """Raise unless g is stable and strictly proper."""
    if not g.is_strictly_proper():
        raise ValueError(f"{what} requires a strictly proper system")
    if not g.is_stable():
        raise UnstableError(f"{what} requires a stable system")


def h2_norm_sq(g: StateSpace) -> float:
    """Squared H2 norm tr(B^T X B) with X the observability Gramian."""
    _check_h2(g, "h2_norm_sq")
    X = gramian_obsv(g)
    return float(max(np.trace(g.B.T @ X @ g.B), 0.0))


def h2_inner(g: StateSpace, h: StateSpace) -> float:
    """H2 inner product of two stable strictly proper systems.

    Computed as tr(B_g^T Y B_h) with Y the cross block of the joint
    observability Gramian of the stacked realization, i.e. the solution of
    A_g^T Y + Y A_h + C_g^T C_h = 0.
    """
    if (g.n_inputs, g.n_outputs) != (h.n_inputs, h.n_outputs):
        raise DimensionError("h2_inner requires matching dimensions")
    _check_h2(g, "h2_inner")
    _check_h2(h, "h2_inner")
    fh = h.form
    if fh is g.form and h is not g:
        # two systems on one form (`with_io`): their cross Gramian solves a
        # Sylvester equation, which `solve` takes for a Lyapunov one on a
        # single form
        fh = fh.on(fh.A)
    Y = solvers.solve(g.form, fh, g.C.T @ h.C, trans_a=True).solution
    return float(np.trace(g.B.T @ Y @ h.B))


def _mirror(g: StateSpace) -> StateSpace:
    # G(-s): reflects anti-stable spectra into the left half-plane.
    return StateSpace(-g.A, g.B, -g.C, g.D)


def _balanced_truncation_stable(g: StateSpace, tol: float) -> tuple[StateSpace, float]:
    """Square-root balanced truncation of a stable system (Tombs &
    Postlethwaite 1987), and the squared H2 norm of the strictly proper part
    of what it returns.

    Both Gramians, solved and certified by `solvers.solve`, are factored by
    `solvers.psd_factor` (pivoted Cholesky), P = Lc Lc^T and X = Lo Lo^T; the
    round-off cut drops the directions of each whose pivot falls at or below
    1e-14 times its largest diagonal entry.  The Hankel values are the
    singular values sigma of Lo^T Lc, and those above tol sigma_1 and above
    the product's noise floor 30 eps ||Lo||_2 ||Lc||_2 are kept; the 2-norms
    are computed only when the floor's Frobenius-norm bound reaches
    tol sigma_1.  The reduced realization is balanced, with observability
    Gramian diag(sigma) on the kept values, so its norm is
    sum_i sigma_i ||row i of B_r||^2, without another solve.  Truncation keeps
    stability only in exact arithmetic, so a reduced realization that is not
    stable is discarded and g returned, with its norm ||Lo^T B||_F^2.
    """
    if g.n_states == 0:
        return g, 0.0
    Lc, Lo = solvers.psd_factor(gramian_ctrb(g)), solvers.psd_factor(gramian_obsv(g))
    if Lc.shape[1] == 0 or Lo.shape[1] == 0:
        return static_gain(g.D), 0.0
    U, sv, Vt = np.linalg.svd(Lo.T @ Lc, full_matrices=False)
    thresh = tol * sv[0]
    noise = 30 * np.finfo(float).eps
    # the noise floor binds only if its Frobenius-norm bound reaches thresh
    if noise * np.linalg.norm(Lo) * np.linalg.norm(Lc) > thresh:
        thresh = max(thresh, noise * np.linalg.norm(Lo, 2) * np.linalg.norm(Lc, 2))
    r = int(np.sum(sv > thresh))
    if r == 0:
        return static_gain(g.D), 0.0
    s_half = 1.0 / np.sqrt(sv[:r])
    T = Lc @ Vt[:r].T * s_half
    Tinv = (U[:, :r] * s_half).T @ Lo.T
    Br = Tinv @ g.B
    red = StateSpace(Tinv @ g.A @ T, Br, g.C @ T, g.D)
    if red.is_stable():
        return red, float(sv[:r] @ (Br * Br).sum(axis=1))
    logger.debug("discarding marginal truncation (%d states kept)", red.n_states)
    LoB = Lo.T @ g.B
    return g, float((LoB * LoB).sum())


def minreal_h2(g: StateSpace, tol: float = MINREAL_TOL) -> tuple[StateSpace, float]:
    """`minreal` of a stable, strictly proper system, and the squared H2 norm
    of the result, read off the truncation's own Hankel values and factors
    (see `_balanced_truncation_stable`): no Gramian is solved for the norm.
    Raises as `h2_norm_sq` does."""
    _check_h2(g, "minreal_h2")
    return _balanced_truncation_stable(g, tol)


def minreal(g: StateSpace, tol: float = MINREAL_TOL) -> StateSpace:
    """Balanced-truncation minimal realization.

    Keeps the Hankel singular values above tol times the largest one; the
    stable and anti-stable parts are reduced separately (the anti-stable part
    via its mirror image) and re-joined.  A part whose truncation leaves its
    side of the axis is kept unreduced, so a stable system stays stable.
    """
    if g.form.is_stable(EPS_SPLIT):
        return _balanced_truncation_stable(g, tol)[0]
    stable, anti = stable_antistable_split(g)
    red_s = _balanced_truncation_stable(stable, tol)[0]
    red_a = _mirror(_balanced_truncation_stable(_mirror(anti), tol)[0])
    return parallel(red_s, red_a, 1)


def _peak_gain(g: StateSpace, omegas) -> float:
    """Largest sigma_max(G(j w)) over the given frequencies (0 for none)."""
    gains = np.linalg.norm(freq_response(g, omegas), 2, axis=(-2, -1))
    return float(np.max(gains, initial=0.0))


def _axis_crossings(g: StateSpace, gamma: float) -> np.ndarray:
    """Sorted frequencies w > 0 at which gamma is a singular value of G(jw).

    They are the imaginary-axis eigenvalues j w of the Hamiltonian of level
    gamma > sigma_max(D), in Bruinsma & Steinbuch's scaling.
    """
    A, B, C, D = g.A, g.B, g.C, g.D
    R = gamma * np.eye(g.n_inputs) - D.T @ D / gamma
    S = gamma * np.eye(g.n_outputs) - D @ D.T / gamma
    F = A + B @ np.linalg.solve(R, D.T @ C) / gamma
    H = np.block([[F, B @ np.linalg.solve(R, B.T)], [-C.T @ np.linalg.solve(S, C), -F.T]])
    eigs = solvers.spectrum(H)
    on_axis = np.abs(eigs.real) <= AXIS_TOL * np.linalg.norm(H, 1)
    return np.sort(eigs.imag[on_axis & (eigs.imag > 0)])


def _inverse_frequency(g: StateSpace) -> StateSpace:
    """G(1/s) = (A^-1, A^-1 B, -C A^-1, D - C A^-1 B) for an invertible A: the
    gain of G at w is its gain at 1/w, so G's limit w -> infinity is its
    point w = 0, and its feedthrough is G(0)."""
    Ainv = np.linalg.inv(g.A)
    AinvB = Ainv @ g.B
    return StateSpace(Ainv, AinvB, -g.C @ Ainv, g.D - g.C @ AinvB)


def _level_set(g: StateSpace, lb: float, crossings) -> tuple[float | None, float]:
    """The level-set iteration on G from the lower bound lb > 0.  At the level
    gamma = (1 + 2 HINF_TOL) lb, crossings(gamma) gives the sorted frequencies
    where the gain of G crosses gamma, and lb rises to the largest gain at
    the midpoints of consecutive crossings.  Returns gamma once no crossing
    is left, or None when the midpoints do not raise lb (the axis test cannot
    decide), each with the lb reached."""
    while lb > 0:
        gamma = (1.0 + 2.0 * HINF_TOL) * lb
        w = crossings(gamma)
        if w.size == 0:
            return float(gamma), lb
        peak = _peak_gain(g, 0.5 * (w[1:] + w[:-1]))
        if not peak > lb:
            break
        lb = peak
    return None, lb


def hinf_norm_est(g: StateSpace) -> float:
    """The H-infinity norm of a stable system, bounded from above.

    Level-set iteration (Boyd & Balakrishnan 1990; Bruinsma & Steinbuch
    1990).  A lower bound lb starts at the largest of sigma_max(D), the gain
    at w = 0 and the gain at the least-damped pole's natural frequency.  At
    the level gamma = (1 + 2 HINF_TOL) lb, the imaginary-axis eigenvalues of
    the Hamiltonian are the frequencies where the gain crosses gamma, and lb
    rises to the largest gain at the midpoints of consecutive crossings.
    With no crossing left, gamma is returned, so that
    ||G|| <= value <= (1 + 2 HINF_TOL) ||G||.

    As gamma approaches sigma_max(D), the gain's limit at w -> infinity, G's
    Hamiltonian grows like 1 / (gamma - sigma_max(D)) and its axis test
    stops deciding.  When the midpoints do not raise lb, the iteration goes
    on from the lb reached on G(1/s), which has the same gains with w -> 1/w
    and feedthrough G(0), so that limit is its well-scaled point w = 0.
    When lb is 0 (a noise-level system), or neither realization decides,
    the Hankel bound sigma_max(D) + 2 sum(sigma_i) (Enns 1984; Glover 1984)
    is returned instead.  Raises UnstableError for an unstable system.
    """
    if not g.is_stable():
        raise UnstableError("hinf_norm_est requires a stable system")
    poles = g.poles()
    probes = [0.0]
    if poles.size:
        probes.append(abs(poles[np.argmax(np.abs(poles.imag) / np.abs(poles))]))
    lb = max(np.linalg.norm(g.D, 2), _peak_gain(g, probes))
    value, lb = _level_set(g, lb, lambda gamma: _axis_crossings(g, gamma))
    if value is None and lb > 0:
        inv = _inverse_frequency(g)
        value, lb = _level_set(g, lb, lambda gamma: np.sort(1.0 / _axis_crossings(inv, gamma)))
    if value is not None:
        return value
    Lc, Lo = solvers.psd_factor(gramian_ctrb(g)), solvers.psd_factor(gramian_obsv(g))
    hankel = np.linalg.svd(Lo.T @ Lc, compute_uv=False)
    return float(np.linalg.norm(g.D, 2) + 2.0 * hankel.sum())


@dataclass(frozen=True)
class RationalScalar:
    """Scalar rational function num(s)/den(s), coefficients in ascending powers.

    The denominator is normalized to be monic on construction.
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=float))
        den = np.atleast_1d(np.asarray(self.den, dtype=float))
        if den.size == 0:
            raise ValueError("denominator must be non-empty")
        lead = den[-1]
        if abs(lead) < 1e-300:
            raise ValueError("denominator leading coefficient is zero")
        num = num / lead
        den = den / lead
        num.setflags(write=False)
        den.setflags(write=False)
        set_fields(self, num=num, den=den)

    @property
    def num_degree(self) -> int:
        return self.num.size - 1

    @property
    def den_degree(self) -> int:
        return self.den.size - 1

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        return np.polynomial.polynomial.polyval(
            s, self.num
        ) / np.polynomial.polynomial.polyval(s, self.den)


def ss_entry_to_rational(g: StateSpace, i: int, j: int) -> RationalScalar | None:
    """Exact minimal rational form of one transfer-matrix entry.

    The entry subsystem is reduced to a minimal realization (Hankel threshold
    ENTRY_TOL); the denominator is the monic polynomial whose roots are its
    poles (read off its Schur form) and the numerator is recovered by
    interpolation at pole-free real points.
    Returns None for a structurally zero entry.
    """
    sub = minreal(entry(g, i, j), ENTRY_TOL)
    n = sub.n_states
    if n == 0:
        if abs(sub.D[0, 0]) == 0.0:
            return None
        return RationalScalar([sub.D[0, 0]], [1.0])
    poles = sub.poles()
    den = np.poly(poles)[::-1]
    n_num = n if np.any(sub.D) else n - 1
    radius = 1.0 + np.abs(poles).max()
    points = radius * (1.0 + np.arange(n_num + 1))
    den_vals = np.polynomial.polynomial.polyval(points, den)
    g_vals = np.array(
        [
            (sub.C @ np.linalg.solve(p * np.eye(n) - sub.A, sub.B) + sub.D)[0, 0]
            for p in points
        ]
    )
    V = np.vander(points, n_num + 1, increasing=True)
    num = np.linalg.solve(V, g_vals * den_vals)
    return RationalScalar(num, den)


def rational_to_ss(r: RationalScalar) -> StateSpace:
    """Controllable-canonical realization of a proper scalar rational function."""
    num = np.trim_zeros(r.num, "b")
    den = r.den
    n = den.size - 1
    if num.size == 0:
        return zero_system(1, 1)
    if num.size - 1 > n:
        raise ValueError("improper rational function: deg(num) > deg(den)")
    if n == 0:
        return static_gain([[num[0]]])
    num_full = np.zeros(n + 1)
    num_full[: num.size] = num
    d = num_full[n]
    c = num_full[:n] - d * den[:n]
    A = np.zeros((n, n))
    if n > 1:
        A[: n - 1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[:n]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = c.reshape(1, n)
    D = np.array([[d]])
    return StateSpace(A, B, C, D)

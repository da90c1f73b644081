"""Shared fixtures: benchmark systems, random problem generators, oracles."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lqgpo import solvers
from lqgpo.benchmarks import (
    example1_plant,
    example2_controller,
    near_stationary_controller,
    stationary_controller,
)
from lqgpo.errors import SolverError, UnstableError
from lqgpo.lqg import DynController, LqgPlant, close_loop, lqg_optimal
from lqgpo.ss import StateSpace

MASTER_SEED = 20250810
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """The benchmark's module `perfbench/<name>.py`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def rng():
    return np.random.default_rng(MASTER_SEED)


def record_schur_forms(monkeypatch, record):
    """Call record(A) on every matrix that solvers factors into its real Schur
    form: every LAPACK gees call there but a workspace query."""
    def recorded(select, A, *args, _orig=solvers.dgees, **kwargs):
        if kwargs.get("lwork") != -1:
            record(A)
        return _orig(select, A, *args, **kwargs)

    monkeypatch.setattr(solvers, "dgees", recorded)


@pytest.fixture()
def factorizations(monkeypatch):
    """Counts of Schur factorizations (under "schur"), pivoted Cholesky
    factorizations of a Gramian (LAPACK pstrf, under "pstrf"), and
    numpy.linalg.eigvals and numpy.linalg.solve calls."""
    counts = {}

    def count(name):
        counts[name] = counts.get(name, 0) + 1

    def counting(name, orig):
        def counted(*args, **kwargs):
            count(name)
            return orig(*args, **kwargs)
        return counted

    record_schur_forms(monkeypatch, lambda A: count("schur"))
    monkeypatch.setattr(solvers, "dpstrf", counting("pstrf", solvers.dpstrf))
    for name in ("eigvals", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


@pytest.fixture(scope="session")
def plant1():
    return example1_plant()


@pytest.fixture(scope="session")
def ctrl_stationary():
    return stationary_controller()


@pytest.fixture(scope="session")
def ctrl_near_stationary():
    return near_stationary_controller()


@pytest.fixture(scope="session")
def ctrl_ex2():
    return example2_controller()


@pytest.fixture(scope="session")
def ctrl_opt(plant1):
    return lqg_optimal(plant1)


def random_stable_ss(rng, n_states, n_outputs=1, n_inputs=1, margin=0.3, proper=False):
    """Random stable system; eigenvalues shifted left of -margin."""
    A = rng.normal(size=(n_states, n_states))
    shift = max(np.linalg.eigvals(A).real.max(), 0.0) + margin
    A -= shift * np.eye(n_states)
    B = rng.normal(size=(n_states, n_inputs))
    C = rng.normal(size=(n_outputs, n_states))
    D = rng.normal(size=(n_outputs, n_inputs)) if proper else np.zeros((n_outputs, n_inputs))
    return StateSpace(A, B, C, D)


def duplicated(g):
    """g realized twice over, on two identical copies of its states: twice
    its transfer function, and Gramians of rank g.n_states."""
    n = g.n_states
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = A[n:, n:] = g.A
    return StateSpace(A, np.vstack([g.B, g.B]), np.hstack([g.C, g.C]), g.D)


def random_spd(rng, k, scale=1.0, floor=0.3):
    M = rng.normal(size=(k, k))
    return scale * (M @ M.T / k + floor * np.eye(k))


def random_plant(rng, n=None, m1=None, m2=None, max_tries=100):
    """Random LQG plant with solvable Riccati pair.

    Instances are kept well conditioned (bounded spectral radius, moderate
    weights, moderate optimal cost) so that the library's stated tolerances
    are meaningful rather than dominated by conditioning.
    """
    from lqgpo.lqg import lqg_cost

    for _ in range(max_tries):
        nn = n if n is not None else int(rng.integers(2, 4))
        mm1 = m1 if m1 is not None else int(rng.integers(1, 3))
        mm2 = m2 if m2 is not None else int(rng.integers(1, 3))
        A = rng.normal(size=(nn, nn))
        rho = np.abs(np.linalg.eigvals(A)).max()
        if rho > 1.5:
            A *= 1.5 / rho
        B = rng.normal(size=(nn, mm1))
        C = rng.normal(size=(mm2, nn))
        try:
            plant = LqgPlant(
                A, B, C,
                random_spd(rng, nn, floor=0.5),
                random_spd(rng, mm1, floor=0.5),
                random_spd(rng, nn, floor=0.5),
                random_spd(rng, mm2, floor=0.5),
            )
            jstar = lqg_cost(close_loop(plant, lqg_optimal(plant)))
        except (SolverError, UnstableError, ValueError, ArithmeticError):
            continue
        if jstar > 50.0:
            continue
        return plant
    raise RuntimeError("failed to generate a random plant")


def stiff_plant(n=24):
    """A = -U diag(logspace(-1, 4, n)) U^T, U a random orthogonal matrix, with
    2 inputs and 2 outputs: time scales from 0.1 to 1e4."""
    rng = np.random.default_rng(7 + n)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = -U @ np.diag(np.logspace(-1, 4, n)) @ U.T
    B, C = rng.normal(size=(n, 2)), rng.normal(size=(2, n))

    def spd(k):
        M = rng.normal(size=(k, k))
        return M @ M.T / k + 0.5 * np.eye(k)

    return LqgPlant(A, B, C, spd(n), spd(2), spd(n), spd(2))


def random_stabilizing_controller(rng, plant, order=None, spread=0.2, max_tries=200):
    """Random stabilizing controller: perturbation of the synthesized optimum,
    rejected unless the loop keeps a healthy stability margin."""
    from lqgpo.lqg import lqg_cost

    q = order if order is not None else plant.n
    base = lqg_optimal(plant, q)
    j_base = lqg_cost(close_loop(plant, base))
    for _ in range(max_tries):
        cand = DynController(
            base.A_K + spread * rng.normal(size=base.A_K.shape),
            base.B_K + spread * rng.normal(size=base.B_K.shape),
            base.C_K + spread * rng.normal(size=base.C_K.shape),
        )
        try:
            cl = close_loop(plant, cand)
        except (UnstableError, SolverError):
            continue
        if np.linalg.eigvals(cl.Acl).real.max() > -0.05:
            continue
        if lqg_cost(cl) > 20.0 * j_base:
            continue
        return cand
    raise RuntimeError("failed to generate a stabilizing controller")


def same_bits(a, b):
    """Equal shapes and equal bits, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def freq_response_fast(g, omegas):
    """Vectorized frequency response via eigendecomposition (test oracle path,
    independent of the solver-based implementation)."""
    lam, V = np.linalg.eig(g.A)
    Binv = np.linalg.solve(V, g.B)
    CV = g.C @ V
    omegas = np.asarray(omegas, dtype=float)
    out = np.empty((omegas.size, g.n_outputs, g.n_inputs), dtype=complex)
    for idx, w in enumerate(omegas):
        out[idx] = (CV / (1j * w - lam)) @ Binv + g.D
    return out

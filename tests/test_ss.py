"""State-space algebra: compositions, decompositions, norms, reductions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from conftest import duplicated, freq_response_fast, load_perfbench, random_stable_ss, same_bits
from _reference import certificate_system, para_conjugate, psd_factor_eigh, stable_projection
from lqgpo.benchmarks import example1_plant, example2_controller
from lqgpo.errors import AxisPoleError, DimensionError, UnstableError
from lqgpo.lqg import DynController, LqgPlant, LqrProblem
from lqgpo import solvers
from lqgpo.solvers import psd_factor
from lqgpo.ss import (
    HINF_TOL,
    RationalScalar,
    StateSpace,
    _balanced_truncation_stable,
    freq_response,
    gramian_ctrb,
    gramian_obsv,
    h2_inner,
    h2_norm_sq,
    hinf_norm_est,
    minreal,
    minreal_h2,
    parallel,
    rational_to_ss,
    scaled,
    series,
    ss_entry_to_rational,
    stable_antistable_split,
    stable_residue_sum,
    static_gain,
    zero_system,
    _peak_gain,
)
from lqgpo.youla import TRUNC_TOL, YoulaIterate, build_nominal, estimate_smoothness


def lag(pole=1.0, gain=1.0):
    """gain / (s + pole)."""
    return StateSpace([[-pole]], [[1.0]], [[gain]], [[0.0]])


def record_inputs(record):
    """Valid constructor inputs of a problem record, as fresh caller arrays."""
    plant = {k: np.array(v) for k, v in example1_plant().to_dict().items()}
    return {
        StateSpace: {"A": -np.eye(2), "B": np.ones((2, 1)), "C": np.ones((1, 2)),
                     "D": np.zeros((1, 1))},
        LqgPlant: plant,
        DynController: {k: np.array(v) for k, v in example2_controller().to_dict().items()},
        LqrProblem: {k: plant[k] for k in "ABQR"},
        YoulaIterate: {"Q_dyn": zero_system(2, 2), "Q_stat": np.ones((2, 2))},
    }[record]


RECORDS = [StateSpace, LqgPlant, DynController, LqrProblem, YoulaIterate]


class TestStateSpace:
    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            StateSpace(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))
        with pytest.raises(DimensionError):
            StateSpace(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateSpace([[np.nan]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="^Q_stat contains non-finite entries$"):
            YoulaIterate(zero_system(2, 2), [[0.0, np.inf], [0.0, 0.0]])

    @pytest.mark.parametrize("record, field", [
        (record, field) for record in RECORDS for field in record_inputs(record)
        if field != "Q_dyn"
    ])
    def test_rejects_3d_matrix(self, record, field):
        inputs = record_inputs(record)
        inputs[field] = inputs[field][None]
        with pytest.raises(DimensionError, match=f"^{field} must be a 2-D matrix, got ndim=3$"):
            record(**inputs)

    def test_stability_query(self):
        assert lag(1.0).is_stable()
        assert not StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]).is_stable()
        # margin: eigenvalue at -1e-12 is not strictly stable at the default
        assert not StateSpace([[-1e-12]], [[1.0]], [[1.0]], [[0.0]]).is_stable()

    def test_strictly_proper(self):
        assert lag().is_strictly_proper()
        assert not lag().with_feedthrough([[2.0]]).is_strictly_proper()

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
    def test_immutable(self, record):
        inputs = record_inputs(record)
        rec = record(**inputs)
        for name, value in inputs.items():
            if name == "Q_dyn":
                continue
            field, before = getattr(rec, name), value.copy()
            with pytest.raises(ValueError):
                field[0, 0] = 3.0
            value += 1.0  # the caller's array, after construction
            assert np.array_equal(field, before)

    def test_json_round_trip(self):
        g = random_stable_ss(np.random.default_rng(0), 3, 2, 2, proper=True)
        back = StateSpace.from_dict(g.to_dict())
        assert np.array_equal(back.A, g.A)
        assert np.array_equal(back.D, g.D)

    def test_json_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            StateSpace.from_dict({"A": [[0.0]]})


class TestSeries:
    def test_double_lag(self):
        g = series(lag(), lag())
        assert g.n_states == 2
        assert not np.any(g.D)
        for w in (0.0, 0.5, 2.0):
            expected = 1.0 / (1j * w + 1.0) ** 2
            assert freq_response(g, w)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_feedthrough_annihilates(self):
        h = lag().with_feedthrough([[3.0]])
        g = series(lag(), h)  # left factor strictly proper
        assert not np.any(g.D)

    def test_dc_value(self):
        g = series(lag(1.0), lag(2.0))
        assert freq_response(g, 0.0)[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            series(lag(), zero_system(2, 1))


class TestParallel:
    def test_self_cancellation(self):
        g = parallel(lag(), lag(), -1)
        assert h2_norm_sq(g) == pytest.approx(0.0, abs=1e-14)

    def test_doubling(self):
        g = parallel(lag(), lag(), 1)
        for w in (0.0, 1.0, 3.0):
            assert freq_response(g, w)[0, 0] == pytest.approx(
                2.0 / (1j * w + 1.0), rel=1e-12
            )

    def test_stability_closed(self):
        rng = np.random.default_rng(1)
        g = random_stable_ss(rng, 3)
        h = random_stable_ss(rng, 2)
        assert parallel(g, h, -1).is_stable()

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            parallel(lag(), lag(), 2)


class TestComposedForms:
    def test_with_io_shares_a_and_form(self, factorizations):
        g = random_stable_ss(np.random.default_rng(4), 4, 2, 2)
        factorizations.clear()
        h = g.with_io(np.ones((4, 1)), np.ones((3, 4)), np.zeros((3, 1)))
        assert factorizations == {"schur": 1}  # g's form, computed here once
        assert h.A is g.A and h.form is g.form
        for k in (scaled(g, -2.0), g.with_feedthrough(np.ones((2, 2)))):
            assert k.A is g.A and k.form is g.form
        assert factorizations == {"schur": 1}

    def test_with_io_on_a_sniffed_own_form(self):
        g = StateSpace(np.triu(np.ones((3, 3))) - 3.0 * np.eye(3), np.ones((3, 1)),
                       np.ones((1, 3)), np.zeros((1, 1)))
        h = scaled(g, 2.0)
        assert g.form.own and h.form is g.form and h.A is g.A

    def test_parallel_of_known_forms_factors_nothing(self, factorizations):
        rng = np.random.default_rng(5)
        g, h = random_stable_ss(rng, 3, 2, 2), random_stable_ss(rng, 2, 2, 2)
        assert g.is_stable() and h.is_stable()  # both forms computed
        factorizations.clear()
        p = parallel(g, h, -1)
        assert not p.form.own
        assert same_bits(p.form.eigs, np.concatenate([g.form.eigs, h.form.eigs]))
        np.testing.assert_allclose(p.form.Z @ p.form.T @ p.form.Z.T, p.A, atol=1e-12)
        norm = h2_norm_sq(p)
        assert factorizations.get("schur", 0) == 0
        assert norm == pytest.approx(h2_norm_sq(parallel(*(
            StateSpace(k.A, k.B, k.C, k.D) for k in (g, h)), -1)), rel=1e-10)

    def test_parallel_leaves_an_unknown_form_unknown(self, factorizations):
        rng = np.random.default_rng(6)
        g, h = random_stable_ss(rng, 3), random_stable_ss(rng, 2)
        assert g.is_stable()  # g's form computed, h's not
        factorizations.clear()
        p = parallel(g, h)
        assert factorizations == {}
        assert p.is_stable()  # the sum is factored on first use, as a whole
        assert factorizations == {"schur": 1}

    def test_small_composite_is_composed(self, factorizations):
        # two one-state parts: their sum is too small for a sniff, and was
        # factored by gees; its form is now composed from theirs
        g, h = lag(1.0), lag(2.0)
        assert g.is_stable() and h.is_stable()  # both forms computed
        factorizations.clear()
        p = parallel(g, h)
        assert same_bits(p.form.eigs, np.array([-1.0 + 0j, -2.0 + 0j]))
        assert np.array_equal(p.form.T, p.A) and np.array_equal(p.form.Z, np.eye(2))
        assert factorizations == {}

    def test_given_form_of_another_size_is_refused(self):
        with pytest.raises(DimensionError, match="form of a"):
            StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)),
                       solvers.schur_form(-np.eye(3)))

    def test_given_form_is_rebuilt_on_the_frozen_a(self):
        A = np.triu(np.ones((3, 3))) - 3.0 * np.eye(3)
        g = StateSpace(A, np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)),
                       solvers.own_form(A.copy(), A.diagonal()))
        assert g.form.own and g.form.A is g.A and not g.A.flags.writeable

    def test_h2_inner_of_two_systems_on_one_form(self):
        # the cross Gramian is a Sylvester equation even on one shared form
        rng = np.random.default_rng(7)
        g = random_stable_ss(rng, 4, 2, 1)
        h = g.with_io(rng.normal(size=(4, 1)), rng.normal(size=(2, 4)), np.zeros((2, 1)))
        assert h.form is g.form
        unshared = StateSpace(h.A, h.B, h.C, h.D)
        assert h2_inner(g, h) == pytest.approx(h2_inner(g, unshared), rel=1e-12)
        assert h2_inner(g, g) == pytest.approx(h2_norm_sq(g), rel=1e-12)


class TestParaConjugate:
    def test_pole_reflection(self):
        g = para_conjugate(lag())
        assert g.poles()[0] == pytest.approx(1.0)
        # value: 1/(-s+1) at s=0 is 1
        assert freq_response(g, 0.0)[0, 0] == pytest.approx(1.0)

    def test_involution_in_transfer(self):
        rng = np.random.default_rng(2)
        g = random_stable_ss(rng, 3, 2, 2, proper=True)
        gg = para_conjugate(para_conjugate(g))
        for w in (0.3, 1.7):
            assert np.allclose(freq_response(gg, w), freq_response(g, w), rtol=1e-12)

    def test_adjoint_on_axis(self):
        rng = np.random.default_rng(3)
        g = random_stable_ss(rng, 3, 2, 2)
        w = 0.7
        lhs = freq_response(para_conjugate(g), w)
        rhs = freq_response(g, w).conj().T
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestStableProjection:
    def test_partial_fractions(self):
        g = parallel(lag(1.0), StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]), 1)
        s = stable_projection(g)
        for w in (0.0, 1.0):
            assert freq_response(s, w)[0, 0] == pytest.approx(
                1.0 / (1j * w + 1.0), rel=1e-10
            )

    def test_identity_on_stable(self):
        rng = np.random.default_rng(4)
        g = random_stable_ss(rng, 4, 2, 1, proper=True)
        s = stable_projection(g)
        for w in (0.2, 5.0):
            assert np.allclose(freq_response(s, w), freq_response(g, w), rtol=1e-10)

    def test_two_pole_example(self):
        # s/(s^2 - 1) has stable part 0.5/(s+1)
        g = StateSpace([[0.0, 1.0], [1.0, 0.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[0.0]])
        s = stable_projection(g)
        assert s.n_states == 1
        for w in (0.0, 2.0):
            assert freq_response(s, w)[0, 0] == pytest.approx(
                0.5 / (1j * w + 1.0), rel=1e-10
            )

    def test_axis_pole_error(self):
        g = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(AxisPoleError):
            stable_projection(g)

    def test_feedthrough_stays_with_stable_part(self):
        g = StateSpace([[1.0]], [[1.0]], [[1.0]], [[2.0]])
        stable, anti = stable_antistable_split(g)
        assert stable.D[0, 0] == 2.0
        assert not np.any(anti.D)


class TestStableResidueSum:
    def test_single_stable_pole(self):
        assert stable_residue_sum(lag()) == pytest.approx(1.0)

    def test_no_stable_poles(self):
        g = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        assert stable_residue_sum(g)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_requires_strictly_proper(self):
        with pytest.raises(ValueError):
            stable_residue_sum(lag().with_feedthrough([[1.0]]))

    def test_matches_partial_fraction_oracle(self):
        # sum of rank-one terms u v^T / (s - p) with known poles
        rng = np.random.default_rng(5)
        poles = [-2.0, -0.5, 1.5, 0.7]
        total = None
        expected = np.zeros((2, 2))
        for p in poles:
            u = rng.normal(size=(2, 1))
            v = rng.normal(size=(1, 2))
            term = StateSpace([[p]], v, u, np.zeros((2, 2)))
            total = term if total is None else parallel(total, term, 1)
            if p < 0:
                expected += u @ v
        got = stable_residue_sum(total)
        assert np.allclose(got, expected, atol=1e-9)


class TestH2:
    def test_lag_half(self):
        assert h2_norm_sq(lag()) == pytest.approx(0.5, rel=1e-12)

    def test_scaling(self):
        assert h2_norm_sq(lag(gain=np.sqrt(2.0))) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(UnstableError):
            h2_norm_sq(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]))

    def test_rejects_proper(self):
        with pytest.raises(ValueError):
            h2_norm_sq(lag().with_feedthrough([[1.0]]))

    def test_inner_equals_norm(self):
        rng = np.random.default_rng(6)
        g = random_stable_ss(rng, 3, 2, 2)
        assert h2_inner(g, g) == pytest.approx(h2_norm_sq(g), rel=1e-10)

    def test_inner_with_zero(self):
        g = lag()
        z = zero_system(1, 1)
        assert h2_inner(g, z) == 0.0

    def test_inner_two_lags(self):
        # residue oracle: sum of left-half-plane residues of G(-s) H(s) is 1/3
        assert h2_inner(lag(1.0), lag(2.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_inner_symmetric_bilinear(self):
        rng = np.random.default_rng(7)
        g = random_stable_ss(rng, 3)
        h = random_stable_ss(rng, 2)
        k = random_stable_ss(rng, 2)
        assert h2_inner(g, h) == pytest.approx(h2_inner(h, g), rel=1e-10)
        lhs = h2_inner(g, parallel(h, k, 1))
        assert lhs == pytest.approx(h2_inner(g, h) + h2_inner(g, k), rel=1e-9)

    def test_quadrature_oracle(self):
        # trapezoid quadrature of the defining integral over a wide band
        rng = np.random.default_rng(8)
        for _ in range(3):
            g = random_stable_ss(rng, 3, 2, 1, margin=0.5)
            half = np.concatenate([[0.0], np.logspace(-4, 6, 4001)])
            grid = np.concatenate([-half[::-1], half[1:]])
            vals = freq_response_fast(g, grid)
            integrand = np.sum(np.abs(vals) ** 2, axis=(1, 2))
            quad = np.trapezoid(integrand, grid) / (2 * np.pi)
            assert h2_norm_sq(g) == pytest.approx(quad, rel=1e-4)


class TestFreqResponse:
    def test_dc(self):
        assert freq_response(lag(), 0.0)[0, 0] == pytest.approx(1.0)

    def test_at_one(self):
        assert freq_response(lag(), 1.0)[0, 0] == pytest.approx(0.5 - 0.5j, rel=1e-12)

    def test_first_order_half_pole(self):
        g = StateSpace([[-0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert freq_response(g, 1.0)[0, 0] == pytest.approx(1.0 / (1j + 0.5), rel=1e-12)

    def test_singular_axis(self):
        g = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(AxisPoleError):
            freq_response(g, 0.0)

    @pytest.mark.parametrize("case", ["dense", "static", "feedthrough"])
    def test_grid_matches_pointwise_bit_for_bit(self, case):
        rng = np.random.default_rng(31)
        g = {
            "dense": random_stable_ss(rng, 6, 3, 2),
            "static": static_gain([[0.3, -1.2], [2.0, 0.5]]),
            "feedthrough": random_stable_ss(rng, 4, 2, 3, proper=True),
        }[case]
        grid = np.concatenate([[0.0], np.logspace(-2, 3, 57)])
        batched = freq_response(g, grid)
        assert batched.shape == (grid.size, g.n_outputs, g.n_inputs)
        assert np.array_equal(batched, np.array([freq_response(g, w) for w in grid]))

    def test_grid_is_one_batched_solve(self, factorizations):
        g = random_stable_ss(np.random.default_rng(32), 5, 2, 2)
        factorizations.clear()
        freq_response(g, np.logspace(-1, 2, 40))
        assert factorizations == {"solve": 1}

    def test_axis_pole_inside_grid(self):
        # poles at +-2j: the grid's third frequency is one of them
        g = StateSpace([[0.0, 1.0], [-4.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(AxisPoleError):
            freq_response(g, np.array([0.5, 1.0, 2.0, 3.0]))

    def test_peak_gain_of_no_frequencies_is_zero(self):
        # hinf_norm_est's single-crossing case: no midpoints to evaluate
        assert _peak_gain(lag(), np.array([])) == 0.0
        assert _peak_gain(lag(), []) == 0.0


class TestMinreal:
    def test_exact_cancellation(self):
        g = parallel(lag(), lag(), -1)
        assert minreal(g).n_states == 0

    def test_already_minimal(self):
        rng = np.random.default_rng(9)
        g = random_stable_ss(rng, 3, 1, 1)
        red = minreal(g)
        assert red.n_states == 3
        for w in (0.1, 1.0, 10.0):
            assert np.allclose(freq_response(red, w), freq_response(g, w), rtol=1e-8)

    def test_pole_zero_cancellation(self):
        # (s+1)/(s+2) in series with 1/(s+1) reduces to 1/(s+2)
        h = rational_to_ss(RationalScalar([1.0, 1.0], [2.0, 1.0]))
        g = series(lag(), h)
        red = minreal(g)
        assert red.n_states == 1
        assert freq_response(red, 0.0)[0, 0] == pytest.approx(0.5, rel=1e-8)

    def test_mixed_stability_reduction(self):
        stable = lag()
        anti = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        g = parallel(parallel(stable, anti, 1), parallel(stable, anti, 1), -1)
        assert minreal(g).n_states == 0
        # purely anti-stable and non-minimal: 2/(s - 1) on two states
        g = parallel(anti, anti, 1)
        red = minreal(g)
        assert red.n_states == 1
        for w in (0.0, 0.5, 3.0):
            assert freq_response(red, w)[0, 0] == pytest.approx(2.0 / (1j * w - 1.0), rel=1e-10)

    def test_hinf_deviation_bound(self):
        from lqgpo.ss import gramian_ctrb, gramian_obsv

        rng = np.random.default_rng(10)
        tol = 1e-6
        for _ in range(5):
            g = random_stable_ss(rng, 5, 2, 2)
            red = minreal(g, tol)
            diff = parallel(g, red, -1)
            hsv_max = np.sqrt(
                np.abs(np.linalg.eigvals(gramian_ctrb(g) @ gramian_obsv(g))).max()
            )
            assert hinf_norm_est(diff) <= 10 * tol * hsv_max


def hankel_values(g, factor=psd_factor):
    """The Hankel singular values of a stable g from factors of its Gramians."""
    Lc, Lo = factor(gramian_ctrb(g)), factor(gramian_obsv(g))
    return np.linalg.svd(Lo.T @ Lc, compute_uv=False)


def eigh_factor(M):
    return psd_factor_eigh(M)[0]


def zero_iterate_sensitivity(name):
    """S at the zero iterate, unreduced, of example 2's nominal or of the
    benchmark's random n = 8 nominal (its seed-101 round)."""
    if name == "example2":
        nom = build_nominal(example1_plant(), example2_controller())
    else:
        plant, ctrl = load_perfbench("workloads").random_lqg_instance(
            np.random.default_rng(101), 8)
        nom = build_nominal(plant, ctrl)
    return certificate_system(nom)


class TestBalancedTruncation:
    def test_first_order_lag(self):
        # 1/(s+1): P = X = 1/2, one Hankel value 1/2, ||G||_H2^2 = 1/2
        assert hankel_values(lag()) == pytest.approx([0.5], rel=1e-15)
        red, h2 = minreal_h2(lag())
        assert red.n_states == 1
        assert h2 == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("name", ["example2", "random8"])
    def test_kept_hankel_values_match_the_eigh_factor(self, name):
        S = zero_iterate_sensitivity(name)
        ref = hankel_values(S, eigh_factor)
        top = ref >= 1e-6 * ref[0]
        np.testing.assert_allclose(hankel_values(S)[top], ref[top], rtol=1e-8)
        # the reduced realization carries the kept values as its own
        kept = hankel_values(minreal(S, TRUNC_TOL), eigh_factor)
        np.testing.assert_allclose(kept[: top.sum()], ref[top], rtol=1e-8)

    @pytest.mark.parametrize("name", ["example2", "random8"])
    def test_h2_norm_read_off_the_truncation(self, name):
        S = zero_iterate_sensitivity(name)
        red, h2 = minreal_h2(S, TRUNC_TOL)
        assert red is not S  # the balanced realization, not the guard's S
        assert h2 == pytest.approx(h2_norm_sq(red), rel=1e-9)
        assert h2 == pytest.approx(h2_norm_sq(S), rel=1e-9)

    def test_h2_norm_of_a_kept_system(self, monkeypatch):
        # a reduced realization that is not stable is discarded: g itself
        # comes back, with ||Lo^T B||_F^2
        g = random_stable_ss(np.random.default_rng(11), 4, 2, 2)
        expected = h2_norm_sq(g)
        monkeypatch.setattr(StateSpace, "is_stable", lambda self: False)
        red, h2 = _balanced_truncation_stable(g, 1e-8)
        assert red is g
        assert h2 == pytest.approx(expected, rel=1e-12)

    def test_h2_norm_of_a_cancelled_system(self):
        red, h2 = minreal_h2(parallel(lag(), lag(), -1))
        assert red.n_states == 0 and h2 == 0.0

    def test_duplicated_states_reduce_to_the_original(self):
        g = random_stable_ss(np.random.default_rng(13), 3, 2, 2)
        red = minreal(duplicated(g))
        assert red.n_states == g.n_states
        np.testing.assert_allclose(hankel_values(red), 2 * hankel_values(g), rtol=1e-10)

    def test_minreal_h2_refuses_what_h2_norm_sq_refuses(self):
        with pytest.raises(UnstableError):
            minreal_h2(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]))
        with pytest.raises(ValueError):
            minreal_h2(lag().with_feedthrough([[1.0]]))


def refined_peak(g):
    """Largest gain found by a dense log sweep, refined around its best point."""
    grid = np.concatenate([[0.0], np.logspace(-3, 3, 4001)])
    gains = np.linalg.svd(freq_response_fast(g, grid), compute_uv=False)[:, 0]
    k = int(np.argmax(gains))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = minimize_scalar(lambda w: -np.linalg.norm(freq_response(g, w), 2),
                          bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return max(gains[k], -res.fun, np.linalg.norm(g.D, 2))


def proper_draw(index):
    """The index-th of 200 random stable proper systems from default_rng(0):
    n in [2, 5], 1-2 inputs and outputs, A ~ N(0,1) shifted to a stability
    margin of 0.5, and B, C, D ~ N(0,1)."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        n, m, p = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (1, 3), (1, 3)))
        A = rng.normal(size=(n, n))
        A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
        B, C, D = rng.normal(size=(n, m)), rng.normal(size=(p, n)), rng.normal(size=(p, m))
    return StateSpace(A, B, C, D)


class TestHinfNorm:
    def test_sharp_resonance_between_grid_points(self):
        # 50/(s+1) + w0^2/(s^2 + 2e-5 w0 s + w0^2): a peak of about 5e4,
        # 1e-5 damping, at a frequency no log grid is likely to hit
        w0 = 37.3
        g = parallel(
            rational_to_ss(RationalScalar([50.0], [1.0, 1.0])),
            rational_to_ss(RationalScalar([w0**2], [w0**2, 2e-5 * w0, 1.0])),
        )
        assert hinf_norm_est(g) >= 4.99e4

    def test_bracket_against_dense_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            g = random_stable_ss(rng, n, 2, 3, proper=True)
            peak = refined_peak(g)
            value = hinf_norm_est(g)
            # 1e-12: how far the refined sweep may sit below the true peak
            assert peak <= value <= (1 + 2 * HINF_TOL) * peak * (1 + 1e-12)

    def test_peak_at_infinity_is_bounded(self):
        # (1 + 1.5 s)/(1 + s): the gain rises to its supremum 1.5 as w -> inf;
        # the Hankel bound of this system is 2
        g = rational_to_ss(RationalScalar([1.0, 1.5], [1.0, 1.0]))
        assert 1.5 <= hinf_norm_est(g) <= 2.0

    def test_gain_rising_to_the_feedthrough(self):
        # s/(s+1): the gain rises to its supremum sigma_max(D) = 1 as w -> inf
        g = rational_to_ss(RationalScalar([0.0, 1.0], [1.0, 1.0]))
        assert 1.0 <= hinf_norm_est(g) <= 1.0 + 2 * HINF_TOL

    @pytest.mark.parametrize("index", [12, 33, 59, 103, 144, 186])
    def test_gain_near_the_feedthrough_at_high_frequency(self, index):
        # random proper systems on which G's own axis test stops deciding
        # as gamma nears sigma_max(D): a peak a few per cent above
        # sigma_max(D) at w = 2..6 (12, 103, 186), or the supremum
        # sigma_max(D) itself, approached as w -> inf (33, 59, 144)
        g = proper_draw(index)
        peak = refined_peak(g)
        assert peak <= hinf_norm_est(g) <= (1 + 2 * HINF_TOL) * peak * (1 + 1e-12)

    def test_static_gain(self):
        D = np.array([[1.0, 2.0], [3.0, 4.0]])
        sigma = np.linalg.norm(D, 2)
        assert sigma <= hinf_norm_est(static_gain(D)) <= (1 + 2 * HINF_TOL) * sigma

    def test_unstable_rejected(self):
        with pytest.raises(UnstableError):
            hinf_norm_est(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]))

    def test_smoothness_bound_is_cheap(self, plant1, ctrl_stationary, monkeypatch):
        import lqgpo.ss as ss_module

        calls = []

        def counting(g, omega):
            calls.append(omega)
            return freq_response(g, omega)

        nom = build_nominal(plant1, ctrl_stationary)
        monkeypatch.setattr(ss_module, "freq_response", counting)
        estimate_smoothness(nom)
        # frequencies evaluated, whether one at a time or as a grid
        assert sum(np.size(w) for w in calls) <= 50


class TestRational:
    def test_monic_normalization(self):
        r = RationalScalar([2.0], [2.0, 4.0])
        assert r.den[-1] == 1.0
        assert r.num[0] == pytest.approx(0.5)
        assert not (r.num.flags.writeable or r.den.flags.writeable)

    def test_lag_realization(self):
        g = rational_to_ss(RationalScalar([1.0], [1.0, 1.0]))
        assert g.n_states == 1
        assert g.A[0, 0] == pytest.approx(-1.0)

    def test_constant(self):
        g = rational_to_ss(RationalScalar([1.0], [1.0]))
        assert g.n_states == 0
        assert g.D[0, 0] == 1.0

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            rational_to_ss(RationalScalar([1.0, 2.0, 3.0], [1.0, 1.0]))

    def test_cubic_entry_dc_value(self):
        r = RationalScalar(
            [0.1667, 1.083], [0.4167, 2.333, 2.0, 1.0]
        )
        g = rational_to_ss(r)
        assert freq_response(g, 0.0)[0, 0] == pytest.approx(0.1667 / 0.4167, rel=1e-10)
        # realization matches the rational evaluation elsewhere too
        for w in (0.5, 3.0):
            assert freq_response(g, w)[0, 0] == pytest.approx(r(1j * w), rel=1e-10)

    def test_entry_extraction_round_trip(self):
        rng = np.random.default_rng(11)
        g = random_stable_ss(rng, 3, 2, 2)
        r = ss_entry_to_rational(g, 1, 0)
        for w in (0.3, 2.0):
            assert r(1j * w) == pytest.approx(
                freq_response(g, w)[1, 0], rel=1e-8
            )

    def test_entry_extraction_zero(self):
        assert ss_entry_to_rational(zero_system(2, 2), 0, 1) is None

    def test_entry_denominator_from_the_kept_form(self, plant1, ctrl_ex2, monkeypatch):
        # numpy.poly of a matrix would factor it again through this name
        import numpy.lib._polynomial_impl as poly_impl

        calls = []

        def counted(*args, _orig=poly_impl.eigvals, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(poly_impl, "eigvals", counted)
        M22 = build_nominal(plant1, ctrl_ex2).M22
        assert ss_entry_to_rational(M22, 0, 0).den_degree == 3
        assert calls == []


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
def test_composition_soundness(ng, nh, seed):
    """Series/parallel frequency responses factor pointwise."""
    rng = np.random.default_rng(seed)
    g = random_stable_ss(rng, ng, 2, 2, proper=True)
    h = random_stable_ss(rng, nh, 2, 2, proper=True)
    freqs = rng.uniform(0.01, 50.0, size=20)
    for w in freqs:
        gw = freq_response(g, w)
        hw = freq_response(h, w)
        sw = freq_response(series(g, h), w)
        pw = freq_response(parallel(g, h, -1), w)
        scale = max(np.abs(gw @ hw).max(), 1.0)
        assert np.abs(sw - gw @ hw).max() <= 1e-10 * scale
        scale = max(np.abs(gw - hw).max(), 1.0)
        assert np.abs(pw - (gw - hw)).max() <= 1e-10 * scale


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_decomposition_soundness(n, seed):
    """Stable + anti-stable parts reassemble the original response; the
    projection is idempotent in transfer function."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 0.2 * np.eye(n)  # mixed spectrum likely
    if np.abs(np.linalg.eigvals(A).real).min() < 1e-6:
        A += 0.5 * np.eye(n)
    g = StateSpace(A, rng.normal(size=(n, 2)), rng.normal(size=(2, n)), np.zeros((2, 2)))
    try:
        stable, anti = stable_antistable_split(g)
    except AxisPoleError:
        return
    recon = parallel(stable, anti, 1)
    again = stable_projection(stable) if stable.n_states else stable
    for w in (0.1, 1.0, 7.0):
        ref = freq_response(g, w)
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(freq_response(recon, w) - ref).max() <= 1e-8 * scale
        if stable.n_states:
            assert np.allclose(
                freq_response(again, w), freq_response(stable, w), atol=1e-8 * scale
            )


def test_scaled_helper():
    g = scaled(lag(), 3.0)
    assert freq_response(g, 0.0)[0, 0] == pytest.approx(3.0)


def test_static_gain():
    g = static_gain([[1.0, 2.0]])
    assert g.n_states == 0
    assert np.array_equal(freq_response(g, 1.0), np.array([[1.0, 2.0]]))

import math
import warnings

import numpy as np
import pytest

from nonsig.behavior import CHSH_SLOT_SIGNS, INTERNAL_TOL, BehaviorError, mix, named, validate
from nonsig.curves import (
    CURVE_DOMAINS,
    CurveId,
    TSIRELSON,
    curve_grid,
    curve_value,
    curve_witness,
    ld_c_crossing,
    w,
    witness_vectors,
)
from nonsig.functionals import g, mutual_information, s_max

from conftest import g_oracle, mi_oracle


def w_oracle(s: float) -> float:
    return math.sqrt(2) * math.cos(math.pi / 6 + math.atan(s / math.sqrt(8 - s * s)) / 3)


class TestLocalMax:
    def test_endpoints(self):
        assert curve_value("local_max", 2.0) == pytest.approx(1.0, abs=1e-12)
        assert curve_value("local_max", 0.0) == pytest.approx(2 * 0.8112781244591328 - 1.5, abs=1e-12)

    def test_monotone_increasing(self):
        ss = np.linspace(0, 2, 100)
        vals = [curve_value("local_max", s) for s in ss]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(BehaviorError):
            curve_value("local_max", 2.5)


class TestCNonlocalMax:
    def test_endpoints_are_one(self):
        assert curve_value("c_nonlocal_max", 2.0) == pytest.approx(1.0, abs=1e-12)
        assert curve_value("c_nonlocal_max", 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint(self):
        assert curve_value("c_nonlocal_max", 3.0) == pytest.approx(0.75, abs=1e-12)

    def test_closed_form(self):
        for s in np.linspace(2, 4, 21):
            assert curve_value("c_nonlocal_max", s) == pytest.approx(0.75 + g_oracle(3 - s), abs=1e-12)

    def test_matches_mixture_definition(self):
        for lam in np.linspace(0, 1, 20):
            m = mix(named("sc"), named("pr"), lam)
            assert curve_value("c_nonlocal_max", 2 + 2 * lam) == pytest.approx(
                mutual_information(m), abs=1e-14
            )


class TestLdPrMax:
    def test_endpoints(self):
        assert curve_value("ld_pr_max", 2.0) == pytest.approx(0.0, abs=1e-12)
        assert curve_value("ld_pr_max", 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_against_oracle(self):
        m = mix(named("ld_allones"), named("pr"), 0.5)
        assert curve_value("ld_pr_max", 3.0) == pytest.approx(mi_oracle(m.table), abs=1e-10)
        assert curve_value("ld_pr_max", 3.0) == pytest.approx(0.639097655573916, abs=1e-12)


class TestNsMax:
    def test_values(self):
        assert curve_value("ns_max", 2.0) == pytest.approx(1.0, abs=1e-12)
        assert curve_value("ns_max", 3.0) == pytest.approx(0.75, abs=1e-12)
        assert curve_value("ns_max", 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_at_two(self):
        assert curve_value("ns_max", 2.0 - 1e-9) == pytest.approx(curve_value("ns_max", 2.0 + 1e-9), abs=1e-6)

    def test_maximum_only_at_edges(self):
        for s in np.linspace(0.05, 3.95, 79):
            if min(abs(s - 2), abs(s - 4)) > 1e-3:
                assert curve_value("ns_max", s) < 1.0 - 1e-6


class TestW:
    def test_endpoints(self):
        assert w(2.0) == pytest.approx(1.0, abs=1e-12)
        assert w(TSIRELSON) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_against_oracle(self):
        for s in np.linspace(2.0, TSIRELSON - 1e-9, 25):
            assert w(s) == pytest.approx(w_oracle(s), abs=1e-12)
        assert w(2.5) == pytest.approx(0.8956439237389601, abs=1e-12)

    def test_range(self):
        for s in np.linspace(2, TSIRELSON, 50):
            assert 1 / math.sqrt(2) - 1e-12 <= w(s) <= 1.0 + 1e-12


class TestQcMax:
    def test_endpoints(self):
        assert curve_value("qc_max", 2.0) == pytest.approx(1.0, abs=1e-12)
        assert curve_value("qc_max", TSIRELSON) == pytest.approx(4 * g_oracle(1 / math.sqrt(2)), abs=1e-12)

    def test_below_c_bound(self):
        for s in np.linspace(2, TSIRELSON, 50):
            assert curve_value("qc_max", s) <= curve_value("c_nonlocal_max", s) + 1e-12

    def test_decreasing(self):
        ss = np.linspace(2, TSIRELSON, 60)
        vals = [curve_value("qc_max", s) for s in ss]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestBellPrMin:
    def test_endpoints(self):
        assert curve_value("bell_pr_min", TSIRELSON) == pytest.approx(4 * g_oracle(1 / math.sqrt(2)), abs=1e-12)
        assert curve_value("bell_pr_min", 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_4g(self):
        for s in np.linspace(TSIRELSON, 4, 20):
            assert curve_value("bell_pr_min", s) == pytest.approx(4 * g_oracle(s / 4), abs=1e-12)
        assert curve_value("bell_pr_min", 3.0) == pytest.approx(4 * g_oracle(0.75), abs=1e-12)


class TestWitnesses:
    @pytest.mark.parametrize("curve", list(CurveId))
    def test_witness_realizes_curve_point(self, curve):
        lo, hi = CURVE_DOMAINS[curve]
        for s in np.linspace(lo, hi, 9):
            b = curve_witness(curve, s)
            assert s_max(b) == pytest.approx(s, abs=1e-10)
            assert mutual_information(b) == pytest.approx(curve_value(curve, s), abs=1e-10)

    @pytest.mark.parametrize("curve", list(CurveId))
    def test_vectors_are_the_witnesses_in_canonical_labeling(self, curve):
        # the boundary solver starts at these rows, in the slice where the canonical expression is s
        ss = np.linspace(*CURVE_DOMAINS[curve], 9)
        x = witness_vectors(curve, ss)
        for s, row in zip(ss, x):
            assert np.allclose(row, curve_witness(curve, s).correlators().vector(), rtol=0.0, atol=1e-15)
        slots = x[:, 4:] @ CHSH_SLOT_SIGNS.reshape(8, 4).T
        assert np.allclose(slots[:, 0], ss, rtol=0.0, atol=1e-15)
        assert np.all(slots <= ss[:, None] + 1e-15)

    def test_local_min_is_zero(self):
        for s in np.linspace(0, 2, 9):
            assert curve_value("local_min", s) == 0.0
            assert mutual_information(curve_witness(CurveId.LOCAL_MIN, s)) <= 1e-12


class TestStationarity:
    def test_c_nonlocal_is_locally_optimal(self, rng):
        # perturb the optimizing correlators along the constraint surface;
        # the information must not increase beyond first-order noise
        for s in (2.3, 2.8, 3.3, 3.8):
            c = curve_witness(CurveId.C_NONLOCAL_MAX, s).correlators()
            base = float(np.sum(g(c.ab)))
            for _ in range(40):
                d = rng.standard_normal(4)
                d[:3] = -np.abs(d[:3])  # the three saturated correlators may only move inward
                d[3] = d[:3].sum()      # keep the fixed CHSH expression exactly at s
                step = c.ab.ravel() + 1e-4 * d / np.linalg.norm(d)
                assert np.max(np.abs(step)) <= 1.0
                assert float(np.sum(g(step))) <= base + 1e-6


class TestRegistry:
    def test_grid_endpoints(self):
        ss, ii = curve_grid(CurveId.NS_MAX, 5)
        assert ss[0] == 0.0 and ss[-1] == 4.0
        assert ii[0] == pytest.approx(0.1225562489182656, abs=1e-10)
        assert ii[-1] == pytest.approx(1.0, abs=1e-12)

    def test_string_ids(self):
        assert curve_value("qc_max", 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_ns_max_dominates_qc(self):
        for s in np.linspace(2, TSIRELSON, 25):
            assert curve_value("ns_max", s) >= curve_value("qc_max", s) - 1e-12

    def test_crossing(self):
        star = ld_c_crossing()
        assert 3.0 < star < 4.0
        assert curve_value("ld_pr_max", star) == pytest.approx(curve_value("c_nonlocal_max", star), abs=1e-9)
        assert curve_value("ld_pr_max", star - 0.01) < curve_value("c_nonlocal_max", star - 0.01)
        assert curve_value("ld_pr_max", star + 0.01) > curve_value("c_nonlocal_max", star + 0.01)

    def test_continuity_everywhere(self):
        for curve in CurveId:
            ss, ii = curve_grid(curve, 400)
            assert np.max(np.abs(np.diff(ii))) < 0.02


class TestCurveTable:
    @pytest.mark.parametrize("curve", list(CurveId))
    def test_grid_equals_pointwise_values(self, curve):
        ss, ii = curve_grid(curve, 101)
        assert np.array_equal(ii, [curve_value(curve, s) for s in ss])

    @pytest.mark.parametrize("curve", list(CurveId))
    def test_array_equals_scalar_calls(self, curve, rng):
        lo, hi = CURVE_DOMAINS[curve]
        ss = rng.uniform(lo, hi, 50)
        vals = curve_value(curve, ss)
        assert vals.shape == ss.shape
        assert np.array_equal(vals, [curve_value(curve, float(s)) for s in ss])
        assert isinstance(curve_value(curve, float(ss[0])), float)
        assert np.array_equal(curve_value(curve, ss.reshape(5, 10)), vals.reshape(5, 10))

    @pytest.mark.parametrize("curve", [c for c in CurveId if c is not CurveId.LOCAL_MIN])
    def test_witness_information_equals_value(self, curve):
        # LOCAL_MIN's value is exactly 0 instead: TestWitnesses.test_local_min_is_zero
        lo, hi = CURVE_DOMAINS[curve]
        for s in np.linspace(lo, hi, 13):
            assert mutual_information(curve_witness(curve, s)) == curve_value(curve, s)

    def test_out_of_domain_array_names_first_bad_score(self):
        with pytest.raises(BehaviorError, match=r"^S = 2\.5 outside curve domain \[0\.0, 2\.0\]$"):
            curve_value(CurveId.LOCAL_MAX, np.array([0.5, 1.0, 2.5, 3.0, -1.0]))
        with pytest.raises(BehaviorError, match=r"^S = nan outside"):
            curve_value(CurveId.NS_MAX, np.array([1.0, np.nan]))

    def test_tsirelson_endpoint_raises_no_warning(self):
        assert 8.0 - TSIRELSON**2 < 0.0  # the radicand of w is negative there in floating point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert w(TSIRELSON) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert curve_value("qc_max", TSIRELSON) == pytest.approx(4 * g_oracle(1 / math.sqrt(2)), abs=1e-12)
            assert np.array_equal(w(np.array([2.0, TSIRELSON])), [w(2.0), w(TSIRELSON)])
            curve_value("qc_max", np.array([2.0, TSIRELSON]))


class TestNsMin:
    """The lower-boundary family: a product up to 2, a 2-D minimization up to 2 sqrt 2, then bell_pr_min."""

    def test_equals_closed_forms_outside_the_family_range(self):
        low = np.linspace(0.0, 2.0, 81)
        assert np.max(np.abs(curve_value("ns_min", low) - curve_value("local_min", low))) <= 1e-15
        high = np.linspace(TSIRELSON, 4.0, 81)
        assert np.max(np.abs(curve_value("ns_min", high) - curve_value("bell_pr_min", high))) <= 1e-15

    def test_witnesses_validate_at_their_score(self):
        near = np.logspace(-9, -1, 17)
        scores = np.concatenate([np.linspace(0.0, 4.0, 41), 2.0 + near, TSIRELSON - near])
        for s in scores:
            b = curve_witness("ns_min", s)
            validate(b.table, tol=INTERNAL_TOL)
            assert abs(s_max(b) - s) <= 1e-12
            assert mutual_information(b) == curve_value("ns_min", s)

    def test_newton_reaches_a_stationary_point(self):
        # below s ~ 2.05 the minimizer's smallest probability drops under 4e-6 and
        # the rounding of a alone leaves a gradient above 1e-12
        from nonsig.boundary import _family_derivs, _family_newton, _family_rows

        s = np.linspace(2.05, TSIRELSON - 1e-6, 100)
        f, a = _family_newton(s)
        grad, _ = _family_derivs(_family_rows(s, a), a)
        assert np.max(np.linalg.norm(grad, axis=1)) <= 1e-12
        assert np.max(np.abs(f - curve_value("ns_min", s))) <= 1e-15

    def test_clean_point_at_two_and_a_half(self):
        # a = (sqrt(0.4), sqrt(0.1)) up to sign
        c = curve_witness("ns_min", 2.5).correlators()
        assert np.allclose(np.abs(c.a), np.sqrt([0.4, 0.1]), atol=1e-12)
        assert np.allclose(c.a, c.b, atol=0.0)

    def test_rises_from_zero_at_two(self):
        ss = 2.0 + np.logspace(-9, -1, 30)
        vals = curve_value("ns_min", ss)
        assert np.all(np.diff(vals) > 0.0) and vals[0] < 1e-8

import decimal
import itertools
import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

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

    def test_clamped_at_one(self):
        # the closed form rounds to 1 + 2.2e-16 at S = 2, which put all four
        # qc_max witness correlators above 1
        assert w(2.0) == 1.0
        s = np.linspace(2.0, TSIRELSON, 100001)
        assert np.all(w(s) <= 1.0)
        assert np.all(np.abs(witness_vectors("qc_max", s)) <= 1.0)


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
            # c_max's slope diverges logarithmically at S = 2: 0.025 per step on a 400-point grid
            ss, ii = curve_grid(curve, 4000)
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
    """The lower-boundary family: the symmetric product up to 2, its closed-form minimizer up to 2 sqrt 2, then bell_pr_min."""

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
        from nonsig.slice import _family_derivs, _family_min, _family_rows

        s = np.linspace(2.05, TSIRELSON - 1e-6, 100)
        f, a = _family_min(s)
        grad, _ = _family_derivs(_family_rows(s, a), a)
        assert np.max(np.linalg.norm(grad, axis=1)) <= 1e-12
        assert np.max(np.abs(f - curve_value("ns_min", s))) <= 1e-15

    def test_clean_point_at_two_and_a_half(self):
        # a = (sqrt(0.4), sqrt(0.1)) up to sign
        c = curve_witness("ns_min", 2.5).correlators()
        assert np.allclose(np.abs(c.a), np.sqrt([0.4, 0.1]), atol=1e-12)
        assert np.allclose(c.a, c.b, atol=0.0)

    def test_family_is_continuous_at_two(self):
        # on both sides the witnesses meet the deterministic point x = 1 at S = 2: at
        # S = 2 + d the arc's a1 is ~1 - sqrt(d), so x moves by ~2 sqrt(d)
        from nonsig.slice import _family_vectors

        d = np.logspace(-15, -2, 27)
        at_two = _family_vectors(np.array([2.0]))
        assert np.array_equal(at_two, np.ones((1, 8)))
        for side in (2.0 - d, 2.0 + d):
            gap = np.abs(_family_vectors(side) - at_two).max(axis=1)
            assert np.all(gap <= 3.0 * np.sqrt(d))

    def test_rises_from_zero_at_two(self):
        ss = 2.0 + np.logspace(-9, -1, 30)
        vals = curve_value("ns_min", ss)
        assert np.all(np.diff(vals) > 0.0) and vals[0] < 1e-8


class TestFamilyMinimizer:
    """Guards of the closed-form family minimizer against the 2-D problem it solves.

    The minimizer lies on the conic a0^2 + 2 a0 a1 - a1^2 = (8 - s^2) / s, on an
    arc that the facets p(--|11) and p(-+|01) cut from its branch a0 = sqrt(2 a1^2 + k) - a1.
    """

    # ns_min as the 2-D damped Newton in a (with its facet-vertex fallback just above 2) computed it
    PINNED = [
        (2.000000000001, 5.414106847646317e-12),
        (2.000000001, 4.167506277141103e-09),
        (2.000001, 2.9217829747314045e-06),
        (2.00001, 2.5065421648623465e-05),
        (2.001, 0.0016760824559253207),
        (2.01, 0.012610441373165915),
        (2.05, 0.048585016516659696),
        (2.2, 0.14500259951516803),
        (2.5, 0.2830828133113006),
        (2.7, 0.3567133472368902),
        (2.8, 0.39001345298901247),
        (2.82842612474619, 0.3991236454187277),
        (2.82842712474519, 0.399123963306826),
    ]

    @staticmethod
    def arc_point(s, v):
        """The family point on the conic branch at v = 1 - a1."""
        k = (8.0 - s * s) / s
        a1 = 1.0 - v
        return np.stack([np.sqrt(2.0 * a1 * a1 + k) - a1, a1], axis=-1)

    @staticmethod
    def arc_ends(s):
        """The arc's ends in v = 1 - a1: p(--|11) = ((1 - a1)^2 - t) / 4 vanishes at
        v = sqrt t, and p(-+|01) = ((1 - a0)(1 + a1) - t) / 4 at the root of
        u^4 - 4u^3 + (2 + 4/s) u^2 - t^2 (u = 1 + a1), here in v and bisected on
        [sqrt t, (1 + sqrt(1 + e/2)) / 2], where its sign changes once."""
        t = (s - 2.0) * (s + 2.0) / (2.0 * s)
        c, e = 2.0 + 4.0 / s, 8.0 * (s - 2.0) / s
        lo = np.sqrt(t)
        a, b = lo.copy(), 0.5 * (1.0 + np.sqrt(1.0 + 0.5 * e))
        for _ in range(200):
            m = 0.5 * (a + b)
            neg = (((m - 4.0) * m + c) * m + e) * m - e - t * t < 0.0
            a, b = np.where(neg, m, a), np.where(neg, b, m)
        return lo, 0.5 * (a + b)

    def test_matches_the_two_dimensional_solve(self):
        s, i = np.array(self.PINNED).T
        assert np.max(np.abs(curve_value("ns_min", s) - i)) <= 1e-14

    def test_rounds_a_once(self):
        # a, from double-double arithmetic, is the 40-digit value rounded once, at
        # the 100 scores of test_newton_reaches_a_stationary_point and the pinned
        # ones; where numpy's longdouble is wider than float64, the plain formula
        # evaluated in it agrees or is farther from that value
        from nonsig.slice import _family_min

        s = np.concatenate([np.linspace(2.05, TSIRELSON - 1e-6, 100), np.array(self.PINNED)[:, 0]])
        a = _family_min(s)[1]
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            exact = []
            for v in map(decimal.Decimal, s):
                w = (v * v - 4).sqrt()
                a0 = ((2 - w) * (v + w) / (2 * v)).sqrt()
                exact.append([a0, 2 * a0 / (v + w)])
            assert np.array_equal(a, np.array(exact, dtype=float))
            if np.finfo(np.longdouble).nmant > np.finfo(float).nmant:
                x = s.astype(np.longdouble)
                w = np.sqrt((x - 2.0) * (x + 2.0))
                a0 = np.sqrt((2.0 - w) * (x + w) / (2.0 * x))
                wide = np.stack([a0, 2.0 * a0 / (x + w)], axis=-1).astype(float)
                for row, wide_row, exact_row in zip(a, wide, exact):
                    for new, old, e in zip(row, wide_row, exact_row):
                        assert new == old or abs(decimal.Decimal(new) - e) < abs(decimal.Decimal(old) - e)

    def test_lies_on_the_conic(self):
        from nonsig.slice import _family_min

        s = np.linspace(2.0, TSIRELSON, 202)[1:-1]
        a = _family_min(s)[1]
        x = witness_vectors("ns_min", s)
        t = (s - 2.0) * (s + 2.0) / (2.0 * s)
        assert np.max(np.abs(a[:, 0] ** 2 + 2.0 * a[:, 0] * a[:, 1] - a[:, 1] ** 2 - (8.0 - s * s) / s)) <= 1e-14
        assert np.max(np.abs(x[:, 4:] - (a[:, [0, 0, 1, 1]] * a[:, [0, 1, 0, 1]] + np.outer(t, [1, 1, 1, -1])))) <= 1e-14

    def test_arc_ends_lie_on_their_facets_and_the_minimizer_inside(self):
        # the minimizer's distance in a1 from the p(--|11) facet shrinks like (s - 2)^2.5:
        # 1e-14 at s = 2 + 1e-5, but 3e-17 at 2 + 1e-6, below the rounding of a1
        from nonsig.slice import _P16, _family_min, _family_rows

        s = np.concatenate([2.0 + np.logspace(-5, -1, 30), np.linspace(2.1, TSIRELSON - 1e-9, 60)])
        lo, hi = self.arc_ends(s)
        q_lo, q_hi = _family_rows(s, self.arc_point(s, lo)), _family_rows(s, self.arc_point(s, hi))
        facet_11, facet_01, facet_10 = _P16.start + 15, _P16.start + 6, _P16.start + 9
        assert np.max(np.abs(q_lo[:, facet_11])) <= 1e-15
        assert np.max(np.abs(q_hi[:, [facet_01, facet_10]])) <= 1e-15
        assert np.min(q_lo) >= -1e-15 and np.min(q_hi) >= -1e-15
        a = _family_min(s)[1]
        q, v = _family_rows(s, a), 1.0 - a[:, 1]
        assert np.all((lo < v) & (v < hi))
        assert np.min(q[:, [facet_11, facet_01, facet_10]]) > 0.0

    def test_no_arc_point_has_less_information(self):
        from nonsig.boundary import _rounding
        from nonsig.functionals import _info
        from nonsig.slice import _family_rows, _rows_probs

        for s in np.concatenate([2.0 + np.logspace(-5, -1, 9), np.linspace(2.1, TSIRELSON - 1e-9, 20)]):
            lo, hi = self.arc_ends(np.array(s))
            v = np.linspace(lo, hi, 4001)[1:-1]
            q = _family_rows(np.full(len(v), s), self.arc_point(s, v))
            assert np.min(q) >= -1e-15  # the arc between its ends is feasible
            f = curve_value("ns_min", s)
            assert np.min(_info(*_rows_probs(np.clip(q, 0.0, None)))) >= f - _rounding(f)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(2.0, TSIRELSON, exclude_min=True, exclude_max=True),
        st.integers(0, 2**32 - 1),
    )
    def test_no_family_point_has_less_information(self, s, seed):
        # the 2-D oracle: feasible family points drawn uniformly and near the minimizer
        from nonsig.boundary import _rounding
        from nonsig.functionals import _info
        from nonsig.slice import _family_min, _family_rows, _rows_probs

        rng = np.random.default_rng(seed)
        best = _family_min(np.array([s]))[1][0]
        width = (1.0 - best) * 10.0 ** rng.uniform(-12.0, 0.0, (20_000, 1))
        a = np.concatenate([rng.uniform(-1.0, 1.0, (20_000, 2)), best + width * rng.standard_normal((20_000, 2))])
        q = _family_rows(np.full(len(a), s), a)
        q = q[(q >= 0.0).all(axis=1)]
        f = curve_value("ns_min", s)
        assert len(q) and np.min(_info(*_rows_probs(q))) >= f - _rounding(f)

    def test_derivs_match_finite_differences(self):
        from nonsig.functionals import _info
        from nonsig.slice import _family_derivs, _family_rows, _rows_probs

        s = np.array([2.3, 2.6, 2.8, 3.0])
        a = np.array([[0.5, 0.2], [0.3, 0.1], [0.0, 0.0], [0.05, -0.02]])
        grad, hess = _family_derivs(_family_rows(s, a), a)
        h = 1e-5
        for u, step in enumerate(h * np.eye(2)):
            up, down = _family_rows(s, a + step), _family_rows(s, a - step)
            assert np.allclose((_info(*_rows_probs(up)) - _info(*_rows_probs(down))) / (2 * h), grad[:, u], atol=1e-8)
            slope = (_family_derivs(up, a + step)[0] - _family_derivs(down, a - step)[0]) / (2 * h)
            assert np.allclose(slope, hess[:, u], atol=1e-7)

    def test_odds_ratios_are_equal(self):
        # the stationarity of I in C at fixed marginals that the closed form rests on
        s = np.linspace(2.02, 2.8, 40)
        p = np.stack([curve_witness("ns_min", v).table for v in s])  # (n, x, y, a, b)
        ratio = p[..., 0, 0] * p[..., 1, 1] / (p[..., 0, 1] * p[..., 1, 0])
        expected = ((s + 2.0) / (s - 2.0))[:, None, None] ** (2.0 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert np.max(np.abs(np.log(ratio / expected))) <= 1e-9


def slice_vertices(s: float) -> np.ndarray:
    """Brute force: every vertex (k, 4) of the correlation-space slice at canonical score s.

    Each 3-subset of the 15 facets (|C_xy| <= 1 and the seven other signed
    expressions at most s) with the canonical expression = s is solved, and
    the feasible solutions are kept.
    """
    signs = CHSH_SLOT_SIGNS.reshape(8, 4)
    rows = np.vstack([np.eye(4), -np.eye(4), signs[1:]])
    bound = np.concatenate([np.ones(8), np.full(7, s)])
    subsets = np.array(list(itertools.combinations(range(15), 3)))
    a = np.concatenate([rows[subsets], np.broadcast_to(signs[0], (len(subsets), 1, 4))], axis=1)
    b = np.concatenate([bound[subsets], np.full((len(subsets), 1), s)], axis=1)
    regular = np.abs(np.linalg.det(a)) > 1e-9
    c = np.linalg.solve(a[regular], b[regular][:, :, None])[:, :, 0]
    return c[np.all(c @ rows.T <= bound + 1e-12, axis=1)]


class TestCorrelationSpace:
    """c_min and c_max, the proven extrema of I over the correlation-space slice."""

    SCORES = np.linspace(0.0, 4.0, 161)

    def test_c_max_is_the_best_vertex(self):
        best = [max(sum(g_oracle(v) for v in c) for c in slice_vertices(s)) for s in self.SCORES]
        assert np.max(np.abs(curve_value("c_max", self.SCORES) - best)) <= 1e-14

    def test_c_max_closed_forms(self):
        low, mid, high = np.linspace(0.0, 1.0, 21), np.linspace(1.0, 2.0, 21), np.linspace(2.0, 4.0, 21)
        ref = [max(g_oracle(s), 4 * g_oracle(s / 2)) for s in low]
        assert np.max(np.abs(curve_value("c_max", low) - ref)) <= 1e-15
        ref = [max(0.25 + 3 * g_oracle(s - 1), 4 * g_oracle(s / 2)) for s in mid]
        assert np.max(np.abs(curve_value("c_max", mid) - ref)) <= 1e-15
        assert np.array_equal(curve_value("c_max", high), curve_value("c_nonlocal_max", high))

    def test_c_min_is_the_isotropic_point(self):
        ref = [4 * g_oracle(s / 4) for s in self.SCORES]
        assert np.max(np.abs(curve_value("c_min", self.SCORES) - ref)) <= 1e-15
        x = witness_vectors("c_min", self.SCORES)
        assert np.array_equal(x[:, 4:], np.outer(self.SCORES / 4, [1.0, 1.0, 1.0, -1.0]))
        high = np.linspace(TSIRELSON, 4.0, 41)
        assert np.max(np.abs(curve_value("c_min", high) - curve_value("bell_pr_min", high))) <= 1e-15

    def test_slice_points_lie_between_c_min_and_c_max(self, rng):
        # random convex combinations of the vertices fill the slice
        for s in np.linspace(0.0, 4.0, 41):
            vertices = slice_vertices(s)
            c = rng.dirichlet(np.full(len(vertices), 0.3), 200) @ vertices
            i = np.sum(g(np.clip(c, -1.0, 1.0)), axis=1)
            assert np.all(i >= curve_value("c_min", s) - 1e-12)
            assert np.all(i <= curve_value("c_max", s) + 1e-12)


class TestTsirelsonCertificate:
    def test_isotropic_eigenvalue_turns_at_tsirelson(self):
        from nonsig.slice import _isotropic_eig_root

        root, signs = _isotropic_eig_root()
        assert abs(root - TSIRELSON) <= 1e-15
        assert signs == (-1, 1)

    @pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
    def test_normal_form_below_tsirelson(self, d):
        # 4 g(s/4) - ns_min(s) = d^2 / (8 ln 2) (1 + O(d)) at s = 2 sqrt 2 - d; the O(d) term reads ~0.12 d
        s = TSIRELSON - d
        gap = 4 * g_oracle(s / 4) - curve_value("ns_min", s)
        assert abs(8 * math.log(2) * gap / d**2 - 1) <= 0.2 * d

    def test_isotropic_eigenvalue_closed_form(self):
        from nonsig.slice import _isotropic_eig

        s = np.linspace(2.7, 3.2, 8)
        c = s / 4.0
        expected = c * (c - 1.0 / math.sqrt(2.0)) / (math.log(2.0) * (1.0 - c * c))
        assert np.max(np.abs(_isotropic_eig(s) - expected)) <= 1e-14

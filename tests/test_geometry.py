import numpy as np
import pytest

from nonsig.behavior import BehaviorError, Correlators
from nonsig.boundary import BoundaryCurve, FeasibleSet, ScanPoint
from nonsig.geometry import (
    AnalysisError,
    InflectionEstimate,
    canonicalize_sym,
    concavity_profile,
    concavity_profile_xy,
    locate_inflection,
    orientation_det,
    slope_kinks,
    trajectory,
    _slope_scores,
)

TSIRELSON = 2 * np.sqrt(2)


def synthetic_curve(s, i, set_=FeasibleSet.SYM, argopts=None):
    pts = []
    for j in range(len(s)):
        vec = np.zeros(8) if argopts is None else argopts[j]
        pts.append(ScanPoint(s=float(s[j]), i=float(i[j]), argopt=Correlators.from_vector(vec), converged=True))
    return BoundaryCurve(points=tuple(pts), set=set_)


class TestOrientationDet:
    def test_collinear(self):
        assert orientation_det((0, 0), (1, 1), (2, 2)) == 0.0

    def test_unit_left_turn(self):
        assert orientation_det((0, 0), (1, 0), (1, 1)) == 1.0

    def test_swap_flips_sign(self, rng):
        for _ in range(20):
            a, b, c = rng.standard_normal((3, 2))
            assert orientation_det(a, b, c) == pytest.approx(-orientation_det(b, a, c), abs=1e-12)

    def test_linear_in_each_point(self, rng):
        a, b, c, d = rng.standard_normal((4, 2))
        lam = 0.3
        mixed = lam * a + (1 - lam) * d
        expect = lam * orientation_det(a, b, c) + (1 - lam) * orientation_det(d, b, c)
        assert orientation_det(mixed, b, c) == pytest.approx(expect, abs=1e-12)


class TestConcavityProfile:
    def test_parabola_positive(self):
        x = np.linspace(-1, 1, 101)
        prof = concavity_profile_xy(x, x**2, k=10)
        assert len(prof[1]) == 101 - 20
        assert np.all(prof[1] > 0)

    def test_negative_parabola(self):
        x = np.linspace(-1, 1, 101)
        prof = concavity_profile_xy(x, -(x**2), k=10)
        assert np.all(prof[1] < 0)

    def test_affine_is_zero(self):
        x = np.linspace(0, 1, 80)
        prof = concavity_profile_xy(x, 3 * x - 1, k=8)
        assert np.abs(prof[1]).max() <= 1e-12

    def test_cubic_brackets_origin(self):
        k = 20
        x = np.linspace(-1, 1, 401)
        ds = x[1] - x[0]
        prof = concavity_profile_xy(x, x**3, k=k)
        ss, dets = prof
        flips = np.flatnonzero(np.sign(dets[1:]) != np.sign(dets[:-1]))
        assert len(flips) == 1
        # the sign change happens within the 2k*ds band ending at the inflection
        assert -2 * k * ds <= ss[flips[0]] <= 0.0

    def test_equals_one_triple_at_a_time(self, rng):
        s = np.linspace(2.5, 3.1, 120)
        i = np.cumsum(rng.standard_normal(120))
        k = 7
        prof = concavity_profile_xy(s, i, k=k)
        expect = [
            (float(s[j]), orientation_det((s[j], i[j]), (s[j + k], i[j + k]), (s[j + 2 * k], i[j + 2 * k])))
            for j in range(len(s) - 2 * k)
        ]
        assert list(zip(prof[0].tolist(), prof[1].tolist())) == expect

    def test_too_short(self):
        with pytest.raises(AnalysisError):
            concavity_profile_xy(np.linspace(0, 1, 10), np.zeros(10), k=10)

    def test_nonuniform_spacing_rejected(self):
        x = np.array([0.0, 0.1, 0.3, 0.35, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        with pytest.raises(AnalysisError):
            concavity_profile_xy(x, x**2, k=2)

    def test_accepts_boundary_curve(self):
        s = np.linspace(0, 1, 41)
        curve = synthetic_curve(s, s**2)
        prof = concavity_profile(curve, k=5)
        assert np.all(prof[1] > 0)


class TestLocateInflection:
    @pytest.mark.parametrize("dx", [1e-2, 1e-3])
    def test_cubic_origin(self, dx):
        k = 15
        x = np.arange(-1, 1 + dx / 2, dx)
        prof = concavity_profile_xy(x, x**3, k=k)
        est = locate_inflection(prof, dx, k)
        assert abs(est.s_star) <= k * dx + 1e-12
        assert est.uncertainty == pytest.approx(k * dx)
        assert est.transition_hi - est.transition_lo == pytest.approx(2 * k * dx)

    def test_shifted_quintic(self):
        # inflection of (x - 0.3)^3 + 2(x - 0.3)^5 sits at 0.3
        k = 12
        x = np.linspace(-1, 1, 1001)
        y = (x - 0.3) ** 3 + 2 * (x - 0.3) ** 5
        prof = concavity_profile_xy(x, y, k=k)
        est = locate_inflection(prof, x[1] - x[0], k)
        assert abs(est.s_star - 0.3) <= k * (x[1] - x[0])

    def test_line_has_no_sign_change(self):
        x = np.linspace(0, 1, 301)
        prof = concavity_profile_xy(x, 2 * x, k=10)
        with pytest.raises(AnalysisError):
            locate_inflection(prof, x[1] - x[0], 10)

    def test_double_inflection_rejected(self):
        x = np.linspace(-1, 1, 2001)
        y = np.sin(4 * x)  # multiple concavity changes
        prof = concavity_profile_xy(x, y, k=10)
        with pytest.raises(AnalysisError):
            locate_inflection(prof, x[1] - x[0], 10)

    @pytest.mark.parametrize(
        "y, message",
        [
            (lambda x: x**2, "found 0 (persistent run signs: [1])"),
            (lambda x: np.sin(4 * x), "found 3 (persistent run signs: [-1, 1, -1, 1])"),
        ],
    )
    def test_error_prints_plain_signs(self, y, message):
        x = np.linspace(-1, 1, 2001)
        prof = concavity_profile_xy(x, y(x), k=10)
        with pytest.raises(AnalysisError) as exc:
            locate_inflection(prof, x[1] - x[0], 10)
        assert str(exc.value) == f"need exactly one persistent sign change, {message}"

    def test_empty_profile_rejected(self):
        with pytest.raises(AnalysisError, match="empty profile"):
            locate_inflection((np.array([]), np.array([])), 0.01, 10)

    def test_band_invariant(self):
        with pytest.raises(AnalysisError):
            InflectionEstimate(s_star=1.0, uncertainty=0.1, transition_lo=1.5, transition_hi=2.0)


class TestTrajectory:
    def _sym_vec(self, a0, a1, c00, c01, c11):
        return np.array([a0, a1, a0, a1, c00, c01, c01, c11])

    def test_requires_sym(self):
        s = np.linspace(2, 3, 30)
        curve = synthetic_curve(s, s * 0.1, set_=FeasibleSet.NS)
        with pytest.raises(BehaviorError):
            trajectory(curve)

    def test_extracts_series(self):
        s = np.linspace(TSIRELSON, 4, 25)
        argopts = [self._sym_vec(0, 0, m, m, -m) for m in s / 4]
        curve = synthetic_curve(s, s * 0.1, argopts=argopts)
        traj = trajectory(curve)
        assert np.allclose(traj.c00, s / 4)
        assert np.allclose(traj.c11, -s / 4)
        assert np.allclose(traj.a0, 0)

    def test_canonicalization_unshreds_sign_flips(self, rng):
        # alternate between a behavior and its output-flipped relabeling
        s = np.linspace(TSIRELSON, 4, 20)
        argopts = []
        for j, m in enumerate(s / 4):
            vec = self._sym_vec(0.0, 0.0, m, m, -m)
            if j % 2:
                flip = np.array([1, -1, 1, -1, 1.0, -1, -1, 1])
                vec = vec * flip  # same behavior up to relabeling
            argopts.append(vec)
        curve = synthetic_curve(s, s * 0.1, argopts=argopts)
        traj = trajectory(curve)
        assert np.max(np.abs(np.diff(traj.c00))) < 0.05  # no sign shredding

    def test_canonicalize_prefers_c00_over_c11(self):
        c = Correlators.from_vector(self._sym_vec(0.1, -0.2, -0.9, 0.6, 0.8))
        v = canonicalize_sym(c)
        from nonsig.functionals import chsh_linear, s_max

        assert chsh_linear(v, 0) == pytest.approx(s_max(c), abs=1e-12)
        assert v.ab[0, 0] >= v.ab[1, 1]


class TestSlopeKinks:
    def test_single_synthetic_kink(self):
        s = np.linspace(2.5, 3.1, 400)
        kink_at = 2.82
        a0 = np.where(s < kink_at, kink_at - s, 0.0)  # piecewise-linear elbow
        argopts = [self._vec(a, 0.7, 0.7, -0.7) for a in a0]
        curve = synthetic_curve(s, s * 0.1, argopts=argopts)
        traj = trajectory(curve)
        kinks = slope_kinks(traj, window=30)
        assert len(kinks) == 1
        assert abs(kinks[0] - kink_at) <= 30 * (s[1] - s[0])

    def _vec(self, a, c00, c01, c11):
        return np.array([a, a, a, a, c00, c01, c01, c11])

    def test_scores_match_polyfit_oracle(self):
        s = np.linspace(2.5, 3.1, 200)
        a0 = np.where(s < 2.82, 2.82 - s, 0.0)
        c00 = 0.7 + 0.1 * np.sin(4 * s)
        traj = trajectory(synthetic_curve(s, s * 0.1, argopts=[self._vec(a, c, 0.6, -0.5) for a, c in zip(a0, c00)]))
        window = 20
        oracle = np.zeros(len(s))
        for j in range(window, len(s) - window):
            for y in traj.series().values():
                left = np.polyfit(s[j - window : j + 1], y[j - window : j + 1], 1)[0]
                right = np.polyfit(s[j : j + window + 1], y[j : j + window + 1], 1)[0]
                oracle[j] = max(oracle[j], abs(right - left))
        assert oracle.max() > 0.5  # the elbow in a0 is in there
        np.testing.assert_allclose(_slope_scores(traj, window), oracle, rtol=0, atol=1e-9)

    def test_smooth_curve_fires_nowhere(self):
        s = np.linspace(2.5, 3.1, 400)
        argopts = [self._vec(0.2 * np.sin(v), 0.8, 0.6, -0.5) for v in s]
        curve = synthetic_curve(s, s * 0.1, argopts=argopts)
        kinks = slope_kinks(trajectory(curve), window=30)
        assert kinks == []

    def test_too_short(self):
        s = np.linspace(2.5, 3.1, 40)
        curve = synthetic_curve(s, s * 0.1, argopts=[self._vec(0, 0.5, 0.5, -0.5)] * 40)
        for window in (50, 0, -3):
            with pytest.raises(AnalysisError):
                slope_kinks(trajectory(curve), window=window)

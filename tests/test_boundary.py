import numpy as np
import pytest

from nonsig.behavior import BehaviorError, named, random_correlator_vectors
from nonsig.boundary import (
    FeasibleSet,
    ScanConfig,
    ScanMode,
    argopt_behavior,
    info_gradient,
    optimize_at_s,
    scan,
    vertical_fill_check,
)
from nonsig.curves import bell_pr_min, ns_max, qc_max
from nonsig.functionals import s_max

TSIRELSON = 2 * np.sqrt(2)


def interior_vectors(n, seed):
    """Random valid correlator vectors pulled 10% toward the uniform box."""
    return 0.9 * random_correlator_vectors(n, np.random.default_rng([seed]))


class TestInfoGradient:
    def test_matches_central_differences(self):
        vs = interior_vectors(100, seed=77)
        step = 1e-6
        from nonsig.boundary import _info_from_x

        for v in vs:
            grad = info_gradient(v)
            fd = np.zeros(8)
            for k in range(8):
                vp, vm = v.copy(), v.copy()
                vp[k] += step
                vm[k] -= step
                fd[k] = (_info_from_x(vp[None])[0] - _info_from_x(vm[None])[0]) / (2 * step)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_batched_matches_scalar(self):
        vs = interior_vectors(10, seed=3)
        batch = info_gradient(vs)
        for k, v in enumerate(vs):
            assert np.allclose(batch[k], info_gradient(v), atol=1e-15)


class TestOptimizeAtS:
    def test_ns_max_at_two_recovers_shared_coin(self):
        r = optimize_at_s("ns", "max", 2.0, restarts=16, seed=1)
        assert r.i == pytest.approx(1.0, abs=2e-3)
        c = r.argopt
        assert np.max(np.abs(c.a)) < 0.05 and np.max(np.abs(c.b)) < 0.05
        assert np.min(np.abs(c.ab)) > 0.95  # a relabeled shared coin

    def test_ns_min_matches_bell_pr_segment(self):
        for s in (2.9, 3.3, 3.8):
            r = optimize_at_s("ns", "min", s, restarts=16, seed=2)
            assert r.i == pytest.approx(bell_pr_min(s), abs=2e-3)

    def test_ns_min_local_region_is_zero(self):
        r = optimize_at_s("ns", "min", 2.0, restarts=16, seed=3)
        assert abs(r.i) <= 1e-6

    def test_qtilde_capped_matches_qc_curve(self):
        for s in (2.3, 2.6):
            r = optimize_at_s("c", "max", s, restarts=16, seed=4, qtilde_cap=True)
            assert r.i == pytest.approx(qc_max(s), abs=2e-3)

    def test_infeasible_s(self):
        with pytest.raises(BehaviorError):
            optimize_at_s("ns", "max", 4.5, restarts=4, seed=0)
        with pytest.raises(BehaviorError):
            optimize_at_s("c", "max", 3.0, restarts=4, seed=0, qtilde_cap=True)
        with pytest.raises(BehaviorError):
            optimize_at_s("ns", "max", 3.0, restarts=0, seed=0)

    def test_qtilde_cap_requires_correlation_space(self):
        with pytest.raises(BehaviorError):
            optimize_at_s("ns", "max", 2.5, restarts=4, seed=0, qtilde_cap=True)

    def test_deterministic(self):
        a = optimize_at_s("sym", "max", 2.7, restarts=8, seed=10)
        b = optimize_at_s("sym", "max", 2.7, restarts=8, seed=10)
        assert a.i == b.i
        assert np.array_equal(a.argopt.vector(), b.argopt.vector())

    def test_raw_start_winner_is_not_converged(self):
        # the exact product start wins here; the solver never touched it
        r = optimize_at_s("sym", "min", 1.5, restarts=12, seed=3)
        assert abs(r.i) <= 1e-12
        assert not r.converged

    def test_warm_start_accepted(self):
        warm = named("sc").behavior.correlators().vector()
        r = optimize_at_s("ns", "max", 2.0, restarts=2, seed=6, extra_starts=warm)
        assert r.i == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def small_max_scan():
    cfg = ScanConfig(
        set=FeasibleSet.NS, mode=ScanMode.MAX, s_lo=1.6, s_hi=2.4, grid_points=17,
        restarts=12, seed=21,
    )
    return scan(cfg)


class TestScan:
    def test_matches_analytic_upper_bound(self, small_max_scan):
        for p in small_max_scan.points:
            assert p.i == pytest.approx(ns_max(p.s), abs=2e-3)

    def test_points_strictly_increasing(self, small_max_scan):
        assert np.all(np.diff(small_max_scan.s) > 0)

    def test_argopts_validate_with_matching_score(self, small_max_scan):
        for p in small_max_scan.points:
            argopt_behavior(p)  # raises if invalid
            assert abs(s_max(p.argopt) - p.s) <= 1e-6

    def test_local_min_region_is_flat_zero(self):
        cfg = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=0.0, s_hi=2.0, grid_points=50,
            restarts=8, seed=22,
        )
        curve = scan(cfg)
        assert np.max(np.abs(curve.i)) <= 1e-6

    def test_sym_scan_stays_symmetric(self):
        cfg = ScanConfig(
            set=FeasibleSet.SYM, mode=ScanMode.MIN, s_lo=2.4, s_hi=3.0, grid_points=7,
            restarts=10, seed=23,
        )
        curve = scan(cfg)
        for p in curve.points:
            c = p.argopt
            assert abs(c.a[0] - c.b[0]) <= 1e-8
            assert abs(c.a[1] - c.b[1]) <= 1e-8
            assert abs(c.ab[0, 1] - c.ab[1, 0]) <= 1e-8
            assert p.i == pytest.approx(bell_pr_min(p.s) if p.s >= TSIRELSON else p.i, abs=2e-3)

    def test_deterministic_regardless_of_pool(self, monkeypatch):
        cfg = ScanConfig(
            set=FeasibleSet.C, mode=ScanMode.MAX, s_lo=2.0, s_hi=3.0, grid_points=9,
            restarts=6, seed=24,
        )
        monkeypatch.setenv("NONSIG_THREADS", "1")
        serial = scan(cfg)
        monkeypatch.setenv("NONSIG_THREADS", "2")
        pooled = scan(cfg)
        assert np.array_equal(serial.i, pooled.i)
        assert np.array_equal(serial.argopt_vectors(), pooled.argopt_vectors())

    def test_restart_stability(self):
        base = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=2.5, s_hi=3.5, grid_points=6,
            restarts=10, seed=25,
        )
        doubled = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=2.5, s_hi=3.5, grid_points=6,
            restarts=20, seed=25,
        )
        a, b = scan(base), scan(doubled)
        assert np.max(np.abs(a.i - b.i)) <= 1e-4

    def test_mode_dominance(self):
        lo = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=2.2, s_hi=3.8, grid_points=5,
            restarts=8, seed=26,
        )
        hi = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MAX, s_lo=2.2, s_hi=3.8, grid_points=5,
            restarts=8, seed=26,
        )
        cmin, cmax = scan(lo), scan(hi)
        assert np.all(cmax.i >= cmin.i - 1e-9)
        assert np.all((cmin.i >= -1e-9) & (cmax.i <= 1 + 1e-9))

    def test_min_monotone_in_nonlocal_region(self):
        cfg = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=2.0, s_hi=4.0, grid_points=21,
            restarts=10, seed=27,
        )
        curve = scan(cfg)
        assert np.all(np.diff(curve.i) >= -5e-4)

    def test_config_validation(self):
        with pytest.raises(BehaviorError):
            ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=2.0, s_hi=1.0, grid_points=5)
        with pytest.raises(BehaviorError):
            ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=0.0, s_hi=5.0, grid_points=5)
        with pytest.raises(BehaviorError):
            ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=0.0, s_hi=1.0, grid_points=1)
        for restarts in (0, -1):
            with pytest.raises(BehaviorError):
                ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=1.0, s_hi=3.0, grid_points=3,
                           restarts=restarts)


class TestKernel:
    def test_matches_exact_objective(self):
        """At mu = 0 and a vanishing softening width the penalty kernel is the
        exact mutual information, with the exact gradient, on interior rows."""
        from nonsig.behavior import _tables_from_correlators
        from nonsig.boundary import _geometry, _info_from_x, _penalty, _probs, _random_starts, _x_from_z
        from nonsig.functionals import _mi_tables

        for set_ in FeasibleSet:
            for mode in ScanMode:
                geo = _geometry(set_, mode, False)
                point = geo.at([2.6])
                z = _random_starts(point, 20, np.random.default_rng([7]))
                job = point.take(np.zeros(len(z), dtype=int))
                x = _x_from_z(job, z)
                assert _probs(x)[0].min() > 1e-3
                f, grad = _penalty(job, z, mu=0.0, eps=1e-9)
                exact = _info_from_x(x)
                assert np.max(np.abs(f - geo.sigma * exact)) <= 1e-14
                expected = ((geo.sigma * info_gradient(x)) @ geo.emb) @ geo.null
                assert np.max(np.abs(grad - expected)) <= 1e-9
                tables = _tables_from_correlators(x[:, :2], x[:, 2:4], x[:, 4:].reshape(-1, 2, 2))
                assert np.max(np.abs(exact - _mi_tables(tables))) <= 1e-14


class TestBlockIndependence:
    """Each point of a blocked grid solve matches a one-point solve from the same starts."""

    @pytest.mark.parametrize(
        "set_, mode, grid, restarts, qtilde_cap",
        [
            ("ns", "min", np.linspace(1.6, 2.4, 9), 6, False),  # product starts below s = 2
            ("ns", "max", np.linspace(0.0, 4.0, 9), 6, False),  # anchor on a facet at 0 and 4
            ("c", "max", np.linspace(2.0, TSIRELSON, 6), 6, True),  # arcsin projection
            ("ns", "min", np.linspace(2.5, 3.1, 70), 16, False),  # more rows than one block
        ],
    )
    def test_blocked_matches_one_point(self, set_, mode, grid, restarts, qtilde_cap):
        from nonsig.boundary import _BLOCK_ROWS, _geometry, _solve_grid, _solve_points, _starts

        points = _geometry(FeasibleSet(set_), ScanMode(mode), qtilde_cap).at(grid)
        starts = [
            _starts(points.take([k]), restarts, np.random.default_rng([31, k])) for k in range(len(grid))
        ]
        if len(grid) > 10:  # the large case must really span several blocks
            assert sum(len(z) for z in starts) > _BLOCK_ROWS
        blocked = _solve_grid(points, starts)
        for k, (i, _, converged) in enumerate(blocked):
            ((alone, _, alone_converged),) = _solve_points(points.take([k]), [starts[k]])
            assert i == pytest.approx(alone, abs=1e-6)
            assert converged == alone_converged


class TestVerticalFill:
    def test_fill_at_three(self):
        assert vertical_fill_check(3.0, n_samples=128, seed=5, restarts=12)

    def test_fill_at_two_spans_unit_interval(self):
        assert vertical_fill_check(2.0, n_samples=128, seed=6, restarts=12)
        lo = optimize_at_s("ns", "min", 2.0, restarts=12, seed=6)
        hi = optimize_at_s("ns", "max", 2.0, restarts=12, seed=7)
        assert lo.i == pytest.approx(0.0, abs=1e-6)
        assert hi.i == pytest.approx(1.0, abs=2e-3)

    def test_degenerate_at_four(self):
        assert vertical_fill_check(4.0, n_samples=16, seed=8, restarts=4)

from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np
import pytest

from nonsig.behavior import (
    CHSH_SLOT_SIGNS,
    BehaviorError,
    correlator_table,
    named,
    random_correlator_vectors,
    validate,
)
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
from nonsig.curves import bell_pr_min, curve_value, ns_max, qc_max
from nonsig.functionals import mutual_information, s_max

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
        with pytest.raises(BehaviorError, match="seed"):
            optimize_at_s("ns", "max", 3.0, restarts=4, seed=-1)

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

    def test_unconverged_winner_is_polished(self):
        # NS MAX near s = 4: the 50 starts stop, unconverged, short of the
        # upper branch; polishing the winner reaches it
        s = 3.9812
        r = optimize_at_s("ns", "max", s, restarts=50, seed=5)
        assert r.i == pytest.approx(curve_value("ns_max", s), abs=1e-5)

    def test_warm_start_accepted(self):
        warm = named("sc").behavior.correlators().vector()
        r = optimize_at_s("ns", "max", 2.0, restarts=2, seed=6, extra_starts=warm)
        assert r.i == pytest.approx(1.0, abs=1e-9)


@st.composite
def queries(draw):
    """A kind, a score from its feasible range (its edges drawn on purpose), restarts and a seed."""
    set_, mode, cap = draw(st.sampled_from(
        [("ns", "min", False), ("ns", "max", False), ("sym", "min", False), ("sym", "max", False), ("c", "max", True)]
    ))
    hi = TSIRELSON if cap else 4.0
    s = draw(st.floats(0.0, 0.1) | st.floats(0.0, hi) | st.floats(hi - 0.1, hi))
    return set_, mode, cap, s, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


class TestArgoptProperty:
    @settings(max_examples=20, deadline=None)
    @given(queries())
    def test_argopt_validates_at_the_query_score(self, query):
        set_, mode, cap, s, restarts, seed = query
        r = optimize_at_s(set_, mode, s, restarts=restarts, seed=seed, qtilde_cap=cap)
        assert r.s == s
        behavior = validate(correlator_table(r.argopt), tol=1e-9)
        assert abs(s_max(r.argopt) - s) <= 1e-9
        assert abs(mutual_information(behavior) - r.i) <= 1e-12


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

    def test_deterministic(self):
        cfg = ScanConfig(
            set=FeasibleSet.C, mode=ScanMode.MAX, s_lo=2.0, s_hi=3.0, grid_points=9,
            restarts=6, seed=24,
        )
        first, second = scan(cfg), scan(cfg)
        assert np.array_equal(first.i, second.i)
        assert np.array_equal(first.argopt_vectors(), second.argopt_vectors())

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
        with pytest.raises(BehaviorError, match="seed"):
            ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=1.0, s_hi=3.0, grid_points=3, seed=-1)


class TestKernel:
    def test_matches_exact_objective(self):
        """At mu = 0 and a vanishing softening width the penalty kernel is the
        exact mutual information, with the exact gradient, on interior rows."""
        from nonsig.behavior import _tables_from_correlators
        from nonsig.boundary import _X, _geometry, _info_from_x, _penalty, _probs, _random_starts, _x_from_z
        from nonsig.functionals import _mi_tables

        for set_ in FeasibleSet:
            for mode in ScanMode:
                geo = _geometry(set_, mode, False)
                point = geo.at([2.6])
                z = _random_starts(point, 20, np.random.default_rng([7]))
                job = point.take(np.zeros(len(z), dtype=int))
                x = _x_from_z(job, z)
                assert _probs(x)[0].min() > 1e-3
                f, grad = _penalty(geo, job.off, z, mu=0.0, eps=1e-9)
                exact = _info_from_x(x)
                assert np.max(np.abs(f - geo.sigma * exact)) <= 1e-14
                expected = (geo.sigma * info_gradient(x)) @ geo.map[_X]
                assert np.max(np.abs(grad - expected)) <= 1e-9
                tables = _tables_from_correlators(x[:, :2], x[:, 2:4], x[:, 4:].reshape(-1, 2, 2))
                assert np.max(np.abs(exact - _mi_tables(tables))) <= 1e-14


def term_by_term_penalty(set_, mode, qtilde_cap, s, z, mu, eps):
    """The solver's penalized objective written out term by term in correlator space."""
    from nonsig.boundary import _ANCHOR_DIR, _SLOT_W, _embedding, _null_basis_rows

    emb = _embedding(set_)
    null = _null_basis_rows((emb.T @ _SLOT_W[0])[None, :])
    x = s[:, None] * _ANCHOR_DIR + z @ (emb @ null).T
    a, b, ab = x[:, :2], x[:, 2:4], x[:, 4:].reshape(-1, 2, 2)
    sign = np.array([1.0, -1.0])
    p16 = np.stack([
        0.25 * (1.0 + sign[i] * a[:, u] + sign[j] * b[:, v] + sign[i] * sign[j] * ab[:, u, v])
        for u in range(2) for v in range(2) for i in range(2) for j in range(2)
    ], axis=1)
    pa = 0.5 * (1.0 + a[:, :, None] * sign)
    pb = 0.5 * (1.0 + b[:, :, None] * sign)

    def soft_plogp(p):
        q = 0.5 * (p + np.sqrt(p * p + eps * eps))
        return q * np.log2(q + 1e-300)

    info = (
        0.25 * soft_plogp(p16).sum(axis=1)
        - 0.5 * soft_plogp(pa).sum(axis=(1, 2))
        - 0.5 * soft_plogp(pb).sum(axis=(1, 2))
    )
    slots = np.einsum("rxy,kxy->rk", ab, CHSH_SLOT_SIGNS)[:, 1:]
    penalty = (np.minimum(p16, 0.0) ** 2).sum(axis=1)
    penalty += (np.maximum(slots - s[:, None], 0.0) ** 2).sum(axis=1)
    if qtilde_cap:
        t = np.arcsin(np.clip(ab.reshape(-1, 4), -1.0, 1.0))
        e = t.sum(axis=1, keepdims=True) - 2.0 * t
        penalty += (np.maximum(np.abs(e) - np.pi, 0.0) ** 2).sum(axis=1)
    sigma = 1.0 if mode is ScanMode.MIN else -1.0
    return sigma * info + mu * penalty, penalty


KERNEL_CASES = [
    (set_, mode, set_ == "c", scores)
    for set_, scores in (("ns", (0.5, 2.0, 3.3, 4.0)), ("sym", (1.0, 2.9)), ("c", (2.0, 2.7)))
    for mode in ("min", "max")
]
KERNEL_STAGES = [(mu, eps) for mu in (10.0, 1e6) for eps in (1e-2, 1e-9)]


def kernel_rows(set_, mode, qtilde_cap, scores, seed):
    """Rows at each score with random iterates of random lengths: some stay
    feasible, the others cross facets (the arcsin facets too, where capped)."""
    from nonsig.boundary import _geometry

    geo = _geometry(FeasibleSet(set_), ScanMode(mode), qtilde_cap)
    s = np.repeat(scores, 16)
    rng = np.random.default_rng([seed])
    z = rng.standard_normal((len(s), geo.map.shape[1])) * rng.uniform(0.05, 1.5, size=(len(s), 1))
    return geo, geo.at(s).off, s, z


class TestPenaltyKernel:
    """The fused kernel against the term-by-term objective it evaluates."""

    @pytest.mark.parametrize("set_, mode, qtilde_cap, scores", KERNEL_CASES)
    @pytest.mark.parametrize("mu, eps", KERNEL_STAGES)
    def test_value_matches_term_by_term(self, set_, mode, qtilde_cap, scores, mu, eps):
        from nonsig.boundary import _penalty

        geo, off, s, z = kernel_rows(set_, mode, qtilde_cap, scores, seed=41)
        f, _ = _penalty(geo, off, z, mu, eps)
        ref, penalty = term_by_term_penalty(FeasibleSet(set_), ScanMode(mode), qtilde_cap, s, z, mu, eps)
        assert np.any(penalty > 0.0) and np.any(penalty == 0.0)
        np.testing.assert_allclose(f, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("set_, mode, qtilde_cap, scores", KERNEL_CASES)
    @pytest.mark.parametrize("mu, eps", KERNEL_STAGES)
    def test_gradient_matches_central_differences(self, set_, mode, qtilde_cap, scores, mu, eps):
        from nonsig.boundary import _penalty

        geo, off, _, z = kernel_rows(set_, mode, qtilde_cap, scores, seed=42)
        _, grad = _penalty(geo, off, z, mu, eps)
        step = 1e-7
        fd = np.zeros_like(z)
        for k in range(z.shape[1]):
            dz = np.zeros_like(z)
            dz[:, k] = step
            up = _penalty(geo, off, z + dz, mu, eps, grad=False)
            dn = _penalty(geo, off, z - dz, mu, eps, grad=False)
            fd[:, k] = (up - dn) / (2 * step)
        err = np.linalg.norm(grad - fd, axis=1)
        assert np.all(err <= 1e-5 * np.maximum(np.linalg.norm(fd, axis=1), 1.0))

    @pytest.mark.parametrize("set_, mode, qtilde_cap, scores", KERNEL_CASES)
    def test_value_only_is_bit_identical(self, set_, mode, qtilde_cap, scores):
        from nonsig.boundary import _penalty

        geo, off, _, z = kernel_rows(set_, mode, qtilde_cap, scores, seed=43)
        for mu, eps in KERNEL_STAGES:
            f, _ = _penalty(geo, off, z, mu, eps)
            assert np.array_equal(_penalty(geo, off, z, mu, eps, grad=False), f)


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


def sequential_descent(job, z, owner, alpha, mu, eps, max_iter, gtol):
    """The descent loop with one backtracking trial per kernel call over freshly
    gathered rows, the form the compacted, batched loop replaced.  Returns
    what ``_gradient_descent`` returns, plus the stuck and the stalled rows."""
    from nonsig import boundary

    geo, off = job.geo, job.off
    r = z.shape[0]
    stuck = np.zeros(r, dtype=bool)
    stalled = np.zeros(r, dtype=bool)
    f, grad = boundary._penalty(geo, off, z, mu, eps)
    if geo.qtilde_cap:
        grad = boundary._project_arcsin_facet(geo, off, z, grad)
    z_prev = z.copy()
    g_prev = grad.copy()
    f_mark = f.copy()
    for it in range(max_iter):
        gn2 = (grad * grad).sum(axis=1)
        small_grad = gn2 <= gtol * gtol
        active = ~small_grad & ~stuck & ~stalled
        if not active.any():
            break
        idx = np.flatnonzero(active)
        remaining = idx.copy()
        for _trial in range(30):
            if remaining.size == 0:
                break
            cand = z[remaining] - alpha[remaining, None] * grad[remaining]
            fc = boundary._penalty(geo, off[:, remaining], cand, mu, eps, grad=False)
            ok = fc <= f[remaining] - 1e-4 * alpha[remaining] * gn2[remaining]
            good = remaining[ok]
            z[good] = cand[ok]
            f[good] = fc[ok]
            alpha[remaining[~ok]] *= 0.5
            remaining = remaining[~ok]
        stuck[remaining] = True
        moved = idx[~stuck[idx]]
        if moved.size:
            off_moved = off[:, moved]
            f[moved], g_moved = boundary._penalty(geo, off_moved, z[moved], mu, eps)
            if geo.qtilde_cap:
                g_moved = boundary._project_arcsin_facet(geo, off_moved, z[moved], g_moved)
            dz = z[moved] - z_prev[moved]
            dg = g_moved - g_prev[moved]
            denom = (dg * dg).sum(axis=1)
            num = (dz * dg).sum(axis=1)
            bb = np.divide(num, denom, out=alpha[moved].copy(), where=denom > 1e-300)
            alpha[moved] = np.minimum(np.maximum(np.abs(bb), 1e-8), 1.0)
            z_prev[moved] = z[moved]
            g_prev[moved] = g_moved
            grad[moved] = g_moved
        if (it + 1) % 15 == 0:
            live = np.bincount(owner, weights=active)[owner] > 0
            stalled |= live & ((f_mark - f) <= 5e-12 * (1.0 + np.abs(f)))
            f_mark = f.copy()
    gn2 = (grad * grad).sum(axis=1)
    return z, (gn2 <= gtol * gtol) | stalled, f, stuck, stalled


class TestDescentOracle:
    """The compacted descent with batched backtracking against the sequential
    loop, bit for bit, with the kernel run one row at a time so that no row's
    rounding depends on which rows share its call.

    Each block holds several points and runs the full penalty schedule as
    ``_solve`` does; its last row starts from a step far too long, so its
    first line search exhausts all 30 trials.  The SYM MAX block has a point
    whose only row gets stuck on a stall-check iteration.
    """

    @pytest.mark.parametrize(
        "set_, mode, qtilde_cap, grid, picks, restarts, seed",
        [
            ("ns", "min", False, np.linspace(2.0, 4.0, 8), [2, 3, 4, 5, 6], [3, 3, 3, 3, 3], 0),
            ("ns", "max", False, np.linspace(0.0, 4.0, 8), [0, 7, 2, 5], [3, 3, 3, 3], 0),
            ("sym", "max", False, np.linspace(0.0, 4.0, 250), [159, 100, 40, 210], [1, 2, 3, 3], 0),
            ("c", "max", True, np.linspace(2.0, 2.8, 4), [0, 1, 2, 3], [6, 6, 6, 6], 4),
        ],
        ids=["ns_min", "ns_max", "sym_max", "c_max_capped"],
    )
    def test_matches_sequential_loop(self, monkeypatch, set_, mode, qtilde_cap, grid, picks, restarts, seed):
        from nonsig import boundary

        kernel = boundary._penalty

        def one_row_at_a_time(geo, off, z, mu, eps, grad=True):
            rows = [kernel(geo, off[:, k : k + 1], z[k : k + 1], mu, eps, grad=grad) for k in range(len(z))]
            if not grad:
                return np.concatenate(rows)
            return np.concatenate([f for f, _ in rows]), np.concatenate([g for _, g in rows])

        monkeypatch.setattr(boundary, "_penalty", one_row_at_a_time)
        points = boundary._geometry(FeasibleSet(set_), ScanMode(mode), qtilde_cap).at(grid[picks])
        starts = [
            boundary._starts(points.take([j]), n, np.random.default_rng([seed, k]))
            for j, (k, n) in enumerate(zip(picks, restarts))
        ]
        owner = np.repeat(np.arange(len(starts)), [len(z) for z in starts])
        job = points.take(owner)
        z_ref = np.concatenate(starts)
        alpha_ref = np.full(len(z_ref), 0.05)
        alpha_ref[-1] = 1e12
        z, alpha = z_ref.copy(), alpha_ref.copy()
        seen = np.zeros(3, dtype=int)  # rows stuck, stalled, at gtol
        for k, (mu, eps, iters, gtol) in enumerate(
            zip(boundary._MU_SCHEDULE, boundary._EPS_SCHEDULE, boundary._INNER_ITERS, boundary._GTOLS)
        ):
            np.maximum(alpha_ref, 1e-6, out=alpha_ref)
            np.maximum(alpha, 1e-6, out=alpha)
            z_ref, met_ref, f_ref, stuck, stalled = sequential_descent(
                job, z_ref, owner, alpha_ref, mu, eps, iters, gtol
            )
            z, met, f = boundary._gradient_descent(job, z, owner, alpha, mu, eps, iters, gtol)
            assert np.array_equal(z, z_ref), f"stage {k}"
            assert np.array_equal(met, met_ref), f"stage {k}"
            assert np.array_equal(f, f_ref), f"stage {k}"
            assert np.array_equal(alpha, alpha_ref), f"stage {k}"
            seen += [stuck.sum(), stalled.sum(), (met & ~stalled).sum()]
        assert np.all(seen > 0), seen

from hypothesis import example, given, settings
import hypothesis.strategies as st
import numpy as np
import pytest

from nonsig.behavior import (
    CHSH_SLOT_SIGNS,
    BehaviorError,
    correlator_table,
    random_correlator_vectors,
    validate,
)
from nonsig import boundary
from nonsig.boundary import (
    FeasibleSet,
    ScanConfig,
    ScanMode,
    _rounding,
    optimize_at_s,
    scan,
    vertical_fill_check,
)
from nonsig.curves import curve_value
from nonsig.slice import info_gradient
from nonsig.functionals import mutual_information, s_max

TSIRELSON = 2 * np.sqrt(2)


def interior_vectors(n, seed):
    """Random valid correlator vectors pulled 10% toward the uniform box."""
    return 0.9 * random_correlator_vectors(n, np.random.default_rng([seed]))


def full_firsts(starts):
    """Each point's rows all starting on the first stage of the schedule."""
    return [np.zeros(len(rows), dtype=int) for rows in starts]


#: The first stage of the Newton tail, where witness rows start.
TAIL = len(boundary._MU_SCHEDULE) - boundary._TAIL_STAGES


def corner_product(s):
    """The correlators (1, 8) of the family's corner product at s <= 2, its
    t = 0 member with a = (sqrt s, 0) up to S = 1 and a = (1, 1 - sqrt(2 - s))
    above, built as ``slice._family_vectors`` built it before the symmetric
    product took its place."""
    from nonsig.slice import _ANCHOR_DIR, _FAMILY_LIN, _FAMILY_QUAD

    s = np.array([s])
    a = np.array([[np.sqrt(s[0]), 0.0] if s[0] <= 1.0 else [1.0, 1.0 - np.sqrt(2.0 - s[0])]])
    return s[:, None] * _ANCHOR_DIR + a @ _FAMILY_LIN.T + np.einsum("juv,nu,nv->nj", _FAMILY_QUAD, a, a)


def audited_pass(set_, s, restarts, seed):
    """An audited MIN query's blocked pass at s <= 2: the corner product's
    witness row from the Newton tail and ``restarts`` random rows from
    ``default_rng([seed])`` from stage 0, in one ``_solve_blocks``.  Up to
    S = 2 a MIN query answers by proof and runs no rows, so this runs them
    directly, to test ``_finish``'s rules on them; the corner product, with
    probabilities at 0, is the raw start these scenarios were built on."""
    point = boundary._geometry(FeasibleSet(set_), ScanMode.MIN, False).at([s])
    witness = boundary._z_from_vector(point, corner_product(s))
    rows = np.concatenate([witness, boundary._starts(point, restarts, np.random.default_rng([seed]))])
    (r,) = boundary._solve_blocks(point, [rows], [np.repeat([TAIL, 0], [1, restarts])])
    return r


class TestInfoGradient:
    def test_matches_central_differences(self):
        vs = interior_vectors(100, seed=77)
        step = 1e-6
        from nonsig.slice import _info_from_x

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
            assert r.i == pytest.approx(curve_value("bell_pr_min", s), abs=2e-3)

    def test_ns_min_local_region_is_zero(self):
        r = optimize_at_s("ns", "min", 2.0, restarts=16, seed=3)
        assert abs(r.i) <= 1e-6

    def test_qtilde_capped_matches_qc_curve(self):
        for s in (2.3, 2.6):
            r = optimize_at_s("c", "max", s, restarts=16, seed=4, qtilde_cap=True)
            assert r.i == pytest.approx(curve_value("qc_max", s), abs=2e-3)

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
        r = audited_pass("sym", 1.5, restarts=12, seed=3)
        assert abs(r.i) <= 1e-12
        assert not r.converged

    def test_ns_min_just_above_tsirelson_is_exact(self):
        # the slice Hessian's smallest eigenvalue is ~1.5e-4 here, so gradient
        # steps leave the marginals at ~0.015; Newton reaches the closed form
        r = optimize_at_s("ns", "min", 2.829, restarts=30, seed=3)
        assert abs(r.i - curve_value("bell_pr_min", 2.829)) <= 1e-12

    @pytest.mark.parametrize(
        "s, seed",
        [
            (0.007486482767241775, 209725254),  # the winner once reported converged 0.12 bits low
            (3.97503858036107, 1214898181),  # polishes once stayed on the lower branch
        ],
    )
    def test_ns_max_reaches_upper_boundary(self, s, seed):
        r = optimize_at_s("ns", "max", s, restarts=50, seed=seed)
        assert r.i == pytest.approx(curve_value("ns_max", s), abs=2e-3)

    def test_ns_max_near_four_reaches_upper_branch(self):
        s = 3.9812
        r = optimize_at_s("ns", "max", s, restarts=50, seed=5)
        assert r.i == pytest.approx(curve_value("ns_max", s), abs=1e-5)

    def test_polish_makes_ns_min_exact(self):
        # the best of 4 starts ends unconverged 7.1e-6 above the closed form;
        # polishing it reaches the closed form
        s = 3.9967312364504233
        r = optimize_at_s("ns", "min", s, restarts=4, seed=4212655702)
        assert abs(r.i - curve_value("bell_pr_min", s)) <= 1e-12

    def test_raw_start_does_not_beat_its_converged_descendant_on_rounding(self):
        # the tail from this argopt converges, and its raw start is only
        # rounding-level better after repair; the converged row is kept
        from nonsig.boundary import _geometry, _repair, _rounding, _solve_blocks, _z_from_vector
        from nonsig.slice import _info_from_x

        s = 2.5
        point = _geometry(FeasibleSet.NS, ScanMode.MIN, False).at([s])
        z = _z_from_vector(point, optimize_at_s("ns", "min", s, restarts=8, seed=1).argopt.vector())
        (r,) = _solve_blocks(point, [z], [np.array([TAIL])])
        assert r.converged
        raw = _info_from_x(_repair(point, z))[0]
        assert r.i <= raw + _rounding(raw)

    def test_raw_witness_does_not_beat_a_converged_random_row_on_rounding(self):
        # line 81 of ``scripts/query_dump.py 1``, as an audited pass: the
        # repaired raw witness start, -8.9e-16, once beat this converged random
        # row at 0.0 by rounding alone and was kept with the random row's flag
        r = audited_pass("ns", 1.027469868908411, restarts=50, seed=668021669)
        assert r.i == 0.0
        assert r.converged

    def test_ns_max_at_tiny_score_is_exact(self):
        # the repair projected the exact witness off the dominance facets,
        # whose slack is only ~s here, and ended 3.9e-12 below ns_max
        r = optimize_at_s("ns", "max", 1e-12, restarts=1, seed=0)
        assert abs(r.i - curve_value("ns_max", 1e-12)) <= 1e-12

    def test_min_just_below_zero_is_exact(self, tmp_path):
        # _check_request accepts scores down to -1e-12; the family start once
        # took the square root of such a score and left I = nan there
        from nonsig.cli import dispatch

        for set_ in ("ns", "sym"):
            r = optimize_at_s(set_, "min", -5e-13, restarts=2, seed=1)
            assert abs(r.i) <= 1e-15
            validate(correlator_table(r.argopt), tol=1e-9)
        out = tmp_path / "x.csv"
        argv = ["scan", "--set", "sym", "--mode", "min", "--lo=-5e-13", "--hi", "1", "--n", "3", "--restarts", "2"]
        assert dispatch(argv + ["--out", str(out)]) == 0
        assert "nan" not in out.read_text()

    def test_polish_reaches_capped_c_max(self):
        # the query is its repaired qc_max witness; when random starts ran, the
        # best of 2 stayed 4.0e-11 below the closed form without the polish
        s = 2.3154406173881354
        r = optimize_at_s("c", "max", s, restarts=2, seed=1845865537, qtilde_cap=True)
        assert r.i >= curve_value("qc_max", s) - 1e-12


def witness_gap(set_, mode, cap, s, i):
    """How far the values i at scores s lose to their kind's witness curve: above it on MIN, below it on MAX."""
    set_, mode = FeasibleSet(set_), ScanMode(mode)
    if set_ is FeasibleSet.C:
        curve = "c_min" if mode is ScanMode.MIN else "c_max"
        ref = curve_value(curve, s)
        if cap and mode is ScanMode.MAX:
            ref = np.where(s >= 2.0, curve_value("qc_max", np.clip(s, 2.0, TSIRELSON)), ref)
    else:
        ref = curve_value("ns_min" if mode is ScanMode.MIN else "ns_max", s)
    return (i - ref) if mode is ScanMode.MIN else (ref - i)


#: Every kind: set, mode and arcsin cap.
KINDS = [
    ("ns", "min", False), ("ns", "max", False), ("sym", "min", False), ("sym", "max", False),
    ("c", "min", False), ("c", "min", True), ("c", "max", False), ("c", "max", True),
]


@st.composite
def queries(draw):
    """A kind, a score from its feasible range (its edges drawn on purpose), restarts and a seed."""
    set_, mode, cap = draw(st.sampled_from(KINDS))
    hi = TSIRELSON if cap else 4.0
    s = draw(st.floats(0.0, 0.1) | st.floats(0.0, hi) | st.floats(hi - 0.1, hi))
    return set_, mode, cap, s, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


class TestArgoptProperty:
    @settings(max_examples=30, deadline=None)
    @given(queries())
    def test_argopt_validates_at_the_query_score(self, query):
        set_, mode, cap, s, restarts, seed = query
        r = optimize_at_s(set_, mode, s, restarts=restarts, seed=seed, qtilde_cap=cap)
        assert r.s == s
        behavior = validate(correlator_table(r.argopt), tol=1e-9)
        assert abs(s_max(r.argopt) - s) <= 1e-9
        assert abs(mutual_information(behavior) - r.i) <= 1e-12
        # every kind starts at its witness, so the query never does worse
        assert witness_gap(set_, mode, cap, s, r.i) <= 1e-12


@st.composite
def min_queries(draw):
    """An NS or SYM MIN query: a score from [0, 4] (the family's interior range
    and the edges at 2 and 2 sqrt 2 drawn on purpose), restarts and a seed."""
    set_ = draw(st.sampled_from(["ns", "sym"]))
    near_tsirelson = st.floats(TSIRELSON - 0.05, TSIRELSON + 0.05)
    s = draw(st.floats(0.0, 4.0) | st.floats(2.0, 2.3) | st.floats(2.0, 2.0 + 1e-4) | near_tsirelson)
    return set_, s, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


class TestLowerFamilyProperty:
    @settings(max_examples=20, deadline=None)
    @given(min_queries())
    def test_min_query_equals_ns_min(self, query):
        # below ns_min would be a point under the family: a counterexample to
        # the conjecture that the family is the minimum
        set_, s, restarts, seed = query
        r = optimize_at_s(set_, "min", s, restarts=restarts, seed=seed)
        assert abs(r.i - curve_value("ns_min", s)) <= 1e-12


@st.composite
def small_scans(draw, lo, hi):
    """2-6 grid points on a range drawn inside [lo, hi], 1-4 restarts and a seed."""
    s_lo, s_hi = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
    return s_lo, s_hi, draw(st.integers(2, 6)), draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


class TestScanWitnessProperty:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([FeasibleSet.NS, FeasibleSet.SYM]), small_scans(0.0, 4.0))
    def test_min_scan_never_above_ns_min(self, set_, grid):
        s_lo, s_hi, n, restarts, seed = grid
        curve = scan(ScanConfig(set_, ScanMode.MIN, s_lo, s_hi, grid_points=n, restarts=restarts, seed=seed))
        assert np.all(curve.i <= curve_value("ns_min", curve.s) + 1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([FeasibleSet.NS, FeasibleSet.SYM]), small_scans(0.0, 4.0))
    # the repair projected the witness at s ~ 8e-13 off the dominance facets, 1.1e-12 below ns_max
    @example(FeasibleSet.NS, (0.0, 8.246234491351707e-13, 2, 1, 0))
    def test_max_scan_never_below_ns_max(self, set_, grid):
        s_lo, s_hi, n, restarts, seed = grid
        curve = scan(ScanConfig(set_, ScanMode.MAX, s_lo, s_hi, grid_points=n, restarts=restarts, seed=seed))
        assert np.all(curve.i >= curve_value("ns_max", curve.s) - 1e-12)

    @settings(max_examples=15, deadline=None)
    @given(small_scans(2.0, TSIRELSON))
    def test_capped_max_scan_never_below_qc_max(self, grid):
        s_lo, s_hi, n, restarts, seed = grid
        cfg = ScanConfig(FeasibleSet.C, ScanMode.MAX, s_lo, s_hi, grid_points=n, restarts=restarts, seed=seed,
                         qtilde_cap=True)
        curve = scan(cfg)
        assert np.all(curve.i >= curve_value("qc_max", curve.s) - 1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([("min", False), ("min", True), ("max", False)]), small_scans(0.0, 4.0))
    def test_c_scan_never_worse_than_its_witness(self, kind, grid):
        (mode, cap), (s_lo, s_hi, n, restarts, seed) = kind, grid
        if cap:
            s_lo, s_hi = s_lo * TSIRELSON / 4.0, s_hi * TSIRELSON / 4.0
        cfg = ScanConfig(FeasibleSet.C, ScanMode(mode), s_lo, s_hi, grid_points=n, restarts=restarts, seed=seed,
                         qtilde_cap=cap)
        curve = scan(cfg)
        assert np.all(witness_gap("c", mode, cap, curve.s, curve.i) <= 1e-12)

    @pytest.mark.parametrize(
        "config, witness",
        [
            # random starts alone ended the first point 0.058 bits below ns_max
            (ScanConfig(FeasibleSet.NS, ScanMode.MAX, 3.2066576203674932, 3.8402836681047043, 2, 1, 3667941031),
             "ns_max"),
            # random starts alone ended the first point 0.10 bits below qc_max, converged, on
            # another stationary point of the arcsin facet
            (ScanConfig(FeasibleSet.C, ScanMode.MAX, 2.5625, 2.75, 2, 1, 2, qtilde_cap=True), "qc_max"),
            # one random start per point alone left points up to 0.32 bits below c_max
            (ScanConfig(FeasibleSet.C, ScanMode.MAX, 2.0, 3.0, 20, 1, 2), "c_max"),
            # random starts polished by grid-neighbour offers ended points 4.8e-3 bits below c_max
            (ScanConfig(FeasibleSet.C, ScanMode.MAX, 0.0, 2.0, 21, 1, 0), "c_max"),
            (ScanConfig(FeasibleSet.NS, ScanMode.MAX, 0.0, 4.0, grid_points=12, restarts=4, seed=1), "ns_max"),
            (ScanConfig(FeasibleSet.NS, ScanMode.MAX, 2.0, 4.0, grid_points=10, restarts=3, seed=5), "ns_max"),
            (ScanConfig(FeasibleSet.C, ScanMode.MAX, 2.0, 3.0, grid_points=20, restarts=4, seed=2), "c_max"),
        ],
        ids=["ns_max", "qc_max", "c_max", "c_max-0.0-2.0-21-1-0", "0.0-4.0-12-4-1", "2.0-4.0-10-3-5",
             "c-2.0-3.0-20-4-2"],
    )
    def test_max_scan_reaches_its_witness(self, config, witness):
        curve = scan(config)
        assert np.max(np.abs(curve.i - curve_value(witness, curve.s))) <= 1e-12

    @pytest.mark.parametrize("cap", [False, True], ids=["uncapped", "capped"])
    def test_one_restart_c_min_scan_reaches_c_min(self, cap):
        hi = TSIRELSON if cap else 4.0
        curve = scan(ScanConfig(FeasibleSet.C, ScanMode.MIN, 0.0, hi, 21, 1, 0, qtilde_cap=cap))
        assert np.max(np.abs(curve.i - curve_value("c_min", curve.s))) <= 1e-12

    def test_c_max_query_reaches_c_max(self):
        # random starts alone ended 1.2e-3 bits below c_max and reported converged
        r = optimize_at_s("c", "max", 1.05, restarts=50, seed=3)
        assert abs(r.i - curve_value("c_max", 1.05)) <= 1e-12

    def test_sym_max_query_reaches_ns_max(self):
        # random starts alone ended 5.3e-7 below ns_max
        s = 1.9720920749269704
        r = optimize_at_s("sym", "max", s, restarts=50, seed=1429937343)
        assert abs(r.i - curve_value("ns_max", s)) <= 1e-12

    def test_capped_c_max_never_above_qc_max(self):
        # qc_max is the proven maximum; a loose arcsin margin in the repair left
        # rows and queries up to 4.8e-13 above it, outside the quantum set
        curve = scan(ScanConfig(FeasibleSet.C, ScanMode.MAX, 0.0, TSIRELSON, 21, 1, 0, qtilde_cap=True))
        queries = np.linspace(2.1, 2.8, 5)
        s = np.concatenate([curve.s[curve.s >= 2.0], queries])
        i = np.concatenate([curve.i[curve.s >= 2.0],
                            [optimize_at_s("c", "max", q, restarts=2, seed=0, qtilde_cap=True).i for q in queries]])
        ref = curve_value("qc_max", s)
        assert np.all(i - ref <= _rounding(ref))


class TestAuditRule:
    """Random starts audit NS and SYM kinds on every 10th grid index and on
    every query; proven points draw none: every C point and every NS or SYM
    MIN point at S <= 2, whose witnesses are proven extrema.

    The test names keep the audited kinds' rule; on a proven point each
    asserts that no start is drawn, in scans and in queries."""

    @staticmethod
    def recorded(monkeypatch):
        drawn = []

        def starts(point, n, rng):
            drawn.append((float(point.s[0]), n))
            return draw(point, n, rng)

        draw = boundary._starts
        monkeypatch.setattr(boundary, "_starts", starts)
        return drawn

    @pytest.mark.parametrize("set_, mode, cap", KINDS)
    def test_scan_audits_every_tenth_index(self, monkeypatch, set_, mode, cap):
        drawn = self.recorded(monkeypatch)
        hi = TSIRELSON if cap else 4.0
        scan(ScanConfig(FeasibleSet(set_), ScanMode(mode), 0.0, hi, 21, 2, 0, qtilde_cap=cap))
        grid = np.linspace(0.0, hi, 21)
        assert drawn == [(grid[k], 2) for k in (0, 10, 20) if not proven(set_, mode, grid[k])]

    @pytest.mark.parametrize("set_, mode, cap", KINDS)
    def test_query_is_audited(self, monkeypatch, set_, mode, cap):
        drawn = self.recorded(monkeypatch)
        for s in (1.7, 2.0, 2.3):
            optimize_at_s(set_, mode, s, restarts=3, seed=4, qtilde_cap=cap)
        assert drawn == [(s, 3) for s in (1.7, 2.0, 2.3) if not proven(set_, mode, s)]

    def test_scan_over_several_blocks_keeps_grid_order(self, monkeypatch):
        """The audited points solve first, here over two blocks, the last
        block also holding every other point's witness row; each point still
        comes back at its grid index, as its own one-point solve."""
        solve, solves = boundary._solve, []

        def counted(job, z0, first):
            solves.append(len(z0))
            return solve(job, z0, first)

        monkeypatch.setattr(boundary, "_solve", counted)
        curve = scan(ScanConfig(FeasibleSet.NS, ScanMode.MIN, 2.5, 3.1, 21, restarts=130, seed=3))
        assert solves == [262, 149]  # points 0 and 10, then point 20 and the 18 others
        grid = np.linspace(2.5, 3.1, 21)
        assert np.array_equal(curve.s, grid)
        points = boundary._geometry(FeasibleSet.NS, ScanMode.MIN, False).at(grid)
        witness = boundary._witness(points)[0]
        for k, point in enumerate(curve.points):
            if k % 10:
                (alone,) = boundary._solve_blocks(points.take([k]), [witness[k, None]], [np.array([TAIL])])
            else:
                (alone,) = boundary._solve_points(points.take([k]), 130, [[3, k]])
            assert abs(point.i - alone.i) <= 4.4e-16, k
            assert point.converged == alone.converged, k


#: The proven kinds: set, mode, arcsin cap and the top of their proven range,
#: every C kind on its whole range and NS and SYM MIN up to S = 2.
PROVEN_KINDS = [
    (set_, mode, cap, TSIRELSON if cap else 4.0 if set_ == "c" else 2.0)
    for set_, mode, cap in KINDS
    if set_ == "c" or mode == "min"
]
#: Their test ids: mode and cap on the C kinds, set and mode on the others.
PROVEN_IDS = [f"{mode}-{cap}" if set_ == "c" else f"{set_}-{mode}" for set_, mode, cap, _ in PROVEN_KINDS]


def proven(set_, mode, s):
    """Whether a point of the kind at score s answers by proof."""
    return set_ == "c" or (mode == "min" and s <= 2.0)


class TestWitness:
    """``_witness``: each kind's witness start and its proven mask."""

    @pytest.mark.parametrize("n", [21, 150])
    @pytest.mark.parametrize("set_, mode, cap", KINDS)
    def test_one_point_witness_rounds_as_in_a_grid(self, set_, mode, cap, n):
        grid = np.linspace(0.0, TSIRELSON if cap else 4.0, n)
        points = boundary._geometry(FeasibleSet(set_), ScanMode(mode), cap).at(grid)
        z, mask = boundary._witness(points)
        assert np.array_equal(mask, [proven(set_, mode, s) for s in grid])
        for k in range(n):
            alone, alone_mask = boundary._witness(points.take([k]))
            assert np.array_equal(alone, z[k, None]) and alone_mask == [mask[k]], k

    @pytest.mark.parametrize("set_", ["ns", "sym"])
    def test_min_witness_up_to_two_is_the_symmetric_product(self, set_):
        """Up to S = 2 the ``ns_min`` witness is, bit for bit, the symmetric
        product a = sqrt(s/2) (1, 1), C = (s/2) (1, 1, 1, 1), built as the MIN
        start built it before ``ns_min`` held it."""
        from nonsig.curves import witness_vectors

        s = np.concatenate([[-5e-13], np.linspace(0.0, 2.0, 2001)])
        half = np.maximum(s, 0.0) / 2.0
        product = np.repeat([np.sqrt(half), half], 4, axis=0).T
        assert np.array_equal(witness_vectors("ns_min", s), product)
        points = boundary._geometry(FeasibleSet(set_), ScanMode.MIN, False).at(s)
        z, mask = boundary._witness(points)
        assert mask.all()
        assert np.array_equal(z, boundary._z_from_vector(points, product))


class TestProvenKinds:
    """A proven point answers from its proven witness with no solve, so
    ``restarts`` and ``seed`` do not change it, bit for bit: every C point
    and every NS or SYM MIN point at S <= 2, where the witness is a product
    behavior with I = 0 and no behavior has less."""

    @pytest.mark.parametrize("set_, mode, cap, hi", PROVEN_KINDS, ids=PROVEN_IDS)
    def test_query_ignores_restarts_and_seed(self, set_, mode, cap, hi):
        for s in (0.0, 0.37, 1.0, 1.9999999, 2.0, 2.6, TSIRELSON, 3.5, 4.0):
            if s > hi:
                continue
            one = optimize_at_s(set_, mode, s, restarts=1, seed=0, qtilde_cap=cap)
            many = optimize_at_s(set_, mode, s, restarts=50, seed=9, qtilde_cap=cap)
            assert (one.i, one.converged) == (many.i, many.converged), s
            assert np.array_equal(one.argopt.vector(), many.argopt.vector()), s
            assert abs(witness_gap(set_, mode, cap, s, one.i)) <= 1e-12, s

    @pytest.mark.parametrize("set_, mode, cap, hi", PROVEN_KINDS, ids=PROVEN_IDS)
    def test_scan_ignores_restarts_and_seed(self, set_, mode, cap, hi):
        a, b = (
            scan(ScanConfig(FeasibleSet(set_), ScanMode(mode), 0.0, hi, 12, restarts, seed, qtilde_cap=cap))
            for restarts, seed in ((1, 0), (7, 3))
        )
        assert np.array_equal(a.i, b.i)
        assert np.array_equal(a.argopt_vectors(), b.argopt_vectors())
        assert [p.converged for p in a.points] == [p.converged for p in b.points]

    @pytest.mark.parametrize("set_, mode, cap, hi", PROVEN_KINDS, ids=PROVEN_IDS)
    def test_no_solve_and_converged_by_proof(self, monkeypatch, set_, mode, cap, hi):
        def refuse(*args):
            raise AssertionError("a proven point ran the solver")

        monkeypatch.setattr(boundary, "_solve", refuse)
        curve = scan(ScanConfig(FeasibleSet(set_), ScanMode(mode), 0.0, hi, 25, 3, 1, qtilde_cap=cap))
        queries = [optimize_at_s(set_, mode, s, restarts=5, seed=2, qtilde_cap=cap) for s in (0.0, 1.3, 2.0, hi)]
        assert all(p.converged for p in curve.points + tuple(queries))

    @pytest.mark.parametrize("set_", ["ns", "sym"])
    def test_local_min_is_zero_to_rounding(self, set_):
        """Below S = 2 the MIN witness is the symmetric product with every
        probability positive, so its repair keeps I = 0 to rounding.  The
        family's product, whose A0 = 1 puts probabilities at 0, repaired up
        to 9.2e-15 on SYM on this grid, and to 1.67e-15 at the NS MIN query
        at S = 1.6933 of ``scripts/query_dump.py 1``.  S = 2 itself is the
        deterministic corner, left out."""
        s = np.linspace(0.0, 2.0, 20001)[:-1]
        curve = scan(ScanConfig(FeasibleSet(set_), ScanMode.MIN, 0.0, s[-1], len(s), 1, 0))
        assert np.array_equal(curve.s, s)
        assert np.max(np.abs(curve.i)) <= _rounding(0.0)
        assert abs(optimize_at_s(set_, "min", 1.6933057958903026, restarts=50, seed=0).i) <= _rounding(0.0)

    @pytest.mark.parametrize("set_", ["ns", "sym"])
    def test_min_scan_across_two_solves_only_above_it(self, set_):
        """A MIN scan over [1.5, 2.5]: its points up to S = 2 are proven, and
        each point above 2 is, bit for bit, its own one-point solve from the
        same rows: its witness row, and on the last point, whose grid index 20
        is audited, its random rows from ``default_rng([seed, 20])``."""
        grid = np.linspace(1.5, 2.5, 21)
        curve = scan(ScanConfig(FeasibleSet(set_), ScanMode.MIN, 1.5, 2.5, 21, restarts=6, seed=3))
        points = boundary._geometry(FeasibleSet(set_), ScanMode.MIN, False).at(grid)
        witness = boundary._witness(points)[0]
        for k, point in enumerate(curve.points):
            if grid[k] <= 2.0:
                assert point.converged and abs(point.i) <= 4e-14, k
                continue
            rows, firsts = witness[k, None], np.array([TAIL])
            if k % 10 == 0:
                rows = np.concatenate([rows, boundary._starts(points.take([k]), 6, np.random.default_rng([3, k]))])
                firsts = np.repeat([TAIL, 0], [1, 6])
            (alone,) = boundary._solve_blocks(points.take([k]), [rows], [firsts])
            assert (point.i, point.converged) == (alone.i, alone.converged), k
            assert np.array_equal(point.argopt.vector(), alone.argopt.vector()), k

    def test_capped_argopts_keep_the_arcsin_cap(self):
        # the repair of the qc_max witness is what keeps them: near S = 2 the
        # raw witness breaks the cap by up to 4.2e-8 in arcsin sum
        from nonsig.membership import _arcsin_margin

        near = 2.0 + np.logspace(-16, -1, 31)
        points = [optimize_at_s("c", "max", s, restarts=1, seed=0, qtilde_cap=True) for s in near]
        points += scan(ScanConfig(FeasibleSet.C, ScanMode.MAX, 2.0, TSIRELSON, 201, 1, 0, qtilde_cap=True)).points
        margin = _arcsin_margin(np.array([p.argopt.ab for p in points]))
        assert np.all(margin <= np.pi + 4e-15)

    @pytest.mark.parametrize("s", [2.05, 2.3, 2.6, 2.8])
    def test_qc_max_witness_is_a_kkt_point_of_the_capped_slice(self, s):
        """At fixed score the gradient of I in C is a multiple of the score's
        gradient sigma plus a positive multiple of the gradient of the active
        arcsin facet sum arcsin C - 2 arcsin C11 <= pi, as at a maximum."""
        from nonsig.curves import witness_vectors

        x = witness_vectors("qc_max", s)[0]
        sigma = np.array([1.0, 1.0, 1.0, -1.0])
        normals = np.column_stack([sigma, sigma / np.sqrt(1.0 - x[4:] ** 2)])
        grad = info_gradient(x)[4:]
        (alpha, beta), *_ = np.linalg.lstsq(normals, grad, rcond=None)
        assert np.linalg.norm(grad - normals @ [alpha, beta]) <= 1e-12 * np.linalg.norm(grad)
        assert beta > 0.0


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
            assert p.i == pytest.approx(curve_value("ns_max", p.s), abs=2e-3)

    def test_points_strictly_increasing(self, small_max_scan):
        assert np.all(np.diff(small_max_scan.s) > 0)

    def test_argopts_validate_with_matching_score(self, small_max_scan):
        for p in small_max_scan.points:
            validate(correlator_table(p.argopt), tol=1e-9)  # raises if invalid
            assert abs(s_max(p.argopt) - p.s) <= 1e-6

    def test_local_min_region_is_flat_zero(self):
        cfg = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=0.0, s_hi=2.0, grid_points=50,
            restarts=8, seed=22,
        )
        curve = scan(cfg)
        assert np.max(np.abs(curve.i)) <= 1e-6

    def test_ns_min_beyond_tsirelson_is_bell_pr_min(self):
        cfg = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=TSIRELSON, s_hi=3.1, grid_points=40,
            restarts=8, seed=5,
        )
        curve = scan(cfg)
        ref = np.array([curve_value("bell_pr_min", s) for s in curve.s])
        assert np.max(np.abs(curve.i - ref)) <= 1e-12

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
            assert p.i == pytest.approx(curve_value("bell_pr_min", p.s) if p.s >= TSIRELSON else p.i, abs=2e-3)

    def test_ns_min_near_two_is_the_family(self):
        cfg = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=2.0, s_hi=2.3, grid_points=13,
            restarts=4, seed=28,
        )
        curve = scan(cfg)
        assert np.max(np.abs(curve.i - curve_value("ns_min", curve.s))) <= 1e-12

    def test_sym_min_last_point_reaches_bell_pr_min(self):
        # once 7.49e-6 above bell_pr_min and unconverged; the family start puts it there
        cfg = ScanConfig(
            set=FeasibleSet.SYM, mode=ScanMode.MIN, s_lo=3.8412287726136487, s_hi=3.998238356306063,
            grid_points=6, restarts=4, seed=1769797462,
        )
        last = scan(cfg).points[-1]
        assert abs(last.i - curve_value("bell_pr_min", last.s)) <= 1e-12

    def test_short_ns_max_scan_reaches_ns_max(self):
        # the sequential warm-start sweeps left the two middle points 0.058 and
        # 0.097 bits short; the ns_max start puts every point on the witness
        cfg = ScanConfig(
            set=FeasibleSet.NS, mode=ScanMode.MAX, s_lo=0.46953919695664315, s_hi=3.6099660556896294,
            grid_points=4, restarts=1, seed=1869105171,
        )
        curve = scan(cfg)
        assert np.max(np.abs(curve.i - curve_value("ns_max", curve.s))) <= 1e-6

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
        from nonsig.boundary import _geometry, _penalty, _starts, _x_from_z
        from nonsig.slice import _X, _entropy_rows, _info_from_x, _rows_probs
        from nonsig.functionals import _mi_tables

        for set_ in FeasibleSet:
            for mode in ScanMode:
                geo = _geometry(set_, mode, False)
                point = geo.at([2.6])
                z = _starts(point, 20, np.random.default_rng([7]))
                job = point.take(np.zeros(len(z), dtype=int))
                x = _x_from_z(job, z)
                assert _rows_probs(_entropy_rows(x))[0].min() > 1e-3
                f, grad, _ = _penalty(geo, job.off, z, mu=0.0, eps=1e-9, derivs=True)
                exact = _info_from_x(x)
                assert np.max(np.abs(f - geo.sigma * exact)) <= 1e-14
                expected = (geo.sigma * info_gradient(x)) @ geo.map[_X]
                assert np.max(np.abs(grad - expected)) <= 1e-9
                tables = _tables_from_correlators(x[:, :2], x[:, 2:4], x[:, 4:].reshape(-1, 2, 2))
                assert np.max(np.abs(exact - _mi_tables(tables))) <= 1e-14


def term_by_term_penalty(set_, mode, s, z, mu, eps):
    """The solver's penalized objective written out term by term in correlator space."""
    from nonsig.boundary import _embedding, _null_basis_rows
    from nonsig.slice import _ANCHOR_DIR, _SLOT_W

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
    sigma = 1.0 if mode is ScanMode.MIN else -1.0
    return sigma * info + mu * penalty, penalty


#: The C rows keep the capped geometry that capped C points are repaired on;
#: the kernel reads no cap (those points are their witnesses, with no solve),
#: so they check the kernel on the C slice's three free coordinates.
KERNEL_CASES = [
    (set_, mode, set_ == "c", scores)
    for set_, scores in (("ns", (0.5, 2.0, 3.3, 4.0)), ("sym", (1.0, 2.9)), ("c", (2.0, 2.7)))
    for mode in ("min", "max")
]
KERNEL_STAGES = [(mu, eps) for mu in (10.0, 1e6) for eps in (1e-2, 1e-9)]


def kernel_rows(set_, mode, qtilde_cap, scores, seed):
    """Rows at each score with random iterates of random lengths: some stay
    feasible, the others cross facets."""
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
        f = _penalty(geo, off, z, mu, eps)
        ref, penalty = term_by_term_penalty(FeasibleSet(set_), ScanMode(mode), s, z, mu, eps)
        assert np.any(penalty > 0.0) and np.any(penalty == 0.0)
        np.testing.assert_allclose(f, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("set_, mode, qtilde_cap, scores", KERNEL_CASES)
    @pytest.mark.parametrize("mu, eps", KERNEL_STAGES)
    def test_gradient_matches_central_differences(self, set_, mode, qtilde_cap, scores, mu, eps):
        from nonsig.boundary import _penalty

        geo, off, _, z = kernel_rows(set_, mode, qtilde_cap, scores, seed=42)
        _, grad, _ = _penalty(geo, off, z, mu, eps, derivs=True)
        step = 1e-7
        fd = np.zeros_like(z)
        for k in range(z.shape[1]):
            dz = np.zeros_like(z)
            dz[:, k] = step
            up = _penalty(geo, off, z + dz, mu, eps)
            dn = _penalty(geo, off, z - dz, mu, eps)
            fd[:, k] = (up - dn) / (2 * step)
        err = np.linalg.norm(grad - fd, axis=1)
        assert np.all(err <= 1e-5 * np.maximum(np.linalg.norm(fd, axis=1), 1.0))

    @pytest.mark.parametrize("set_, mode, qtilde_cap, scores", KERNEL_CASES)
    @pytest.mark.parametrize("mu, eps", [(1e4, 1e-4), (10.0, 1e-2)])
    def test_hessian_matches_central_differences(self, set_, mode, qtilde_cap, scores, mu, eps):
        """The Hessian against central differences of the z-gradient, at stages
        whose softened entropy curvature a step of 1e-6 resolves, on rows inside
        the feasible set and across its facets."""
        from nonsig.boundary import _penalty
        from nonsig.slice import _FACETS

        geo, off, _, z = kernel_rows(set_, mode, qtilde_cap, scores, seed=44)
        y = geo.map @ z.T + off
        crossed = (y[_FACETS] < 0.0).any(axis=0)
        assert crossed.any() and not crossed.all()
        _, _, hess = _penalty(geo, off, z, mu, eps, derivs=True)
        step = 1e-6
        fd = np.zeros_like(hess)
        for k in range(z.shape[1]):
            dz = np.zeros_like(z)
            dz[:, k] = step
            _, up, _ = _penalty(geo, off, z + dz, mu, eps, derivs=True)
            _, dn, _ = _penalty(geo, off, z - dz, mu, eps, derivs=True)
            fd[:, :, k] = (up - dn) / (2 * step)
        err = np.linalg.norm(hess - fd, axis=(1, 2))
        assert np.all(err <= 1e-6 * np.maximum(np.linalg.norm(fd, axis=(1, 2)), 1.0))

    @pytest.mark.parametrize("set_, mode, qtilde_cap, scores", KERNEL_CASES)
    def test_rows_round_alone_as_in_a_block(self, set_, mode, qtilde_cap, scores):
        """Each row's value, gradient and Hessian are bit for bit the same
        whichever rows share its call, one row alone included."""
        from nonsig.boundary import _penalty

        geo, off, _, z = kernel_rows(set_, mode, qtilde_cap, scores, seed=45)
        for mu, eps in KERNEL_STAGES:
            block = _penalty(geo, off, z, mu, eps, derivs=True)
            for size in (1, 2, 5):
                for a in range(0, len(z) - size + 1, size):
                    rows = slice(a, a + size)
                    part = _penalty(geo, off[:, rows], z[rows], mu, eps, derivs=True)
                    assert all(np.array_equal(p, b[rows]) for p, b in zip(part, block))
                    assert np.array_equal(_penalty(geo, off[:, rows], z[rows], mu, eps), block[0][rows])

    @pytest.mark.parametrize("set_, mode, qtilde_cap, scores", KERNEL_CASES)
    def test_value_only_is_bit_identical(self, set_, mode, qtilde_cap, scores):
        from nonsig.boundary import _penalty

        geo, off, _, z = kernel_rows(set_, mode, qtilde_cap, scores, seed=43)
        for mu, eps in KERNEL_STAGES:
            f, _, _ = _penalty(geo, off, z, mu, eps, derivs=True)
            assert np.array_equal(_penalty(geo, off, z, mu, eps), f)


class TestBlockIndependence:
    """Each point of a blocked grid solve matches a one-point solve from the same starts."""

    @pytest.mark.parametrize(
        "set_, mode, grid, restarts, qtilde_cap",
        [
            ("ns", "min", np.linspace(1.6, 2.4, 9), 6, False),  # product starts below s = 2
            ("ns", "max", np.linspace(0.0, 4.0, 9), 6, False),  # anchor on a facet at 0 and 4
            ("sym", "max", np.linspace(1.6, 3.2, 6), 6, False),  # the symmetric subspace
            ("ns", "min", np.linspace(2.5, 3.1, 70), 16, False),  # more rows than one block
        ],
    )
    def test_blocked_matches_one_point(self, set_, mode, grid, restarts, qtilde_cap):
        from nonsig.boundary import _BLOCK_ROWS, _geometry, _solve_blocks, _starts

        points = _geometry(FeasibleSet(set_), ScanMode(mode), qtilde_cap).at(grid)
        starts = [
            _starts(points.take([k]), restarts, np.random.default_rng([31, k])) for k in range(len(grid))
        ]
        if len(grid) > 10:  # the large case must really span several blocks
            assert sum(len(z) for z in starts) > _BLOCK_ROWS
        blocked = _solve_blocks(points, starts, full_firsts(starts))
        for k, point in enumerate(blocked):
            (alone,) = _solve_blocks(points.take([k]), [starts[k]], full_firsts([starts[k]]))
            assert abs(point.i - alone.i) <= 4.4e-16
            assert point.converged == alone.converged


class TestStagedRows:
    """``_solve`` starts each row on its own stage, so a query's witness row
    rides in the block of its random rows from the Newton tail on."""

    @pytest.mark.parametrize("set_, mode, cap, s, seed", [("ns", "min", False, 1.9, 3)])
    def test_rows_match_their_stage_groups_alone(self, set_, mode, cap, s, seed):
        """Bit for bit.  The merged stages have more rows failing their full
        step than each group alone, so this holds only while every row tries
        every halving, however many rows search beside it."""
        point = boundary._geometry(FeasibleSet(set_), ScanMode(mode), cap).at([s])
        z0 = boundary._starts(point, 120, np.random.default_rng([seed]))
        job = point.take(np.zeros(120, dtype=int))
        first = np.arange(120) % 4 + np.arange(120) % 2 * 2  # stages 0, 3, 2 and 5
        z, met = boundary._solve(job, z0, first)
        for stage in np.unique(first):
            rows = np.flatnonzero(first == stage)
            alone, met_alone = boundary._solve(job.take(rows), z0[rows], np.full(rows.size, stage))
            assert np.array_equal(z[rows], alone), stage
            assert np.array_equal(met[rows], met_alone), stage

    @pytest.mark.parametrize(
        "set_, mode, cap, s, seed",
        [  # queries of ``scripts/query_dump.py 1``, one of each kind
            ("ns", "min", False, 3.1537148137136173, 708093469),
            ("ns", "max", False, 1.21277931716658, 267191831),
            ("sym", "min", False, 2.198374750692238, 184123697),
            ("sym", "max", False, 2.8991597630941346, 2065143098),
            # a proven kind: it answers from its witness with no solve
            ("c", "max", True, 2.3994778222729702, 740899032),
        ],
    )
    def test_query_is_one_solve_and_its_witness_solves_as_alone(self, monkeypatch, set_, mode, cap, s, seed):
        """An audited query's witness row rides in its random rows' block and
        ends as it does alone; a C kind's query runs no solve."""
        solves = []
        solve = boundary._solve

        def counted(job, z0, first):
            z, met = solve(job, z0, first)
            solves.append((job, z0, first, z, met))
            return z, met

        monkeypatch.setattr(boundary, "_solve", counted)
        optimize_at_s(set_, mode, s, restarts=50, seed=seed, qtilde_cap=cap)
        if set_ == "c":
            assert solves == []
            return
        ((job, z0, first, z, met),) = solves
        assert first.tolist() == [TAIL] + [0] * 50  # the witness row first
        alone, met_alone = solve(job.take([0]), z0[:1], first[:1])
        assert np.array_equal(z[:1], alone)
        assert met[0] == met_alone[0]


def full_bisection(job, z, lam):
    """The arcsin scalings with all 50 bisection steps run on every row, failing or not."""
    from nonsig.boundary import _x_from_z

    def holds(l):
        t = np.arcsin(np.clip(_x_from_z(job, l[:, None] * z)[:, 4:], -1.0, 1.0))
        return np.abs(t.sum(axis=1, keepdims=True) - 2.0 * t).max(axis=1) <= np.pi + 4e-15

    ok = holds(lam)
    lo, hi = np.where(ok, lam, 0.0), lam.copy()
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        good = holds(mid)
        lo, hi = np.where(good, mid, lo), np.where(good, hi, mid)
    return np.where(ok, lam, lo)


class TestQtildeLambda:
    """``_qtilde_lambda`` returns ``lam`` after one evaluation when every row
    holds, and otherwise the scaling of every failing row bisected with all
    rows of its batch."""

    @staticmethod
    def rows(scores, n, scale, seed):
        geo = boundary._geometry(FeasibleSet.C, ScanMode.MAX, True)
        job = geo.at(scores)
        z = scale * np.random.default_rng([seed]).standard_normal((n, geo.map.shape[1]))
        return job, z, boundary._shrink_lambda(job, z)

    def test_one_evaluation_when_every_row_holds(self, monkeypatch):
        job, z, lam = self.rows(np.linspace(2.0, 2.8, 40), 40, 1e-3, seed=3)
        calls = []

        def counted(job, z):
            calls.append(len(z))
            return x_from_z(job, z)

        x_from_z = boundary._x_from_z
        monkeypatch.setattr(boundary, "_x_from_z", counted)
        assert np.array_equal(boundary._qtilde_lambda(job, z, lam), lam)
        assert calls == [40]

    @pytest.mark.parametrize(
        "scores, n, scale, seed, failing",
        [
            # a lone failing row among 40
            (np.linspace(2.0, 2.8, 40), 40, 0.1, 77, 1),
            (np.linspace(2.0, 2.8, 40), 40, 1.0, 3, 22),
            (np.array([2.7]), 30, 0.3, 3, 19),  # one point's starts, as ``_starts`` repairs them
        ],
    )
    def test_matches_full_bisection(self, scores, n, scale, seed, failing):
        job, z, lam = self.rows(scores, n, scale, seed)
        expected = full_bisection(job, z, lam)
        assert (expected != lam).sum() == failing
        assert np.array_equal(boundary._qtilde_lambda(job, z, lam), expected)


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


class TestNewtonOracle:
    """``_newton`` on a block of several points against each of its rows solved
    alone, bit for bit, with the kernel run one row at a time so that no row's
    rounding depends on which rows share its call.

    Each block runs the whole penalty schedule as ``_solve`` does, each stage
    at its own iteration cap (``_stage_iters``), from a few random starts per
    point.  Across the cases and their stages every stop reason occurs: rows
    that stop at ``_NEWTON_GTOL``, rows that stop at a step below the rounding
    of z and rows that run to their stage's cap.  Each case states the reasons
    its rows show.
    """

    REASONS = ("gtol", "rounding step", "iteration cap")
    CASES = {
        "ns_min": (("ns", "min", False, np.linspace(1.6, 2.4, 5), 0), {"gtol", "rounding step", "iteration cap"}),
        "ns_max": (("ns", "max", False, np.linspace(0.0, 4.0, 5), 0), {"gtol", "rounding step", "iteration cap"}),
    }

    def test_cases_cover_every_stop_reason(self):
        assert set().union(*(reasons for _, reasons in self.CASES.values())) == set(self.REASONS)

    @pytest.mark.parametrize("case", list(CASES))
    def test_block_matches_rows_alone(self, monkeypatch, case):
        from nonsig import boundary

        (set_, mode, qtilde_cap, grid, seed), reasons = self.CASES[case]
        kernel, solve = boundary._penalty, np.linalg.solve
        iterations = [0]  # of the last one-row run: one batched solve per iteration

        def one_row_at_a_time(geo, off, z, mu, eps, derivs=False):
            rows = [kernel(geo, off[:, k : k + 1], z[k : k + 1], mu, eps, derivs) for k in range(len(z))]
            return tuple(map(np.concatenate, zip(*rows))) if derivs else np.concatenate(rows)

        def counted_solve(a, b):
            iterations[0] += 1
            return solve(a, b)

        def alone(r, mu, eps, cap):
            iterations[0] = 0
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", counted_solve)
                out = boundary._newton(job.take([r]), z[r : r + 1].copy(), mu, eps, cap)
            return out, iterations[0]

        monkeypatch.setattr(boundary, "_penalty", one_row_at_a_time)
        points = boundary._geometry(FeasibleSet(set_), ScanMode(mode), qtilde_cap).at(grid)
        starts = [boundary._starts(points.take([j]), 3, np.random.default_rng([seed, j])) for j in range(len(grid))]
        job = points.take(np.repeat(np.arange(len(grid)), 3))
        z = np.concatenate(starts)
        seen = dict.fromkeys(self.REASONS, 0)
        for k, (mu, eps) in enumerate(zip(boundary._MU_SCHEDULE, boundary._EPS_SCHEDULE)):
            cap = boundary._stage_iters(k)
            block, met = boundary._newton(job, z.copy(), mu, eps, cap)
            for r in range(len(z)):
                (row, met_alone), n = alone(r, mu, eps, cap)
                assert np.array_equal(row[0], block[r]), f"stage {k}, row {r}"
                assert met_alone[0] == met[r], f"stage {k}, row {r}"
                if met[r]:
                    seen["gtol"] += 1
                elif n == cap:
                    seen["iteration cap"] += 1
                else:
                    seen["rounding step"] += 1
            z = block
        assert {reason for reason, count in seen.items() if count} == reasons, seen


class TestNewtonSaddle:
    def test_row_leaves_a_saddle_every_iteration(self):
        """A row near a saddle of the first stage moves on every iteration.

        From its third iteration this row sits at |grad| = 4e-7 where the
        Hessian has an eigenvalue of -0.0996.  When the damped step there was
        no descent direction the row used to stand still on every other
        iteration, and after 30 it was still at |grad| = 3.2e-3."""
        from nonsig import boundary

        point = boundary._geometry(FeasibleSet.NS, ScanMode.MIN, False).at([2.047286498801027])
        z0 = boundary._starts(point, 50, np.random.default_rng([1621709875]))[:1]
        after = []
        for k in range(3, 14):
            z, _ = boundary._newton(point, z0.copy(), 10.0, 1e-2, k)
            f, g, _ = boundary._penalty(point.geo, point.off, z, 10.0, 1e-2, derivs=True)
            after.append((f[0], np.linalg.norm(g)))
        for (f, gnorm), (f_next, _) in zip(after, after[1:]):
            assert gnorm <= boundary._NEWTON_GTOL or f_next < f


class TestStageCaps:
    def test_query_stages_keep_their_caps(self, monkeypatch):
        """On an audited query each stage before the Newton tail makes at most
        ``_CONTINUATION_ITERS`` batched solves, one per iteration, and each tail
        stage at most ``_NEWTON_ITERS``.

        The query is the one of ``TestNewtonSaddle``: its first random row
        leaves a saddle of the first stage for about 15 iterations, so the
        first stage meets its cap."""
        solve, newton = np.linalg.solve, boundary._newton
        stages = []  # (mu, batched solves) of each ``_newton`` call

        def counted_newton(job, z, mu, eps, iters):
            calls = [0]

            def counted_solve(a, b):
                calls[0] += 1
                return solve(a, b)

            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", counted_solve)
                out = newton(job, z, mu, eps, iters)
            stages.append((mu, calls[0]))
            return out

        monkeypatch.setattr(boundary, "_newton", counted_newton)
        optimize_at_s("ns", "min", 2.047286498801027, restarts=50, seed=1621709875)
        tail = len(boundary._MU_SCHEDULE) - boundary._TAIL_STAGES
        assert [mu for mu, _ in stages] == list(boundary._MU_SCHEDULE)
        early, late = [n for _, n in stages[:tail]], [n for _, n in stages[tail:]]
        assert max(early) <= boundary._CONTINUATION_ITERS, stages
        assert max(late) <= boundary._NEWTON_ITERS, stages
        assert early[0] == boundary._CONTINUATION_ITERS, stages

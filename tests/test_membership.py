import numpy as np
import pytest

from nonsig.behavior import (
    correlators_to_behavior,
    mix,
    named,
    random_behavior,
    random_correlator_vectors,
    Correlators,
)
from nonsig.curves import curve_witness
from nonsig.functionals import s_max
from nonsig.membership import (
    MembershipReport,
    TSIRELSON,
    _arcsin_margin,
    is_local,
    npa1_test,
    qtilde_test,
    report,
    report_to_json_dict,
)


class TestIsLocal:
    def test_ld_boundary(self):
        local, slack = is_local(named("ld_allones"))
        assert local
        assert slack == pytest.approx(0.0, abs=1e-14)

    def test_pr(self):
        local, slack = is_local(named("pr"))
        assert not local
        assert slack == pytest.approx(-2.0, abs=1e-14)

    def test_noise(self):
        local, slack = is_local(named("noise"))
        assert local
        assert slack == pytest.approx(2.0, abs=1e-15)


class TestQtilde:
    def test_bell_sits_on_the_boundary(self):
        ok, slack = qtilde_test(named("bell"))
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-9)

    def test_pr_reaches_two_pi(self):
        ok, slack = qtilde_test(named("pr"))
        assert not ok
        assert slack == pytest.approx(np.pi - 2 * np.pi, abs=1e-12)

    def test_noise_full_slack(self):
        ok, slack = qtilde_test(named("noise"))
        assert ok
        assert slack == pytest.approx(np.pi, abs=1e-15)


class TestNpa1:
    def test_matches_qtilde_on_correlation_space(self, rng):
        for _ in range(50):
            ab = rng.uniform(-1, 1, (2, 2))
            p = correlators_to_behavior(Correlators(a=np.zeros(2), b=np.zeros(2), ab=ab))
            ok_q, s_q = qtilde_test(p)
            ok_n, s_n = npa1_test(p)
            assert ok_q == ok_n
            assert s_q == pytest.approx(s_n, abs=1e-12)

    def test_ld_degenerate_branch(self):
        ok, slack = npa1_test(named("ld_allones"))
        assert ok
        assert slack == pytest.approx(np.pi)

    def test_pr_fails(self):
        ok, _ = npa1_test(named("pr"))
        assert not ok


class TestReport:
    def test_bell(self):
        r = report(named("bell"))
        assert r == MembershipReport(ns_valid=True, local=False, npa1=True, qtilde=True, slacks=r.slacks)
        assert r.slacks["local"] < 0 < r.slacks["npa1"] + 1e-9

    def test_bell_pr_mixture_leaves_qtilde(self):
        m = mix(named("bell"), named("pr"), 0.5)
        r = report(m)
        assert r.local is False
        assert r.qtilde is False

    def test_noise_all_true(self):
        r = report(named("noise"))
        assert (r.local, r.npa1, r.qtilde) == (True, True, True)

    def test_invalid_table(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0] += 0.2
        r = report(t)
        assert r.ns_valid is False
        assert r.local is None and r.npa1 is None and r.qtilde is None

    def test_raw_table_accepted(self):
        r = report(np.full((2, 2, 2, 2), 0.25))
        assert r.ns_valid and r.local

    def test_json_shape(self):
        doc = report_to_json_dict(report(named("bell")))
        assert doc["ns_valid"] is True
        assert set(doc) == {"ns_valid", "local", "npa1", "qtilde", "slacks"}
        doc2 = report_to_json_dict(MembershipReport(ns_valid=False))
        assert set(doc2) == {"ns_valid"}


class TestChainAndCap:
    def test_implication_chain_on_random_behaviors(self):
        vs = random_correlator_vectors(20000, np.random.default_rng(17))
        a, b, ab = vs[:, :2], vs[:, 2:4], vs[:, 4:].reshape(-1, 2, 2)
        from nonsig.functionals import _s_max_ab
        from nonsig.membership import normalized_covariance

        smax = _s_max_ab(ab)
        local = smax <= 2.0 + 1e-9
        qtilde = _arcsin_margin(ab) <= np.pi + 1e-9
        degen = (np.abs(a).max(axis=1) >= 1 - 1e-9) | (np.abs(b).max(axis=1) >= 1 - 1e-9)
        f = normalized_covariance(a, b, ab)
        npa1 = degen | (_arcsin_margin(f) <= np.pi + 1e-9)
        assert not np.any(local & ~npa1)
        assert not np.any(npa1 & ~qtilde)

    def test_qtilde_caps_s_at_tsirelson(self):
        vs = random_correlator_vectors(100000, np.random.default_rng(23))
        ab = vs[:, 4:].reshape(-1, 2, 2)
        from nonsig.functionals import _s_max_ab

        passing = _arcsin_margin(ab) <= np.pi + 1e-9
        assert np.all(_s_max_ab(ab)[passing] <= TSIRELSON + 1e-6)

    def test_qc_max_witnesses_near_two(self):
        # the arcsin sum of these quantum boundary points reads up to pi + 4.2e-8
        # (arcsin's slope is infinite at 1); every verdict takes the local
        # test's tolerance, so all of them are quantum, and local while S - 2
        # is within it
        for s in 2.0 + np.logspace(-16, -6, 41):
            r = report(curve_witness("qc_max", s))
            assert r.npa1 and r.qtilde, s
            assert r.local == (s_max(curve_witness("qc_max", s)) <= 2.0 + 1e-9), s
            for key in ("local", "npa1", "qtilde"):
                assert getattr(r, key) == (r.slacks[key] >= 0.0), (s, key)

    def test_chain_on_behavior_objects(self, rng):
        for _ in range(50):
            r = report(random_behavior(rng))
            if r.local:
                assert r.npa1
            if r.npa1:
                assert r.qtilde

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nonsig.behavior import (
    BehaviorError,
    Correlators,
    _tables_from_correlators,
    correlators_to_behavior,
    named,
    random_behavior,
    random_correlator_vectors,
    relabelings,
)
from nonsig.functionals import (
    _MARGINALS,
    _MI_BLOCK,
    FunctionalPoint,
    _info,
    _mi_tables,
    chsh_linear,
    chsh_slot_values,
    correlation_space_info,
    evaluate,
    g,
    mutual_information,
    s_max,
)

from conftest import g_oracle, mi_oracle, random_valid_vectors

TSIRELSON = 2 * np.sqrt(2)


class TestChsh:
    def test_slot0_values(self):
        assert chsh_linear(named("pr"), 0) == pytest.approx(4.0, abs=1e-14)
        assert chsh_linear(named("bell"), 0) == pytest.approx(TSIRELSON, abs=1e-12)
        assert chsh_linear(named("noise"), 0) == 0.0

    def test_slots_come_in_sign_pairs(self, rng):
        vals = chsh_slot_values(random_behavior(rng))
        assert np.allclose(vals[4:], -vals[:4], atol=1e-15)

    def test_bad_slot(self):
        with pytest.raises(BehaviorError):
            chsh_linear(named("pr"), 8)


class TestSMax:
    def test_named_values(self):
        assert s_max(named("pr")) == pytest.approx(4.0, abs=1e-14)
        assert s_max(named("noise")) == 0.0
        assert s_max(named("bell")) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_ld_allones_by_enumeration(self):
        # each of the four expressions is 4 - 2 = 2
        c = named("ld_allones").correlators()
        tot = c.ab.sum()
        exprs = [abs(tot - 2 * c.ab[x, y]) for x in range(2) for y in range(2)]
        assert max(exprs) == pytest.approx(2.0, abs=1e-15)
        assert s_max(named("ld_allones")) == pytest.approx(2.0, abs=1e-15)

    def test_equals_max_over_slots(self, rng):
        for _ in range(25):
            p = random_behavior(rng)
            assert s_max(p) == pytest.approx(np.max(chsh_slot_values(p)), abs=1e-14)


class TestMutualInformation:
    def test_noise_zero(self):
        assert mutual_information(named("noise")) == pytest.approx(0.0, abs=1e-15)

    def test_sc_tilde_is_one_bit(self):
        b = named("sc_tilde")
        assert mutual_information(b) == pytest.approx(1.0, abs=1e-12)
        assert s_max(b) == pytest.approx(2.0, abs=1e-14)

    def test_p0_value(self):
        # marginal entropies H(1/4) = 0.8112781244591328, joint entropies 1.5
        expected = 2 * 0.8112781244591328 - 1.5
        assert mutual_information(named("p0")) == pytest.approx(expected, abs=1e-12)

    def test_bell_value(self):
        expected = 4 * g_oracle(1 / math.sqrt(2))
        assert mutual_information(named("bell")) == pytest.approx(expected, abs=1e-12)

    def test_matches_plain_loop_oracle(self, rng):
        for _ in range(25):
            p = random_behavior(rng)
            assert mutual_information(p) == pytest.approx(mi_oracle(p.table), abs=1e-10)

    def test_zero_iff_product(self, rng):
        for _ in range(10):
            a = rng.uniform(-1, 1, 2)
            b = rng.uniform(-1, 1, 2)
            prod = correlators_to_behavior(Correlators(a=a, b=b, ab=np.outer(a, b)))
            assert mutual_information(prod) <= 1e-12
            assert s_max(prod) <= 2.0 + 1e-12  # product behaviors are local
        # perturbing the correlations away from the product form creates information
        a = np.array([0.3, -0.2])
        b = np.array([0.1, 0.4])
        ab = np.outer(a, b)
        ab[0, 0] += 0.2
        pert = correlators_to_behavior(Correlators(a=a, b=b, ab=ab))
        assert mutual_information(pert) > 1e-4


class TestMiTables:
    def test_marginal_map_matches_reductions(self, rng):
        tables = rng.uniform(0.0, 1.0, (300, 2, 2, 2, 2))
        m = np.einsum("nk,kj->nj", tables.reshape(-1, 16), _MARGINALS)
        pa = tables.sum(axis=-1).mean(axis=-2)
        pb = tables.sum(axis=-2).mean(axis=-3)
        assert np.max(np.abs(m[:, :4] - pa.reshape(-1, 4))) <= 1e-15
        assert np.max(np.abs(m[:, 4:] - pb.reshape(-1, 4))) <= 1e-15

    def test_blocks_are_bit_identical_per_row(self):
        n = 2 * _MI_BLOCK + 5
        v = random_valid_vectors(n, seed=4)
        tables = _tables_from_correlators(v[:, :2], v[:, 2:4], v[:, 4:].reshape(n, 2, 2))
        got = _mi_tables(tables)
        assert got.shape == (n,)
        flat = tables.reshape(n, 16)
        m = np.einsum("nk,kj->nj", flat, _MARGINALS, optimize=False)
        unblocked = _info(flat, m[:, :4].reshape(n, 2, 2), m[:, 4:].reshape(n, 2, 2))
        assert np.array_equal(got, unblocked)
        for row in (0, _MI_BLOCK - 1, _MI_BLOCK, 2 * _MI_BLOCK, n - 1):
            alone = _mi_tables(tables[row])
            assert np.ndim(alone) == 0 and alone == got[row]
        assert np.array_equal(_mi_tables(tables.reshape(3, n // 3, 2, 2, 2, 2)), got.reshape(3, n // 3))


class TestG:
    def test_endpoints(self):
        assert g(0.0) == pytest.approx(0.0, abs=1e-15)
        assert g(1.0) == pytest.approx(0.25, abs=1e-15)
        assert g(-1.0) == pytest.approx(0.25, abs=1e-15)

    def test_value_at_inv_sqrt2(self):
        assert g(1 / math.sqrt(2)) == pytest.approx(g_oracle(1 / math.sqrt(2)), abs=1e-15)
        assert g(1 / math.sqrt(2)) == pytest.approx(0.0997809908267860, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.0, 1.0))
    def test_even_and_in_range(self, x):
        assert g(x) == pytest.approx(g(-x), abs=1e-14)
        assert -1e-15 <= g(x) <= 0.25 + 1e-15

    def test_domain_error(self):
        with pytest.raises(BehaviorError):
            g(1.01)

    def test_boundary_clamp(self):
        g(1.0 + 5e-13)  # solver-noise excursions are clamped


class TestCorrelationSpaceInfo:
    def test_zero(self):
        c = Correlators(a=np.zeros(2), b=np.zeros(2), ab=np.zeros((2, 2)))
        assert correlation_space_info(c) == pytest.approx(0.0, abs=1e-15)

    def test_sc_is_one(self):
        assert correlation_space_info(named("sc").correlators()) == pytest.approx(1.0)

    def test_three_ones_and_zero(self):
        c = Correlators(a=np.zeros(2), b=np.zeros(2), ab=np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert correlation_space_info(c) == pytest.approx(0.75, abs=1e-14)

    def test_requires_zero_marginals(self):
        c = named("p0").correlators()
        with pytest.raises(BehaviorError):
            correlation_space_info(c)

    def test_two_paths_agree_on_correlation_space(self, rng):
        for _ in range(50):
            ab = rng.uniform(-1, 1, (2, 2))
            c = Correlators(a=np.zeros(2), b=np.zeros(2), ab=ab)
            p = correlators_to_behavior(c)
            assert correlation_space_info(c) == pytest.approx(
                mutual_information(p), abs=1e-12
            )


class TestInvariances:
    def test_ranges_on_random_behaviors(self):
        from nonsig.behavior import _tables_from_correlators
        from nonsig.functionals import _mi_tables, _s_max_ab

        vs = random_correlator_vectors(20000, np.random.default_rng(5))
        tables = _tables_from_correlators(vs[:, :2], vs[:, 2:4], vs[:, 4:].reshape(-1, 2, 2))
        ii = _mi_tables(tables)
        ss = _s_max_ab(vs[:, 4:].reshape(-1, 2, 2))
        assert np.all(ii >= -1e-12) and np.all(ii <= 1.0 + 1e-12)
        assert np.all(ss >= 0.0) and np.all(ss <= 4.0 + 1e-12)

    def test_orbit_invariance(self, rng):
        for _ in range(20):
            p = random_behavior(rng)
            i0, s0 = mutual_information(p), s_max(p)
            for o in relabelings(p):
                assert mutual_information(o) == pytest.approx(i0, abs=1e-12)
                assert s_max(o) == pytest.approx(s0, abs=1e-12)

    def test_functional_point(self):
        pt = evaluate(named("bell"))
        assert isinstance(pt, FunctionalPoint)
        assert pt.s == pytest.approx(TSIRELSON, abs=1e-12)
        with pytest.raises(BehaviorError):
            FunctionalPoint(s=float("nan"), i=0.0)

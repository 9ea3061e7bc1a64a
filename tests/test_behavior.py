import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nonsig.behavior import (
    OUTCOME_VALUES,
    Behavior,
    BehaviorError,
    BehaviorTag,
    Correlators,
    ValidationError,
    behavior_from_json_dict,
    behavior_to_json_dict,
    correlator_table,
    correlators_to_behavior,
    is_symmetric,
    mix,
    named,
    named_correlators,
    random_behavior,
    random_correlator_vectors,
    relabelings,
    validate,
    violations,
    _correlators_from_tables,
    _tables_from_correlators,
)
from nonsig.functionals import chsh_linear, s_max

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def vec(a0, a1, b0, b1, c00, c01, c10, c11):
    return Correlators.from_vector(np.array([a0, a1, b0, b1, c00, c01, c10, c11]))


class TestConversions:
    def test_zero_correlators_give_uniform_table(self):
        b = correlators_to_behavior(vec(0, 0, 0, 0, 0, 0, 0, 0))
        assert np.allclose(b.table, 0.25, atol=1e-15)

    def test_pr_correlators_give_half_half_support(self):
        b = named(BehaviorTag.PR)
        # perfectly correlated for the first three input pairs, anticorrelated for (1,1)
        for x, y in [(0, 0), (0, 1), (1, 0)]:
            assert b.table[x, y, 0, 0] == pytest.approx(0.5, abs=1e-15)
            assert b.table[x, y, 1, 1] == pytest.approx(0.5, abs=1e-15)
            assert b.table[x, y, 0, 1] == pytest.approx(0.0, abs=1e-15)
        assert b.table[1, 1, 0, 1] == pytest.approx(0.5, abs=1e-15)
        assert b.table[1, 1, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_all_ones_is_deterministic(self):
        b = named(BehaviorTag.LD_ALLONES)
        assert np.allclose(b.table[:, :, 0, 0], 1.0)
        assert b.table.sum() == pytest.approx(4.0)

    def test_uniform_behavior_has_zero_correlators(self):
        c = Behavior(np.full((2, 2, 2, 2), 0.25)).correlators()
        assert np.max(np.abs(c.vector())) == 0.0

    def test_roundtrip_on_random_vectors(self):
        vs = random_correlator_vectors(1000, np.random.default_rng(3))
        for v in vs[:50]:
            c = Correlators.from_vector(v)
            back = correlators_to_behavior(c).correlators()
            assert np.max(np.abs(back.vector() - v)) <= 1e-14
        # vectorized check over the full batch
        from nonsig.behavior import _correlators_from_tables, _tables_from_correlators

        t = _tables_from_correlators(vs[:, :2], vs[:, 2:4], vs[:, 4:].reshape(-1, 2, 2))
        a, b, ab = _correlators_from_tables(t)
        again = np.concatenate([a, b, ab.reshape(-1, 4)], axis=1)
        assert np.max(np.abs(again - vs)) <= 1e-14

    def test_component_out_of_range_rejected(self):
        with pytest.raises(BehaviorError):
            correlators_to_behavior(vec(1.5, 0, 0, 0, 0, 0, 0, 0))

    def test_infeasible_correlators_fail_positivity(self):
        # deterministic +1 marginals with perfect anticorrelation cannot coexist
        with pytest.raises(ValidationError):
            correlators_to_behavior(vec(1, 0, 1, 0, -1, 0, 0, 0))

    def test_raw_table_builder_skips_positivity(self):
        t = correlator_table(vec(0, 0, 0, 0, 1, 1, 1, -1.5))
        assert t.min() < 0
        assert np.allclose(t.sum(axis=(2, 3)), 1.0)
        # normalization and non-signaling are algebraic identities of the
        # construction, independent of positivity
        pa = t.sum(axis=3)
        pb = t.sum(axis=2)
        assert np.allclose(pa[:, 0, :], pa[:, 1, :], atol=1e-15)
        assert np.allclose(pb[0, :, :], pb[1, :, :], atol=1e-15)


class TestConstantMaps:
    """The constant maps against the broadcast and einsum formulas they replaced."""

    @staticmethod
    def tables_oracle(a, b, ab):
        av = OUTCOME_VALUES
        term_a = a[..., :, None, None, None] * av[None, :, None]
        term_b = b[..., None, :, None, None] * av[None, None, :]
        term_ab = ab[..., :, :, None, None] * np.outer(av, av)
        return 0.25 * (1.0 + term_a + term_b + term_ab)

    @staticmethod
    def correlators_oracle(tables):
        av = OUTCOME_VALUES
        a = 0.5 * np.einsum("...xyab,a->...x", tables, av)
        b = 0.5 * np.einsum("...xyab,b->...y", tables, av)
        ab = np.einsum("...xyab,a,b->...xy", tables, av, av)
        return a, b, ab

    @pytest.mark.parametrize("lead", [(), (500,), (7, 9)])
    def test_table_map_matches_broadcast_formula(self, rng, lead):
        v = rng.uniform(-1.0, 1.0, (*lead, 8))
        a, b, ab = v[..., :2], v[..., 2:4], v[..., 4:].reshape(*lead, 2, 2)
        got = _tables_from_correlators(a, b, ab)
        assert got.shape == (*lead, 2, 2, 2, 2)
        assert np.max(np.abs(got - self.tables_oracle(a, b, ab))) <= 1e-15

    @pytest.mark.parametrize("lead", [(), (500,), (7, 9)])
    def test_readout_matches_einsum_formula(self, rng, lead):
        tables = rng.uniform(0.0, 1.0, (*lead, 2, 2, 2, 2))
        for got, want in zip(_correlators_from_tables(tables), self.correlators_oracle(tables)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15


class TestValidate:
    def test_uniform_is_valid(self):
        validate(np.full((2, 2, 2, 2), 0.25))

    def test_normalization_violation_reported(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0, 0, 0] += 0.1
        found = violations(t)
        assert any(v.constraint.startswith("normalization") for v in found)
        with pytest.raises(ValidationError):
            validate(t)

    def test_signaling_table_reported(self):
        # shift probability mass for Alice's x=0 depending on Bob's input
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0, 0, :] += 0.1
        t[0, 0, 1, :] -= 0.1
        found = violations(t)
        assert any(v.constraint.startswith("marginal_a") for v in found)

    def test_negative_entry_reported(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[1, 1, 0, 1] = -0.05
        t[1, 1, 0, 0] = 0.55
        found = violations(t)
        assert any(v.constraint.startswith("positivity") for v in found)

    def test_named_behaviors_all_validate(self):
        for tag in BehaviorTag:
            validate(named(tag).table, tol=1e-12)


class TestNamed:
    def test_noise_is_uniform(self):
        assert np.allclose(named("noise").table, 0.25)

    def test_p0_marginals(self):
        c = named(BehaviorTag.P0).correlators()
        assert np.allclose(c.a, [-0.5, 0.5])
        assert np.allclose(c.b, [-0.5, 0.5])
        assert np.max(np.abs(c.ab)) == 0.0

    def test_bell_is_nonlocal(self):
        from nonsig.membership import is_local

        b = named(BehaviorTag.BELL)
        local, _ = is_local(b)
        assert not local
        assert s_max(b) == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_sc_tilde_pattern(self):
        c = named_correlators("sc_tilde")
        assert np.allclose(c.ab, [[-1, 1], [1, -1]])

    def test_all_named_are_symmetric(self):
        for tag in BehaviorTag:
            assert is_symmetric(named(tag))


class TestMix:
    def test_endpoints(self, rng):
        p, q = random_behavior(rng), random_behavior(rng)
        assert mix(p, q, 0.0).allclose(p)
        assert mix(p, q, 1.0).allclose(q)

    def test_sc_pr_half(self):
        m = mix(named("sc"), named("pr"), 0.5)
        assert np.allclose(m.correlators().ab, [[1, 1], [1, 0]], atol=1e-15)

    def test_bell_pr_three_quarters(self):
        lam = (3 - 2 * np.sqrt(2)) / (4 - 2 * np.sqrt(2))
        m = mix(named("bell"), named("pr"), lam)
        assert np.allclose(np.abs(m.correlators().ab), 0.75, atol=1e-12)

    def test_out_of_range_weight(self, rng):
        p = random_behavior(rng)
        with pytest.raises(BehaviorError):
            mix(p, p, 1.5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    def test_mix_preserves_validity(self, seed, lam):
        gen = np.random.default_rng([seed])
        p, q = random_behavior(gen), random_behavior(gen)
        validate(mix(p, q, lam).table, tol=1e-12)


class TestRelabelings:
    def test_noise_is_fixed_point(self):
        orbit = relabelings(named("noise"))
        assert len(orbit) == 8
        assert all(o.allclose(named("noise")) for o in orbit)

    def test_sc_orbit_contains_sc_tilde(self):
        orbit = relabelings(named("sc"))
        sct = named("sc_tilde")
        assert any(o.allclose(sct, tol=1e-15) for o in orbit)

    def test_identity_is_first(self, rng):
        p = random_behavior(rng)
        assert relabelings(p)[0].allclose(p)

    def test_orbit_moves_slots_into_canonical_position(self, rng):
        for _ in range(20):
            p = random_behavior(rng)
            orbit = relabelings(p)
            for k in range(8):
                assert chsh_linear(orbit[k], 0) == pytest.approx(chsh_linear(p, k), abs=1e-12)

    def test_s_invariant_on_orbit(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            p = random_behavior(gen)
            ref = s_max(p)
            assert all(abs(s_max(o) - ref) <= 1e-12 for o in relabelings(p))

    def test_orbit_elements_are_valid(self, rng):
        p = random_behavior(rng)
        for o in relabelings(p):
            validate(o.table, tol=1e-12)


class TestWireFormats:
    def test_json_roundtrip(self, rng):
        p = random_behavior(rng)
        doc = behavior_to_json_dict(p)
        assert set(doc) == {"marginals_a", "marginals_b", "correlations"}
        back = behavior_from_json_dict(doc)
        assert back.allclose(p, tol=1e-12)

    def test_json_malformed(self):
        with pytest.raises(BehaviorError):
            behavior_from_json_dict({"marginals_a": [0, 0]})

    def test_json_invalid_behavior(self):
        doc = {"marginals_a": [0, 0], "marginals_b": [0, 0], "correlations": [[1, 1], [1, 1.0]]}
        doc["correlations"] = [[1, 1], [1, -1]]
        behavior_from_json_dict(doc)  # PR box parses fine
        doc["correlations"] = [[1, 1], [1, 1]]
        doc["marginals_a"] = [1, -1]  # deterministic marginals conflicting with correlations
        with pytest.raises(ValidationError):
            behavior_from_json_dict(doc)


class TestImmutability:
    def test_tables_are_frozen(self, rng):
        p = random_behavior(rng)
        with pytest.raises(ValueError):
            p.table[0, 0, 0, 0] = 1.0
        c = p.correlators()
        with pytest.raises(ValueError):
            c.ab[0, 0] = 0.0

import numpy as np
import pytest

from nonsig.behavior import BehaviorError, named, _correlators_from_tables
from nonsig.functionals import _mi_tables, _s_max_ab, mutual_information, s_max
from nonsig.membership import npa1_test, qtilde_test
from nonsig.quantum import (
    _SAMPLE_CHUNK,
    QuantumModel,
    QubitMeasurement,
    _born_tables,
    _pauli_correlators,
    _random_bloch,
    _random_states,
    bell_behavior,
    bell_model,
    model_correlators,
    model_to_behavior,
    sample,
    sample_tables,
)

TSIRELSON = 2 * np.sqrt(2)


def z_meas():
    return QubitMeasurement(np.array([0.0, 0.0, 1.0]))


class TestMeasurement:
    def test_projectors_sum_to_identity(self, rng):
        v = rng.standard_normal(3)
        m = QubitMeasurement(v / np.linalg.norm(v))
        p = m.projectors()
        assert np.allclose(p[0] + p[1], np.eye(2), atol=1e-14)
        assert np.allclose(p[0] @ p[1], 0.0, atol=1e-14)
        assert np.allclose(p[0] @ p[0], p[0], atol=1e-14)

    def test_non_unit_rejected(self):
        with pytest.raises(BehaviorError):
            QubitMeasurement(np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bloch", [[np.nan, 0.0, 0.0], [np.nan] * 3, [0.0, np.inf, 0.0]])
    def test_non_finite_rejected(self, bloch):
        with pytest.raises(BehaviorError, match="finite"):
            QubitMeasurement(np.array(bloch))


class TestModelToBehavior:
    def test_product_state_is_deterministic(self):
        m = QuantumModel(
            state=np.array([1, 0, 0, 0], dtype=complex), alice=(z_meas(), z_meas()), bob=(z_meas(), z_meas())
        )
        b = model_to_behavior(m)
        assert b.table[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        assert mutual_information(b) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_anticorrelates_any_common_axis(self, rng):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        v = rng.standard_normal(3)
        m = QubitMeasurement(v / np.linalg.norm(v))
        model = QuantumModel(state=singlet, alice=(m, m), bob=(m, m))
        c = model_to_behavior(model).correlators()
        assert np.allclose(c.ab, -1.0, atol=1e-12)
        assert np.allclose(c.a, 0.0, atol=1e-12)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(BehaviorError):
            QuantumModel(
                state=np.array([1, 1, 0, 0], dtype=complex),
                alice=(z_meas(), z_meas()),
                bob=(z_meas(), z_meas()),
            )

    @pytest.mark.parametrize("state", [[np.nan, 0, 0, 0], [1, 0, 0, complex(0, np.nan)], [np.nan] * 4])
    def test_non_finite_state_rejected(self, state):
        with pytest.raises(BehaviorError, match="finite"):
            QuantumModel(
                state=np.array(state, dtype=complex), alice=(z_meas(), z_meas()), bob=(z_meas(), z_meas())
            )


class TestBell:
    def test_correlators(self):
        c = bell_behavior().correlators()
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(c.ab, expected, atol=1e-12)
        assert np.allclose(c.a, 0.0, atol=1e-12)
        assert np.allclose(c.b, 0.0, atol=1e-12)

    def test_matches_named_bell(self):
        assert bell_behavior().allclose(named("bell"), tol=1e-12)

    def test_tsirelson_value(self):
        assert s_max(bell_behavior()) == pytest.approx(TSIRELSON, abs=1e-10)

    def test_qtilde_equality(self):
        ok, slack = qtilde_test(bell_behavior())
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-9)

    def test_two_path_agreement(self):
        c1 = model_correlators(bell_model())
        c2 = bell_behavior().correlators()
        assert np.max(np.abs(c1.vector() - c2.vector())) <= 1e-10


class TestSampling:
    def test_deterministic(self):
        a = sample_tables(300, seed=42)
        b = sample_tables(300, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_tables(300, seed=43))

    def test_tables_are_valid(self):
        t = sample_tables(2000, seed=9)
        assert t.min() >= -1e-12
        assert np.abs(t.sum(axis=(3, 4)) - 1).max() <= 1e-12

    def test_all_pass_npa1_and_tsirelson(self):
        t = sample_tables(20000, seed=5)
        a, b, ab = _correlators_from_tables(t)
        assert _s_max_ab(ab).max() <= TSIRELSON + 1e-9
        for table in t[:200]:
            from nonsig.behavior import Behavior

            ok, _ = npa1_test(Behavior(np.clip(table, 0, None)))
            assert ok

    def test_two_paths_agree_in_batch(self, rng):
        st = _random_states(200, rng)
        ba, bb = _random_bloch(200, rng), _random_bloch(200, rng)
        born = _born_tables(st, ba, bb)
        a1, b1, ab1 = _correlators_from_tables(born)
        a2, b2, ab2 = _pauli_correlators(st, ba, bb)
        assert np.max(np.abs(ab1 - ab2)) <= 1e-10
        assert np.max(np.abs(a1 - a2)) <= 1e-10
        assert np.max(np.abs(b1 - b2)) <= 1e-10

    def test_haar_smoke(self):
        t = sample_tables(100000, seed=31)
        a, _, _ = _correlators_from_tables(t)
        mean = a[:, 0].mean()
        stderr = a[:, 0].std() / np.sqrt(len(a))
        assert abs(mean) <= 3 * stderr

    def test_sample_returns_behaviors(self):
        out = sample(5, seed=2)
        assert len(out) == 5
        i = _mi_tables(np.stack([b.table for b in out]))
        assert np.all(i >= -1e-12)

    def test_bad_count(self):
        with pytest.raises(BehaviorError):
            sample_tables(0, seed=1)
        with pytest.raises(BehaviorError, match="seed"):
            sample_tables(5, seed=-1)

    def test_bloch_normalization_matches_norm(self):
        v = np.random.default_rng(11).standard_normal((5000, 2, 3))
        want = v / np.linalg.norm(v, axis=2, keepdims=True)
        assert np.array_equal(_random_bloch(5000, np.random.default_rng(11)), want)

    def test_matches_born_oracle_chunk_by_chunk(self):
        """The correlation-tensor sampler against Born tables on the same draws,
        regenerated per chunk; the third chunk is the partial one (5 rows)."""
        seed, n = 23, 2 * _SAMPLE_CHUNK + 5
        tables = sample_tables(n, seed)
        starts = range(0, n, _SAMPLE_CHUNK)
        assert len(starts) == 3
        for chunk, start in enumerate(starts):
            m = min(_SAMPLE_CHUNK, n - start)
            rng = np.random.default_rng([seed, chunk])
            born = _born_tables(_random_states(m, rng), _random_bloch(m, rng), _random_bloch(m, rng))
            assert np.max(np.abs(tables[start : start + m] - born)) <= 1e-14
        assert m == 5

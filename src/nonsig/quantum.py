"""Two-qubit quantum behaviors: pure states, projective measurements, Born probabilities."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior, BehaviorError, Correlators, _tables_from_correlators, validate

_SAMPLE_CHUNK = 8192

PAULIS = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)
PAULIS.flags.writeable = False


@dataclass(frozen=True)
class QubitMeasurement:
    """A +-1 projective qubit measurement along a Bloch direction.

    The projectors are P(+-) = (I +- bloch . sigma) / 2.
    """

    bloch: np.ndarray  # (3,), unit norm

    def __post_init__(self):
        v = np.array(self.bloch, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "bloch", v)
        if v.shape != (3,):
            raise BehaviorError("bloch vector must have 3 components")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise BehaviorError(f"bloch vector must be unit norm, got |v| = {np.linalg.norm(v)}")

    def projectors(self) -> np.ndarray:
        """Stacked projectors, shape (2, 2, 2); index 0 is the +1 outcome."""
        op = np.einsum("i,ijk->jk", self.bloch, PAULIS)
        eye = np.eye(2)
        return np.stack([(eye + op) / 2.0, (eye - op) / 2.0])


@dataclass(frozen=True)
class QuantumModel:
    """A two-qubit pure state with two projective measurements per party."""

    state: np.ndarray  # (4,) complex, unit norm
    alice: tuple[QubitMeasurement, QubitMeasurement]
    bob: tuple[QubitMeasurement, QubitMeasurement]

    def __post_init__(self):
        psi = np.array(self.state, dtype=complex)
        psi.flags.writeable = False
        object.__setattr__(self, "state", psi)
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob", tuple(self.bob))
        if psi.shape != (4,):
            raise BehaviorError("state must be a 4-component vector")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise BehaviorError(f"state must be normalized, got |psi| = {np.linalg.norm(psi)}")


def _born_tables(states: np.ndarray, alice_bloch: np.ndarray, bob_bloch: np.ndarray) -> np.ndarray:
    """Born-rule tables for batched models.

    states: (n, 4) complex; alice_bloch, bob_bloch: (n, 2, 3) unit rows.
    Returns (n, 2, 2, 2, 2) tables indexed [x, y, a, b].
    """
    n = states.shape[0]
    psi = states.reshape(n, 2, 2)  # psi[i, j] over Alice x Bob factors
    signs = np.array([1.0, -1.0])
    eye = np.eye(2)
    op_a = np.einsum("nxc,cij->nxij", alice_bloch, PAULIS)
    op_b = np.einsum("nyc,cij->nyij", bob_bloch, PAULIS)
    proj_a = 0.5 * (eye + signs[None, None, :, None, None] * op_a[:, :, None])  # (n,x,a,2,2)
    proj_b = 0.5 * (eye + signs[None, None, :, None, None] * op_b[:, :, None])  # (n,y,b,2,2)
    probs = np.einsum(
        "nij,nxaik,nkl,nybjl->nxyab", psi.conj(), proj_a, psi, proj_b, optimize=True
    )
    return probs.real


#: The real (32, 15) map from [Re rho, Im rho] to <s_c x 1>, <1 x s_d> and <s_c x s_d>:
#: Re Tr(rho M) = Re rho . Re M + Im rho . Im M for Hermitian M.
_OPS = np.array([np.kron(s, np.eye(2)) for s in PAULIS] + [np.kron(np.eye(2), s) for s in PAULIS]
                + [np.kron(s, t) for s in PAULIS for t in PAULIS]).reshape(15, 16)
_EXPECTATIONS = np.concatenate([_OPS.real.T, _OPS.imag.T])
_EXPECTATIONS.flags.writeable = False


def _pauli_correlators(states: np.ndarray, alice_bloch: np.ndarray, bob_bloch: np.ndarray):
    """Correlators A_x = a_x . r_A, B_y = b_y . r_B and C_xy = a_x^T T b_y from each state's
    Bloch vectors and correlation tensor, bypassing probabilities.

    Every contraction runs on state-last copies (..., n), so einsum's inner loop is the
    long axis rather than an axis of length 2 or 3.  Plain einsum, not BLAS: idle BLAS
    threads spin between the sampler's per-chunk calls.
    """
    n = states.shape[0]
    psi = np.ascontiguousarray(states.T)
    rho = psi[:, None] * psi.conj()[None, :]  # (4, 4, n)
    flat = np.concatenate([rho.real.reshape(16, n), rho.imag.reshape(16, n)])
    e = np.einsum("kc,kn->cn", _EXPECTATIONS, flat, optimize=False)
    al = np.ascontiguousarray(alice_bloch.transpose(1, 2, 0))  # (x, c, n)
    bo = np.ascontiguousarray(bob_bloch.transpose(1, 2, 0))    # (y, d, n)
    a = np.einsum("xcn,cn->nx", al, e[:3], optimize=False)
    b = np.einsum("ydn,dn->ny", bo, e[3:6], optimize=False)
    ab = np.einsum("xcn,cdn,ydn->nxy", al, e[6:].reshape(3, 3, n), bo, optimize=False)
    return a, b, ab


def _model_arrays(m: QuantumModel):
    states = m.state[None, :]
    ab_a = np.stack([meas.bloch for meas in m.alice])[None]
    ab_b = np.stack([meas.bloch for meas in m.bob])[None]
    return states, ab_a, ab_b


def model_to_behavior(m: QuantumModel) -> Behavior:
    """The 16 Born probabilities of the model; validated to 1e-10."""
    table = _born_tables(*_model_arrays(m))[0]
    return validate(table, tol=1e-10)


def model_correlators(m: QuantumModel) -> Correlators:
    """Correlators via direct operator expectations (independent of the Born table path)."""
    a, b, ab = _pauli_correlators(*_model_arrays(m))
    return Correlators(a=a[0], b=b[0], ab=ab[0])


def bell_model() -> QuantumModel:
    """The canonical CHSH-optimal configuration: maximally entangled state,
    Alice measuring z and x, Bob at +-45 degrees between them."""
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    z = QubitMeasurement(np.array([0.0, 0.0, 1.0]))
    x = QubitMeasurement(np.array([1.0, 0.0, 0.0]))
    bp = QubitMeasurement(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    bm = QubitMeasurement(np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0))
    return QuantumModel(state=phi_plus, alice=(z, x), bob=(bp, bm))


def bell_behavior() -> Behavior:
    """Behavior attaining the Tsirelson bound, correlators (1, 1, 1, -1)/sqrt(2)."""
    return model_to_behavior(bell_model())


def _random_states(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, 4)) + 1.0j * rng.standard_normal((n, 4))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _random_bloch(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((n, 2, 3))
    # The sum of squares written out: bit-identical to np.linalg.norm over the last axis, ~9x faster.
    norm = np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)
    return v / norm[..., None]


def sample_chunks(n: int, seed: int) -> Iterator[np.ndarray]:
    """n Born tables from Haar-random pure states and uniform Bloch measurements,
    yielded ``_SAMPLE_CHUNK`` at a time (the last chunk may be shorter).

    Deterministic given the seed; the RNG stream for chunk c is derived from
    (seed, c).  ``n`` and ``seed`` are checked by the call itself, before the
    first chunk is asked for.  The tables are built from
    ``_pauli_correlators``; ``_born_tables`` is their test oracle.
    """
    if n < 1:
        raise BehaviorError("sample size must be >= 1")
    if seed < 0:
        raise BehaviorError(f"seed must be >= 0, got {seed}")
    return (_chunk_tables(min(_SAMPLE_CHUNK, n - start), np.random.default_rng([seed, chunk]))
            for chunk, start in enumerate(range(0, n, _SAMPLE_CHUNK)))


def _chunk_tables(m: int, rng: np.random.Generator) -> np.ndarray:
    a, b, ab = _pauli_correlators(_random_states(m, rng), _random_bloch(m, rng), _random_bloch(m, rng))
    return _tables_from_correlators(a, b, ab)


def sample_tables(n: int, seed: int) -> np.ndarray:
    """The n tables of the ``sample_chunks(n, seed)`` generator in one (n, 2, 2, 2, 2) array."""
    return np.concatenate(list(sample_chunks(n, seed)))


def sample(n: int, seed: int) -> list[Behavior]:
    """n random quantum behaviors; see ``sample_chunks`` for the distribution."""
    tables = np.clip(sample_tables(n, seed), 0.0, None)
    return [Behavior(t) for t in tables]

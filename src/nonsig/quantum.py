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
        if not np.all(np.isfinite(v)):
            raise BehaviorError(f"bloch vector must be finite, got {v}")
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
        if not np.all(np.isfinite(psi)):
            raise BehaviorError(f"state must be finite, got {psi}")
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


def _bloch_dot(bloch: np.ndarray, n00: np.ndarray, n11: np.ndarray, n01: np.ndarray) -> np.ndarray:
    """tr(N (b . sigma)^T) = b . (2 Re N01, 2 Im N01, N00 - N11) for Hermitian 2x2 N;
    ``bloch`` is (3, ...) and broadcasts against the entries of N."""
    return 2.0 * (bloch[0] * n01.real + bloch[1] * n01.imag) + bloch[2] * (n00 - n11)


def _pauli_correlators(states: np.ndarray, alice_bloch: np.ndarray, bob_bloch: np.ndarray):
    """Correlators of batched models straight from each state's 2x2 amplitude matrix,
    bypassing probabilities.

    With Psi[i, j] the amplitude of |i>_A |j>_B and N_x = Psi^dag (a_x . sigma) Psi,
    A_x = tr N_x and C_xy = <(a_x . sigma) x (b_y . sigma)> = tr(N_x (b_y . sigma)^T);
    B_y is the same trace with Psi^dag Psi for N_x.  Every product is elementwise on
    state-last arrays (..., n), so no contraction runs over an axis of length 2 or 3,
    and nothing calls BLAS: idle BLAS threads spin between the sampler's per-chunk calls.
    """
    u0, u1, v0, v1 = states.T  # Psi = [[u0, u1], [v0, v1]]
    ax, ay, az = np.ascontiguousarray(alice_bloch.transpose(2, 1, 0))  # each (x, n)
    bob = np.ascontiguousarray(bob_bloch.transpose(2, 1, 0))  # (c, y, n)
    m01 = ax - 1j * ay  # a_x . sigma = [[az, m01], [m01*, -az]]
    r00, r01 = az * u0 + m01 * v0, az * u1 + m01 * v1  # (a_x . sigma) Psi, row 0
    r10, r11 = m01.conj() * u0 - az * v0, m01.conj() * u1 - az * v1  # and row 1
    cu0, cu1, cv0, cv1 = u0.conj(), u1.conj(), v0.conj(), v1.conj()
    n00 = (cu0 * r00 + cv0 * r10).real
    n11 = (cu1 * r01 + cv1 * r11).real
    n01 = cu0 * r01 + cv0 * r11
    p00 = (cu0 * u0 + cv0 * v0).real  # Psi^dag Psi
    p11 = (cu1 * u1 + cv1 * v1).real
    p01 = cu0 * u1 + cv0 * v1
    ab = _bloch_dot(bob, n00[:, None], n11[:, None], n01[:, None])  # (x, y, n)
    return (n00 + n11).T, _bloch_dot(bob, p00, p11, p01).T, ab.transpose(2, 0, 1)


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


def sample_chunks(n: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Correlators (a, b, ab) of n Haar-random pure states under uniform Bloch
    measurements, yielded ``_SAMPLE_CHUNK`` rows at a time (the last chunk may be
    shorter), shaped (m, 2), (m, 2) and (m, 2, 2).

    Deterministic given the seed; the RNG stream for chunk c is derived from
    (seed, c) and draws the states, then Alice's Bloch vectors, then Bob's.
    ``n`` and ``seed`` are checked by the call itself, before the first chunk is
    asked for.  The correlators come from ``_pauli_correlators``; the Born tables
    of ``_born_tables`` are their test oracle.
    """
    if n < 1:
        raise BehaviorError("sample size must be >= 1")
    if seed < 0:
        raise BehaviorError(f"seed must be >= 0, got {seed}")
    return (_chunk_correlators(min(_SAMPLE_CHUNK, n - start), np.random.default_rng([seed, chunk]))
            for chunk, start in enumerate(range(0, n, _SAMPLE_CHUNK)))


def _chunk_correlators(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _pauli_correlators(_random_states(m, rng), _random_bloch(m, rng), _random_bloch(m, rng))


def sample_tables(n: int, seed: int) -> np.ndarray:
    """The tables of the ``sample_chunks(n, seed)`` correlators in one (n, 2, 2, 2, 2) array."""
    return np.concatenate([_tables_from_correlators(*chunk) for chunk in sample_chunks(n, seed)])


def sample(n: int, seed: int) -> list[Behavior]:
    """n random quantum behaviors; see ``sample_chunks`` for the distribution."""
    tables = np.clip(sample_tables(n, seed), 0.0, None)
    return [Behavior(t) for t in tables]

"""The slice of behaviors at fixed CHSH score, read without a solver.

Every quantity the boundary solver reads is affine in the correlators and the
score (``_Q0``, ``_QX``, ``_Q_PER_S``).  The lower boundary ``ns_min`` is the
least I over the family C = a a^T + t sigma with both marginals a, its
minimizer a closed form in the score (``_family_min``); ``_isotropic_eig_root``
finds from I alone where a = 0 stops being a minimum: the Tsirelson bound.
"""

from __future__ import annotations

import functools

import numpy as np

from .behavior import CHSH_SLOT_SIGNS, OUTCOME_VALUES, _tables_from_correlators
from .functionals import TSIRELSON, _info

#: Probability floor used inside entropy *gradients* only; values use exact 0 log 0 = 0.
GRAD_FLOOR = 1e-12
_LOG2E = 1.0 / np.log(2.0)
_LOG2_FLOOR = np.log2(GRAD_FLOOR)

_SLOT_W = np.zeros((8, 8))
_SLOT_W[:, 4:] = CHSH_SLOT_SIGNS.reshape(8, 4)

#: Correlator anchor per unit score: the isotropic PR mixture at CHSH score s is s * _ANCHOR_DIR.
_ANCHOR_DIR = np.array([0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, -0.25])

#: The quantities the solver reads, one row each: p(a|x), p(b|y) and the joint
#: probabilities (the entropy rows), the 7 dominance slacks s - (slot k
#: expression) (with the joint probabilities, the facets kept >= 0), and the 8
#: correlators.
_PA, _PB, _P16, _ENT = slice(0, 4), slice(4, 8), slice(8, 24), slice(0, 24)
_FACETS, _DOM, _X = slice(8, 31), slice(24, 31), slice(31, 39)


def _quantity_rows(x: np.ndarray) -> np.ndarray:
    """The quantities (39, r) of correlator vectors x (r, 8) at score 0; run at import only."""
    p16 = _tables_from_correlators(x[:, :2], x[:, 2:4], x[:, 4:].reshape(-1, 2, 2)).reshape(-1, 16)
    pa = 0.5 * (1.0 + x[:, :2, None] * OUTCOME_VALUES)   # (r, x, a)
    pb = 0.5 * (1.0 + x[:, 2:4, None] * OUTCOME_VALUES)  # (r, y, b)
    return np.concatenate([pa.reshape(-1, 4), pb.reshape(-1, 4), p16, -x @ _SLOT_W[1:].T, x], axis=1).T


#: The quantities are affine in x and in the score: _Q0 + _QX @ x, plus s on the dominance slacks.
_Q0 = _quantity_rows(np.zeros((1, 8)))[:, 0]
_QX = _quantity_rows(np.eye(8)) - _Q0[:, None]
_Q_PER_S = _QX @ _ANCHOR_DIR
_Q_PER_S[_DOM] += 1.0


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """The entropy rows (..., 24) of batched correlator 8-vectors."""
    return _Q0[_ENT] + x @ _QX[_ENT].T


def _rows_probs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 16 joint probabilities (..., 16), ordered (x, y, a, b), and the marginal
    tables p(a|x), p(b|y), (..., 2, 2), of batched quantities q (..., >= 24)."""
    lead = q.shape[:-1]
    return q[..., _P16], q[..., _PA].reshape(*lead, 2, 2), q[..., _PB].reshape(*lead, 2, 2)


#: I = _ENT_W @ (p log2 p) over the entropy rows: the one I formula read off on unit rows.
_ENT_W = _info(*_rows_probs(np.eye(24)), plogp=lambda h: h)


def _info_from_x(x: np.ndarray) -> np.ndarray:
    """Mutual information for batched correlator 8-vectors (exact value)."""
    return _info(*_rows_probs(_entropy_rows(x)))


def info_gradient(x) -> np.ndarray:
    """Analytic gradient of the mutual information with respect to the 8 correlators.

    Matches central finite differences at interior points.  d(p log2 p)/dp is zero
    where p <= 0, as the clipped value, its logarithm floored at ``GRAD_FLOOR``.
    """
    x = np.asarray(x, dtype=float)
    p = _entropy_rows(np.atleast_2d(x))
    grad = (_ENT_W * np.where(p > 0.0, np.log2(np.clip(p, GRAD_FLOOR, None)) + _LOG2E, 0.0)) @ _QX[_ENT]
    return grad[0] if x.ndim == 1 else grad


# ---------------------------------------------------------------------------
# the lower-boundary family

#: The family's correlators at a = (a0, a1) and score s: both marginals a and
#: C = a a^T + t sigma with sigma = (1, 1, 1, -1) and t = (s - sigma . a a^T) / 4,
#: so x = s * _ANCHOR_DIR + _FAMILY_LIN @ a + (a^T _FAMILY_QUAD a per correlator).
_SIGMA = np.array([[1.0, 1.0], [1.0, -1.0]])
_FAMILY_LIN = np.vstack([np.eye(2), np.eye(2), np.zeros((4, 2))])
_FAMILY_QUAD = np.concatenate([np.zeros((4, 2, 2)), [
    0.5 * (np.outer(e, f) + np.outer(f, e)) - 0.25 * sigma * _SIGMA
    for (e, f), sigma in zip([(e, f) for e in np.eye(2) for f in np.eye(2)], _SIGMA.flat)
]])
#: The same for the entropy and facet quantities: q = _Q0 + s _Q_PER_S + _FAM_L a + a^T _FAM_Q a,
#: with _FAM_MONO the coefficients of the monomials (a0, a1, a0^2, a0 a1, a1^2).
_FAM_L = _QX[: _FACETS.stop] @ _FAMILY_LIN
_FAM_Q = np.einsum("kj,juv->kuv", _QX[: _FACETS.stop], _FAMILY_QUAD)
_FAM_MONO = np.column_stack([_FAM_L, _FAM_Q[:, 0, 0], 2.0 * _FAM_Q[:, 0, 1], _FAM_Q[:, 1, 1]])


def _family_rows(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The entropy and facet quantities (..., 31) of the family points a (..., 2) at scores s (...)."""
    a0, a1 = a[..., 0], a[..., 1]
    mono = np.stack([a0, a1, a0 * a0, a0 * a1, a1 * a1], axis=-1)
    return _Q0[: _FACETS.stop] + s[..., None] * _Q_PER_S[: _FACETS.stop] + mono @ _FAM_MONO.T


def _family_derivs(q: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient (n, 2) and Hessian (n, 2, 2) in a of I at family points a
    (n, 2) with quantities q (n, 31), all probabilities positive."""
    grad_q = _FAM_L[_ENT] + 2.0 * (a @ _FAM_Q[_ENT].reshape(-1, 2).T).reshape(-1, 24, 2)
    d1 = _ENT_W * (np.log2(q[:, _ENT]) + _LOG2E)
    hess = (grad_q * (_ENT_W * _LOG2E / q[:, _ENT])[..., None]).transpose(0, 2, 1) @ grad_q
    hess += 2.0 * (d1 @ _FAM_Q[_ENT].reshape(24, 4)).reshape(-1, 2, 2)
    return (d1[:, None, :] @ grad_q)[:, 0], hess


def _two_sum(a, b):
    """a + b as an unevaluated sum hi + lo of two floats, exactly (Knuth); hi is a + b rounded."""
    hi = a + b
    v = hi - a
    return hi, (a - (hi - v)) + (b - v)


def _two_prod(a, b):
    """a b as hi + lo exactly, by Dekker's split of each factor into 26-bit halves."""
    hi = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


# Double-double arithmetic on pairs (hi, lo) whose sum carries ~106 bits.  Each
# result is renormalized by ``_two_sum``, so its hi is the result rounded once.


def _dd_add(x, y):
    hi, lo = _two_sum(x[0], y[0])
    return _two_sum(hi, lo + (x[1] + y[1]))


def _dd_mul(x, y):
    hi, lo = _two_prod(x[0], y[0])
    return _two_sum(hi, lo + (x[0] * y[1] + x[1] * y[0]))


def _dd_div(x, y):
    q = x[0] / y[0]
    hi, lo = _two_prod(q, y[0])
    return _two_sum(q, ((x[0] - hi) - lo + x[1] - q * y[1]) / y[0])


def _dd_sqrt(x):
    r = np.sqrt(x[0])
    hi, lo = _two_prod(r, r)
    return _two_sum(r, ((x[0] - hi) - lo + x[1]) / (2.0 * r))


def _family_min(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least I of the family at scores s (n,) in (2, 2 sqrt 2), and its a (n, 2), in closed form.

    With w = sqrt(s^2 - 4) the minimizer is

        a0^2 = (2 - w)(s + w) / (2 s),   a1 = 2 a0 / (s + w),   t = w^2 / (2 s),

    from the corner a = (1, 1) at s = 2 (1 - a0 ~ (s - 2) / 2, 1 - a1 ~
    sqrt(s - 2)) to a = 0 at 2 sqrt 2, on the conic a0^2 + 2 a0 a1 - a1^2 =
    (8 - s^2) / s.  Derivation: where I is stationary over the whole
    symmetric NS slice, its gradient in C at fixed marginals is a multiple of
    sigma, so the log odds ratios of the four tables are equal up to the signs
    of sigma.  On C = a a^T + t sigma the odds ratio of table xy is
    1 + 4 t sigma_xy / D_xy, with D_xy 16 times the product of its two
    off-diagonal probabilities; two such equalities and the score are three
    polynomial equations in (a0, a1, t), which the point above solves, with
    every odds ratio ((s + 2) / (s - 2))^(+-2).  That the family's minimum
    is this point is measured, not proven: its gradient in a vanishes to
    rounding, and no sampled family point has less I (``tests/test_curves.py``).
    The half a0 + a1 < 0 holds its mirror -a, since I is even in a.

    The formula runs in double-double arithmetic, so that a is rounded once
    on every platform: near s = 2.05 each ulp of a moves the gradient of I in
    a by ~1e-12.  s^2 - 4 and 8 - s^2 are exact there, and 2 - w is taken as
    (8 - s^2) / (2 + w), which does not cancel near 2 sqrt 2.
    """
    s = np.asarray(s, dtype=float)
    sq, sq_lo = _two_prod(s, s)
    w = _dd_sqrt(_two_sum(sq - 4.0, sq_lo))
    s_w = _dd_add((s, 0.0), w)
    two_w = _dd_div(_two_sum(8.0 - sq, -sq_lo), _dd_add((2.0, 0.0), w))  # 2 - w
    a0 = _dd_sqrt(_dd_div(_dd_mul(two_w, s_w), (2.0 * s, 0.0)))
    a1 = _dd_div((2.0 * a0[0], 2.0 * a0[1]), s_w)
    a = np.stack([a0[0], a1[0]], axis=-1)
    return _info(*_rows_probs(_family_rows(s, a))), a


def _family_vectors(s) -> np.ndarray:
    """Correlator vectors (n, 8) of the family's least-I points at scores s (n,), clipped into [0, 4].

    On [0, 2] the symmetric product a = sqrt(s/2) (1, 1), C = (s/2) (1, 1, 1, 1):
    the t = 0 member with I = 0, every probability positive below 2, meeting
    the arc's a = (1, 1) at 2; it is set directly, as the quadratic form would
    round sqrt(s/2)^2.  On (2, 2 sqrt 2) ``_family_min``; from 2 sqrt 2 on,
    a = 0, the isotropic PR mixture.
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, 4.0)
    a = np.zeros((len(s), 2))
    low, arc = s <= 2.0, (s > 2.0) & (s < TSIRELSON)
    a[arc] = _family_min(s[arc])[1]
    x = s[:, None] * _ANCHOR_DIR + a @ _FAMILY_LIN.T + np.einsum("juv,nu,nv->nj", _FAMILY_QUAD, a, a)
    half = s[low] / 2.0
    x[low] = np.repeat([np.sqrt(half), half], 4, axis=0).T
    return x


def _isotropic_eig(s: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue (n,) of I's Hessian in a at the family's isotropic point a = 0, scores s (n,)."""
    a = np.zeros((len(s), 2))
    h = _family_derivs(_family_rows(s, a), a)[1]
    return 0.5 * (h[:, 0, 0] + h[:, 1, 1]) - np.hypot(0.5 * (h[:, 0, 0] - h[:, 1, 1]), h[:, 0, 1])


@functools.cache
def _isotropic_eig_root() -> tuple[float, tuple[int, int]]:
    """Where a = 0 stops being a minimum of the family: the root in s of
    ``_isotropic_eig``, and the eigenvalue's signs at the bracket's ends 2.5 and 3.1.

    The eigenvalue is c (c - 1/sqrt 2) / (ln 2 (1 - c^2)) with c = s / 4, so
    the root is the Tsirelson bound 2 sqrt 2, found here from I alone.  Each
    round evaluates 65 scores across the bracket and keeps the cell where the
    sign turns, until the bracket is two adjacent floats.  It runs once per
    process.
    """
    lo, hi, signs = 2.5, 3.1, ()
    while np.nextafter(lo, hi) < hi:
        grid = np.linspace(lo, hi, 65)
        eig = _isotropic_eig(grid)
        signs = signs or (int(np.sign(eig[0])), int(np.sign(eig[-1])))
        k = np.argmax(eig >= 0.0)
        lo, hi = grid[k - 1], grid[k]
    return float(hi), signs

"""The two scalar functionals: relabeling-maximized CHSH value S and mutual information I."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behavior import _TABLE_MAP, CHSH_SLOT_SIGNS, OUTCOME_VALUES, Behavior, BehaviorError, Correlators

#: Probabilities below this are exact zeros for entropy purposes.
ZERO_FLOOR = 1e-300

#: Tsirelson's bound, the largest CHSH score a quantum behavior attains.
TSIRELSON = 2.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class FunctionalPoint:
    """A behavior's coordinates in the S-I plane; S in [0, 4], I in [0, 1] bits."""

    s: float
    i: float

    def __post_init__(self):
        if not (np.isfinite(self.s) and np.isfinite(self.i)):
            raise BehaviorError(f"non-finite functional point ({self.s}, {self.i})")
        if not (-1e-9 <= self.s <= 4.0 + 1e-9 and -1e-9 <= self.i <= 1.0 + 1e-9):
            raise BehaviorError(f"functional point ({self.s}, {self.i}) out of range")


def _as_ab(p: Behavior | Correlators) -> np.ndarray:
    if isinstance(p, Behavior):
        return p.correlators().ab
    return p.ab


def chsh_slot_values(p: Behavior | Correlators) -> np.ndarray:
    """All 8 signed CHSH expression values, slot 0 first."""
    return _slot_values(_as_ab(p))


def chsh_linear(p: Behavior | Correlators, slot: int = 0) -> float:
    """One signed CHSH expression; slot 0 is C00 + C01 + C10 - C11."""
    if not 0 <= slot < 8:
        raise BehaviorError(f"slot must be in 0..7, got {slot}")
    return float(_slot_values(_as_ab(p))[slot])


def s_max(p: Behavior | Correlators) -> float:
    """Maximum CHSH value over relabelings: max_xy |sum(C) - 2 C[x,y]|, in [0, 4]."""
    return float(_s_max_ab(_as_ab(p)))


def _slot_values(ab: np.ndarray) -> np.ndarray:
    # (..., 2, 2) -> (..., 8)
    return np.einsum("...xy,kxy->...k", ab, CHSH_SLOT_SIGNS)


def _s_max_ab(ab: np.ndarray) -> np.ndarray:
    tot = ab.sum(axis=(-1, -2))[..., None, None]
    return np.abs(tot - 2.0 * ab).max(axis=(-1, -2))


def _plogp(p: np.ndarray) -> np.ndarray:
    # x log2 x with the 0 log 0 = 0 convention; negative inputs count as 0.
    # Two full-size temporaries; asarray lets floats and 0-d inputs take the in-place ops.
    q = np.maximum(p, 0.0)
    out = np.asarray(q + ZERO_FLOOR)
    return np.multiply(np.log2(out, out=out), q, out=out)


def _info(p16: np.ndarray, pa: np.ndarray, pb: np.ndarray, plogp=_plogp) -> np.ndarray:
    """Mutual information in bits from the 16 joint probabilities (..., 16) and
    the marginal tables p(a|x) and p(b|y), (..., 2, 2); ``plogp`` is p log2 p."""
    joint = 0.25 * plogp(p16).sum(axis=-1)
    return joint - 0.5 * plogp(pa).sum(axis=(-1, -2)) - 0.5 * plogp(pb).sum(axis=(-1, -2))


#: Flat tables (..., 16) to the marginal tables [p(a|x), p(b|y)] (..., 8), read off
#: p(a|x) = sum_b mean_y p(ab|xy) and its twin on the 16 unit tables.
_E16 = np.eye(16).reshape(16, 2, 2, 2, 2)
_MARGINALS = np.concatenate(
    [_E16.sum(axis=-1).mean(axis=-2).reshape(16, 4), _E16.sum(axis=-2).mean(axis=-3).reshape(16, 4)], axis=1
)
_MARGINALS.flags.writeable = False
#: Rows per ``_info`` call in ``_mi_tables``, so its p log p temporaries stay cache-sized.
_MI_BLOCK = 8192


def _mi_tables(tables: np.ndarray) -> np.ndarray:
    """Mutual information in bits for stacked tables (..., 2, 2, 2, 2)."""
    lead = tables.shape[:-4]
    flat = tables.reshape(-1, 16)
    out = np.empty(len(flat))
    for start in range(0, len(flat), _MI_BLOCK):
        p16 = flat[start : start + _MI_BLOCK]
        m = np.einsum("nk,kj->nj", p16, _MARGINALS, optimize=False)
        out[start : start + _MI_BLOCK] = _info(p16, m[:, :4].reshape(-1, 2, 2), m[:, 4:].reshape(-1, 2, 2))
    return out.reshape(lead)[()]  # a scalar for a single table


def _mi_correlators(a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Mutual information in bits of n behaviors from their correlators (n, 2), (n, 2) and
    (n, 2, 2): the 16 joint probabilities by ``_TABLE_MAP``, as in
    ``_tables_from_correlators``, and the marginal tables read directly as
    p(a|x) = (1 +- A_x)/2 and p(b|y) = (1 +- B_y)/2.

    Everything runs on state-last arrays (..., n), so no loop runs over an axis of
    length 2 to 16; the sampler's correlators are views of such arrays.  Unblocked, so
    the temporaries grow with n: the quantum cloud calls it one sampling chunk at a time.
    """
    v = np.concatenate([a.T, b.T, ab.transpose(1, 2, 0).reshape(4, -1)])  # (8, n)
    p16 = 0.25 + np.einsum("kj,kn->jn", _TABLE_MAP, v, optimize=False)
    o = OUTCOME_VALUES[:, None, None]
    return _info(p16.T, (0.5 * (1.0 + o * a.T)).T, (0.5 * (1.0 + o * b.T)).T)


def mutual_information(p: Behavior) -> float:
    """Mutual information between the outputs under uniform independent inputs, in bits.

    I = H(A|X) + H(B|Y) - H(AB|XY) with both inputs uniform on {0, 1}; lies in
    [0, 1] and vanishes exactly on product behaviors.
    """
    return float(_mi_tables(p.table))


def g(x) -> float | np.ndarray:
    """Entropy kernel of a single +-1 correlator with unbiased marginals.

    g(x) = (1/2) [1 + ((1+x)/4) log2((1+x)/4) + ((1-x)/4) log2((1-x)/4)],
    even, with range [0, 1/4]; g(0) = 0 and g(+-1) = 1/4.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise BehaviorError(f"g argument must lie in [-1, 1], got {x}")
    arr = np.clip(arr, -1.0, 1.0)
    val = 0.5 * (1.0 + _plogp((1.0 + arr) / 4.0) + _plogp((1.0 - arr) / 4.0))
    return float(val) if np.isscalar(x) or getattr(x, "shape", None) == () else val


def correlation_space_info(c: Correlators) -> float:
    """I on the correlation space via the closed form sum_xy g(C[x,y]).

    Valid only for unbiased marginals; independent of the probability-space
    evaluation path used by ``mutual_information``.
    """
    if np.max(np.abs(c.a)) > 1e-12 or np.max(np.abs(c.b)) > 1e-12:
        raise BehaviorError("correlation_space_info requires all four marginals to vanish")
    return float(np.sum(g(c.ab)))


def evaluate(p: Behavior) -> FunctionalPoint:
    """Both functionals at once."""
    return FunctionalPoint(s=s_max(p), i=mutual_information(p))

"""Boundary curves of the S-I plane.

Every curve is realized by an explicit family of behaviors; the curve value
is the mutual information of that behavior, so the entropy formulas live in
exactly one place (``functionals``) and the g-expression forms stay
available as independent test oracles.  ``witness_vectors`` builds the
witness correlators of a whole array of scores at once; values, witnesses,
grids and the boundary solver's MIN and MAX starts all come from it.

All curves are closed forms.  ``ns_min`` is the least I over a
two-parameter family of non-signaling behaviors (both marginals a = (a0, a1),
C = a a^T + t sigma); ``slice._family_min`` gives the minimizer in closed
form, a stationary point that is measured to be the family's minimum.  Its
points are feasible behaviors, so it is a proven upper bound on the NS and
SYM minimum of I; that it is the minimum is a measured conjecture.  Up to
S = 2 its points are the symmetric product (``slice._family_vectors``), with
I = 0; which solver kinds that proves is stated in ``boundary._witness``.

On the correlation space C (zero marginals) I = sum_xy g(C_xy) with g even
and convex, and both C curves are proven extrema.  The relabelings that keep
the canonical expression C00 + C01 + C10 - C11 map the slice at score s onto
itself, permute its four terms transitively and keep I.  ``c_min`` is the
isotropic point s/4 (1, 1, 1, -1): averaging a minimizer over those
relabelings gives the one point of the slice that they all fix, with no more
I (Jensen).  The arcsin-capped slice is convex with the same symmetry
(Tsirelson; Landau, PLA 123, 1, 1987) and holds that point up to 2 sqrt 2,
so ``c_min`` is its minimum too.  ``c_max`` is the best vertex of the slice,
where a convex function is largest (Rockafellar, Convex Analysis, section 32).
The slice is P cut at canonical score s, where P is the polytope of C with
|C_xy| <= 1 and the canonical expression the largest of the eight; its
vertices are where P's edges cross that level.  P has 10 vertices: the origin
at score 0, four unit points such as (0, 0, 0, -1) at 1, four deterministic
points at 2 and the PR box at 4; its 30 edges join the origin to the unit and
deterministic points, each unit point to three deterministic ones, the
deterministic points to each other and to PR.  Up to relabeling the crossings
are then (0, 0, 0, -s) with I = g(s) on [0, 1], (-(s - 1), s - 1, s - 1, -1)
with I = 1/4 + 3 g(s - 1) on [1, 2], (s / 2) SC~ with I = 4 g(s / 2) on
[0, 2], and ``c_nonlocal_max`` on [2, 4]; ``c_max`` is the largest of them.
Below S = 2 every point of the slice is local (Fine, PRL 48, 291, 1982), so
the arcsin cap cannot bind there and ``c_max`` is the capped maximum as well.
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .behavior import (
    INTERNAL_TOL,
    Behavior,
    BehaviorError,
    BehaviorTag,
    _tables_from_correlators,
    named_correlators,
    validate,
)
from .functionals import TSIRELSON, _mi_tables
from .slice import _family_vectors

_DOMAIN_SLACK = 1e-9


class CurveId(Enum):
    LOCAL_MAX = "local_max"
    C_NONLOCAL_MAX = "c_nonlocal_max"
    LD_PR_MAX = "ld_pr_max"
    NS_MAX = "ns_max"
    QC_MAX = "qc_max"
    BELL_PR_MIN = "bell_pr_min"
    LOCAL_MIN = "local_min"
    NS_MIN = "ns_min"
    C_MIN = "c_min"
    C_MAX = "c_max"


#: Domain interval of S for each curve.
CURVE_DOMAINS = {
    CurveId.LOCAL_MAX: (0.0, 2.0),
    CurveId.C_NONLOCAL_MAX: (2.0, 4.0),
    CurveId.LD_PR_MAX: (2.0, 4.0),
    CurveId.NS_MAX: (0.0, 4.0),
    CurveId.QC_MAX: (2.0, TSIRELSON),
    CurveId.BELL_PR_MIN: (TSIRELSON, 4.0),
    CurveId.LOCAL_MIN: (0.0, 2.0),
    CurveId.NS_MIN: (0.0, 4.0),
    CurveId.C_MIN: (0.0, 4.0),
    CurveId.C_MAX: (0.0, 4.0),
}

#: Curves that are straight mixtures from one named behavior (at the low end of
#: the domain) to another (at the high end), with weight (s - lo) / (hi - lo):
#: - LOCAL_MAX, the local maximum: biased product point to anti-diagonal shared coin;
#: - C_NONLOCAL_MAX, the correlation-space maximum, closed form 3 g(1) + g(3 - s);
#: - LD_PR_MAX, the edge from the deterministic corner to the PR box;
#: - BELL_PR_MIN, the minimum beyond Tsirelson: all four correlators at
#:   magnitude s/4, so the curve equals 4 g(s/4);
#: - C_MIN, the same isotropic point s * slice._ANCHOR_DIR on all of [0, 4].
_MIXTURES = {
    CurveId.LOCAL_MAX: (BehaviorTag.P0, BehaviorTag.SC_TILDE),
    CurveId.C_NONLOCAL_MAX: (BehaviorTag.SC, BehaviorTag.PR),
    CurveId.LD_PR_MAX: (BehaviorTag.LD_ALLONES, BehaviorTag.PR),
    CurveId.BELL_PR_MIN: (BehaviorTag.BELL, BehaviorTag.PR),
    CurveId.C_MIN: (BehaviorTag.NOISE, BehaviorTag.PR),
}


def _curve_id(curve: CurveId | str) -> CurveId:
    return CurveId(curve.lower()) if isinstance(curve, str) else curve


def _in_domain(curve: CurveId, s) -> np.ndarray:
    """The scores clipped into the curve's domain; raises on the first one
    farther outside than ``_DOMAIN_SLACK``."""
    lo, hi = CURVE_DOMAINS[curve]
    s = np.asarray(s, dtype=float)
    bad = ~((lo - _DOMAIN_SLACK <= s) & (s <= hi + _DOMAIN_SLACK))
    if bad.any():
        raise BehaviorError(f"S = {float(s[bad][0])} outside curve domain [{lo}, {hi}]")
    return np.clip(s, lo, hi)


def w(s):
    """Common value of the three equal correlators maximizing I over the
    quantum part of the correlation space; decreasing from 1 to 1/sqrt(2).
    A float for a float, an array for an array."""
    s = _in_domain(CurveId.QC_MAX, s)
    rad = 8.0 - s * s
    # the arctan argument diverges as S -> 2*sqrt(2); use the limit pi/2
    angle = np.where(rad <= 1e-14, np.pi / 2.0, np.arctan(s / np.sqrt(np.maximum(rad, 1e-14))))
    # clamped at 1: at S = 2 the formula rounds to 1 + 2.2e-16
    out = np.minimum(np.sqrt(2.0) * np.cos(np.pi / 6.0 + angle / 3.0), 1.0)
    return float(out) if out.ndim == 0 else out


def _mixture(curve: CurveId, s: np.ndarray) -> np.ndarray:
    lo, hi = CURVE_DOMAINS[curve]
    lam = ((s - lo) / (hi - lo))[:, None]
    p, q = (named_correlators(tag).vector() for tag in _MIXTURES[curve])
    return (1.0 - lam) * p + lam * q


def _tables(x: np.ndarray) -> np.ndarray:
    """Probability tables (..., 2, 2, 2, 2) of correlator vectors x (..., 8), rounding below 0 clipped."""
    p = _tables_from_correlators(x[..., :2], x[..., 2:4], x[..., 4:].reshape(*x.shape[:-1], 2, 2))
    return np.clip(p, 0.0, None)


def _larger(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Row by row, whichever of two correlator vectors (n, 8) has the larger I; ties go to ``first``."""
    i_first, i_second = _mi_tables(_tables(np.stack([first, second])))
    return np.where((i_first >= i_second)[:, None], first, second)


def witness_vectors(curve: CurveId | str, s) -> np.ndarray:
    """Correlator vectors (n, 8) of the curve's witness behaviors at scores s (n,)."""
    curve = _curve_id(curve)
    s = _in_domain(curve, np.ravel(s))
    if curve in _MIXTURES:
        return _mixture(curve, s)
    if curve is CurveId.NS_MAX:
        # the local maximum up to S = 2, then the larger of the two edges into the PR box
        low = (s <= 2.0)[:, None]
        local, edge = _mixture(CurveId.LOCAL_MAX, np.minimum(s, 2.0)), _mixture(CurveId.LD_PR_MAX, np.maximum(s, 2.0))
        first = np.where(low, local, edge)
        return _larger(first, np.where(low, first, _mixture(CurveId.C_NONLOCAL_MAX, np.maximum(s, 2.0))))
    if curve is CurveId.C_MAX:
        # the best slice vertex (module docstring): up to S = 2 the larger of C = (0, 0, 0, -s),
        # then (-(s - 1), s - 1, s - 1, -1), and (s / 2) SC~; from S = 2 on, c_nonlocal_max
        low, above = (s <= 2.0)[:, None], _mixture(CurveId.C_NONLOCAL_MAX, np.maximum(s, 2.0))
        t = np.clip(s - 1.0, 0.0, 1.0)
        corner = np.column_stack([np.zeros((len(s), 4)), -t, t, t, -np.minimum(s, 1.0)])
        tilde = 0.5 * s[:, None] * named_correlators(BehaviorTag.SC_TILDE).vector()
        return _larger(np.where(low, corner, above), np.where(low, tilde, above))
    if curve is CurveId.QC_MAX:
        # correlators (w, w, w, 3w - s) with unbiased marginals; closed form 3 g(w) + g(3w - s)
        ws = w(s)
        return np.column_stack([np.zeros((len(s), 4)), ws, ws, ws, 3.0 * ws - s])
    if curve is CurveId.NS_MIN:
        # the family's least-I point: the symmetric product up to S = 2, the isotropic PR mixture from 2 sqrt 2
        return _family_vectors(s)
    # LOCAL_MIN: a product behavior attaining S = s, so I is identically zero
    half, zero, one = s / 2.0, np.zeros(len(s)), np.ones(len(s))
    return np.column_stack([one, one, half, zero, half, zero, half, zero])


def _points(curve: CurveId, s) -> tuple[np.ndarray, np.ndarray]:
    """Witness tables (n, 2, 2, 2, 2) and their I (n,) at scores s (n,)."""
    tables = _tables(witness_vectors(curve, s))
    return tables, np.zeros(len(tables)) if curve is CurveId.LOCAL_MIN else _mi_tables(tables)


def curve_value(curve: CurveId | str, s):
    """I on the curve at score s: a float for a float, an array for an array."""
    curve = _curve_id(curve)
    s = np.asarray(s, dtype=float)
    i = _points(curve, s)[1]
    return float(i[0]) if s.ndim == 0 else i.reshape(s.shape)


def curve_witness(curve: CurveId | str, s: float) -> Behavior:
    """The explicit behavior realizing the curve point (s, curve(s))."""
    curve = _curve_id(curve)
    tables = _points(curve, s)[0]
    return validate(tables[0], tol=INTERNAL_TOL)


def curve_grid(curve: CurveId | str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n evenly spaced (s, i) samples over the curve's domain."""
    curve = _curve_id(curve)
    if n < 2:
        raise BehaviorError("curve grid needs at least 2 points")
    ss = np.linspace(*CURVE_DOMAINS[curve], n)
    return ss, curve_value(curve, ss)


@functools.lru_cache(maxsize=1)
def ld_c_crossing() -> float:
    """S value in (2, 4) where the deterministic-corner/PR edge overtakes the
    correlation-space bound; located by bisection to 1e-10."""

    def h(s):
        return curve_value(CurveId.LD_PR_MAX, s) - curve_value(CurveId.C_NONLOCAL_MAX, s)

    lo, hi = CURVE_DOMAINS[CurveId.LD_PR_MAX]
    grid = np.linspace(lo, hi - 1e-9, 64)
    vals = h(grid)
    bracket = None
    for k in range(len(grid) - 1):
        if vals[k] < 0.0 <= vals[k + 1]:
            bracket = (grid[k], grid[k + 1])
            break
    if bracket is None:
        raise RuntimeError("no sign change found for the boundary crossing")
    a, b = bracket
    while b - a > 1e-10:
        m = 0.5 * (a + b)
        if h(m) < 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)

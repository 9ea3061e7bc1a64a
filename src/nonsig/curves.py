"""Closed-form boundary curves of the S-I plane.

Every curve is realized by an explicit one-parameter family of behaviors; the
curve value is computed by building that behavior and evaluating the mutual
information on it, so the entropy formulas live in exactly one place
(``functionals``) and the g-expression forms stay available as independent
test oracles.
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .behavior import (
    Behavior,
    BehaviorError,
    BehaviorTag,
    Correlators,
    correlators_to_behavior,
    mix,
    named,
)
from .functionals import TSIRELSON, mutual_information

_DOMAIN_SLACK = 1e-9


class CurveId(Enum):
    LOCAL_MAX = "local_max"
    C_NONLOCAL_MAX = "c_nonlocal_max"
    LD_PR_MAX = "ld_pr_max"
    NS_MAX = "ns_max"
    QC_MAX = "qc_max"
    BELL_PR_MIN = "bell_pr_min"
    LOCAL_MIN = "local_min"


#: Domain interval of S for each curve.
CURVE_DOMAINS = {
    CurveId.LOCAL_MAX: (0.0, 2.0),
    CurveId.C_NONLOCAL_MAX: (2.0, 4.0),
    CurveId.LD_PR_MAX: (2.0, 4.0),
    CurveId.NS_MAX: (0.0, 4.0),
    CurveId.QC_MAX: (2.0, TSIRELSON),
    CurveId.BELL_PR_MIN: (TSIRELSON, 4.0),
    CurveId.LOCAL_MIN: (0.0, 2.0),
}


def _check_domain(s: float, lo: float, hi: float) -> float:
    if not lo - _DOMAIN_SLACK <= s <= hi + _DOMAIN_SLACK:
        raise BehaviorError(f"S = {s} outside curve domain [{lo}, {hi}]")
    return float(np.clip(s, lo, hi))


def local_max_witness(s: float) -> Behavior:
    """Maximizer of I at S = s inside the local set: mixture of the biased
    product point and the anti-diagonal shared coin."""
    s = _check_domain(s, 0.0, 2.0)
    return mix(named(BehaviorTag.P0).behavior, named(BehaviorTag.SC_TILDE).behavior, s / 2.0)


def local_max(s: float) -> float:
    """Upper information boundary of the local region, S in [0, 2]."""
    return mutual_information(local_max_witness(s))


def c_nonlocal_max_witness(s: float) -> Behavior:
    """Shared-coin/PR-box mixture with correlators (1, 1, 1, 3 - s)."""
    s = _check_domain(s, 2.0, 4.0)
    return mix(named(BehaviorTag.SC).behavior, named(BehaviorTag.PR).behavior, (s - 2.0) / 2.0)


def c_nonlocal_max(s: float) -> float:
    """Upper information boundary over the correlation space for S in [2, 4];
    closed form 3 g(1) + g(3 - s)."""
    return mutual_information(c_nonlocal_max_witness(s))


def ld_pr_max_witness(s: float) -> Behavior:
    s = _check_domain(s, 2.0, 4.0)
    return mix(
        named(BehaviorTag.LD_ALLONES).behavior, named(BehaviorTag.PR).behavior, (s - 2.0) / 2.0
    )


def ld_pr_max(s: float) -> float:
    """Information along the deterministic-corner to PR-box edge, S in [2, 4]."""
    return mutual_information(ld_pr_max_witness(s))


def ns_max(s: float) -> float:
    """Upper information boundary of the full non-signaling set, S in [0, 4]."""
    s = _check_domain(s, 0.0, 4.0)
    if s <= 2.0:
        return local_max(s)
    return max(ld_pr_max(s), c_nonlocal_max(s))


def ns_max_witness(s: float) -> Behavior:
    s = _check_domain(s, 0.0, 4.0)
    if s <= 2.0:
        return local_max_witness(s)
    if ld_pr_max(s) >= c_nonlocal_max(s):
        return ld_pr_max_witness(s)
    return c_nonlocal_max_witness(s)


def w(s: float) -> float:
    """Common value of the three equal correlators maximizing I over the
    quantum part of the correlation space; decreasing from 1 to 1/sqrt(2)."""
    s = _check_domain(s, 2.0, TSIRELSON)
    rad = 8.0 - s * s
    # the arctan argument diverges as S -> 2*sqrt(2); use the limit pi/2
    angle = np.pi / 2.0 if rad <= 1e-14 else np.arctan(s / np.sqrt(rad))
    return float(np.sqrt(2.0) * np.cos(np.pi / 6.0 + angle / 3.0))


def qc_max_witness(s: float) -> Behavior:
    s = _check_domain(s, 2.0, TSIRELSON)
    ws = w(s)
    ab = np.array([[ws, ws], [ws, 3.0 * ws - s]])
    return correlators_to_behavior(Correlators(a=np.zeros(2), b=np.zeros(2), ab=ab))


def qc_max(s: float) -> float:
    """Upper information boundary of the quantum part of the correlation
    space, S in [2, 2*sqrt(2)]; closed form 3 g(w) + g(3w - S)."""
    return mutual_information(qc_max_witness(s))


def bell_pr_min_witness(s: float) -> Behavior:
    s = _check_domain(s, TSIRELSON, 4.0)
    lam = (s - TSIRELSON) / (4.0 - TSIRELSON)
    return mix(named(BehaviorTag.BELL).behavior, named(BehaviorTag.PR).behavior, lam)


def bell_pr_min(s: float) -> float:
    """Lower information boundary beyond the Tsirelson bound, S in [2*sqrt(2), 4].

    The Bell-point/PR-box mixture has all four correlators at magnitude s/4,
    so the curve equals 4 g(s/4).
    """
    return mutual_information(bell_pr_min_witness(s))


def local_min_witness(s: float) -> Behavior:
    """A product behavior attaining S = s with zero mutual information."""
    s = _check_domain(s, 0.0, 2.0)
    ab = np.array([[s / 2.0, 0.0], [s / 2.0, 0.0]])
    return correlators_to_behavior(
        Correlators(a=np.array([1.0, 1.0]), b=np.array([s / 2.0, 0.0]), ab=ab)
    )


def local_min(s: float) -> float:
    """Lower information boundary of the local region: identically zero."""
    _check_domain(s, 0.0, 2.0)
    return 0.0


_CURVE_FUNCS = {
    CurveId.LOCAL_MAX: local_max,
    CurveId.C_NONLOCAL_MAX: c_nonlocal_max,
    CurveId.LD_PR_MAX: ld_pr_max,
    CurveId.NS_MAX: ns_max,
    CurveId.QC_MAX: qc_max,
    CurveId.BELL_PR_MIN: bell_pr_min,
    CurveId.LOCAL_MIN: local_min,
}

_CURVE_WITNESSES = {
    CurveId.LOCAL_MAX: local_max_witness,
    CurveId.C_NONLOCAL_MAX: c_nonlocal_max_witness,
    CurveId.LD_PR_MAX: ld_pr_max_witness,
    CurveId.NS_MAX: ns_max_witness,
    CurveId.QC_MAX: qc_max_witness,
    CurveId.BELL_PR_MIN: bell_pr_min_witness,
    CurveId.LOCAL_MIN: local_min_witness,
}


def curve_value(curve: CurveId | str, s: float) -> float:
    if isinstance(curve, str):
        curve = CurveId(curve.lower())
    return _CURVE_FUNCS[curve](s)


def curve_witness(curve: CurveId | str, s: float) -> Behavior:
    """The explicit behavior realizing the curve point (s, curve(s))."""
    if isinstance(curve, str):
        curve = CurveId(curve.lower())
    return _CURVE_WITNESSES[curve](s)


def curve_grid(curve: CurveId | str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n evenly spaced (s, i) samples over the curve's domain."""
    if isinstance(curve, str):
        curve = CurveId(curve.lower())
    if n < 2:
        raise BehaviorError("curve grid needs at least 2 points")
    lo, hi = CURVE_DOMAINS[curve]
    ss = np.linspace(lo, hi, n)
    return ss, np.array([_CURVE_FUNCS[curve](s) for s in ss])


@functools.lru_cache(maxsize=1)
def ld_c_crossing() -> float:
    """S value in (2, 4) where the deterministic-corner/PR edge overtakes the
    correlation-space bound; located by bisection to 1e-10."""

    def h(s: float) -> float:
        return ld_pr_max(s) - c_nonlocal_max(s)

    lo, hi = 2.0, 4.0 - 1e-9
    grid = np.linspace(lo, hi, 64)
    vals = [h(s) for s in grid]
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

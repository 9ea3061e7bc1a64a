"""Set-membership oracles: local set, arcsin relaxation of the quantum set, NPA level 1."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .behavior import Behavior, ValidationError, Violation, validate, EXTERNAL_TOL
from .functionals import TSIRELSON, _s_max_ab, s_max

#: Marginals this close to +-1 take the degenerate NPA-1 branch (the
#: normalized covariance divides by sqrt(1 - <A_x>^2)).
DEGENERATE_EPS = 1e-9

#: arcsin arguments within this of [-1, 1] are clamped.  A table validated at
#: ``EXTERNAL_TOL`` reaches 1 + 3 tol: its sum up to 1 + tol, plus the two
#: entries of -tol that clipping lifts to 0; 1e-15 covers the rounding of the sum.
CLAMP_TOL = 3.0 * EXTERNAL_TOL + 1e-15

#: How far S may exceed 2 in a local verdict.  The arcsin tests judge the behavior
#: mixed with white noise to the scale ``_MIXED``, where S = 2 + _TEST_TOL falls to
#: 2, so the chain holds within the tolerance as it does exactly; a tolerance on
#: the arcsin sum would miss arcsin's infinite slope at +-1 (S - 2 = 8.9e-16 can
#: move the sum by 4.2e-8).
_TEST_TOL = 1e-9
_MIXED = 2.0 / (2.0 + _TEST_TOL)


class MembershipInconsistencyError(RuntimeError):
    """The implication chain local => NPA-1 => arcsin-relaxation broke down."""


@dataclass(frozen=True)
class MembershipReport:
    """Per-set verdicts with signed slack values (positive = satisfied; a
    violation within the tests' tolerance reads 0, on the boundary).

    ``local``, ``npa1`` and ``qtilde`` are None when the behavior failed
    non-signaling validation.
    """

    ns_valid: bool
    local: bool | None = None
    npa1: bool | None = None
    qtilde: bool | None = None
    slacks: dict = field(default_factory=dict)


def _clamped_arcsin(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    excess = float(np.max(np.abs(v)) - 1.0)
    if excess > CLAMP_TOL:
        raise ValidationError([Violation("correlator_range", excess)])
    return np.arcsin(np.clip(v, -1.0, 1.0))


def _arcsin_margin(ab: np.ndarray) -> np.ndarray:
    """max_xy |sum arcsin(C) - 2 arcsin(C[x,y])| for stacked (..., 2, 2) correlators."""
    return _s_max_ab(np.arcsin(np.clip(ab, -1.0, 1.0)))


def _verdict(ok: bool, slack: float) -> tuple[bool, float]:
    """A verdict and its slack, which reads 0 where a passing behavior violates by less than the tolerance."""
    return bool(ok), (max(slack, 0.0) if ok else slack)


def _arcsin_verdict(margin) -> tuple[bool, float]:
    """Pass if ``margin(k)``, the arcsin margin at noise scale k, is <= pi at ``_MIXED``; slack at k = 1."""
    return _verdict(margin(_MIXED) <= np.pi, float(np.pi - margin(1.0)))


def is_local(p: Behavior) -> tuple[bool, float]:
    """Whether S <= 2 within ``_TEST_TOL``; slack is 2 - S."""
    slack = 2.0 - s_max(p)
    return _verdict(slack >= -_TEST_TOL, slack)


def qtilde_test(p: Behavior) -> tuple[bool, float]:
    """Necessary arcsin condition for quantumness; slack is pi minus the worst expression.

    On the correlation space (unbiased marginals) the condition is also
    sufficient, so there it decides exact quantum membership.
    """
    c = p.correlators()
    _clamped_arcsin(c.ab)
    return _arcsin_verdict(lambda k: _arcsin_margin(k * c.ab))


def npa1_test(p: Behavior) -> tuple[bool, float]:
    """First level of the NPA hierarchy for the 2x2 scenario.

    With any marginal at +-1 the criterion is satisfied outright; otherwise
    the arcsin condition is applied to the normalized covariances
    (C[x,y] - <A_x><B_y>) / sqrt((1 - <A_x>^2)(1 - <B_y>^2)).
    """
    c = p.correlators()
    if np.max(np.abs(c.a)) >= 1.0 - DEGENERATE_EPS or np.max(np.abs(c.b)) >= 1.0 - DEGENERATE_EPS:
        return True, float(np.pi)
    return _arcsin_verdict(lambda k: _arcsin_margin(normalized_covariance(k * c.a, k * c.b, k * c.ab)))


def normalized_covariance(a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """(C - <A><B>) / sqrt((1-<A>^2)(1-<B>^2)), clamped to [-1, 1]; batched."""
    denom = np.sqrt((1.0 - a[..., :, None] ** 2) * (1.0 - b[..., None, :] ** 2))
    f = (ab - a[..., :, None] * b[..., None, :]) / denom
    return np.clip(f, -1.0, 1.0)


def report(table_or_behavior) -> MembershipReport:
    """Run every membership test; enforces local => NPA-1 => arcsin relaxation.

    Accepts a raw 16-entry table or a Behavior.  Invalid input yields
    ``ns_valid=False`` with the remaining verdicts absent.
    """
    if isinstance(table_or_behavior, Behavior):
        p = table_or_behavior
    else:
        try:
            p = validate(table_or_behavior, tol=EXTERNAL_TOL)
        except ValidationError:
            return MembershipReport(ns_valid=False)
    local, s_local = is_local(p)
    npa1, s_npa1 = npa1_test(p)
    qtilde, s_qtilde = qtilde_test(p)
    if (local and not npa1) or (npa1 and not qtilde):
        raise MembershipInconsistencyError(
            f"implication chain violated: local={local} npa1={npa1} qtilde={qtilde} "
            f"(slacks {s_local:.3g}, {s_npa1:.3g}, {s_qtilde:.3g})"
        )
    return MembershipReport(
        ns_valid=True,
        local=local,
        npa1=npa1,
        qtilde=qtilde,
        slacks={"local": s_local, "npa1": s_npa1, "qtilde": s_qtilde},
    )


def report_to_json_dict(r: MembershipReport) -> dict:
    doc: dict = {"ns_valid": r.ns_valid}
    if r.ns_valid:
        doc.update(local=r.local, npa1=r.npa1, qtilde=r.qtilde, slacks=dict(r.slacks))
    return doc

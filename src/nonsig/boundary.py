"""Numerical boundary scans: extremal mutual information at fixed CHSH score.

The optimizer works in correlator space, where normalization and the
non-signaling marginals hold identically.  For a target score s it fixes the
canonical CHSH expression to s by parametrizing that affine subspace
directly, keeps the other seven signed expressions at or below s (so the
relabeling-maximized score is exactly s), and enforces the 16 positivity
facets through a quadratic penalty with geometric growth.  The entropy kink
at p = 0 is softened on a schedule so iterates can slide along positivity
facets, and every reported value is re-evaluated exactly after an exact
feasibility repair.

The penalty subproblems are solved on the starts of many grid points at
once as one batched array program, by one inner solver on every stage:
Levenberg-Marquardt-damped Newton with Armijo backtracking, its Hessian one
product of per-row weights with the constant outer products of the kernel's
rows.  A row whose damped step is no descent direction steps the other
way, along negative curvature.  It keeps the rows still working compacted,
and the backtracking trials of all rows that need them share kernel calls,
each capped at ``_BLOCK_ROWS`` rows like the blocks themselves; only that
cap lets a row depend on its block (``_penalty``).  Each row stops by its own
rules: at ``_NEWTON_GTOL``, which makes it ``converged`` after the last
stage, at a step below the rounding of z, or after ``_NEWTON_ITERS``
iterations.  ``_finish`` alone builds each point's ``ScanPoint`` from its
best exactly evaluated row, with that row's flag.

Every kind starts each point at a known witness and runs only the Newton
tail from it (``curves.witness_vectors``): NS and SYM MIN at the least-I
point of a two-parameter family of behaviors (both marginals a = (a0, a1)
and C = a a^T + t sigma, a closed form in the score, ``_family_min``; the
curve ``ns_min``), NS and SYM MAX at ``ns_max``, C MIN at the isotropic
point ``c_min``, C MAX at the best slice vertex ``c_max`` and, under the
arcsin cap, at ``qc_max`` from S = 2 on.  On every kind, random restarts
audit the witness on every ``_AUDIT_EVERY``-th grid point (``_solve_points``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import curves
from .behavior import (
    CHSH_SLOT_SIGNS,
    BehaviorError,
    Correlators,
    OUTCOME_VALUES,
    _tables_from_correlators,
)
from .functionals import TSIRELSON, _info, _s_max_ab

#: Probability floor used inside entropy *gradients* only; values use exact 0 log 0 = 0.
GRAD_FLOOR = 1e-12

#: Penalty weights by stage; every stage runs ``_newton``, capped at
#: ``_NEWTON_ITERS`` iterations and done at ``_NEWTON_GTOL``.
_MU_SCHEDULE = (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
_NEWTON_ITERS = 30
_NEWTON_GTOL = 1e-9
#: Least Levenberg-Marquardt damping of a Newton step, relative to the Hessian's scale.
_DAMPING_FLOOR = 1e-12
#: Softening width of the entropy kink at p = 0, by stage.  The subproblems
#: stay smooth while iterates slide along positivity facets; the final stages
#: approach the exact kinked objective and the reported values are always
#: re-evaluated exactly.
_EPS_SCHEDULE = (1e-2, 3e-3, 1e-3, 1e-4, 1e-6, 1e-9)

_LOG2E = 1.0 / np.log(2.0)


class FeasibleSet(Enum):
    NS = "ns"
    SYM = "sym"
    C = "c"


class ScanMode(Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class ScanConfig:
    """Grid scan configuration; ``qtilde_cap`` adds the four arcsin facets.

    ``restarts`` is the number of random starts per audited point, which run
    next to the witness start on every ``_AUDIT_EVERY``-th grid point (see
    ``_solve_points``).
    """

    set: FeasibleSet
    mode: ScanMode
    s_lo: float
    s_hi: float
    grid_points: int
    restarts: int = 50
    seed: int = 0
    qtilde_cap: bool = False

    def __post_init__(self):
        if not self.s_lo < self.s_hi:
            raise BehaviorError("scan needs s_lo < s_hi")
        if self.grid_points < 2:
            raise BehaviorError("scan needs at least 2 grid points")
        _check_request(self.restarts, self.seed, self.qtilde_cap, self.s_lo, self.s_hi)


@dataclass(frozen=True)
class ScanPoint:
    """One boundary point: the extremal I at score s, its argopt and whether the solve converged."""

    s: float
    i: float
    argopt: Correlators
    converged: bool


@dataclass(frozen=True)
class BoundaryCurve:
    points: tuple[ScanPoint, ...]
    set: FeasibleSet

    @property
    def s(self) -> np.ndarray:
        return np.array([p.s for p in self.points])

    @property
    def i(self) -> np.ndarray:
        return np.array([p.i for p in self.points])

    def argopt_vectors(self) -> np.ndarray:
        return np.array([p.argopt.vector() for p in self.points])


def _check_request(restarts: int, seed: int, qtilde_cap: bool, *scores: float) -> None:
    """Reject fewer than one restart, a negative seed, or a score outside the set's range."""
    if restarts < 1:
        raise BehaviorError("need at least one restart")
    if seed < 0:
        raise BehaviorError(f"seed must be >= 0, got {seed}")
    hi = TSIRELSON if qtilde_cap else 4.0
    for s in scores:
        if not -1e-12 <= s <= hi + 1e-12:
            raise BehaviorError(f"S = {s} is infeasible for this set (range [0, {hi}])")


# ---------------------------------------------------------------------------
# problem geometry


def _embedding(set_: FeasibleSet) -> np.ndarray:
    """Map from free coordinates to the full 8-vector [A0,A1,B0,B1,C00,C01,C10,C11]."""
    if set_ is FeasibleSet.NS:
        return np.eye(8)
    if set_ is FeasibleSet.SYM:
        e = np.zeros((8, 5))
        e[0, 0] = e[2, 0] = 1.0  # A0 = B0
        e[1, 1] = e[3, 1] = 1.0  # A1 = B1
        e[4, 2] = 1.0            # C00
        e[5, 3] = e[6, 3] = 1.0  # C01 = C10
        e[7, 4] = 1.0            # C11
        return e
    e = np.zeros((8, 4))
    e[4:, :] = np.eye(4)
    return e


_SLOT_W = np.zeros((8, 8))
_SLOT_W[:, 4:] = CHSH_SLOT_SIGNS.reshape(8, 4)


#: Correlator anchor per unit score: the isotropic PR mixture at CHSH score s is s * _ANCHOR_DIR.
_ANCHOR_DIR = np.array([0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, -0.25])


#: The quantities the solver reads, one row each: p(a|x), p(b|y) and the joint
#: probabilities (the entropy rows), the 7 dominance slacks s - (slot k
#: expression) (with the joint probabilities, the facets kept >= 0), and the 8
#: correlators, whose last 4 are the C_xy of the arcsin cap.
_PA, _PB, _P16, _ENT = slice(0, 4), slice(4, 8), slice(8, 24), slice(0, 24)
_FACETS, _DOM, _X, _C4 = slice(8, 31), slice(24, 31), slice(31, 39), slice(35, 39)


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
#: I = _ENT_W @ (p log2 p) over the entropy rows: the one I formula read off on unit rows.
_E24 = np.eye(24)
_ENT_W = _info(_E24[:, _P16], _E24[:, _PA].reshape(-1, 2, 2), _E24[:, _PB].reshape(-1, 2, 2), plogp=lambda h: h)
_LOG2_FLOOR = np.log2(GRAD_FLOOR)


@dataclass(frozen=True)
class _Geometry:
    """What the feasible set and mode fix at every score.

    z-coordinates span the hyperplane of fixed canonical score.  Every
    quantity the solver reads is affine in z, ``map @ z`` plus offsets that
    are affine in the score; ``map`` does not depend on the score.
    """

    set: FeasibleSet
    mode: ScanMode
    qtilde_cap: bool
    map: np.ndarray   # (39, d-1)
    outer: np.ndarray  # (39, (d-1)^2) outer products of the rows of map
    zmap: np.ndarray  # (8, d-1) least-squares z of a correlator displacement
    sigma: float      # +1 minimizes I, -1 maximizes

    def at(self, s) -> _Job:
        """One job row per score in ``s``."""
        s = np.asarray(s, dtype=float)
        return _Job(geo=self, s=s, off=_Q0[:, None] + np.outer(_Q_PER_S, s))


@dataclass(frozen=True)
class _Job:
    """Solver rows of one geometry, each at its own score.

    The offsets are the quantities at the anchor (z = 0), affine in s.  Rows
    never interact, so any rows of any scores can share one kernel call; a
    job with a single row broadcasts over a whole batch of iterates.
    """

    geo: _Geometry
    s: np.ndarray    # (r,)
    off: np.ndarray  # (39, r)

    def take(self, rows) -> _Job:
        return _Job(geo=self.geo, s=self.s[rows], off=self.off[:, rows])


def _geometry(set_: FeasibleSet, mode: ScanMode, qtilde_cap: bool) -> _Geometry:
    if qtilde_cap and set_ is not FeasibleSet.C:
        raise BehaviorError("the arcsin cap is implemented on the correlation space only")
    emb = _embedding(set_)
    null = _null_basis_rows((emb.T @ _SLOT_W[0])[None, :])
    qmap = _QX @ (emb @ null)
    return _Geometry(
        set=set_,
        mode=mode,
        qtilde_cap=qtilde_cap,
        map=qmap,
        outer=(qmap[:, :, None] * qmap[:, None, :]).reshape(len(qmap), -1),
        zmap=np.linalg.pinv(emb).T @ null,
        sigma=1.0 if mode is ScanMode.MIN else -1.0,
    )


# ---------------------------------------------------------------------------
# objective and penalty


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """The entropy rows (..., 24) of batched correlator 8-vectors."""
    return _Q0[_ENT] + x @ _QX[_ENT].T


def _rows_probs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 16 joint probabilities (..., 16), ordered (x, y, a, b), and the marginal
    tables p(a|x), p(b|y), (..., 2, 2), of batched quantities q (..., >= 24)."""
    lead = q.shape[:-1]
    return q[..., _P16], q[..., _PA].reshape(*lead, 2, 2), q[..., _PB].reshape(*lead, 2, 2)


def _probs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_rows_probs`` of batched correlator 8-vectors."""
    return _rows_probs(_entropy_rows(x))


def _info_from_x(x: np.ndarray) -> np.ndarray:
    """Mutual information for batched correlator 8-vectors (exact value)."""
    return _info(*_probs(x))


def _entropy_slope(p: np.ndarray) -> np.ndarray:
    """d(p log2 p)/dp, consistent with the clipped value: zero where p <= 0,
    log floored at GRAD_FLOOR on the feasible side."""
    return np.where(p > 0.0, np.log2(np.clip(p, GRAD_FLOOR, None)) + _LOG2E, 0.0)


def info_gradient(x) -> np.ndarray:
    """Analytic gradient of the mutual information with respect to the 8 correlators.

    Matches central finite differences at interior points; probabilities are
    floored at ``GRAD_FLOOR`` inside the logarithms.
    """
    x = np.asarray(x, dtype=float)
    grad = (_ENT_W * _entropy_slope(_entropy_rows(np.atleast_2d(x)))) @ _QX[_ENT]
    return grad[0] if x.ndim == 1 else grad


def _qtilde_exprs(c4: np.ndarray, axis: int = -1) -> np.ndarray:
    t = np.arcsin(np.clip(c4, -1.0, 1.0))
    return t.sum(axis=axis, keepdims=True) - 2.0 * t


#: d e_k / d t_j of the four cap expressions e_k = sum_j t_j - 2 t_k.
_CAP_COEFF = 1.0 - 2.0 * np.eye(4)


def _arcsin_slope(c4: np.ndarray) -> np.ndarray:
    # consistent with the clipped arcsin: flat outside the cube
    inside = np.abs(c4) < 1.0
    return np.where(inside, 1.0 / np.sqrt(np.clip(1.0 - c4**2, 1e-12, None)), 0.0)


def _penalty(
    geo: _Geometry, off: np.ndarray, z: np.ndarray, mu: float, eps: float, grad: bool = True, hess: bool = False
):
    """Softened, penalized objective of rows z at offsets ``off`` (39, r) and, if ``grad``,
    its z-gradient: one product in, p log2 p rounded over a width ~eps at p = 0
    (as q log2 q, q = (p + sqrt(p^2 + eps^2)) / 2), and one product back.

    With ``hess`` it also returns the z-Hessians (r, d, d): per-row weights on
    the quantity rows times their outer products ``geo.outer``, one product,
    plus, under the arcsin cap, the Gauss-Newton term of the cap penalty.  The
    arcsin curvature weighted by the cap's multipliers sits on the correlator
    rows, so the capped Hessian is exact too: without it the Hessian misses
    the facet's own curvature and turns indefinite along the curved facet.

    A row rounds alike whichever rows share its call: the sums over quantity
    rows are einsums, and a lone row runs as two, as BLAS rounds gemv unlike gemm.
    """
    n = len(z)
    if n == 1:
        off, z = np.repeat(off, 2, axis=1), np.repeat(z, 2, axis=0)
    m = geo.map[: _X.stop if geo.qtilde_cap else _FACETS.stop]
    y = m @ z.T
    y += off[: len(m)]
    p = y[_ENT]
    root = np.sqrt(p * p + eps * eps)
    q = root + p
    q *= 0.5
    lg = np.log2(q + 1e-300)
    viol = np.minimum(y[_FACETS], 0.0)
    f = geo.sigma * np.einsum("i,ij->j", _ENT_W, q * lg) + mu * np.einsum("ij,ij->j", viol, viol)
    if geo.qtilde_cap:
        e = _qtilde_exprs(y[_C4], axis=0)
        up = np.maximum(e - np.pi, 0.0)
        dn = np.maximum(-e - np.pi, 0.0)
        f += mu * (up**2 + dn**2).sum(axis=0)
    if not grad:
        return f[:n]

    if hess:
        # d2(q log2 q)/dp2 = q / (ln 2 root^2) + (log2 q + 1/ln 2) eps^2 / (2 root^3), the
        # derivative of the floored slope below
        w = np.zeros_like(y)
        curv = np.where(lg > _LOG2_FLOOR, q * _LOG2E, 0.0)
        curv += (np.maximum(lg, _LOG2_FLOOR) + _LOG2E) * (0.5 * eps * eps / root)
        curv /= root * root
        w[_ENT] = (geo.sigma * _ENT_W)[:, None] * curv
    g = np.zeros_like(y)
    # d(q log2 q)/dp = (log2 q + 1/ln 2) (1 + p/root) / 2, log2 q floored at log2(GRAD_FLOOR)
    ent = np.maximum(lg, _LOG2_FLOOR, out=g[_ENT])
    ent += _LOG2E
    dq = np.divide(p, root, out=root)
    dq += 1.0
    dq *= 0.5 * geo.sigma * _ENT_W[:, None]
    ent *= dq
    g[_FACETS] += (2.0 * mu) * viol
    if geo.qtilde_cap:
        u = up - dn
        slope = _arcsin_slope(y[_C4])
        g[_C4] = (2.0 * mu) * (u.sum(axis=0, keepdims=True) - 2.0 * u) * slope
    if not hess:
        return f[:n], (g.T @ m)[:n]
    w[_FACETS] += (2.0 * mu) * (viol < 0.0)
    d = z.shape[1]
    if geo.qtilde_cap:
        # arcsin'' = c arcsin'^3 on the correlator rows, times the multipliers of the gradient
        w[_C4] = g[_C4] * y[_C4] * slope * slope
        # d e_k / dz = sum_j (1 - 2 [j = k]) arcsin'(c_j) map_j over the four cap expressions
        jac = np.einsum("kj,jr,jd->rkd", _CAP_COEFF, slope, m[_C4])
        jac *= np.sqrt(2.0 * mu) * (u != 0.0).T[:, :, None]
        return f[:n], (g.T @ m)[:n], ((w.T @ geo.outer).reshape(-1, d, d) + np.einsum("rki,rkj->rij", jac, jac))[:n]
    return f[:n], (g.T @ m)[:n], (w.T @ geo.outer[: _FACETS.stop]).reshape(-1, d, d)[:n]


# ---------------------------------------------------------------------------
# inner solver


def _retire(
    keep: np.ndarray, act: np.ndarray, full: tuple, part: tuple, off: np.ndarray
) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Write the active rows that do not ``keep`` back into ``full``; return the
    kept rows' indices, their compacted ``part`` arrays and offsets.

    ``part`` holds the active rows of each piece of state, its first
    ``len(full)`` entries those of the matching ``full`` arrays; ``off`` holds
    their offsets (39, active).
    """
    if keep.all():
        return act, part, off
    gone = ~keep
    for whole, rows in zip(full, part):
        whole[act[gone]] = rows[gone]
    return act[keep], tuple(rows[keep] for rows in part), off[:, keep]


def _rounding(f: np.ndarray) -> np.ndarray:
    """The rounding of penalty and information values f."""
    return 4e-15 * (1.0 + np.abs(f))


def _newton(job: _Job, z: np.ndarray, mu: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt-damped Newton with Armijo backtracking on the penalty,
    batched over rows.

    Each iteration solves (H + lam I) step = -grad for every active row in one
    batched call, then tries the full step of every row in one kernel call and
    up to ``_TRIAL_BATCH`` halvings of the rows that fail it in one more.  The
    line search forgives increases within the value's rounding, so the last
    steps, whose gains f cannot resolve, still go through.  A step with
    grad . step >= 0 has curvature below -lam along it, as step . (H + lam I)
    step = -grad . step; the row is near a saddle and takes the reversed step,
    a descent direction of negative curvature (More and Sorensen 1979).  The
    damping lam eases tenfold after a full step and tightens tenfold after a
    failed search; after a reversed step it also jumps past twice that
    curvature.  Its floor is ``_DAMPING_FLOOR`` times one plus the row's
    largest Hessian diagonal.

    A row is done when its gradient norm is at most ``_NEWTON_GTOL``
    (converged) or when it can no longer progress: its step is below the
    rounding of z.  Returns the iterates, those of ``z`` updated in place, and
    the converged flags.
    """
    geo = job.geo
    d = z.shape[1]
    f, g, h = _penalty(geo, job.off, z, mu, eps, hess=True)
    full = (z, g)
    act = np.arange(z.shape[0])
    za, ga, fa, ha, offa = z.copy(), g.copy(), f, h, job.off
    lam = np.zeros(z.shape[0])
    live = np.ones(z.shape[0], dtype=bool)
    eye = np.eye(d)
    for _ in range(_NEWTON_ITERS):
        keep = live & ((ga * ga).sum(axis=1) > _NEWTON_GTOL**2)
        act, (za, ga, fa, ha, lam, live), offa = _retire(keep, act, full, (za, ga, fa, ha, lam, live), offa)
        if not act.size:
            break
        lam = np.maximum(lam, _DAMPING_FLOOR * (1.0 + np.abs(np.diagonal(ha, axis1=1, axis2=2)).max(axis=1)))
        step = np.linalg.solve(ha + lam[:, None, None] * eye, -ga[:, :, None])[:, :, 0]
        slope = (ga * step).sum(axis=1)
        uphill = slope >= 0.0
        step[uphill] *= -1.0
        slope[uphill] *= -1.0
        slack = _rounding(fa)
        t = np.zeros(act.size)  # the accepted step length, 0 for none
        trial = slope < 0.0
        for lengths in (np.ones(1), np.ldexp(1.0, -1 - np.arange(_TRIAL_BATCH))):
            rows = np.flatnonzero(trial)
            if not rows.size:
                break
            lengths = lengths[: max(1, _BLOCK_ROWS // rows.size)]
            cand = za[rows, None] + lengths[:, None] * step[rows, None]
            off = np.repeat(offa[:, rows], len(lengths), axis=1)
            fc = _penalty(geo, off, cand.reshape(-1, d), mu, eps, grad=False).reshape(len(rows), -1)
            ok = fc <= fa[rows, None] + 1e-4 * lengths * slope[rows, None] + slack[rows, None]
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            rows = rows[hit]
            t[rows], fa[rows] = lengths[first], fc[hit, first]
            trial[rows] = False
        moved = t > 0.0
        # a step below the rounding of z, taken or proposed, ends the row
        size = np.abs(step).max(axis=1) * np.where(moved, t, 1.0)
        live = size > 1e-15 * (1.0 + np.abs(za).max(axis=1))
        curv = np.einsum("ri,rij,rj->r", step, ha, step) / np.maximum((step * step).sum(axis=1), 1e-300)
        lam = np.where(t == 1.0, 0.1 * lam, np.where(moved, lam, 10.0 * lam))
        lam = np.where(uphill, np.maximum(lam, -2.0 * curv), lam)
        if moved.any():
            za = za + t[:, None] * step
            rows = np.flatnonzero(moved)
            if rows.size == act.size:
                _, ga, ha = _penalty(geo, offa, za, mu, eps, hess=True)
            else:
                _, ga[rows], ha[rows] = _penalty(geo, offa[:, rows], za[rows], mu, eps, hess=True)
    _retire(np.zeros(act.size, dtype=bool), act, full, (za, ga), offa)
    return z, (g * g).sum(axis=1) <= _NEWTON_GTOL**2


def _solve(job: _Job, z0: np.ndarray, outers: int = len(_MU_SCHEDULE)) -> tuple[np.ndarray, np.ndarray]:
    """Run the last ``outers`` stages of the penalty schedule through ``_newton``
    from stacked starts: row k starts at ``z0[k]`` and solves at score
    ``job.s[k]``.  Returns the solved iterates and their last stage's flags."""
    z = np.array(z0, dtype=float)
    for mu, eps in zip(_MU_SCHEDULE[-outers:], _EPS_SCHEDULE[-outers:]):
        z, met = _newton(job, z, mu, eps)
    return z, met


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

    The formula runs in ``np.longdouble`` (extended precision where the
    platform has it) so that a is rounded once: near s = 2.05 each ulp of a
    moves the gradient of I in a by ~1e-12.
    """
    x = np.asarray(s, dtype=np.longdouble)
    w = np.sqrt((x - 2.0) * (x + 2.0))
    a0 = np.sqrt((2.0 - w) * (x + w) / (2.0 * x))
    a = np.stack([a0, 2.0 * a0 / (x + w)], axis=-1).astype(float)
    return _info(*_rows_probs(_family_rows(s, a))), a


def _family_vectors(s) -> np.ndarray:
    """Correlator vectors (n, 8) of the family's least-I points at scores s (n,), clipped into [0, 4].

    On [0, 2] the t = 0 member, a product behavior; on (2, 2 sqrt 2)
    ``_family_min``; from 2 sqrt 2 on, a = 0, the isotropic PR mixture.
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, 4.0)
    a = np.zeros((len(s), 2))
    low = s <= 1.0
    a[low, 0] = np.sqrt(s[low])
    mid = (s > 1.0) & (s <= 2.0)
    a[mid] = np.stack([np.ones(mid.sum()), 1.0 - np.sqrt(2.0 - s[mid])], axis=-1)
    mid = (s > 2.0) & (s < TSIRELSON)
    a[mid] = _family_min(s[mid])[1]
    return s[:, None] * _ANCHOR_DIR + a @ _FAMILY_LIN.T + np.einsum("juv,nu,nv->nj", _FAMILY_QUAD, a, a)


def _isotropic_eig(s: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue (n,) of I's Hessian in a at the family's isotropic point a = 0, scores s (n,)."""
    a = np.zeros((len(s), 2))
    h = _family_derivs(_family_rows(s, a), a)[1]
    return 0.5 * (h[:, 0, 0] + h[:, 1, 1]) - np.hypot(0.5 * (h[:, 0, 0] - h[:, 1, 1]), h[:, 0, 1])


def _isotropic_eig_root() -> tuple[float, list[int]]:
    """Where a = 0 stops being a minimum of the family: the root in s of
    ``_isotropic_eig``, and the eigenvalue's signs at the bracket's ends 2.5 and 3.1.

    The eigenvalue is c (c - 1/sqrt 2) / (ln 2 (1 - c^2)) with c = s / 4, so
    the root is the Tsirelson bound 2 sqrt 2, found here from I alone.  Each
    round evaluates 65 scores across the bracket and keeps the cell where the
    sign turns, until the bracket is two adjacent floats.
    """
    lo, hi, signs = 2.5, 3.1, []
    while np.nextafter(lo, hi) < hi:
        grid = np.linspace(lo, hi, 65)
        eig = _isotropic_eig(grid)
        signs = signs or [int(np.sign(eig[0])), int(np.sign(eig[-1]))]
        k = np.argmax(eig >= 0.0)
        lo, hi = grid[k - 1], grid[k]
    return float(hi), signs


# ---------------------------------------------------------------------------
# feasibility: starts and repair


def _x_from_z(job: _Job, z: np.ndarray) -> np.ndarray:
    return job.off[_X].T + z @ job.geo.map[_X].T


#: Most a repaired point's score may exceed s by: the rounding of its dominance slacks.
_SCORE_ROUNDING = 1e-15


def _shrink_lambda(job: _Job, z: np.ndarray) -> np.ndarray:
    """Largest scaling of z (toward the anchor at z = 0) keeping the linear facets.

    Slacks are affine in z, so the bound is exact.  A dominance slack short
    by at most ``_SCORE_ROUNDING`` counts as met: near s = 0 the anchor's
    dominance slacks are ~s, and shrinking off such a violation would lift
    probabilities at 0, where I has infinite slope, by ~1e-16 / s.
    """
    slack_move = z @ job.geo.map[_FACETS].T  # (r, 23), slack(lam*z) = off + lam*slack_move
    off = job.off[_FACETS].T
    short = slack_move < -1e-13
    dom = slice(_DOM.start - _FACETS.start, None)  # the dominance facets among the facets
    short[:, dom] &= (off + slack_move)[:, dom] < -_SCORE_ROUNDING
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam_j = np.where(short, off / (-slack_move), np.inf)
    lam = np.minimum(1.0, lam_j.min(axis=-1))
    return np.clip(lam, 0.0, 1.0)


def _project_active(job: _Job, z: np.ndarray) -> np.ndarray:
    """Cyclic projection onto the facets the anchor sits on, or within 1e-12 of.

    Where the anchor slack is zero, shrinking toward it cannot repair a
    violation; the violating component must be projected out instead (this
    happens at the edges of the score range, where the anchor is extremal).
    Each facet keeps its own slack, so a point that meets them stays put.
    """
    az, off = job.geo.map[_FACETS], job.off[_FACETS].T
    norms2 = (az * az).sum(axis=1)
    facets = (off <= 1e-12) & (norms2 > 1e-20)
    if not facets.any():
        return z
    for _ in range(12):
        viol = np.where(facets, off + z @ az.T, np.inf)
        if viol.min() >= -1e-14:
            break
        jmin = viol.argmin(axis=1)
        amount = np.maximum(-viol[np.arange(len(z)), jmin], 0.0) / norms2[jmin]
        z = z + amount[:, None] * az[jmin]
    return z


def _qtilde_lambda(job: _Job, z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Shrink further until the arcsin facets hold, up to the rounding of an
    arcsin sum near pi (~9 ulps of pi); bisection on the scaling."""

    def holds(l: np.ndarray) -> np.ndarray:
        x = _x_from_z(job, l[:, None] * z)
        return np.abs(_qtilde_exprs(x[:, 4:])).max(axis=-1) <= np.pi + 4e-15

    ok = holds(lam)
    lo = np.where(ok, lam, 0.0)
    hi = lam.copy()
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        good = holds(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return np.where(ok, lam, lo)


def _feasible_z(job: _Job, z: np.ndarray) -> np.ndarray:
    """Pull iterates back inside the feasible set, exactly, preserving the score."""
    z = _project_active(job, z)
    lam = _shrink_lambda(job, z)
    if job.geo.qtilde_cap:
        lam = _qtilde_lambda(job, z, lam)
    return lam[:, None] * z


def _repair(job: _Job, z: np.ndarray) -> np.ndarray:
    return _x_from_z(job, _feasible_z(job, z))


# The start builders below take a single-row job: one grid point.


def _starts(point: _Job, n: int, rng: np.random.Generator) -> np.ndarray:
    """Spread starts inside the feasible slice: random directions from the
    anchor, stepped a random fraction of the distance to the nearest facet."""
    af = point.geo.map[_FACETS]
    ca = point.off[_FACETS, 0]
    u = rng.standard_normal((n, af.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    active = ca <= 1e-12
    if active.any():
        # anchor sits on a facet (score at the edge of its range); sample
        # inside the tangent cone instead of bouncing off immediately
        basis = _null_basis_rows(af[active])
        u = u @ basis @ basis.T if basis.shape[1] else np.zeros_like(u)
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        u = np.divide(u, norms, out=np.zeros_like(u), where=norms > 1e-12)
    slope = u @ af.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_j = np.where(slope < -1e-12, ca / (-slope), np.inf)
    t_max = np.minimum(t_j.min(axis=-1), 8.0)
    beta = rng.uniform(0.2, 0.95, size=n)
    z0 = (beta * t_max)[:, None] * u
    if point.geo.qtilde_cap:
        lam = _qtilde_lambda(point, z0, np.ones(n))
        z0 *= lam[:, None]
    return z0


def _null_basis_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the joint null space of the given row vectors."""
    _, sv, vt = np.linalg.svd(rows)
    rank = int((sv > 1e-10).sum())
    return vt[rank:].T


def _z_from_vector(points: _Job, vec8: np.ndarray) -> np.ndarray:
    """Project 8-correlator vectors, one per row of ``points`` (or one vector
    for a one-row job), into feasible z starts of those rows."""
    return _feasible_z(points, (vec8 - points.off[_X].T) @ points.geo.zmap)


# ---------------------------------------------------------------------------
# solving blocks of points

#: Most solver rows (grid points x starts) that share one kernel call, and
#: most rows of one batched line-search call unless its first trial alone has
#: more.  Large enough to amortize numpy's per-call overhead over many rows;
#: minor page faults per call were observed to jump from about 384 rows on,
#: and fig6_scan ran 8-9% slower in the median at 384 than at 256.
_BLOCK_ROWS = 256
#: Most backtracking trials (step halvings) of one row in one kernel call.
_TRIAL_BATCH = 8
#: The Newton tail, the two stiffest stages: all that witness starts run.
_TAIL_STAGES = 2
#: Every ``_AUDIT_EVERY``-th point of a grid, from its first, also runs its random starts.
_AUDIT_EVERY = 10


def _finish(
    points: _Job, owner: np.ndarray, z0: np.ndarray, z: np.ndarray, met: np.ndarray
) -> list[ScanPoint]:
    """Repair all rows, evaluate exactly, return each point's best row as its ``ScanPoint``.

    A point's untouched starts compete with its solved rows (a start can beat
    its own descendant when the softened early stages walk off an exact
    corner optimum), but a raw start wins only by more than the value's
    rounding, so it never displaces a converged descendant on rounding
    alone, and it never counts as converged.  Ties go to the earlier row.
    """
    row_point = np.concatenate([owner, owner])
    x = _repair(points.take(row_point), np.concatenate([z, z0]))
    vals = _info_from_x(x)
    key = points.geo.sigma * vals
    key[len(z) :] += _rounding(vals[len(z) :])
    order = np.lexsort((key, row_point))
    best = order[np.searchsorted(row_point[order], np.arange(len(points.s)))]
    met = np.concatenate([met, np.zeros(len(z0), dtype=bool)])
    return [
        ScanPoint(s=float(s), i=float(vals[k]), argopt=Correlators.from_vector(x[k]), converged=bool(met[k]))
        for s, k in zip(points.s, best)
    ]


def _solve_grid(points: _Job, starts: list[np.ndarray], outers: int = len(_MU_SCHEDULE)) -> list[ScanPoint]:
    """Solve each point from its own starts over the last ``outers`` stages,
    consecutive points in blocks of about ``_BLOCK_ROWS`` rows: a block takes
    the points whose first row falls in its stretch of rows."""
    block = np.cumsum([0] + [len(z) for z in starts[:-1]]) // _BLOCK_ROWS  # of each point's first row
    out = []
    for ks in np.split(np.arange(len(starts)), np.flatnonzero(np.diff(block)) + 1):
        owner = np.repeat(np.arange(len(ks)), [len(starts[k]) for k in ks])
        z0 = np.concatenate([starts[k] for k in ks])
        z, met = _solve(points.take(ks[owner]), z0, outers=outers)
        out += _finish(points.take(ks), owner, z0, z, met)
    return out


#: The curves whose witnesses start each kind's points, each on its own domain,
#: a later curve taking over from an earlier one inside its domain.
_WITNESS_CURVES = {
    (FeasibleSet.NS, ScanMode.MIN, False): ("ns_min",),
    (FeasibleSet.SYM, ScanMode.MIN, False): ("ns_min",),
    (FeasibleSet.C, ScanMode.MIN, False): ("c_min",),
    (FeasibleSet.C, ScanMode.MIN, True): ("c_min",),
    (FeasibleSet.NS, ScanMode.MAX, False): ("ns_max",),
    (FeasibleSet.SYM, ScanMode.MAX, False): ("ns_max",),
    (FeasibleSet.C, ScanMode.MAX, False): ("c_max",),
    (FeasibleSet.C, ScanMode.MAX, True): ("c_max", "qc_max"),
}


def _solve_points(points: _Job, restarts: int, seeds: list) -> list[ScanPoint]:
    """Solve every point of ``points``; point k draws its random starts from
    ``default_rng(seeds[k])``.

    Each point starts at the witness that its kind's curves give at its
    score (``_WITNESS_CURVES``), which only the Newton tail solves, all points
    in one ``_solve_grid`` call; the tail doubles as the start's KKT check.  The
    ``restarts`` random starts are an audit of the witness, one rule for
    every set, mode and cap: they run the full schedule on every
    ``_AUDIT_EVERY``-th grid index and on no other point.  A random result
    replaces the witness's only if it is strictly better (below the witness
    curve on MIN, above it on MAX), and keeps the witness's converged flag if
    that was set.
    """
    geo = points.geo
    x = np.empty((len(points.s), 8))
    for curve in _WITNESS_CURVES[geo.set, geo.mode, geo.qtilde_cap]:
        lo, hi = curves.CURVE_DOMAINS[curves.CurveId(curve)]
        mine = (points.s >= lo - curves._DOMAIN_SLACK) & (points.s <= hi + curves._DOMAIN_SLACK)
        x[mine] = curves.witness_vectors(curve, points.s[mine])
    z = _z_from_vector(points, x)
    vals = _solve_grid(points, list(z[:, None]), outers=_TAIL_STAGES)
    audited = np.arange(0, len(points.s), _AUDIT_EVERY)
    starts = [_starts(points.take([k]), restarts, np.random.default_rng(seeds[k])) for k in audited]
    for k, p in zip(audited, _solve_grid(points.take(audited), starts)):
        if geo.sigma * p.i < geo.sigma * vals[k].i:
            vals[k] = replace(p, converged=p.converged or vals[k].converged)
    return vals


# ---------------------------------------------------------------------------
# public entry points


def optimize_at_s(
    set_: FeasibleSet | str,
    mode: ScanMode | str,
    s: float,
    restarts: int = 50,
    seed: int = 0,
    *,
    qtilde_cap: bool = False,
) -> ScanPoint:
    """Extremize the mutual information at CHSH score exactly s.

    Multi-start local search; deterministic given ``seed``.  A query is a
    one-point grid at index 0 (see ``_solve_points``): it runs its kind's
    witness at s over the Newton tail and its ``restarts`` random starts over
    the full schedule (a query is always audited).
    """
    set_ = FeasibleSet(set_) if isinstance(set_, str) else set_
    mode = ScanMode(mode) if isinstance(mode, str) else mode
    _check_request(restarts, seed, qtilde_cap, s)
    (best,) = _solve_points(_geometry(set_, mode, qtilde_cap).at([s]), restarts, [[seed]])
    return best


def scan(config: ScanConfig) -> BoundaryCurve:
    """Solve every point of the evenly spaced grid (see ``_solve_points``).

    Each grid point draws its random starts from its own grid-index-seeded
    RNG stream; whole points are then stacked into blocks of at most
    ``_BLOCK_ROWS`` rows and solved together.  Rows never interact and each
    stops by its own rules, so a point's result does not depend on its block
    beyond rounding in shared matrix products.  Per-point failures are
    reported through ``converged=False``, never by aborting the scan.
    """
    grid = np.linspace(config.s_lo, config.s_hi, config.grid_points)
    points = _geometry(config.set, config.mode, config.qtilde_cap).at(grid)
    vals = _solve_points(points, config.restarts, [[config.seed, k] for k in range(len(grid))])
    return BoundaryCurve(points=tuple(vals), set=config.set)


def vertical_fill_check(s: float, n_samples: int = 200, *, seed: int = 0, restarts: int = 20) -> bool:
    """Verify that the vertical segment at score s is filled by behaviors.

    Mixes the minimizing and maximizing behaviors found at s (same canonical
    labeling); every mixture must keep the score at s and the sampled
    information values must cover [i_min, i_max] without gaps beyond the
    sampling resolution.
    """
    lo = optimize_at_s(FeasibleSet.NS, ScanMode.MIN, s, restarts=restarts, seed=seed)
    hi = optimize_at_s(FeasibleSet.NS, ScanMode.MAX, s, restarts=restarts, seed=seed + 1)
    lams = np.linspace(0.0, 1.0, n_samples)
    x_lo, x_hi = lo.argopt.vector(), hi.argopt.vector()
    xs = (1.0 - lams[:, None]) * x_lo + lams[:, None] * x_hi
    smax = _s_max_ab(xs[:, 4:].reshape(-1, 2, 2))
    if np.max(np.abs(smax - s)) > 1e-6:
        return False
    ivals = _info_from_x(xs)
    lo_i, hi_i = min(lo.i, hi.i), max(lo.i, hi.i)
    if ivals.min() < lo_i - 1e-6 or ivals.max() > hi_i + 1e-6:
        return False
    span = hi_i - lo_i
    if span < 1e-9:
        return True
    gap_bound = span * max(6.0, 2.0 * np.log2(n_samples)) / n_samples + 1e-9
    gaps = np.diff(np.sort(ivals))
    covered = (ivals.min() <= lo_i + gap_bound) and (ivals.max() >= hi_i - gap_bound)
    return bool(covered and gaps.max() <= gap_bound)

"""Numerical boundary scans: extremal mutual information at fixed CHSH score.

The optimizer works in correlator space, where normalization and the
non-signaling marginals hold identically.  For a target score s it fixes the
canonical CHSH expression to s by parametrizing that affine subspace
directly, keeps the other seven signed expressions at or below s (so the
relabeling-maximized score is exactly s), and enforces the 16 positivity
facets through a quadratic penalty with geometric growth.  The inner solver
is gradient descent with Armijo backtracking (spectral trial steps), run on
the restarts of many grid points at once as one batched array program; the
entropy kink at p = 0 is softened on a schedule so iterates can slide along
positivity facets, and every reported value is re-evaluated exactly after an
exact feasibility repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .behavior import (
    CHSH_SLOT_SIGNS,
    Behavior,
    BehaviorError,
    Correlators,
    OUTCOME_VALUES,
    _tables_from_correlators,
    correlator_table,
    validate,
)
from .functionals import TSIRELSON, _info, _s_max_ab

#: Probability floor used inside entropy *gradients* only; values use exact 0 log 0 = 0.
GRAD_FLOOR = 1e-12

_MU_SCHEDULE = (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
_INNER_ITERS = (60, 60, 80, 80, 100, 120)
_GTOLS = (1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7)
#: Softening width of the entropy kink at p = 0, by stage.  The subproblems
#: stay smooth while iterates slide along positivity facets; the final stages
#: approach the exact kinked objective and the reported values are always
#: re-evaluated exactly.
_EPS_SCHEDULE = (1e-2, 3e-3, 1e-3, 1e-4, 1e-6, 1e-9)
_POLISH_OUTERS = 3  # warm-started solves rerun only the stiff tail of the schedule

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
    """Grid scan configuration; ``qtilde_cap`` adds the four arcsin facets."""

    set: FeasibleSet
    mode: ScanMode
    s_lo: float
    s_hi: float
    grid_points: int
    restarts: int = 50
    tol: float = 1e-8
    seed: int = 0
    qtilde_cap: bool = False

    def __post_init__(self):
        if not self.s_lo < self.s_hi:
            raise BehaviorError("scan needs s_lo < s_hi")
        if self.grid_points < 2:
            raise BehaviorError("scan needs at least 2 grid points")
        if self.restarts < 1:
            raise BehaviorError("need at least one restart")
        _check_s_range(self.s_lo, self.qtilde_cap)
        _check_s_range(self.s_hi, self.qtilde_cap)


@dataclass(frozen=True)
class ScanPoint:
    s: float
    i: float
    argopt: Correlators
    converged: bool


@dataclass(frozen=True)
class BoundaryCurve:
    points: tuple[ScanPoint, ...]
    config: ScanConfig

    @property
    def s(self) -> np.ndarray:
        return np.array([p.s for p in self.points])

    @property
    def i(self) -> np.ndarray:
        return np.array([p.i for p in self.points])

    def argopt_vectors(self) -> np.ndarray:
        return np.array([p.argopt.vector() for p in self.points])


@dataclass(frozen=True)
class OptResult:
    i: float
    argopt: Correlators
    converged: bool


def _check_s_range(s: float, qtilde_cap: bool) -> None:
    hi = TSIRELSON if qtilde_cap else 4.0
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


#: p_j = (1 + M_j . x) / 4 for the 16 outcomes, rows ordered (x, y, a, b): the
#: tables of the 8 unit correlator vectors, shifted and scaled (exactly).  C order
#: keeps the products below on one BLAS path.
_UNIT = np.eye(8)
_POS_M = np.ascontiguousarray(
    (4.0 * _tables_from_correlators(_UNIT[:, :2], _UNIT[:, 2:4], _UNIT[:, 4:].reshape(8, 2, 2)) - 1.0)
    .reshape(8, 16).T
)
_SLOT_W = np.zeros((8, 8))
_SLOT_W[:, 4:] = CHSH_SLOT_SIGNS.reshape(8, 4)


#: Correlator anchor per unit score: the isotropic PR mixture at CHSH score s is s * _ANCHOR_DIR.
_ANCHOR_DIR = np.array([0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, -0.25])


@dataclass(frozen=True)
class _Geometry:
    """What the feasible set and mode fix at every score.

    z-coordinates span the hyperplane of fixed canonical score; the slacks
    c(z) = ca + az @ z of the 16 positivity and 7 dominance facets are affine
    in z, with a jacobian ``az`` that does not depend on the score.
    """

    set: FeasibleSet
    mode: ScanMode
    qtilde_cap: bool
    emb: np.ndarray   # (8, d)
    pinv: np.ndarray  # (d, 8)
    null: np.ndarray  # (d, d-1)
    az: np.ndarray    # (23, d-1) slack jacobian in z-coordinates
    sigma: float      # +1 minimizes I, -1 maximizes

    def at(self, s) -> _Job:
        """One job row per score in ``s``."""
        s = np.asarray(s, dtype=float)
        anchor_x = s[:, None] * _ANCHOR_DIR
        ca = np.concatenate(
            [0.25 * (1.0 + anchor_x @ _POS_M.T), s[:, None] - anchor_x @ _SLOT_W[1:].T], axis=1
        )
        return _Job(geo=self, s=s, anchor_v=anchor_x @ self.pinv.T, ca=ca)


@dataclass(frozen=True)
class _Job:
    """Solver rows of one geometry, each at its own score.

    The anchor and the anchor slacks are affine in s.  Rows never interact,
    so any rows of any scores can share one kernel call; a job with a single
    row broadcasts over a whole batch of iterates.
    """

    geo: _Geometry
    s: np.ndarray         # (r,)
    anchor_v: np.ndarray  # (r, d)
    ca: np.ndarray        # (r, 23) anchor slacks: 16 positivity then 7 dominance

    def take(self, rows) -> _Job:
        return _Job(geo=self.geo, s=self.s[rows], anchor_v=self.anchor_v[rows], ca=self.ca[rows])


def _geometry(set_: FeasibleSet, mode: ScanMode, qtilde_cap: bool) -> _Geometry:
    if qtilde_cap and set_ is not FeasibleSet.C:
        raise BehaviorError("the arcsin cap is implemented on the correlation space only")
    emb = _embedding(set_)
    null = _null_basis_rows((emb.T @ _SLOT_W[0])[None, :])
    lift = emb @ null  # (8, d-1), z -> x displacement
    return _Geometry(
        set=set_,
        mode=mode,
        qtilde_cap=qtilde_cap,
        emb=emb,
        pinv=np.linalg.pinv(emb),
        null=null,
        az=np.concatenate([0.25 * _POS_M @ lift, -_SLOT_W[1:] @ lift]),
        sigma=1.0 if mode is ScanMode.MIN else -1.0,
    )


# ---------------------------------------------------------------------------
# objective and penalty


def _probs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 16 joint probabilities (..., 16) and the marginal tables p(a|x),
    p(b|y), (..., 2, 2), of batched correlator 8-vectors."""
    p16 = 0.25 * (1.0 + x @ _POS_M.T)
    pa = 0.5 * (1.0 + x[..., :2, None] * OUTCOME_VALUES)   # (..., x, a)
    pb = 0.5 * (1.0 + x[..., 2:4, None] * OUTCOME_VALUES)  # (..., y, b)
    return p16, pa, pb


def _info_from_x(x: np.ndarray) -> np.ndarray:
    """Mutual information for batched correlator 8-vectors (exact value)."""
    return _info(*_probs(x))


def _info_grad(p16: np.ndarray, pa: np.ndarray, pb: np.ndarray, slope) -> np.ndarray:
    """Gradient of the mutual information with respect to the 8 correlators,
    for rows of probabilities; ``slope`` is the derivative of p log2 p."""
    grad = (slope(p16) @ _POS_M) / 16.0
    grad[:, :2] -= 0.25 * (slope(pa) * OUTCOME_VALUES).sum(axis=-1)
    grad[:, 2:4] -= 0.25 * (slope(pb) * OUTCOME_VALUES).sum(axis=-1)
    return grad


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
    grad = _info_grad(*_probs(np.atleast_2d(x)), _entropy_slope)
    return grad[0] if x.ndim == 1 else grad


def _qtilde_exprs(c4: np.ndarray) -> np.ndarray:
    t = np.arcsin(np.clip(c4, -1.0, 1.0))
    return t.sum(axis=-1, keepdims=True) - 2.0 * t


def _arcsin_slope(c4: np.ndarray) -> np.ndarray:
    # consistent with the clipped arcsin: flat outside the cube
    inside = np.abs(c4) < 1.0
    return np.where(inside, 1.0 / np.sqrt(np.clip(1.0 - c4**2, 1e-12, None)), 0.0)


def _soft_plogp(p: np.ndarray, eps: float) -> np.ndarray:
    """p log2 p with the kink at p = 0 rounded over a width ~eps."""
    q = 0.5 * (p + np.sqrt(p * p + eps * eps))
    return q * np.log2(q + 1e-300)


def _soft_slope(p: np.ndarray, eps: float) -> np.ndarray:
    q = 0.5 * (p + np.sqrt(p * p + eps * eps))
    dq = 0.5 * (1.0 + p / np.sqrt(p * p + eps * eps))
    return (np.log2(np.clip(q, GRAD_FLOOR, None)) + _LOG2E) * dq


def _penalty(job: _Job, z: np.ndarray, mu: float, eps: float, grad: bool = True):
    """Softened, penalized objective of each row and, if ``grad``, its z-gradient."""
    x = _x_from_z(job, z)
    p16, pa, pb = _probs(x)
    info = _info(p16, pa, pb, lambda p: _soft_plogp(p, eps))
    viol_p = np.clip(-p16, 0.0, None)
    viol_s = np.clip(x @ _SLOT_W[1:].T - job.s[:, None], 0.0, None)
    f = job.geo.sigma * info + mu * (viol_p**2).sum(axis=-1)
    f += mu * (viol_s**2).sum(axis=-1)
    if job.geo.qtilde_cap:
        c4 = x[:, 4:]
        e = _qtilde_exprs(c4)
        up = np.clip(e - np.pi, 0.0, None)
        dn = np.clip(-e - np.pi, 0.0, None)
        f += mu * (up**2 + dn**2).sum(axis=-1)
    if not grad:
        return f

    gx = _info_grad(p16, pa, pb, lambda p: _soft_slope(p, eps))
    gx *= job.geo.sigma
    gx -= (0.5 * mu) * (viol_p @ _POS_M)
    gx += (2.0 * mu) * (viol_s @ _SLOT_W[1:])
    if job.geo.qtilde_cap:
        u = up - dn
        gt = 2.0 * (u.sum(axis=-1, keepdims=True) - 2.0 * u)
        gx[:, 4:] += mu * gt * _arcsin_slope(c4)
    return f, (gx @ job.geo.emb) @ job.geo.null


# ---------------------------------------------------------------------------
# inner solver


def _project_arcsin_facet(job: _Job, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Drop the gradient component that pushes across an active arcsin facet.

    The facet is curved, so at large mu a raw step into it gets rejected down
    to microscopic lengths and tangential progress dies with it.  Projecting
    the gradient keeps rows sliding along the facet; the normal drift is
    handled by the penalty equilibrium and the final repair.
    """
    x = _x_from_z(job, z)
    c4 = x[:, 4:]
    e = _qtilde_exprs(c4)
    worst = np.argmax(np.abs(e), axis=1)
    rows = np.arange(len(z))
    active = np.abs(e[rows, worst]) >= np.pi - 1e-6
    if not active.any():
        return grad
    sign = np.sign(e[rows, worst])
    coeff = np.ones((len(z), 4))
    coeff[rows, worst] = -1.0
    gx = np.zeros((len(z), 8))
    gx[:, 4:] = sign[:, None] * coeff * _arcsin_slope(c4)
    gn = (gx @ job.geo.emb) @ job.geo.null
    norms = np.linalg.norm(gn, axis=1)
    dots = (grad * gn).sum(axis=1)
    mask = active & (dots < 0.0) & (norms > 1e-12)
    if mask.any():
        grad = grad.copy()
        grad[mask] -= (dots[mask] / norms[mask] ** 2)[:, None] * gn[mask]
    return grad


def _gradient_descent(
    job: _Job, z: np.ndarray, owner: np.ndarray, alpha: np.ndarray, mu: float, eps: float,
    max_iter: int, gtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Armijo-backtracked gradient descent on the penalty, batched over rows.

    A row is done when its gradient norm drops below ``gtol`` or its value
    stalls (no measurable progress over a 15-iteration window, the realistic
    endpoint on the stiff boundary-hugging subproblems).  Rows whose line
    search collapses are frozen.  Step sizes persist across calls through
    ``alpha``.  ``owner`` maps rows to the points they start from: a point
    whose rows are all done stops there, exactly as if it were solved alone.
    """
    r = z.shape[0]
    stuck = np.zeros(r, dtype=bool)
    stalled = np.zeros(r, dtype=bool)
    f, grad = _penalty(job, z, mu, eps)
    if job.geo.qtilde_cap:
        grad = _project_arcsin_facet(job, z, grad)
    z_prev = z.copy()
    g_prev = grad.copy()
    f_mark = f.copy()
    for it in range(max_iter):
        gn2 = (grad * grad).sum(axis=1)
        small_grad = gn2 <= gtol * gtol
        active = ~small_grad & ~stuck & ~stalled
        if not active.any():
            break
        idx = np.flatnonzero(active)
        remaining = idx.copy()
        for _trial in range(30):
            if remaining.size == 0:
                break
            cand = z[remaining] - alpha[remaining, None] * grad[remaining]
            fc = _penalty(job.take(remaining), cand, mu, eps, grad=False)
            ok = fc <= f[remaining] - 1e-4 * alpha[remaining] * gn2[remaining]
            good = remaining[ok]
            z[good] = cand[ok]
            f[good] = fc[ok]
            alpha[remaining[~ok]] *= 0.5
            remaining = remaining[~ok]
        stuck[remaining] = True
        moved = np.setdiff1d(idx, remaining, assume_unique=True)
        if moved.size:
            moved_job = job.take(moved)
            f[moved], g_moved = _penalty(moved_job, z[moved], mu, eps)
            if job.geo.qtilde_cap:
                g_moved = _project_arcsin_facet(moved_job, z[moved], g_moved)
            # spectral (Barzilai-Borwein) trial step for the next line search
            dz = z[moved] - z_prev[moved]
            dg = g_moved - g_prev[moved]
            denom = (dg * dg).sum(axis=1)
            num = (dz * dg).sum(axis=1)
            bb = np.divide(num, denom, out=alpha[moved].copy(), where=denom > 1e-300)
            alpha[moved] = np.clip(np.abs(bb), 1e-8, 1.0)
            z_prev[moved] = z[moved]
            g_prev[moved] = g_moved
            grad[moved] = g_moved
        if (it + 1) % 15 == 0:
            live = np.isin(owner, owner[active])  # points with a row active this iteration
            stalled |= live & ((f_mark - f) <= 5e-12 * (1.0 + np.abs(f)))
            f_mark = f.copy()
    gn2 = (grad * grad).sum(axis=1)
    return z, (gn2 <= gtol * gtol) | stalled, f


def _solve(
    job: _Job, z0: np.ndarray, owner: np.ndarray, outers: int = len(_MU_SCHEDULE), tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Run the penalty schedule (last ``outers`` stages) from stacked starts.

    Row k starts at ``z0[k]`` and solves at score ``job.s[k]`` for point
    ``owner[k]``.  Returns the solved iterates and their
    convergence flags; ``tol`` is the final-stage progress threshold below
    which a row counts as converged.
    """
    z = np.array(z0, dtype=float)
    met = np.zeros(z.shape[0], dtype=bool)
    alpha = np.full(z.shape[0], 0.05)
    f_prev = None
    for k in range(len(_MU_SCHEDULE) - outers, len(_MU_SCHEDULE)):
        np.clip(alpha, 1e-6, None, out=alpha)
        z, met, f = _gradient_descent(
            job, z, owner, alpha, _MU_SCHEDULE[k], _EPS_SCHEDULE[k], _INNER_ITERS[k],
            max(_GTOLS[k], tol),
        )
        if k == len(_MU_SCHEDULE) - 1 and f_prev is not None:
            # a final stage that barely moved the value is converged in practice
            met |= np.abs(f_prev - f) <= tol * (1.0 + np.abs(f))
        f_prev = f
    return z, met


# ---------------------------------------------------------------------------
# feasibility: starts and repair


def _x_from_z(job: _Job, z: np.ndarray) -> np.ndarray:
    return (job.anchor_v + z @ job.geo.null.T) @ job.geo.emb.T


def _shrink_lambda(job: _Job, z: np.ndarray, margin: float) -> np.ndarray:
    """Largest scaling of z (toward the anchor at z = 0) keeping the linear facets.

    Slacks are affine in z, so the bound is exact; each facet is kept at
    >= margin * (its anchor slack).
    """
    slack_move = z @ job.geo.az.T  # (r, 23), slack(lam*z) = ca + lam*slack_move
    budget = (1.0 - margin) * job.ca
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_j = np.where(slack_move < -1e-13, budget / (-slack_move), np.inf)
    lam = np.minimum(1.0, lam_j.min(axis=-1))
    return np.clip(lam, 0.0, 1.0)


def _project_active(job: _Job, z: np.ndarray) -> np.ndarray:
    """Cyclic projection onto the facets the anchor itself sits on.

    Where the anchor slack is zero, shrinking toward it cannot repair a
    violation; the violating component must be projected out instead (this
    happens at the edges of the score range, where the anchor is extremal).
    """
    az = job.geo.az
    norms2 = (az * az).sum(axis=1)
    facets = (job.ca <= 1e-12) & (norms2 > 1e-20)
    if not facets.any():
        return z
    for _ in range(12):
        viol = np.where(facets, z @ az.T, np.inf)
        if viol.min() >= -1e-14:
            break
        jmin = viol.argmin(axis=1)
        amount = np.clip(-viol[np.arange(len(z)), jmin], 0.0, None) / norms2[jmin]
        z = z + amount[:, None] * az[jmin]
    return z


def _qtilde_lambda(job: _Job, z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Shrink further until the arcsin facets hold; bisection on the scaling."""

    def margin_at(l: np.ndarray) -> np.ndarray:
        x = _x_from_z(job, l[:, None] * z)
        return np.pi - np.abs(_qtilde_exprs(x[:, 4:])).max(axis=-1)

    ok = margin_at(lam) >= -1e-12
    lo = np.where(ok, lam, 0.0)
    hi = lam.copy()
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        good = margin_at(mid) >= -1e-12
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return np.where(ok, lam, lo)


def _feasible_z(job: _Job, z: np.ndarray) -> np.ndarray:
    """Pull iterates back inside the feasible set, exactly, preserving the score."""
    z = _project_active(job, z)
    lam = _shrink_lambda(job, z, margin=0.0)
    if job.geo.qtilde_cap:
        lam = _qtilde_lambda(job, z, lam)
    return lam[:, None] * z


def _repair(job: _Job, z: np.ndarray) -> np.ndarray:
    return _x_from_z(job, _feasible_z(job, z))


# The start builders below take a single-row job: one grid point.


def _random_starts(point: _Job, n: int, rng: np.random.Generator) -> np.ndarray:
    """Spread starts inside the feasible slice: random directions from the
    anchor, stepped a random fraction of the distance to the nearest facet."""
    geo = point.geo
    u = rng.standard_normal((n, geo.null.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    active = point.ca[0] <= 1e-12
    if active.any():
        # anchor sits on a facet (score at the edge of its range); sample
        # inside the tangent cone instead of bouncing off immediately
        basis = _null_basis_rows(geo.az[active])
        u = u @ basis @ basis.T if basis.shape[1] else np.zeros_like(u)
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        u = np.divide(u, norms, out=np.zeros_like(u), where=norms > 1e-12)
    slope = u @ geo.az.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t_j = np.where(slope < -1e-12, point.ca / (-slope), np.inf)
    t_max = np.minimum(t_j.min(axis=-1), 8.0)
    beta = rng.uniform(0.2, 0.95, size=n)
    z0 = (beta * t_max)[:, None] * u
    if geo.qtilde_cap:
        lam = _qtilde_lambda(point, z0, np.ones(n))
        z0 *= lam[:, None]
    return z0


def _null_basis_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the joint null space of the given row vectors."""
    _, sv, vt = np.linalg.svd(rows)
    rank = int((sv > 1e-10).sum())
    return vt[rank:].T


def _z_from_vector(point: _Job, vec8: np.ndarray) -> np.ndarray:
    """Project an 8-correlator vector into a feasible z start for this point."""
    v = point.geo.pinv @ vec8
    return _feasible_z(point, ((v - point.anchor_v[0]) @ point.geo.null)[None, :])


def _product_starts(point: _Job) -> list[np.ndarray]:
    """Exact product behaviors with score s, added to MIN starts for s <= 2.

    Plain descent cannot carve the last digits into these deterministic-margin
    corners, and they are ordinary feasible points of the slice.
    """
    s = float(point.s[0])
    if point.geo.mode is not ScanMode.MIN or s > 2.0 + 1e-12:
        return []
    out = []
    if point.geo.set in (FeasibleSet.NS, FeasibleSet.SYM):
        if s <= 1.0:
            q = np.sqrt(s)
            a = np.array([q, 0.0])
        else:
            q = 1.0 - np.sqrt(2.0 - s)
            a = np.array([1.0, q])
        out.append(np.concatenate([a, a, np.outer(a, a).ravel()]))
    if point.geo.set is FeasibleSet.NS:
        a = np.array([1.0, 1.0])
        b = np.array([s / 2.0, 0.0])
        out.append(np.concatenate([a, b, np.outer(a, b).ravel()]))
        out.append(np.concatenate([b, a, np.outer(b, a).ravel()]))
    return out


def _starts(point: _Job, restarts: int, rng: np.random.Generator, extra_starts=None) -> np.ndarray:
    blocks = [_random_starts(point, restarts, rng)]
    for vec in _product_starts(point):
        blocks.append(_z_from_vector(point, vec))
    if extra_starts is not None:
        blocks.extend(
            _z_from_vector(point, np.asarray(v, dtype=float)) for v in np.atleast_2d(extra_starts)
        )
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# solving blocks of points

#: Most solver rows (grid points x starts) that share one kernel call.  Large
#: enough to amortize numpy's per-call overhead over many rows; much larger
#: blocks run slower again as the working arrays outgrow the caches.
_BLOCK_ROWS = 1024


def _finish(
    points: _Job, owner: np.ndarray, z0: np.ndarray, z: np.ndarray, met: np.ndarray
) -> list[tuple[float, np.ndarray, bool]]:
    """Repair all rows, evaluate exactly, return each point's best (i, x, converged).

    A point's untouched starts compete with its solved rows (a start can beat
    its own descendant when the softened early stages walk off an exact
    corner optimum), but a raw start never counts as converged.  Ties go to
    the earlier row.
    """
    row_point = np.concatenate([owner, owner])
    x = _repair(points.take(row_point), np.concatenate([z, z0]))
    vals = _info_from_x(x)
    order = np.lexsort((points.geo.sigma * vals, row_point))
    best = order[np.searchsorted(row_point[order], np.arange(len(points.s)))]
    met = np.concatenate([met, np.zeros(len(z0), dtype=bool)])
    return [(float(vals[k]), x[k], bool(met[k])) for k in best]


def _solve_points(
    points: _Job, starts: list[np.ndarray], outers: int = len(_MU_SCHEDULE), tol: float = 1e-8
) -> list[tuple[float, np.ndarray, bool]]:
    """Solve every point of ``points`` from its own starts as one block."""
    owner = np.repeat(np.arange(len(starts)), [len(z) for z in starts])
    z0 = np.concatenate(starts)
    z, met = _solve(points.take(owner), z0, owner, outers=outers, tol=tol)
    return _finish(points, owner, z0, z, met)


def _solve_grid(
    points: _Job, starts: list[np.ndarray], tol: float = 1e-8
) -> list[tuple[float, np.ndarray, bool]]:
    """Solve consecutive points in blocks of about ``_BLOCK_ROWS`` rows: a
    block takes the points whose first row falls in its stretch of rows."""
    first_row = np.cumsum([0] + [len(z) for z in starts[:-1]])
    block = first_row // _BLOCK_ROWS
    out = []
    for b in np.unique(block):
        ks = np.flatnonzero(block == b)
        out += _solve_points(points.take(ks), [starts[k] for k in ks], tol=tol)
    return out


def _polish(point: _Job, vec8: np.ndarray, tol: float = 1e-8) -> tuple[float, np.ndarray, bool]:
    (result,) = _solve_points(point, [_z_from_vector(point, vec8)], outers=_POLISH_OUTERS, tol=tol)
    return result


def _candidate_value(point: _Job, vec8: np.ndarray) -> float:
    z = _z_from_vector(point, vec8)
    return float(_info_from_x(_repair(point, z))[0])


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
    extra_starts: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    tol: float = 1e-8,
) -> OptResult:
    """Extremize the mutual information at CHSH score exactly s.

    Multi-start local search; deterministic given ``seed``.  ``extra_starts``
    may carry warm-start correlator 8-vectors, which are projected onto the
    feasible slice before use.
    """
    set_ = FeasibleSet(set_) if isinstance(set_, str) else set_
    mode = ScanMode(mode) if isinstance(mode, str) else mode
    if restarts < 1:
        raise BehaviorError("need at least one restart")
    _check_s_range(s, qtilde_cap)
    point = _geometry(set_, mode, qtilde_cap).at([s])
    if rng is None:
        rng = np.random.default_rng([seed])
    z0 = _starts(point, restarts, rng, extra_starts)
    ((i, x, converged),) = _solve_points(point, [z0], tol=tol)
    return OptResult(i=i, argopt=Correlators.from_vector(x), converged=converged)


def scan(config: ScanConfig) -> BoundaryCurve:
    """Scan the grid, then sweep warm starts both ways along it.

    Each grid point draws its starts from its own grid-index-seeded RNG
    stream; whole points are then stacked into blocks of at most
    ``_BLOCK_ROWS`` rows and solved together.  Rows never interact, so a
    point's result does not depend on its block beyond floating-point
    rounding in shared matrix products.  The two warm-start sweeps afterwards
    are sequential and deterministic.  Per-point failures are reported
    through ``converged=False``, never by aborting the scan.
    """
    grid = np.linspace(config.s_lo, config.s_hi, config.grid_points)
    points = _geometry(config.set, config.mode, config.qtilde_cap).at(grid)
    starts = [
        _starts(points.take([k]), config.restarts, np.random.default_rng([config.seed, k]))
        for k in range(len(grid))
    ]
    vals = _solve_grid(points, starts, tol=config.tol)

    n = len(grid)
    sigma = points.geo.sigma
    for order, step in ((range(1, n), 1), (range(n - 2, -1, -1), -1)):
        for idx in order:
            prev_i, prev_x, _ = vals[idx - step]
            cur_i, cur_x, cur_conv = vals[idx]
            point = points.take([idx])
            if sigma * _candidate_value(point, prev_x) < sigma * cur_i - 1e-9 or not cur_conv:
                i2, x2, conv2 = _polish(point, prev_x, tol=config.tol)
                if sigma * i2 < sigma * cur_i:
                    vals[idx] = (i2, x2, conv2 or cur_conv)

    out = tuple(
        ScanPoint(s=float(s), i=float(i), argopt=Correlators.from_vector(x), converged=bool(conv))
        for s, (i, x, conv) in zip(grid, vals)
    )
    return BoundaryCurve(points=out, config=config)


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


def argopt_behavior(point: ScanPoint) -> Behavior:
    """Validated behavior for a scan point's optimizer output."""
    return validate(correlator_table(point.argopt), tol=1e-9)

"""Numerical boundary scans: extremal mutual information at fixed CHSH score.

The optimizer works in correlator space, where normalization and the
non-signaling marginals hold identically.  For a target score s it fixes the
canonical CHSH expression to s by parametrizing that affine subspace
directly, keeps the other seven signed expressions at or below s (so the
relabeling-maximized score is exactly s), and enforces the 16 positivity
facets through a quadratic penalty with geometric growth.  The inner solver
is gradient descent with Armijo backtracking (spectral trial steps), run on
the restarts of many grid points at once as one batched array program: the
rows still descending are kept compacted, and the backtracking trials of all
rows that need them share kernel calls, each call capped at ``_BLOCK_ROWS``
rows like the blocks themselves.  The entropy kink at p = 0 is softened on a
schedule so iterates can slide along positivity facets, and every reported
value is re-evaluated exactly after an exact feasibility repair.
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
#: A final stage that moves a row's value by at most this much (relative) counts as converged.
_TOL = 1e-8

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
    return _Geometry(
        set=set_,
        mode=mode,
        qtilde_cap=qtilde_cap,
        map=_QX @ (emb @ null),
        zmap=np.linalg.pinv(emb).T @ null,
        sigma=1.0 if mode is ScanMode.MIN else -1.0,
    )


# ---------------------------------------------------------------------------
# objective and penalty


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """The entropy rows (..., 24) of batched correlator 8-vectors."""
    return _Q0[_ENT] + x @ _QX[_ENT].T


def _probs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 16 joint probabilities (..., 16), ordered (x, y, a, b), and the marginal
    tables p(a|x), p(b|y), (..., 2, 2), of batched correlator 8-vectors."""
    q, lead = _entropy_rows(x), x.shape[:-1]
    return q[..., _P16], q[..., _PA].reshape(*lead, 2, 2), q[..., _PB].reshape(*lead, 2, 2)


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


def _arcsin_slope(c4: np.ndarray) -> np.ndarray:
    # consistent with the clipped arcsin: flat outside the cube
    inside = np.abs(c4) < 1.0
    return np.where(inside, 1.0 / np.sqrt(np.clip(1.0 - c4**2, 1e-12, None)), 0.0)


def _penalty(geo: _Geometry, off: np.ndarray, z: np.ndarray, mu: float, eps: float, grad: bool = True):
    """Softened, penalized objective of rows z at offsets ``off`` (39, r) and, if ``grad``,
    its z-gradient: one product in, p log2 p rounded over a width ~eps at p = 0
    (as q log2 q, q = (p + sqrt(p^2 + eps^2)) / 2), and one product back."""
    m = geo.map[: _X.stop if geo.qtilde_cap else _FACETS.stop]
    y = m @ z.T
    y += off[: len(m)]
    p = y[_ENT]
    root = np.sqrt(p * p + eps * eps)
    q = root + p
    q *= 0.5
    lg = np.log2(q + 1e-300)
    viol = np.minimum(y[_FACETS], 0.0)
    f = geo.sigma * (_ENT_W @ (q * lg)) + mu * np.einsum("ij,ij->j", viol, viol)
    if geo.qtilde_cap:
        e = _qtilde_exprs(y[_C4], axis=0)
        up = np.maximum(e - np.pi, 0.0)
        dn = np.maximum(-e - np.pi, 0.0)
        f += mu * (up**2 + dn**2).sum(axis=0)
    if not grad:
        return f

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
        g[_C4] = (2.0 * mu) * (u.sum(axis=0, keepdims=True) - 2.0 * u) * _arcsin_slope(y[_C4])
    return f, g.T @ m


# ---------------------------------------------------------------------------
# inner solver


def _project_arcsin_facet(geo: _Geometry, off: np.ndarray, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Drop the gradient component that pushes across an active arcsin facet.

    The facet is curved, so at large mu a raw step into it gets rejected down
    to microscopic lengths and tangential progress dies with it.  Projecting
    the gradient keeps rows sliding along the facet; the normal drift is
    handled by the penalty equilibrium and the final repair.
    """
    c4 = off[_C4].T + z @ geo.map[_C4].T
    e = _qtilde_exprs(c4)
    worst = np.argmax(np.abs(e), axis=1)
    rows = np.arange(len(z))
    active = np.abs(e[rows, worst]) >= np.pi - 1e-6
    if not active.any():
        return grad
    sign = np.sign(e[rows, worst])
    coeff = np.ones((len(z), 4))
    coeff[rows, worst] = -1.0
    gn = (sign[:, None] * coeff * _arcsin_slope(c4)) @ geo.map[_C4]
    norms = np.linalg.norm(gn, axis=1)
    dots = (grad * gn).sum(axis=1)
    mask = active & (dots < 0.0) & (norms > 1e-12)
    if mask.any():
        grad = grad.copy()
        grad[mask] -= (dots[mask] / norms[mask] ** 2)[:, None] * gn[mask]
    return grad


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


def _gradient_descent(
    job: _Job, z: np.ndarray, owner: np.ndarray, alpha: np.ndarray, mu: float, eps: float,
    max_iter: int, gtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Armijo-backtracked gradient descent on the penalty, batched over rows.

    A row is done when its gradient norm drops below ``gtol`` or its value
    stalls (no measurable progress over a 15-iteration window, the realistic
    endpoint on the stiff boundary-hugging subproblems).  Rows whose line
    search fails all 30 trials are frozen.  Step sizes persist across calls
    through ``alpha``.  ``owner`` maps rows to the points they start from: a
    point whose rows are all done stops there, exactly as if it were solved
    alone.

    The active rows' state lives in compacted arrays and is written back once,
    when a row leaves.  A line search tries every active row's alpha in one
    kernel call; the rows that fail it try alpha/2, alpha/4, ... in batches of
    up to ``_TRIAL_BATCH`` trials per call, and each takes its first trial
    that meets Armijo: the step that halving one trial at a time would take.
    """
    geo = job.geo
    d = z.shape[1]
    stalled = np.zeros(z.shape[0], dtype=bool)
    f, grad = _penalty(geo, job.off, z, mu, eps)
    if geo.qtilde_cap:
        grad = _project_arcsin_facet(geo, job.off, z, grad)
    f_mark = f.copy()
    full = (z, grad, f, alpha)
    act = np.arange(z.shape[0])
    za, ga, fa, aa, offa = z.copy(), grad.copy(), f.copy(), alpha.copy(), job.off
    for it in range(max_iter):
        gn2 = (ga * ga).sum(axis=1)
        keep = gn2 > gtol * gtol
        act, (za, ga, fa, aa), offa = _retire(keep, act, full, (za, ga, fa, aa), offa)
        if not act.size:
            break
        gn2 = gn2[keep]
        started = act  # the rows active at the start of this iteration

        z0 = za  # the iterate the spectral step measures its move from
        cand = za - aa[:, None] * ga
        fc = _penalty(geo, offa, cand, mu, eps, grad=False)
        ok = fc <= fa - 1e-4 * aa * gn2
        za = np.where(ok[:, None], cand, za)
        fa = np.where(ok, fc, fa)
        fail = np.flatnonzero(~ok)  # rows whose alpha is a failed trial
        tried = 1
        while fail.size and tried < 30:
            width = max(1, min(_TRIAL_BATCH, 30 - tried, _BLOCK_ROWS // fail.size))
            steps = np.ldexp(aa[fail, None], -1 - np.arange(width))  # (failing, width): halved alphas
            cand = za[fail, None] - steps[:, :, None] * ga[fail, None]
            off = np.repeat(offa[:, fail], width, axis=1)
            fc = _penalty(geo, off, cand.reshape(-1, d), mu, eps, grad=False).reshape(-1, width)
            ok = fc <= fa[fail, None] - 1e-4 * steps * gn2[fail, None]
            hit = ok.any(axis=1)
            took, first = np.flatnonzero(hit), ok.argmax(axis=1)[hit]
            rows = fail[took]
            za[rows], fa[rows], aa[rows] = cand[took, first], fc[took, first], steps[took, first]
            missed = np.flatnonzero(~hit)
            fail = fail[missed]
            aa[fail] = steps[missed, -1]
            tried += width
        if fail.size:  # stuck: all 30 trials failed; alpha halves after the last, as after each
            aa[fail] *= 0.5
            keep = np.ones(act.size, dtype=bool)
            keep[fail] = False
            act, (za, ga, fa, aa, z0), offa = _retire(keep, act, full, (za, ga, fa, aa, z0), offa)

        if act.size:
            fa, g = _penalty(geo, offa, za, mu, eps)
            if geo.qtilde_cap:
                g = _project_arcsin_facet(geo, offa, za, g)
            # spectral (Barzilai-Borwein) trial step for the next line search
            dz = za - z0
            dg = g - ga
            denom = (dg * dg).sum(axis=1)
            num = (dz * dg).sum(axis=1)
            bb = np.divide(num, denom, out=aa, where=denom > 1e-300)
            aa = np.minimum(np.maximum(np.abs(bb), 1e-8), 1.0)
            ga = g
        if (it + 1) % 15 == 0:
            f[act] = fa
            live = np.isin(owner, owner[started])  # points with a row active this iteration
            stalled |= live & ((f_mark - f) <= 5e-12 * (1.0 + np.abs(f)))
            f_mark = f.copy()
            act, (za, ga, fa, aa), offa = _retire(~stalled[act], act, full, (za, ga, fa, aa), offa)
    _retire(np.zeros(act.size, dtype=bool), act, full, (za, ga, fa, aa), offa)
    gn2 = (grad * grad).sum(axis=1)
    return z, (gn2 <= gtol * gtol) | stalled, f


def _solve(
    job: _Job, z0: np.ndarray, owner: np.ndarray, outers: int = len(_MU_SCHEDULE)
) -> tuple[np.ndarray, np.ndarray]:
    """Run the penalty schedule (last ``outers`` stages) from stacked starts.

    Row k starts at ``z0[k]`` and solves at score ``job.s[k]`` for point
    ``owner[k]``.  Returns the solved iterates and their convergence flags.
    """
    z = np.array(z0, dtype=float)
    met = np.zeros(z.shape[0], dtype=bool)
    alpha = np.full(z.shape[0], 0.05)
    f_prev = None
    for k in range(len(_MU_SCHEDULE) - outers, len(_MU_SCHEDULE)):
        np.maximum(alpha, 1e-6, out=alpha)
        z, met, f = _gradient_descent(
            job, z, owner, alpha, _MU_SCHEDULE[k], _EPS_SCHEDULE[k], _INNER_ITERS[k], _GTOLS[k]
        )
        if k == len(_MU_SCHEDULE) - 1 and f_prev is not None:
            # a final stage that barely moved the value is converged in practice
            met |= np.abs(f_prev - f) <= _TOL * (1.0 + np.abs(f))
        f_prev = f
    return z, met


# ---------------------------------------------------------------------------
# feasibility: starts and repair


def _x_from_z(job: _Job, z: np.ndarray) -> np.ndarray:
    return job.off[_X].T + z @ job.geo.map[_X].T


def _shrink_lambda(job: _Job, z: np.ndarray) -> np.ndarray:
    """Largest scaling of z (toward the anchor at z = 0) keeping the linear facets.

    Slacks are affine in z, so the bound is exact.
    """
    slack_move = z @ job.geo.map[_FACETS].T  # (r, 23), slack(lam*z) = off + lam*slack_move
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_j = np.where(slack_move < -1e-13, job.off[_FACETS].T / (-slack_move), np.inf)
    lam = np.minimum(1.0, lam_j.min(axis=-1))
    return np.clip(lam, 0.0, 1.0)


def _project_active(job: _Job, z: np.ndarray) -> np.ndarray:
    """Cyclic projection onto the facets the anchor itself sits on.

    Where the anchor slack is zero, shrinking toward it cannot repair a
    violation; the violating component must be projected out instead (this
    happens at the edges of the score range, where the anchor is extremal).
    """
    az = job.geo.map[_FACETS]
    norms2 = (az * az).sum(axis=1)
    facets = (job.off[_FACETS].T <= 1e-12) & (norms2 > 1e-20)
    if not facets.any():
        return z
    for _ in range(12):
        viol = np.where(facets, z @ az.T, np.inf)
        if viol.min() >= -1e-14:
            break
        jmin = viol.argmin(axis=1)
        amount = np.maximum(-viol[np.arange(len(z)), jmin], 0.0) / norms2[jmin]
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
    lam = _shrink_lambda(job, z)
    if job.geo.qtilde_cap:
        lam = _qtilde_lambda(job, z, lam)
    return lam[:, None] * z


def _repair(job: _Job, z: np.ndarray) -> np.ndarray:
    return _x_from_z(job, _feasible_z(job, z))


# The start builders below take a single-row job: one grid point.


def _random_starts(point: _Job, n: int, rng: np.random.Generator) -> np.ndarray:
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
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _z_from_vector(point: _Job, vec8: np.ndarray) -> np.ndarray:
    """Project an 8-correlator vector into a feasible z start for this point."""
    return _feasible_z(point, ((vec8 - point.off[_X, 0]) @ point.geo.zmap)[None, :])


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

#: Most solver rows (grid points x starts) that share one kernel call, and
#: most rows of one batched line-search call unless its first trial alone has
#: more.  Large enough to amortize numpy's per-call overhead over many rows;
#: minor page faults per call were observed to jump from about 384 rows on,
#: and fig6_scan ran 8-9% slower in the median at 384 than at 256.
_BLOCK_ROWS = 256
#: Most backtracking trials (alpha/2, alpha/4, ...) of one row in one kernel call.
_TRIAL_BATCH = 8


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
    points: _Job, starts: list[np.ndarray], outers: int = len(_MU_SCHEDULE)
) -> list[tuple[float, np.ndarray, bool]]:
    """Solve every point of ``points`` from its own starts as one block."""
    owner = np.repeat(np.arange(len(starts)), [len(z) for z in starts])
    z0 = np.concatenate(starts)
    z, met = _solve(points.take(owner), z0, owner, outers=outers)
    return _finish(points, owner, z0, z, met)


def _solve_grid(points: _Job, starts: list[np.ndarray]) -> list[tuple[float, np.ndarray, bool]]:
    """Solve consecutive points in blocks of about ``_BLOCK_ROWS`` rows: a
    block takes the points whose first row falls in its stretch of rows."""
    first_row = np.cumsum([0] + [len(z) for z in starts[:-1]])
    block = first_row // _BLOCK_ROWS
    out = []
    for b in np.unique(block):
        ks = np.flatnonzero(block == b)
        out += _solve_points(points.take(ks), [starts[k] for k in ks])
    return out


def _polish(
    point: _Job, best: tuple[float, np.ndarray, bool], z: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Rerun the stiff tail of the schedule from the feasible start ``z``.

    The result replaces ``best`` only if it is strictly better, and then
    keeps ``best``'s converged flag if that was set; otherwise ``best`` is
    returned as is.
    """
    ((i, x, converged),) = _solve_points(point, [z], outers=_POLISH_OUTERS)
    if point.geo.sigma * i < point.geo.sigma * best[0]:
        return i, x, converged or best[2]
    return best


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
) -> ScanPoint:
    """Extremize the mutual information at CHSH score exactly s.

    Multi-start local search; deterministic given ``seed``.  ``extra_starts``
    may carry warm-start correlator 8-vectors, which are projected onto the
    feasible slice before use.
    """
    set_ = FeasibleSet(set_) if isinstance(set_, str) else set_
    mode = ScanMode(mode) if isinstance(mode, str) else mode
    _check_request(restarts, seed, qtilde_cap, s)
    point = _geometry(set_, mode, qtilde_cap).at([s])
    z0 = _starts(point, restarts, np.random.default_rng([seed]), extra_starts)
    (best,) = _solve_points(point, [z0])
    for _ in range(2):  # an unconverged winner gets the two polishes a scan point can get from its sweeps
        if best[2]:
            break
        polished = _polish(point, best, _z_from_vector(point, best[1]))
        if polished is best:
            break  # a polish from the same start would only repeat itself
        best = polished
    i, x, converged = best
    return ScanPoint(s=float(s), i=i, argopt=Correlators.from_vector(x), converged=converged)


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
    vals = _solve_grid(points, starts)

    n = len(grid)
    sigma = points.geo.sigma
    for order, step in ((range(1, n), 1), (range(n - 2, -1, -1), -1)):
        for idx in order:
            point = points.take([idx])
            z = _z_from_vector(point, vals[idx - step][1])  # the neighbour's argopt, projected here
            cur_i, _, cur_conv = vals[idx]
            if sigma * _info_from_x(_repair(point, z))[0] < sigma * cur_i - 1e-9 or not cur_conv:
                vals[idx] = _polish(point, vals[idx], z)

    out = tuple(
        ScanPoint(s=float(s), i=float(i), argopt=Correlators.from_vector(x), converged=bool(conv))
        for s, (i, x, conv) in zip(grid, vals)
    )
    return BoundaryCurve(points=out, set=config.set)


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

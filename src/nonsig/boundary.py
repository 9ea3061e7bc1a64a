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
and the backtracking trials of all rows that need them share kernel calls
of at most ``_BLOCK_ROWS`` candidates, like the blocks themselves; each row
tries its step lengths in order until one passes, so its search does not
depend on its block; only the kernel's rounding in calls of more than about
192 rows still can (``_penalty``).  Each row stops by its own
rules: at ``_NEWTON_GTOL``, which makes it ``converged`` after the last
stage, at a step below the rounding of z, or at its stage's iteration cap:
``_CONTINUATION_ITERS`` on the stages before the Newton tail, which only
warm-start the next, and ``_NEWTON_ITERS`` on the tail.  ``_finish`` alone
builds each point's ``ScanPoint`` from its best exactly evaluated row, with
that row's flag.

Every kind starts each point at its closed-form witness curve, and a point
whose witness is a proven extremum is proven: ``_witness`` names both.  A
proven point is its witness, repaired onto the slice and evaluated exactly,
with no solve, so ``restarts`` and ``seed`` do not change it; the arcsin cap
enters only that repair.  Every other point runs the Newton tail from its
witness, and random restarts over the full schedule audit it on every
``_AUDIT_EVERY``-th grid point.  ``_solve_points`` lists each such point's
rows once, its witness row first, and sends all of them through one blocked
pass (``_solve_blocks``), whose ``_solve`` starts each row on its own stage,
so a point query is at most one ``_solve``.  The quantities the solver reads are
the affine map of ``slice``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import curves
from .behavior import BehaviorError, Correlators
from .functionals import TSIRELSON, _s_max_ab
from .membership import _arcsin_margin
from .slice import _DOM, _ENT, _ENT_W, _FACETS, _LOG2_FLOOR, _LOG2E, _Q0, _Q_PER_S, _QX, _SLOT_W, _X, _info_from_x

#: Penalty weights by stage; every stage runs ``_newton``, done at
#: ``_NEWTON_GTOL``, and capped at ``_NEWTON_ITERS`` iterations on the Newton
#: tail (``_TAIL_STAGES``) and at ``_CONTINUATION_ITERS`` before it.
_MU_SCHEDULE = (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
_NEWTON_ITERS = 30
#: A stage before the tail only warm-starts the next, so it is solved inexactly
#: (Nocedal and Wright, Framework 17.1).  At 100-point fig6 scans, caps of
#: 5/8/10/12/15 took 22/26/29/31/33 ms of CPU per scan against 42 ms uncapped.
#: Caps of 5 and 8 left random NS MAX starts worst gaps of 9.8e-2 and 2.6e-2
#: to the ``ns_max`` curve (1.2e-2 uncapped, 2.4e-6 at 10), and at 5 the MAX
#: tail stages of point queries did the skipped work (NS MAX 501 -> 660 ms on
#: ``scripts/query_dump.py`` 1 and 2); a cap of 12 lost one converged flag of
#: ``scripts/query_dump.py 1``, 10 and 15 none.
_CONTINUATION_ITERS = 10
_NEWTON_GTOL = 1e-9
#: Least Levenberg-Marquardt damping of a Newton step, relative to the Hessian's scale.
_DAMPING_FLOOR = 1e-12
#: Softening width of the entropy kink at p = 0, by stage.  The subproblems
#: stay smooth while iterates slide along positivity facets; the final stages
#: approach the exact kinked objective and the reported values are always
#: re-evaluated exactly.
_EPS_SCHEDULE = (1e-2, 3e-3, 1e-3, 1e-4, 1e-6, 1e-9)


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

    ``restarts`` is the number of random starts of each audited point, every
    ``_AUDIT_EVERY``-th grid point of an NS or SYM scan, where they compete
    with the witness start on equal terms.  A proven point (``_witness``)
    runs no solve, so ``restarts`` and ``seed`` do not change it.
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
    outer: np.ndarray  # (31, (d-1)^2) outer products of the entropy and facet rows of map
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
        outer=(qmap[: _FACETS.stop, :, None] * qmap[: _FACETS.stop, None, :]).reshape(_FACETS.stop, -1),
        zmap=np.linalg.pinv(emb).T @ null,
        sigma=1.0 if mode is ScanMode.MIN else -1.0,
    )


# ---------------------------------------------------------------------------
# objective and penalty


def _penalty(geo: _Geometry, off: np.ndarray, z: np.ndarray, mu: float, eps: float, derivs: bool = False):
    """Softened, penalized objective of rows z at offsets ``off`` (39, r): one
    product in, p log2 p rounded over a width ~eps at p = 0 (as q log2 q,
    q = (p + sqrt(p^2 + eps^2)) / 2), plus mu times the squared facet violations.

    With ``derivs`` it also returns the z-gradients (r, d), one product back,
    and the z-Hessians (r, d, d): per-row weights on the quantity rows times
    their outer products ``geo.outer``, one product.

    A row rounds alike whichever rows share its call: the sums over quantity
    rows are einsums, and a lone row runs as two, as BLAS rounds gemv unlike gemm.
    The exception is a call of more than about 192 rows: there OpenBLAS 0.3.31
    (Haswell kernels) rounds the last (rows mod 8) rows of ``m @ z.T``
    unlike the rest.
    """
    n = len(z)
    if n == 1:
        off, z = np.repeat(off, 2, axis=1), np.repeat(z, 2, axis=0)
    m = geo.map[: _FACETS.stop]
    y = m @ z.T
    y += off[: _FACETS.stop]
    p = y[_ENT]
    root = np.sqrt(p * p + eps * eps)
    q = root + p
    q *= 0.5
    lg = np.log2(q + 1e-300)
    viol = np.minimum(y[_FACETS], 0.0)
    f = geo.sigma * np.einsum("i,ij->j", _ENT_W, q * lg) + mu * np.einsum("ij,ij->j", viol, viol)
    if not derivs:
        return f[:n]

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
    w[_FACETS] += (2.0 * mu) * (viol < 0.0)
    d = z.shape[1]
    return f[:n], (g.T @ m)[:n], (w.T @ geo.outer).reshape(-1, d, d)[:n]


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


def _newton(job: _Job, z: np.ndarray, mu: float, eps: float, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt-damped Newton with Armijo backtracking on the penalty,
    batched over rows.

    Each iteration solves (H + lam I) step = -grad for every active row in one
    batched call, then tries the full step of every row in one kernel call,
    with no row gathers when every row tries it.  The rows that fail it try the
    halvings of ``_TRIAL_LENGTHS`` in order, as many per call as fit in
    ``_BLOCK_ROWS`` candidates, until one passes or none is left, so that a
    row's search does not depend on how many rows share it.  The
    line search forgives increases within the value's rounding, so the last
    steps, whose gains f cannot resolve, still go through.  A step with
    grad . step >= 0 has curvature below -lam along it, as step . (H + lam I)
    step = -grad . step; the row is near a saddle and takes the reversed step,
    a descent direction of negative curvature (More and Sorensen 1979).
    Random rows and witness rows both take such steps
    (``scripts/kernel_timing.py``, reversed/row).  The damping lam eases
    tenfold after a full step.  After a failed search it tightens tenfold and
    to at least the row's scale, its largest Hessian diagonal, so that the
    trust region shrinks relative to the model's own scale (More 1978)
    instead of creeping up from the floor; after a reversed step it also
    jumps past twice that curvature.  Its floor is ``_DAMPING_FLOOR`` times
    one plus the scale.

    A row is done when its gradient norm is at most ``_NEWTON_GTOL``
    (converged) or when its step, taken or proposed, is below the rounding of
    z; every row stops after ``iters`` iterations (``_stage_iters``).
    Returns the iterates, those of ``z`` updated in place, and the converged
    flags.
    """
    geo = job.geo
    d = z.shape[1]
    f, g, h = _penalty(geo, job.off, z, mu, eps, derivs=True)
    full = (z, g)
    act = np.arange(z.shape[0])
    za, ga, fa, ha, offa = z.copy(), g.copy(), f, h, job.off
    lam = np.zeros(z.shape[0])
    live = np.ones(z.shape[0], dtype=bool)
    eye = np.eye(d)
    for _ in range(iters):
        keep = live & ((ga * ga).sum(axis=1) > _NEWTON_GTOL**2)
        act, (za, ga, fa, ha, lam, live), offa = _retire(keep, act, full, (za, ga, fa, ha, lam, live), offa)
        if not act.size:
            break
        scale = np.abs(np.diagonal(ha, axis1=1, axis2=2)).max(axis=1)
        lam = np.maximum(lam, _DAMPING_FLOOR * (1.0 + scale))
        step = np.linalg.solve(ha + lam[:, None, None] * eye, -ga[:, :, None])[:, :, 0]
        slope = (ga * step).sum(axis=1)
        uphill = slope >= 0.0
        if uphill.any():
            step[uphill] *= -1.0
            slope[uphill] *= -1.0
        slack = _rounding(fa)
        t = np.zeros(act.size)  # the accepted step length, 0 for none
        rows = np.flatnonzero(slope < 0.0)  # the rows still searching
        tried = 0  # the lengths of ``_TRIAL_LENGTHS`` they have tried
        while rows.size and tried < len(_TRIAL_LENGTHS):
            # the full step alone, then as many of the halvings as fit in one call
            lengths = _TRIAL_LENGTHS[tried : tried + (max(1, _BLOCK_ROWS // rows.size) if tried else 1)]
            sel = slice(None) if rows.size == act.size else rows  # every row: no gathers
            cand = za[sel, None] + lengths[:, None] * step[sel, None]
            off = offa[:, sel] if len(lengths) == 1 else np.repeat(offa[:, sel], len(lengths), axis=1)
            fc = _penalty(geo, off, cand.reshape(-1, d), mu, eps).reshape(rows.size, -1)
            ok = fc <= fa[sel, None] + 1e-4 * lengths * slope[sel, None] + slack[sel, None]
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            t[rows[hit]], fa[rows[hit]] = lengths[first], fc[hit, first]
            rows = rows[~hit]
            tried += len(lengths)
        moved = t > 0.0
        # a step below the rounding of z, taken or proposed, ends the row
        size = np.abs(step).max(axis=1) * np.where(moved, t, 1.0)
        live = size > 1e-15 * (1.0 + np.abs(za).max(axis=1))
        lam = np.where(t == 1.0, 0.1 * lam, np.where(moved, lam, np.maximum(10.0 * lam, scale)))
        if uphill.any():
            curv = np.einsum("ri,rij,rj->r", step, ha, step) / np.maximum((step * step).sum(axis=1), 1e-300)
            lam = np.where(uphill, np.maximum(lam, -2.0 * curv), lam)
        if moved.any():
            za = za + t[:, None] * step
            rows = np.flatnonzero(moved)
            if rows.size == act.size:
                _, ga, ha = _penalty(geo, offa, za, mu, eps, derivs=True)
            else:
                _, ga[rows], ha[rows] = _penalty(geo, offa[:, rows], za[rows], mu, eps, derivs=True)
    _retire(np.zeros(act.size, dtype=bool), act, full, (za, ga), offa)
    return z, (g * g).sum(axis=1) <= _NEWTON_GTOL**2


def _solve(job: _Job, z0: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the penalty schedule through ``_newton`` from stacked starts: row k
    starts at ``z0[k]`` on stage ``first[k]`` and solves at score ``job.s[k]``.
    Each stage runs the rows that have started, with no gather when that is
    every row, for at most ``_stage_iters`` iterations.  Returns the solved
    iterates and their last stage's flags."""
    z = np.array(z0, dtype=float)
    met = np.zeros(len(z), dtype=bool)
    for stage, (mu, eps) in enumerate(zip(_MU_SCHEDULE, _EPS_SCHEDULE)):
        rows = np.flatnonzero(first <= stage)
        if rows.size == len(z):
            z, met = _newton(job, z, mu, eps, _stage_iters(stage))
        elif rows.size:
            z[rows], met[rows] = _newton(job.take(rows), z[rows], mu, eps, _stage_iters(stage))
    return z, met


def _stage_iters(stage: int) -> int:
    """The iteration cap of a stage: ``_CONTINUATION_ITERS`` before the Newton tail, ``_NEWTON_ITERS`` on it."""
    return _CONTINUATION_ITERS if stage < len(_MU_SCHEDULE) - _TAIL_STAGES else _NEWTON_ITERS


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
    return np.clip(lam_j.min(axis=-1), 0.0, 1.0)


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
    arcsin sum near pi (~9 ulps of pi): bisection on the scaling of every row
    once any row fails at ``lam``, each row that holds keeping its ``lam``."""

    def holds(l: np.ndarray) -> np.ndarray:
        x = _x_from_z(job, l[:, None] * z)
        return _arcsin_margin(x[:, 4:].reshape(-1, 2, 2)) <= np.pi + 4e-15

    ok = holds(lam)
    if ok.all():
        return lam
    lo, hi = np.zeros(len(z)), lam
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        good = holds(mid)
        lo, hi = np.where(good, mid, lo), np.where(good, hi, mid)
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
    return (beta * t_max)[:, None] * u


def _null_basis_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the joint null space of the given row vectors."""
    _, sv, vt = np.linalg.svd(rows)
    rank = int((sv > 1e-10).sum())
    return vt[rank:].T


def _z_from_vector(points: _Job, vec8: np.ndarray) -> np.ndarray:
    """Project 8-correlator vectors, one per row of ``points``, into feasible z
    starts of those rows; a lone row runs as two, as BLAS rounds gemv unlike
    gemm (``_penalty``), so it rounds as in a grid."""
    n = len(vec8)
    if n == 1:
        points, vec8 = points.take([0, 0]), np.repeat(vec8, 2, axis=0)
    return _feasible_z(points, (vec8 - points.off[_X].T) @ points.geo.zmap)[:n]


# ---------------------------------------------------------------------------
# solving blocks of points

#: Most solver rows (grid points x starts) that share one kernel call, and
#: most rows of one batched line-search call unless its first trial alone has
#: more.  Large enough to amortize numpy's per-call overhead over many rows;
#: minor page faults per call were observed to jump from about 384 rows on,
#: and fig6_scan ran 8-9% slower in the median at 384 than at 256.
_BLOCK_ROWS = 256
#: The step lengths of a line search: the full step, then eight halvings.
_TRIAL_LENGTHS = np.ldexp(1.0, -np.arange(9))
#: The Newton tail, the two stiffest stages: all that witness starts run.
_TAIL_STAGES = 2
#: Every ``_AUDIT_EVERY``-th point of a grid, from its first, also runs its random starts unless it is proven.
_AUDIT_EVERY = 10


def _finish(
    points: _Job, owner: np.ndarray, z0: np.ndarray, z: np.ndarray, met: np.ndarray
) -> list[ScanPoint]:
    """Repair all rows, evaluate exactly, return each point's best row as its ``ScanPoint``.

    All of a point's rows compete, its witness row and its random rows alike,
    and so do its untouched starts (a start can beat its own descendant when
    the softened early stages walk off an exact corner optimum), but a raw
    start wins only by more than the value's rounding, so it never displaces
    a converged row on rounding alone, and it never counts as converged.
    Ties go to the earlier row, the witness row before random rows.
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


def _solve_blocks(points: _Job, starts: list[np.ndarray], firsts: list[np.ndarray]) -> list[ScanPoint]:
    """Solve each point of ``points`` from its rows ``starts[k]``, row j from stage
    ``firsts[k][j]`` of the schedule on, consecutive points in blocks of about
    ``_BLOCK_ROWS`` rows: a block takes the points whose first row falls in its
    stretch of rows, and one ``_solve`` and one ``_finish`` run all of its
    rows.  Returns one ``ScanPoint`` per point, in the order of ``points``."""
    sizes = np.array([len(rows) for rows in starts])
    block = (np.cumsum(sizes) - sizes) // _BLOCK_ROWS  # of each point's first row
    out = []
    for ks in np.split(np.arange(len(sizes)), np.flatnonzero(np.diff(block)) + 1):
        owner = np.repeat(np.arange(len(ks)), sizes[ks])
        z0 = np.concatenate([starts[k] for k in ks])
        z, met = _solve(points.take(ks[owner]), z0, np.concatenate([firsts[k] for k in ks]))
        out += _finish(points.take(ks), owner, z0, z, met)
    return out


def _witness(points: _Job) -> tuple[np.ndarray, np.ndarray]:
    """Each point's witness start as feasible z, and whether it is proven.

    NS and SYM points start at ``ns_min`` or ``ns_max``, C points at
    ``c_min`` or ``c_max``, and capped C MAX points from S = 2 on at
    ``qc_max`` (``curves.witness_vectors``).  A point is proven where its
    witness is a proven extremum of its kind: on every C kind, by ``curves``
    (Jensen for ``c_min``, the best slice vertex for ``c_max``, Tsirelson and
    Landau for ``qc_max``, and below S = 2 every point local, Fine, PRL 48,
    291, 1982), and on NS and SYM MIN up to S = 2, where ``ns_min`` is a
    product behavior with I = 0 and I >= 0 for every behavior (Cover and
    Thomas, Elements of Information Theory, Thm 2.6.3).  A proven point is its
    witness, repaired onto the slice and evaluated exactly, with no solve
    (``_solve_points``).
    """
    geo, s = points.geo, points.s
    space = "c" if geo.set is FeasibleSet.C else "ns"
    x = curves.witness_vectors(f"{space}_{geo.mode.value}", s)
    if geo.qtilde_cap and geo.mode is ScanMode.MAX:
        x[s >= 2.0] = curves.witness_vectors("qc_max", s[s >= 2.0])
    proven = (geo.set is FeasibleSet.C) | ((geo.mode is ScanMode.MIN) & (s <= 2.0))
    return _z_from_vector(points, x), proven


def _solve_points(points: _Job, restarts: int, seeds: list) -> list[ScanPoint]:
    """Solve every point of ``points``; point k draws its random starts from
    ``default_rng(seeds[k])``.

    Each point starts at its kind's witness at its score, repaired exactly
    (``_witness``).  A proven point's witness is the answer, evaluated
    exactly and ``converged`` by proof: no solve runs for it, and
    ``restarts`` and ``seeds`` do not change it.  On every other point the
    witness row is solved on the Newton tail alone, which doubles as the
    start's KKT check, and every ``_AUDIT_EVERY``-th grid point also has
    ``restarts`` random rows, an audit of the witness over the full
    schedule.  All their rows go through one ``_solve_blocks``, so a query is
    at most one ``_solve``, and ``_finish`` picks each point's row, witness or
    random, with that row's own flag.  Audited points go first, so that
    random rows fill whole blocks: in grid order they filled part of every
    block, whose early stages then ran on gathered subsets of fewer rows, and
    ``repro fig6``'s scan took about a fifth more CPU.
    """
    z, proven = _witness(points)
    x = _x_from_z(points.take(proven), z[proven])
    out = {
        k: ScanPoint(s=float(points.s[k]), i=float(i), argopt=Correlators.from_vector(v), converged=True)
        for k, i, v in zip(np.flatnonzero(proven), _info_from_x(x), x)
    }
    rest = np.flatnonzero(~proven)
    order = rest[np.argsort(rest % _AUDIT_EVERY != 0, kind="stable")]
    starts = [
        np.concatenate([z[k, None], _starts(points.take([k]), restarts, np.random.default_rng(seeds[k]))])
        if k % _AUDIT_EVERY == 0
        else z[k, None]
        for k in order
    ]
    tail = len(_MU_SCHEDULE) - _TAIL_STAGES
    firsts = [np.repeat([tail, 0], [1, len(rows) - 1]) for rows in starts]
    if order.size:
        out.update(zip(order, _solve_blocks(points.take(order), starts, firsts)))
    return [out[k] for k in range(len(points.s))]


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
    one-point grid at index 0 (see ``_solve_points``).  At a proven point
    (``_witness``) the answer is the witness, repaired and evaluated exactly,
    ``converged`` by proof; no solve runs, and ``restarts`` and ``seed`` do
    not change it.  Otherwise one ``_solve`` runs its kind's witness at s
    over the Newton tail and its ``restarts`` random starts over the full
    schedule (such a query is always audited), and the best of these rows is
    the answer, with its own ``converged`` flag.
    """
    set_ = FeasibleSet(set_) if isinstance(set_, str) else set_
    mode = ScanMode(mode) if isinstance(mode, str) else mode
    _check_request(restarts, seed, qtilde_cap, s)
    (best,) = _solve_points(_geometry(set_, mode, qtilde_cap).at([s]), restarts, [[seed]])
    return best


def scan(config: ScanConfig) -> BoundaryCurve:
    """Solve every point of the evenly spaced grid (see ``_solve_points``).

    Each audited grid point of an NS or SYM scan draws its random starts from
    its own grid-index-seeded RNG stream; whole points, the audited ones
    first, are then stacked into blocks of about ``_BLOCK_ROWS`` rows and
    solved together, and the results come back in grid order.  Rows never
    interact and each stops by its own rules, so a point's result does not
    depend on its block beyond rounding in shared matrix products.  Per-point
    failures are reported through ``converged=False``, never by aborting the
    scan.  A proven point (``_witness``) solves nothing: it is its witness,
    with ``converged=True``, whatever ``restarts`` and ``seed`` are.
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

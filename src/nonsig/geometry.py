"""Concavity analysis of scanned curves: orientation determinants, inflection
localization, and correlator trajectories along symmetric scans."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorError, Correlators, sym_orbit
from .functionals import chsh_linear
from .boundary import BoundaryCurve, FeasibleSet


class AnalysisError(RuntimeError):
    """A post-processing step could not reach a conclusive answer."""


@dataclass(frozen=True)
class InflectionEstimate:
    """Located concavity change: the transition band and its endpoint.

    ``transition_lo``/``transition_hi`` bound the band of width 2k*ds where
    the triples mix both curvatures and the determinant sign carries no
    information; ``s_star`` is the band's end, the estimated inflection.
    """

    s_star: float
    uncertainty: float
    transition_lo: float
    transition_hi: float

    def __post_init__(self):
        if not self.transition_lo < self.s_star <= self.transition_hi:
            raise AnalysisError("inconsistent transition band")


def orientation_det(a, b, c) -> float:
    """Determinant of [[1, xA, yA], [1, xB, yB], [1, xC, yC]].

    Positive for a counterclockwise path A -> B -> C, negative for clockwise,
    zero for collinear points.
    """
    return float(_orientation_dets(a, b, c))


def _orientation_dets(a, b, c):
    """``orientation_det`` elementwise, for points whose coordinates are arrays."""
    (xa, ya), (xb, yb), (xc, yc) = a, b, c
    return (xb - xa) * (yc - ya) - (xc - xa) * (yb - ya)


def check_window(k: int, n: int, name: str = "k") -> None:
    """Reject a spacing k that is not positive or that n points cannot hold on both sides."""
    if k < 1:
        raise AnalysisError(f"{name} must be positive")
    if n < 2 * k + 1:
        raise AnalysisError(f"too short for {name} {k}: need at least {2 * k + 1} points, got {n}")


def concavity_profile_xy(s: np.ndarray, i: np.ndarray, k: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Orientation determinants of the triples (j, j+k, j+2k) along a curve, as
    the pair of arrays (first point's abscissa, determinant), one entry per triple.

    Spacing the triple by k grid steps keeps the matrix away from the
    near-singular regime of adjacent points.  Requires at least 2k+1 points
    with uniform spacing.
    """
    s = np.asarray(s, dtype=float)
    i = np.asarray(i, dtype=float)
    check_window(k, len(s))
    steps = np.diff(s)
    if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-6 * steps.mean():
        raise AnalysisError("curve must have strictly increasing, uniform s spacing")
    m = len(s) - 2 * k
    dets = _orientation_dets((s[:m], i[:m]), (s[k : k + m], i[k : k + m]), (s[2 * k :], i[2 * k :]))
    return s[:m].copy(), dets


def concavity_profile(curve: BoundaryCurve, k: int = 100) -> tuple[np.ndarray, np.ndarray]:
    return concavity_profile_xy(curve.s, curve.i, k=k)


def locate_inflection(profile: tuple[np.ndarray, np.ndarray], ds: float, k: int) -> InflectionEstimate:
    """Locate the single persistent concavity change in a determinant profile.

    Sign runs shorter than k samples count as noise.  The persistent runs
    must show exactly one sign change; the determinant of a triple is centered
    k steps past its recorded abscissa, so the end of the mixed band sits
    k*ds beyond the last opposite-sign sample.
    """
    ss, dets = profile
    if not len(dets):
        raise AnalysisError("empty profile")
    signs = np.sign(dets)
    # compress into runs, drop zero-determinant samples into their neighbors
    runs: list[tuple[float, int]] = []  # (sign, length)
    for sg in signs:
        if sg == 0:
            continue
        if runs and runs[-1][0] == sg:
            runs[-1] = (sg, runs[-1][1] + 1)
        else:
            runs.append((sg, 1))
    persistent = [int(sg) for sg, length in runs if length >= k]
    changes = sum(1 for a, b in zip(persistent, persistent[1:]) if a != b)
    if changes != 1:
        raise AnalysisError(
            f"need exactly one persistent sign change, found {changes} "
            f"(persistent run signs: {persistent})"
        )
    final_sign = persistent[-1]
    opposite = np.flatnonzero(signs == -final_sign)
    flip_idx = opposite.max()
    s_star = float(ss[flip_idx] + (k + 1) * ds)
    return InflectionEstimate(
        s_star=s_star,
        uncertainty=k * ds,
        transition_lo=s_star - 2 * k * ds,
        transition_hi=s_star,
    )


# ---------------------------------------------------------------------------
# correlator trajectories


@dataclass(frozen=True)
class Trajectory:
    """The five symmetric mean values along a scanned curve."""

    s: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    c00: np.ndarray
    c01: np.ndarray
    c11: np.ndarray

    def series(self) -> dict[str, np.ndarray]:
        return {"a0": self.a0, "a1": self.a1, "c00": self.c00, "c01": self.c01, "c11": self.c11}


def canonicalize_sym(c: Correlators) -> Correlators:
    """Pick the symmetric relabeling with the canonical expression maximal,
    C00 >= C11, then lexicographically largest correlators."""
    best = None
    best_key = None
    slot0_max = max(chsh_linear(v, 0) for v in sym_orbit(c))
    for v in sym_orbit(c):
        if chsh_linear(v, 0) < slot0_max - 1e-9:
            continue
        key = (
            round(v.ab[0, 0] - v.ab[1, 1], 9) >= 0,
            tuple(np.round(np.concatenate([v.a, [v.ab[0, 0], v.ab[0, 1], v.ab[1, 1]]]), 12)),
        )
        if best is None or key > best_key:
            best, best_key = v, key
    return best


def trajectory(curve: BoundaryCurve) -> Trajectory:
    """Extract the five mean-value series from a symmetric scan.

    Optimizer outputs are relabeling-canonicalized first, otherwise sign
    flips between neighboring grid points shred the series.
    """
    if curve.set is not FeasibleSet.SYM:
        raise BehaviorError("trajectories require a SYM scan (five free correlators)")
    cols = {"a0": [], "a1": [], "c00": [], "c01": [], "c11": []}
    for p in curve.points:
        v = canonicalize_sym(p.argopt)
        if abs(v.ab[0, 1] - v.ab[1, 0]) > 1e-6:
            raise BehaviorError(f"scan point at s={p.s} is not symmetric")
        cols["a0"].append(v.a[0])
        cols["a1"].append(v.a[1])
        cols["c00"].append(v.ab[0, 0])
        cols["c01"].append(v.ab[0, 1])
        cols["c11"].append(v.ab[1, 1])
    return Trajectory(s=curve.s, **{k: np.array(v) for k, v in cols.items()})


def _slope_scores(traj: Trajectory, window: int) -> np.ndarray:
    """Per index j, the largest change over the series between the least-squares
    slopes of the ``window + 1`` points ending at j and of those starting at j;
    zero within ``window`` of either end."""
    n = len(traj.s)
    xs = np.lib.stride_tricks.sliding_window_view(traj.s, window + 1)
    ys = np.lib.stride_tricks.sliding_window_view(np.stack(list(traj.series().values())), window + 1, axis=-1)
    xc = xs - xs.mean(axis=-1, keepdims=True)
    yc = ys - ys.mean(axis=-1, keepdims=True)
    slopes = (xc * yc).sum(axis=-1) / (xc * xc).sum(axis=-1)  # (series, window start)
    scores = np.zeros(n)
    scores[window : n - window] = np.abs(slopes[:, window:] - slopes[:, : n - 2 * window]).max(axis=0)
    return scores


_KINK_THRESHOLD = 10.0  # a slope change above this multiple of the median change is a kink


def slope_kinks(traj: Trajectory, window: int = 50) -> list[float]:
    """Locations where some series' slope jumps: two-sided linear fits over
    ``window`` points on each side, fired where the slope change exceeds
    ``_KINK_THRESHOLD`` times the median change, merged within one window."""
    n = len(traj.s)
    check_window(window, n, "window")
    scores = _slope_scores(traj, window)
    interior = scores[window : n - window]
    noise = np.median(interior)
    cut = _KINK_THRESHOLD * max(noise, 1e-12)
    hot = np.flatnonzero(scores > cut)
    if hot.size == 0:
        return []
    clusters = []
    start = hot[0]
    prev = hot[0]
    for idx in hot[1:]:
        if idx - prev > window:
            clusters.append((start, prev))
            start = idx
        prev = idx
    clusters.append((start, prev))
    out = []
    for lo, hi in clusters:
        seg = slice(lo, hi + 1)
        out.append(float(traj.s[lo + int(np.argmax(scores[seg]))]))
    return out

"""Median microseconds per call of the boundary solver's penalty kernel, and
per iteration of each stage of the penalty schedule.

Usage: PYTHONPATH=src python scripts/kernel_timing.py

Times ``boundary._penalty`` at 1, 10, 100, 256 and 1000 rows, value only and
value with gradient, for NS MIN at s = 2.9 and for the arcsin-capped C MAX at
s = 2.5.  The rows are starts drawn by the solver's own start builder, and
the penalty stage is mu = 1e3, eps = 1e-3.

Then times ``_newton`` on each of the six stages (mu = 10 to 1e6), each
started where the stage before it leaves the rows, as ``_solve`` runs them,
from random starts on two blocks: the 50 rows of one NS MAX point at s = 3.3
(one ``optimize_at_s`` at 50 restarts) and 256 NS MIN rows, 32 points on
[2.5, 3.1] at 8 starts each (one fig6 block); and on the two tail stages
only, started at the lower-boundary family's points of the 100 scores of the
benchmark's fig6 grid on [2.5, 3.1], one row each, as NS MIN scans start
them.  Per stage it prints the iterations until every row has finished, the
microseconds per iteration, and per iteration the value-only kernel calls
and the value+gradient+Hessian calls.  Every iteration is one batched linear
solve; the last three columns are the rows it solves on average, the Armijo
trials (step lengths tried) per row and iteration, and the share of solved
rows whose step no trial could take because it was no descent direction
(non-descent steps per row and iteration).

Last it times the family points themselves (``_family_vectors``, the
closed-form minimizer in a) in microseconds per score, at 1 score (s =
2 + 1e-9, 2.001 and 2.6) and at 100 scores spread over (2, 2 sqrt 2).

Prints nproc and the numpy version first; each time is the median of
``REPEATS`` samples.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from nonsig import boundary
from nonsig.boundary import FeasibleSet, ScanMode, _geometry, _penalty, _starts, _z_from_vector
from nonsig.slice import _family_vectors

CASES = (
    ("ns_min", FeasibleSet.NS, ScanMode.MIN, False, 2.9),
    ("c_max_capped", FeasibleSet.C, ScanMode.MAX, True, 2.5),
)
ROWS = (1, 10, 100, 256, 1000)
BLOCK_CASES = (
    ("ns_max point", FeasibleSet.NS, ScanMode.MAX, np.array([3.3]), 50),
    ("ns_min block", FeasibleSet.NS, ScanMode.MIN, np.linspace(2.5, 3.1, 32), 8),
)
FIG6_GRID = np.linspace(2.5, 3.1, 100)
FAMILY_SCORES = (np.array([2.0 + 1e-9]), np.array([2.001]), np.array([2.6]), np.linspace(2.01, 2.82, 100))
REPEATS = 7


def per_call_us(geo, off, z, grad: bool) -> float:
    calls = max(20, 2000 // len(z))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            _penalty(geo, off, z, 1e3, 1e-3, grad=grad)
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def random_start(set_, mode, grid, restarts):
    """The block's job and its random starts, drawn as scans draw them."""
    points = _geometry(set_, mode, False).at(grid)
    starts = [_starts(points.take([j]), restarts, np.random.default_rng([0, j])) for j in range(len(grid))]
    owner = np.repeat(np.arange(len(starts)), [len(z) for z in starts])
    return points.take(owner), np.concatenate(starts)


def family_start(grid):
    """The job of an NS MIN grid and its family starts, one row per point."""
    points = _geometry(FeasibleSet.NS, ScanMode.MIN, False).at(grid)
    return points, _z_from_vector(points, _family_vectors(grid))


def stages(job, z, outers):
    """Each of the last ``outers`` stages' (mu, eps, start rows), run in turn as ``_solve`` runs them."""
    out = []
    for mu, eps in zip(boundary._MU_SCHEDULE[-outers:], boundary._EPS_SCHEDULE[-outers:]):
        out.append((mu, eps, z.copy()))
        z, _ = boundary._newton(job, z, mu, eps)
    return out


def newton_counts(job, z, mu, eps) -> tuple[int, int, int, int, int, int]:
    """Iterations (batched solves, one per iteration), value-only calls,
    value+grad+Hessian calls, rows solved, step lengths tried and non-descent
    steps in one stage.

    An iteration's first value-only call, if any, directly follows its solve
    and tries the full step of each row whose step is a descent direction,
    one row each; the other rows that iteration solved are non-descent steps."""
    events = []  # (call, rows): "solve", "value" or "hess"
    solve = np.linalg.solve

    def counted(geo, off, zz, mu, eps, grad=True, hess=False):
        events.append(("hess" if hess else "grad" if grad else "value", len(zz)))
        return _penalty(geo, off, zz, mu, eps, grad=grad, hess=hess)

    def counted_solve(a, b):
        events.append(("solve", len(a)))
        return solve(a, b)

    boundary._penalty, np.linalg.solve = counted, counted_solve
    try:
        boundary._newton(job, z.copy(), mu, eps)
    finally:
        boundary._penalty, np.linalg.solve = _penalty, solve

    def calls(kind):
        return sum(k == kind for k, _ in events)

    def rows(kind):
        return sum(r for k, r in events if k == kind)

    following = events[1:] + [("end", 0)]
    nondescent = sum(r - (nr if nk == "value" else 0) for (k, r), (nk, nr) in zip(events, following) if k == "solve")
    return calls("solve"), calls("value"), calls("hess"), rows("solve"), rows("value"), nondescent


def per_stage_us(job, z, mu, eps) -> float:
    samples = []
    for _ in range(REPEATS):
        zz = z.copy()
        t0 = time.perf_counter()
        boundary._newton(job, zz, mu, eps)
        samples.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(samples)


def family_us(scores) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _family_vectors(scores)
        samples.append((time.perf_counter() - t0) / len(scores) * 1e6)
    return statistics.median(samples)


def main() -> None:
    print(f"nproc {os.cpu_count()}; numpy {np.__version__}; median of {REPEATS} samples, us per call")
    print(f"{'case':<14}{'rows':>6}{'value':>10}{'value+grad':>12}")
    for name, set_, mode, cap, s in CASES:
        geo = _geometry(set_, mode, cap)
        for rows in ROWS:
            z = _starts(geo.at([s]), rows, np.random.default_rng([rows]))
            off = geo.at(np.full(len(z), s)).off
            value = per_call_us(geo, off, z, False)
            both = per_call_us(geo, off, z, True)
            print(f"{name:<14}{rows:>6}{value:>10.1f}{both:>12.1f}")

    print("\nNewton stages, per iteration")
    print(
        f"{'case':<14}{'rows':>6}{'mu':>7}{'iters':>7}{'us/iter':>10}{'value/iter':>12}"
        f"{'hess/iter':>11}{'rows/solve':>12}{'trials/row':>12}{'nondescent/row':>16}"
    )
    blocks = [
        (name, *random_start(set_, mode, grid, restarts), len(boundary._MU_SCHEDULE))
        for name, set_, mode, grid, restarts in BLOCK_CASES
    ]
    blocks.append(("ns_min family", *family_start(FIG6_GRID), boundary._TAIL_STAGES))
    for name, job, z0, outers in blocks:
        for mu, eps, z in stages(job, z0, outers):
            iterations, value, hess, solved, trials, nondescent = newton_counts(job, z, mu, eps)
            us = per_stage_us(job, z, mu, eps) / iterations
            print(
                f"{name:<14}{len(z):>6}{mu:>7.0e}{iterations:>7}{us:>10.1f}{value / iterations:>12.2f}"
                f"{hess / iterations:>11.2f}{solved / iterations:>12.1f}{trials / solved:>12.2f}"
                f"{nondescent / solved:>16.3f}"
            )

    print("\nfamily points (_family_vectors), us per score")
    for scores in FAMILY_SCORES:
        where = f"s = {float(scores[0])!r}" if len(scores) == 1 else f"s = {scores[0]}..{scores[-1]}"
        print(f"{len(scores):>6} scores {where:<22}{family_us(scores):>10.1f}")


if __name__ == "__main__":
    main()

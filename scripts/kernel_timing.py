"""Median microseconds per call of the boundary solver's penalty kernel, and
per iteration of each stage of the penalty schedule.

Usage: PYTHONPATH=src python scripts/kernel_timing.py

Times ``boundary._penalty`` at 1, 10, 100, 256 and 1000 rows, value only and
value with gradient and Hessian, for NS MIN at s = 2.9.  The rows are starts
drawn by the solver's own start builder, and the penalty stage is mu = 1e3,
eps = 1e-3.

Then times ``_newton`` on each stage of the penalty schedule (mu = 10 to
1e6) with the rows that have started by then, each row started where the
stage before it leaves it, as ``_solve`` runs them, on four blocks, all of
rows that scans and queries run: the query blocks of NS MAX at s = 3.3 and of
SYM MAX at s = 2.8991597630941346, seed 2065143098 (each one
``optimize_at_s`` at 50 restarts: 50 random audit rows from mu = 10 on, and
the ``ns_max`` witness row that joins them on the two tail stages, mu = 1e5
and 1e6); 256 random NS MIN rows, 32 points on [2.5, 3.1] at 8 starts each
(one fig6 block); the witness rows of the 100 scores of the benchmark's fig6
grid on [2.5, 3.1], the lower-boundary family's points, as NS MIN scans
start them.  Witness rows run on the two tail stages only; C kinds run no
solve.  Per stage it prints the stage's iteration cap
(``boundary._stage_iters``: 10 before the Newton tail, 30 on it), the
iterations until every row has finished, the microseconds per iteration, and
per iteration the value-only kernel calls and the value+gradient+Hessian
calls.  Every iteration is one batched linear solve; the next three columns
are the rows it solves on average, the Armijo trials (step lengths tried)
per row and iteration, and the share of solved steps that were no descent
direction, which the row reverses to leave a saddle (reversed steps per row
and iteration).

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
from nonsig.boundary import FeasibleSet, ScanMode, _geometry, _penalty, _starts, _witness
from nonsig.slice import _family_vectors

CASES = (("ns_min", FeasibleSet.NS, ScanMode.MIN, False, 2.9),)
ROWS = (1, 10, 100, 256, 1000)
#: Each query block's kind, score, random starts and start seed.
QUERY_CASES = (
    ("ns_max query", FeasibleSet.NS, ScanMode.MAX, 3.3, 50, [0, 0]),
    ("sym_max query", FeasibleSet.SYM, ScanMode.MAX, 2.8991597630941346, 50, [2065143098]),
)
#: Each random block's points, random starts per point and each point's start seed.
BLOCK_CASES = (
    ("ns_min block", FeasibleSet.NS, ScanMode.MIN, False, np.linspace(2.5, 3.1, 32), 8, [[0, j] for j in range(32)]),
)
#: Each witness block's kind and scores.
WITNESS_CASES = (("ns_min family", FeasibleSet.NS, ScanMode.MIN, False, np.linspace(2.5, 3.1, 100)),)
#: The first stage of a witness row: the Newton tail.
TAIL = len(boundary._MU_SCHEDULE) - boundary._TAIL_STAGES
FAMILY_SCORES = (np.array([2.0 + 1e-9]), np.array([2.001]), np.array([2.6]), np.linspace(2.01, 2.82, 100))
REPEATS = 7


def per_call_us(geo, off, z, derivs: bool) -> float:
    calls = max(20, 2000 // len(z))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            _penalty(geo, off, z, 1e3, 1e-3, derivs)
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def random_start(set_, mode, cap, grid, restarts, seeds):
    """The block's job, its random starts, drawn as scans and queries draw
    them, and their first stage, the schedule's first."""
    points = _geometry(set_, mode, cap).at(grid)
    starts = [_starts(points.take([j]), restarts, np.random.default_rng(seed)) for j, seed in enumerate(seeds)]
    owner = np.repeat(np.arange(len(starts)), [len(z) for z in starts])
    return points.take(owner), np.concatenate(starts), np.zeros(len(owner), dtype=int)


def query_block(set_, mode, s, restarts, seed):
    """One audited query's rows, as ``_solve_points`` stacks them: its witness
    from the Newton tail on, then its random starts from the first stage on."""
    point = _geometry(set_, mode, False).at([s])
    z = _starts(point, restarts, np.random.default_rng(seed))
    first = np.append(TAIL, np.zeros(restarts, dtype=int))
    return point.take(np.zeros(restarts + 1, dtype=int)), np.concatenate([_witness(point)[0], z]), first


def witness_start(set_, mode, cap, grid):
    """The job of a grid and its witness starts, one row per point from the Newton tail on."""
    points = _geometry(set_, mode, cap).at(grid)
    return points, _witness(points)[0], np.full(len(grid), TAIL)


def stages(job, z, first):
    """Each stage's (mu, eps, iteration cap, job, start rows) of the rows that
    have started on it (row k on stage ``first[k]``), run in turn as ``_solve``
    runs them."""
    out = []
    z = z.copy()
    for stage, (mu, eps) in enumerate(zip(boundary._MU_SCHEDULE, boundary._EPS_SCHEDULE)):
        rows = np.flatnonzero(first <= stage)
        if rows.size:
            part, cap = job.take(rows), boundary._stage_iters(stage)
            out.append((mu, eps, cap, part, z[rows]))
            z[rows], _ = boundary._newton(part, z[rows], mu, eps, cap)
    return out


def newton_counts(job, z, mu, eps, cap) -> tuple[int, int, int, int, int, int]:
    """Iterations (batched solves, one per iteration), value-only calls,
    value+grad+Hessian calls, rows solved, step lengths tried and reversed
    steps in one stage.

    A solved step (H + lam I) step = -grad is reversed when grad . step >= 0,
    which the solve's right-hand side and solution show."""
    events = []  # (call, rows): "solve", "value" or "hess"
    reversed_steps = [0]
    solve = np.linalg.solve

    def counted(geo, off, zz, mu, eps, derivs=False):
        events.append(("hess" if derivs else "value", len(zz)))
        return _penalty(geo, off, zz, mu, eps, derivs)

    def counted_solve(a, b):
        events.append(("solve", len(a)))
        step = solve(a, b)
        reversed_steps[0] += int(((b * step).sum(axis=(1, 2)) <= 0.0).sum())  # -grad . step <= 0
        return step

    boundary._penalty, np.linalg.solve = counted, counted_solve
    try:
        boundary._newton(job, z.copy(), mu, eps, cap)
    finally:
        boundary._penalty, np.linalg.solve = _penalty, solve

    def calls(kind):
        return sum(k == kind for k, _ in events)

    def rows(kind):
        return sum(r for k, r in events if k == kind)

    return calls("solve"), calls("value"), calls("hess"), rows("solve"), rows("value"), reversed_steps[0]


def per_stage_us(job, z, mu, eps, cap) -> float:
    samples = []
    for _ in range(REPEATS):
        zz = z.copy()
        t0 = time.perf_counter()
        boundary._newton(job, zz, mu, eps, cap)
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
    print(f"{'case':<14}{'rows':>6}{'value':>10}{'+grad+hess':>12}")
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
        f"{'case':<14}{'rows':>6}{'mu':>7}{'cap':>5}{'iters':>7}{'us/iter':>10}{'value/iter':>12}"
        f"{'hess/iter':>11}{'rows/solve':>12}{'trials/row':>12}{'reversed/row':>14}"
    )
    blocks = [(name, *query_block(*case)) for name, *case in QUERY_CASES]
    blocks += [(name, *random_start(*case)) for name, *case in BLOCK_CASES]
    blocks += [(name, *witness_start(*case)) for name, *case in WITNESS_CASES]
    for name, job, z0, first in blocks:
        for mu, eps, cap, part, z in stages(job, z0, first):
            iterations, value, hess, solved, trials, reversed_steps = newton_counts(part, z, mu, eps, cap)
            us = per_stage_us(part, z, mu, eps, cap) / iterations
            print(
                f"{name:<14}{len(z):>6}{mu:>7.0e}{cap:>5}{iterations:>7}{us:>10.1f}{value / iterations:>12.2f}"
                f"{hess / iterations:>11.2f}{solved / iterations:>12.1f}{trials / solved:>12.2f}"
                f"{reversed_steps / solved:>14.3f}"
            )

    print("\nfamily points (_family_vectors), us per score")
    for scores in FAMILY_SCORES:
        where = f"s = {float(scores[0])!r}" if len(scores) == 1 else f"s = {scores[0]}..{scores[-1]}"
        print(f"{len(scores):>6} scores {where:<22}{family_us(scores):>10.1f}")


if __name__ == "__main__":
    main()

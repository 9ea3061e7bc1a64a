"""Median microseconds per call of the boundary solver's penalty kernel, and
per iteration of one gradient-descent stage.

Usage: PYTHONPATH=src python scripts/kernel_timing.py

Times ``boundary._penalty`` at 1, 10, 100, 256 and 1000 rows, value only and
value with gradient, for NS MIN at s = 2.9 and for the arcsin-capped C MAX at
s = 2.5.  The rows are starts drawn by the solver's own start builder, and
the penalty stage is mu = 1e3, eps = 1e-3.

Then times the last stage of the penalty schedule (``_gradient_descent`` at
mu = 1e6), started where the five stages before it leave the rows, on two
blocks: the 50 rows of one NS MAX point at s = 3.3 (one ``optimize_at_s``
at 50 restarts) and 256 NS MIN rows, 32 points on [2.5, 3.1] at 8 starts
each (one fig6 block).  It prints the microseconds per iteration and the
value-only and value+grad kernel calls per iteration.  An iteration is one
line search and the gradient step after it, so the iterations are the
value-only calls that follow a value+grad call.

Prints nproc and the numpy version first; each time is the median of
``REPEATS`` samples.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from nonsig import boundary
from nonsig.boundary import FeasibleSet, ScanMode, _geometry, _penalty, _starts

CASES = (
    ("ns_min", FeasibleSet.NS, ScanMode.MIN, False, 2.9),
    ("c_max_capped", FeasibleSet.C, ScanMode.MAX, True, 2.5),
)
ROWS = (1, 10, 100, 256, 1000)
DESCENT_CASES = (
    ("ns_max point", FeasibleSet.NS, ScanMode.MAX, np.array([3.3]), 50),
    ("ns_min block", FeasibleSet.NS, ScanMode.MIN, np.linspace(2.5, 3.1, 32), 8),
)
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


def stage(k: int) -> tuple:
    """The arguments after ``alpha`` that ``_solve`` passes stage k at its default tol."""
    return (boundary._MU_SCHEDULE[k], boundary._EPS_SCHEDULE[k], boundary._INNER_ITERS[k],
            max(boundary._GTOLS[k], 1e-8))


def last_stage_start(set_, mode, grid, restarts):
    """The block's job, owners, and its rows and steps as the first five stages leave them."""
    points = _geometry(set_, mode, False).at(grid)
    starts = [_starts(points.take([j]), restarts, np.random.default_rng([0, j])) for j in range(len(grid))]
    owner = np.repeat(np.arange(len(starts)), [len(z) for z in starts])
    job = points.take(owner)
    z = np.concatenate(starts)
    alpha = np.full(len(z), 0.05)
    last = len(boundary._MU_SCHEDULE) - 1
    for k in range(last):
        np.maximum(alpha, 1e-6, out=alpha)
        z, _, _ = boundary._gradient_descent(job, z, owner, alpha, *stage(k))
    np.maximum(alpha, 1e-6, out=alpha)
    return job, owner, z, alpha, stage(last)


def kernel_calls(job, owner, z, alpha, args) -> tuple[int, int, int]:
    """Iterations, value-only calls and value+grad calls of one stage."""
    kinds = []

    def counted(geo, off, zz, mu, eps, grad=True):
        kinds.append(grad)
        return _penalty(geo, off, zz, mu, eps, grad=grad)

    boundary._penalty = counted
    try:
        boundary._gradient_descent(job, z.copy(), owner, alpha.copy(), *args)
    finally:
        boundary._penalty = _penalty
    iterations = sum(1 for prev, cur in zip(kinds, kinds[1:]) if prev and not cur)
    return iterations, kinds.count(False), kinds.count(True)


def per_stage_us(job, owner, z, alpha, args) -> float:
    samples = []
    for _ in range(REPEATS):
        zz, aa = z.copy(), alpha.copy()
        t0 = time.perf_counter()
        boundary._gradient_descent(job, zz, owner, aa, *args)
        samples.append((time.perf_counter() - t0) * 1e6)
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

    print("\nlast descent stage (mu = 1e6), per iteration")
    print(f"{'case':<14}{'rows':>6}{'iters':>7}{'us/iter':>10}{'value/iter':>12}{'grad/iter':>11}")
    for name, set_, mode, grid, restarts in DESCENT_CASES:
        job, owner, z, alpha, args = last_stage_start(set_, mode, grid, restarts)
        iterations, value, both = kernel_calls(job, owner, z, alpha, args)
        us = per_stage_us(job, owner, z, alpha, args) / iterations
        print(f"{name:<14}{len(z):>6}{iterations:>7}{us:>10.1f}{value / iterations:>12.2f}{both / iterations:>11.2f}")


if __name__ == "__main__":
    main()

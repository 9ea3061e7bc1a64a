"""Median microseconds per call of the boundary solver's penalty kernel.

Usage: PYTHONPATH=src python scripts/kernel_timing.py

Times ``boundary._penalty`` at 1, 10, 100, 256 and 1000 rows, value only and
value with gradient, for NS MIN at s = 2.9 and for the arcsin-capped C MAX at
s = 2.5.  The rows are starts drawn by the solver's own start builder, and
the penalty stage is mu = 1e3, eps = 1e-3.  Prints nproc and the numpy
version first; each figure is the median of ``REPEATS`` samples.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from nonsig.boundary import FeasibleSet, ScanMode, _geometry, _penalty, _starts

CASES = (
    ("ns_min", FeasibleSet.NS, ScanMode.MIN, False, 2.9),
    ("c_max_capped", FeasibleSet.C, ScanMode.MAX, True, 2.5),
)
ROWS = (1, 10, 100, 256, 1000)
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


if __name__ == "__main__":
    main()

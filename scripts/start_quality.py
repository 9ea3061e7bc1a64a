"""How well random starts alone reach the boundary, per kind.

Usage: PYTHONPATH=src python scripts/start_quality.py

For each kind it solves 40 interior scores of the kind's reference range, 10
random starts per score drawn by the solver's own start builder from
``default_rng([77, k])`` for the k-th score, through ``boundary._solve_blocks``
over the full penalty schedule: no witness start.  Each score's best row is
compared with the kind's reference (``REFERENCES``): ``ns_min`` for NS and
SYM MIN, ``ns_max`` for NS and SYM MAX, ``c_min`` for C MIN and ``c_max``
for C MAX.  Scans and queries answer C kinds from their proven witnesses and
run random starts only on NS and SYM kinds; the uncapped C kinds stay here
as a check of the random search on a slice whose extrema are proven.  The gap is the distance to
the reference on the losing side (above it for MIN, below it for MAX).

Per kind it prints the hits (gap within 1e-9), the mean and the worst gap
and the converged count, so that a solver change can report how good its
random starts are before and after.
"""

from __future__ import annotations

import os

import numpy as np

from nonsig.boundary import FeasibleSet, ScanMode, _geometry, _solve_blocks, _starts
from nonsig.curves import curve_value

SCORES = 40
STARTS = 10
HIT = 1e-9


#: Per kind: set, mode, arcsin cap, reference range and reference values at scores s.
REFERENCES = (
    ("ns_min", FeasibleSet.NS, ScanMode.MIN, False, (0.0, 4.0), lambda s: curve_value("ns_min", s)),
    ("ns_max", FeasibleSet.NS, ScanMode.MAX, False, (0.0, 4.0), lambda s: curve_value("ns_max", s)),
    ("sym_min", FeasibleSet.SYM, ScanMode.MIN, False, (0.0, 4.0), lambda s: curve_value("ns_min", s)),
    ("sym_max", FeasibleSet.SYM, ScanMode.MAX, False, (0.0, 4.0), lambda s: curve_value("ns_max", s)),
    ("c_min", FeasibleSet.C, ScanMode.MIN, False, (0.0, 4.0), lambda s: curve_value("c_min", s)),
    ("c_max", FeasibleSet.C, ScanMode.MAX, False, (0.0, 4.0), lambda s: curve_value("c_max", s)),
)


def main() -> None:
    print(f"nproc {os.cpu_count()}; numpy {np.__version__}; {SCORES} interior scores x {STARTS} random starts")
    print(f"{'kind':<14}{'range':>14}{'hits':>8}{'mean gap':>12}{'worst gap':>12}{'converged':>11}")
    for name, set_, mode, cap, (lo, hi), reference in REFERENCES:
        s = np.linspace(lo, hi, SCORES + 2)[1:-1]
        points = _geometry(set_, mode, cap).at(s)
        starts = [_starts(points.take([k]), STARTS, np.random.default_rng([77, k])) for k in range(SCORES)]
        found = _solve_blocks(points, starts, [np.zeros(STARTS, dtype=int)] * SCORES)
        sigma = 1.0 if mode is ScanMode.MIN else -1.0
        gap = sigma * (np.array([p.i for p in found]) - reference(s))
        converged = sum(p.converged for p in found)
        print(
            f"{name:<14}{f'({lo:g}, {hi:.4g})':>14}{f'{(gap <= HIT).sum()}/{SCORES}':>8}"
            f"{gap.mean():>12.2e}{gap.max():>12.2e}{f'{converged}/{SCORES}':>11}"
        )


if __name__ == "__main__":
    main()

"""Print a fixed stream of point queries, one line each, for diffing two checkouts.

Usage: PYTHONPATH=src python scripts/query_dump.py SEED

Runs 91 ``optimize_at_s`` queries at 50 restarts, the five kinds in turn
(NS MIN, NS MAX, SYM MIN, SYM MAX, capped C MAX).  Each kind's first query
sits at the low end of its score range and its second at the high end; the
other scores and every query's seed are drawn from ``default_rng([SEED])``.
The capped C MAX fifth answers from its proven witness with no solve, so
the seeds drawn for it do not change its lines; they are still drawn, which
keeps the other kinds' scores and seeds as they were.
Each line holds the kind, s, I, the converged flag (0/1) and the 8 argopt
correlators, floats as ``repr``.  Two checkouts answered the stream
identically when

    diff <(PYTHONPATH=a/src python scripts/query_dump.py 1) <(PYTHONPATH=b/src python scripts/query_dump.py 1)

is empty.
"""

from __future__ import annotations

import argparse

import numpy as np

from nonsig.boundary import optimize_at_s
from nonsig.functionals import TSIRELSON

QUERIES = 91
RESTARTS = 50
KINDS = (
    ("ns_min", "ns", "min", False),
    ("ns_max", "ns", "max", False),
    ("sym_min", "sym", "min", False),
    ("sym_max", "sym", "max", False),
    ("c_max", "c", "max", True),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("seed", type=int)
    seed = parser.parse_args().seed
    if seed < 0:
        parser.error("seed must be >= 0")
    rng = np.random.default_rng([seed])
    for j in range(QUERIES):
        kind, set_, mode, cap = KINDS[j % len(KINDS)]
        lo, hi = (2.0, TSIRELSON) if cap else (0.0, 4.0)
        rank = j // len(KINDS)  # this query's place among its kind's
        s = float((lo, hi)[rank] if rank < 2 else rng.uniform(lo, hi))
        p = optimize_at_s(set_, mode, s, restarts=RESTARTS, seed=int(rng.integers(2**31)), qtilde_cap=cap)
        vec = p.argopt.vector().tolist()
        print(f"{kind} {s!r} {p.i!r} {int(p.converged)} " + " ".join(map(repr, vec)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

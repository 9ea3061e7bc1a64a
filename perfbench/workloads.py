"""The three workloads: inputs made from the seed, one timed operation, and its checks.

Each workload object is built from the seed alone (its constructor makes the
inputs), runs one operation through nonsig's entry points (``run``, the
timed part), and checks that operation's outputs afterwards (``check``,
untimed).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stats import Tally, digest_bytes

TSIRELSON = 2.0 * math.sqrt(2.0)

#: fig6 grid size and triple spacing: the smallest desk-size grid whose
#: inflection estimate stays within INFLECTION_TOL on every seed tried.
FIG6_POINTS = 100
FIG6_K = 10
INFLECTION_TOL = 0.02

QUERY_RESTARTS = 50
QUERY_STREAM = 4000
QUERY_STRATA = 20
#: The first queries of every run always complete; their results are the digest.
QUERY_DIGEST_PREFIX = 25
#: Criterion 3 tolerance on |I - closed form| in bits.
QUERY_REF_TOL = 2e-3

CLOUD_N = 500_000

BEHAVIOR_TOL = 1e-9
S_TOL = 1e-9
I_TOL = 1e-12

SCAN_HEADER = ["s", "i", "converged", "a0", "a1", "b0", "b1", "c00", "c01", "c10", "c11"]
_SIGNS = np.array([1.0, -1.0])


def inputs_per_run(workload, seconds: float, repeat: int = 1) -> int:
    """How many inputs a run of ``seconds`` works through, each ``repeat`` times.

    The count depends on the run length alone, never on how fast the
    operations go, so every run of one seed does the same operations and
    gets the same check results.  ``op_seconds`` is one operation with its
    checks on the 2-CPU development host, so a run there lasts ``seconds``.
    """
    return max(workload.min_ops, round(seconds / (repeat * workload.op_seconds)))


@dataclass
class Outcome:
    """What the checks of one operation found."""

    items: int
    tally: Tally
    digest: tuple[str, str] | None = None  # (what was hashed, SHA-256 of it)
    errors: list[float] = field(default_factory=list)  # |I - closed form| where one exists
    extra: dict = field(default_factory=dict)


def table_from_vector(vec8) -> np.ndarray:
    """p(ab|xy) from [a0, a1, b0, b1, c00, c01, c10, c11], indexed [x, y, a, b]."""
    v = np.asarray(vec8, dtype=float)
    a, b, ab = v[:2], v[2:4], v[4:].reshape(2, 2)
    return 0.25 * (
        1.0
        + a[:, None, None, None] * _SIGNS[None, None, :, None]
        + b[None, :, None, None] * _SIGNS[None, None, None, :]
        + ab[:, :, None, None] * np.outer(_SIGNS, _SIGNS)[None, None]
    )


def argopt_ok(nonsig, s: float, i: float, vec8) -> bool:
    """The argopt is a behavior at 1e-9 whose S is s and whose I is i."""
    try:
        behavior = nonsig.validate(table_from_vector(vec8), tol=BEHAVIOR_TOL)
    except nonsig.BehaviorError:
        return False
    return (
        abs(nonsig.s_max(behavior) - s) <= S_TOL
        and abs(nonsig.mutual_information(behavior) - i) <= I_TOL
    )


def _dispatch(nonsig, argv) -> int:
    # Looked up at call time, so a traced run goes through the wrapper.
    with contextlib.redirect_stdout(io.StringIO()):
        return nonsig.cli.dispatch(argv)


def _file_digest(outdir: Path, names) -> str:
    return digest_bytes((name, (outdir / name).read_bytes()) for name in names)


class Fig6Scan:
    """``repro fig6``: NS MIN scan on [2.5, 3.1], concavity profile, inflection."""

    name = "fig6_scan"
    item = "grid points"
    checks_per_op = FIG6_POINTS + 1  # every row, plus the inflection estimate
    min_ops = 1
    op_seconds = 7.5
    probes_per_op = 5
    warmup_ops = 0
    reports_latency = False
    uses_pool = True
    outputs = ("fig6_scan.csv", "fig6_profile.csv", "fig6_inflection.json")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.outdir = workdir / self.name

    def recipe_seed(self, index: int) -> int:
        # Each operation scans with its own seed, so a run's median mixes
        # several solver start sets instead of repeating one.
        return 1000 * self.seed + index

    def run(self, nonsig, index: int):
        argv = [
            "repro", "fig6", "--points", str(FIG6_POINTS), "--k", str(FIG6_K),
            "--seed", str(self.recipe_seed(index)), "--outdir", str(self.outdir),
        ]
        return index, _dispatch(nonsig, argv)

    def check(self, nonsig, result) -> Outcome:
        index, rc = result
        seed = self.recipe_seed(index)
        tally = Tally()
        if rc != 0:
            tally.add(False, self.checks_per_op)
            return Outcome(FIG6_POINTS, tally, extra={"failures": [{"recipe_seed": seed, "exit": rc}]})
        with (self.outdir / "fig6_scan.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], rows[1:]
        errors, converged, failures = [], 0, []
        if header != SCAN_HEADER or len(rows) != FIG6_POINTS:
            tally.add(False, FIG6_POINTS)
        else:
            for row in rows:
                s, i, vec = float(row[0]), float(row[1]), [float(v) for v in row[3:]]
                converged += row[2] == "1"
                ok = argopt_ok(nonsig, s, i, vec)
                if s >= TSIRELSON:
                    ref = nonsig.curve_value("bell_pr_min", s)
                    errors.append(abs(i - ref))
                    ok = ok and i <= ref + BEHAVIOR_TOL
                tally.add(ok)
                if not ok:
                    failures.append({"recipe_seed": seed, "s": s})
        extra = {"converged_points": converged, "failures": failures}
        try:
            s_star = json.loads((self.outdir / "fig6_inflection.json").read_text())["s_star"]
            extra["inflection_dev"] = abs(float(s_star) - TSIRELSON)
        except (OSError, ValueError, KeyError, TypeError):
            pass
        tally.add(extra.get("inflection_dev", math.inf) <= INFLECTION_TOL)
        return Outcome(FIG6_POINTS, tally, (f"recipe seed {seed}", _file_digest(self.outdir, self.outputs)), errors, extra)


#: (kind, feasible set, mode, qtilde cap)
QUERY_KINDS = (
    ("ns_min", "ns", "min", False),
    ("ns_max", "ns", "max", False),
    ("sym_min", "sym", "min", False),
    ("sym_max", "sym", "max", False),
    ("c_max", "c", "max", True),
)


def query_reference(nonsig, kind: str, s: float) -> float | None:
    """Closed-form I for a query, or None where the paper gives none."""
    if kind in ("ns_max", "sym_max"):
        return nonsig.curve_value("ns_max", s)
    if kind == "c_max":
        return nonsig.curve_value("qc_max", s)
    if s >= TSIRELSON:
        return nonsig.curve_value("bell_pr_min", s)
    if s <= 2.0:
        return 0.0
    return None


class PointQueries:
    """One client, closed loop: each operation is one ``optimize_at_s`` call."""

    name = "point_queries"
    item = "queries"
    checks_per_op = 1
    min_ops = QUERY_DIGEST_PREFIX
    op_seconds = 0.33
    probes_per_op = 1
    warmup_ops = 0
    reports_latency = True
    uses_pool = False

    def __init__(self, seed: int, workdir: Path):
        # s is stratified: every block of QUERY_STRATA queries per kind puts one
        # uniform draw in each of QUERY_STRATA equal slices of the kind's range,
        # so runs with different seeds see the same mix of easy and hard s.
        rng = np.random.default_rng([seed])
        n_kinds = len(QUERY_KINDS)
        self.queries = []
        for j in range(QUERY_STREAM):
            kind, set_, mode, cap = QUERY_KINDS[j % n_kinds]
            m = j // n_kinds
            if m % QUERY_STRATA == 0 and j % n_kinds == 0:
                order = [rng.permutation(QUERY_STRATA) for _ in QUERY_KINDS]
            lo, hi = (2.0, TSIRELSON) if cap else (0.0, 4.0)
            s = lo + (hi - lo) * (order[j % n_kinds][m % QUERY_STRATA] + rng.uniform()) / QUERY_STRATA
            self.queries.append((kind, set_, mode, cap, float(s), int(rng.integers(2**31))))
        self.prefix_lines: list[str] = []

    def run(self, nonsig, index: int):
        kind, set_, mode, cap, s, qseed = self.queries[index % QUERY_STREAM]
        return index, nonsig.boundary.optimize_at_s(
            set_, mode, s, restarts=QUERY_RESTARTS, seed=qseed, qtilde_cap=cap
        )

    def check(self, nonsig, result) -> Outcome:
        index, res = result
        kind, _, _, _, s, _ = self.queries[index % QUERY_STREAM]
        vec = res.argopt.vector()
        ok = argopt_ok(nonsig, s, res.i, vec)
        ref = query_reference(nonsig, kind, s)
        errors = []
        if ref is not None:
            errors.append(abs(res.i - ref))
            ok = ok and errors[0] <= QUERY_REF_TOL
        tally = Tally()
        tally.add(ok)
        digest = None
        if index == len(self.prefix_lines) < QUERY_DIGEST_PREFIX:
            self.prefix_lines.append(f"{kind} {s!r} {res.i!r} {int(res.converged)} " + " ".join(map(repr, vec.tolist())))
            if index == QUERY_DIGEST_PREFIX - 1:
                lines = enumerate(self.prefix_lines)
                digest = (f"first {QUERY_DIGEST_PREFIX} queries", digest_bytes((str(j), t.encode()) for j, t in lines))
        return Outcome(1, tally, digest, errors, {"failures": [] if ok else [{"kind": kind, "s": s}]})


class QuantumCloud:
    """``repro fig5``: Born sampling, batched S and I, CSV and manifest writes."""

    name = "quantum_cloud"
    item = "sampled behaviors"
    checks_per_op = CLOUD_N
    min_ops = 1
    op_seconds = 5.0
    probes_per_op = 5
    #: The first recipe run in a process is 10-20% slower than the rest.
    warmup_ops = 1
    reports_latency = False
    uses_pool = False
    outputs = ("fig5_quantum.csv", "fig5_mixtures.csv", "fig5_qc_curve.csv")

    def __init__(self, seed: int, workdir: Path):
        self.outdir = workdir / self.name
        self.argv = ["repro", "fig5", "--n", str(CLOUD_N), "--seed", str(seed), "--outdir", str(self.outdir)]

    def run(self, nonsig, index: int):
        return _dispatch(nonsig, self.argv)

    def check(self, nonsig, rc) -> Outcome:
        tally = Tally()
        path = self.outdir / "fig5_quantum.csv"
        if rc != 0:
            tally.add(False, self.checks_per_op)
            return Outcome(CLOUD_N, tally, extra={"failures": [{"exit": rc}]})
        with path.open() as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if header != "s,i" or data.shape != (CLOUD_N, 2):
            tally.add(False, CLOUD_N)
        else:
            s, i = data[:, 0], data[:, 1]
            good = np.isfinite(s) & (s <= TSIRELSON + 1e-9) & (i >= -I_TOL) & (i <= 1.0 + I_TOL)
            n_good = int(good.sum())
            tally.add(True, n_good)
            tally.add(False, CLOUD_N - n_good)
        return Outcome(CLOUD_N, tally, ("fig5", _file_digest(self.outdir, self.outputs)))


WORKLOADS = {w.name: w for w in (Fig6Scan, PointQueries, QuantumCloud)}

"""Compare two output trees of the reproduction recipes file by file.

Usage: PYTHONPATH=src python scripts/compare_scans.py DIR_A DIR_B

Every file present in both trees gets one line.  A scan CSV (the header of
``runio.write_curve_csv``, read with ``runio.read_curve_csv``) reports its
row count, the rows that moved (any of i, converged or the argopt differs),
the largest increase and the largest decrease of I from A to B, and the
converged count A -> B.  A recipe scan with a known witness curve (see
``WITNESSES``) also reports, for each tree, its worst gap to the witness on
the losing side (above it for a MIN curve, below it for a MAX curve), the
number of rows beyond 1e-12 there, and its largest excursion past the
witness on the winning side.  Past the proven ``qc_max`` such an excursion
is a defect (a point outside the quantum set); past ``ns_min`` or ``ns_max``
beyond rounding it would be a counterexample to their conjectures.  Any
other file reports ``identical`` or ``differs`` by SHA-256.  Run manifests
(``*_manifest.json``) are skipped: they hold wall times.  Files found in one
tree only are listed too.

Exits 0 only when every compared file is byte-identical and no file is
missing from either tree, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from nonsig.curves import curve_value
from nonsig.runio import ParseError, read_curve_csv, sha256_file

#: The recipe scans with a known witness curve: the curve and the sign that
#: makes a gap positive on the losing side (+1 for a MIN scan, which loses
#: above its witness; -1 for a MAX scan, which loses below it).
WITNESSES = {
    "fig3_ns_max.csv": ("ns_max", -1.0),
    "fig3_ns_min.csv": ("ns_min", 1.0),
    "fig4_ns_min.csv": ("ns_min", 1.0),
    "fig6_scan.csv": ("ns_min", 1.0),
    "fig7_scan.csv": ("ns_min", 1.0),
    "fig4_qtilde_max.csv": ("qc_max", -1.0),
}


def _files(root: Path) -> set[Path]:
    return {
        p.relative_to(root) for p in root.rglob("*") if p.is_file() and not p.name.endswith("_manifest.json")
    }


def _witness_gap(name: str, curve) -> str:
    """The worst gap of a scan to its witness curve on the losing side, the
    rows beyond 1e-12 there and the largest excursion past the witness on the
    winning side, or "" for a file without a witness."""
    if name not in WITNESSES:
        return ""
    witness, sign = WITNESSES[name]
    gap = sign * (curve.i - curve_value(witness, curve.s))
    return (
        f"worst gap to {witness} {max(0.0, gap.max()):.3g} ({(gap > 1e-12).sum()} rows beyond 1e-12),"
        f" largest excursion past it {max(0.0, -gap.min()):.3g}"
    )


def _scan_report(a: Path, b: Path) -> str | None:
    """The scan summary of two scan CSVs, or None if either is not one."""
    try:
        ca, cb = read_curve_csv(a), read_curve_csv(b)
    except ParseError:
        return None
    gaps = _witness_gap(a.name, ca), _witness_gap(b.name, cb)
    witness = f"; A {gaps[0]}, B {gaps[1]}" if gaps[0] else ""
    conv_a, conv_b = (np.array([p.converged for p in c.points]) for c in (ca, cb))
    converged = f"converged {conv_a.sum()} -> {conv_b.sum()}"
    if len(conv_a) != len(conv_b) or not np.array_equal(ca.s, cb.s):
        return f"scan: grids differ ({len(conv_a)} -> {len(conv_b)} rows), {converged}{witness}"
    moved = (ca.i != cb.i) | (conv_a != conv_b) | (ca.argopt_vectors() != cb.argopt_vectors()).any(axis=1)
    di = cb.i - ca.i
    return (
        f"scan: {len(di)} rows, {moved.sum()} moved, largest increase of I {max(0.0, di.max()):.3g},"
        f" largest decrease {max(0.0, -di.min()):.3g}, {converged}{witness}"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 64
    root_a, root_b = Path(argv[0]), Path(argv[1])
    files_a, files_b = _files(root_a), _files(root_b)
    same = files_a == files_b
    for rel in sorted(files_a & files_b):
        a, b = root_a / rel, root_b / rel
        identical = sha256_file(a) == sha256_file(b)
        same &= identical
        summary = _scan_report(a, b) if rel.suffix == ".csv" else None
        verdict = "identical" if identical else "differs"
        print(f"{rel}: {verdict}" + (f"; {summary}" if summary else ""))
    for rel in sorted(files_a - files_b):
        print(f"{rel}: only in {root_a}")
    for rel in sorted(files_b - files_a):
        print(f"{rel}: only in {root_b}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare two output trees of the reproduction recipes file by file.

Usage: PYTHONPATH=src python scripts/compare_scans.py DIR_A DIR_B

Every file present in both trees gets one line.  A scan CSV (the header of
``runio.write_curve_csv``, read with ``runio.read_curve_csv``) reports its
row count, the rows that moved (any of i, converged or the argopt differs),
the largest increase and the largest decrease of I from A to B, and the
converged count A -> B.  Any other file reports ``identical`` or
``differs`` by SHA-256.  Run manifests (``*_manifest.json``) are skipped:
they hold wall times.  Files found in one tree only are listed too.

Exits 0 only when every compared file is byte-identical and no file is
missing from either tree, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from nonsig.runio import ParseError, read_curve_csv, sha256_file


def _files(root: Path) -> set[Path]:
    return {
        p.relative_to(root) for p in root.rglob("*") if p.is_file() and not p.name.endswith("_manifest.json")
    }


def _scan_report(a: Path, b: Path) -> str | None:
    """The scan summary of two scan CSVs, or None if either is not one."""
    try:
        ca, cb = read_curve_csv(a), read_curve_csv(b)
    except ParseError:
        return None
    conv_a, conv_b = (np.array([p.converged for p in c.points]) for c in (ca, cb))
    converged = f"converged {conv_a.sum()} -> {conv_b.sum()}"
    if len(conv_a) != len(conv_b) or not np.array_equal(ca.s, cb.s):
        return f"scan: grids differ ({len(conv_a)} -> {len(conv_b)} rows), {converged}"
    moved = (ca.i != cb.i) | (conv_a != conv_b) | (ca.argopt_vectors() != cb.argopt_vectors()).any(axis=1)
    di = cb.i - ca.i
    return (
        f"scan: {len(di)} rows, {moved.sum()} moved, largest increase of I {max(0.0, di.max()):.3g},"
        f" largest decrease {max(0.0, -di.min()):.3g}, {converged}"
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

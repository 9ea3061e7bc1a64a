"""CSV and JSON file formats plus deterministic run manifests.

Floats are written with 17 significant digits so a write/read round trip is
bit-exact; fixed formatting also makes repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .behavior import BehaviorError, Correlators, is_symmetric
from .boundary import BoundaryCurve, FeasibleSet, ScanPoint

SCAN_HEADER = ["s", "i", "converged", "a0", "a1", "b0", "b1", "c00", "c01", "c10", "c11"]


class ParseError(BehaviorError):
    """Malformed input file; message carries the offending line number."""


#: Rows formatted per write by ``_write_rows``.
_BLOCK_ROWS = 4096


def _write_rows(path, header, blocks, digits: int) -> None:
    """Header, then the float rows of each (n, k) block as ``format(v, ".<digits>g")`` fields.

    Byte-identical to ``csv.writer`` with one such string per value (CRLF
    line ends), but each ``_BLOCK_ROWS`` rows of a block go through one
    %-format spec.  Blocks are written as they come, so an iterator of
    blocks is never held in memory at once.
    """
    with Path(path).open("w", newline="\n") as fh:
        csv.writer(fh).writerow(header)
        for rows in blocks:
            rows = np.asarray(rows, dtype=float)
            for start in range(0, len(rows), _BLOCK_ROWS):
                block = rows[start : start + _BLOCK_ROWS]
                spec = (",".join([f"%.{digits}g"] * block.shape[1]) + "\r\n") * len(block)
                fh.write(spec % tuple(block.ravel().tolist()))


def write_curve_csv(path, curve: BoundaryCurve) -> None:
    """The scan at 17 digits; ``converged`` 1.0/0.0 prints as 1/0."""
    converged = [float(p.converged) for p in curve.points]
    _write_rows(path, SCAN_HEADER, [np.column_stack([curve.s, curve.i, converged, curve.argopt_vectors()])], 17)


def read_curve_csv(path) -> BoundaryCurve:
    """Read a scan CSV back into a BoundaryCurve.

    The file stores no scan configuration; the curve's feasible set is
    inferred as SYM when every row is device-symmetric, NS otherwise.  Bytes
    that are not UTF-8, CSV syntax errors, non-finite fields and a
    ``converged`` other than 0 or 1 raise ``ParseError`` with the line number.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text") from exc
    points: list[ScanPoint] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if [h.strip() for h in header] != SCAN_HEADER:
            raise ParseError(f"{path}:1: expected header {','.join(SCAN_HEADER)}")
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(SCAN_HEADER):
                raise ParseError(f"{path}:{lineno}: expected {len(SCAN_HEADER)} fields, got {len(row)}")
            try:
                s = float(row[0])
                i = float(row[1])
                conv = int(row[2])
                vec = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if conv not in (0, 1):
                raise ParseError(f"{path}:{lineno}: converged must be 0 or 1, got {row[2]!r}")
            for name, v in zip(SCAN_HEADER[:2] + SCAN_HEADER[3:], [s, i, *vec]):
                if not math.isfinite(v):
                    raise ParseError(f"{path}:{lineno}: non-finite {name}")
            points.append(ScanPoint(s=s, i=i, argopt=Correlators.from_vector(vec), converged=bool(conv)))
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    if not points:
        raise ParseError(f"{path}: no data rows")
    ss = np.array([p.s for p in points])
    if len(ss) > 1 and np.any(np.diff(ss) <= 0):
        bad = int(np.flatnonzero(np.diff(ss) <= 0)[0]) + 3
        raise ParseError(f"{path}:{bad}: s column must be strictly increasing")
    symmetric = all(is_symmetric(p.argopt, tol=1e-6) for p in points)
    return BoundaryCurve(points=tuple(points), set=FeasibleSet.SYM if symmetric else FeasibleSet.NS)


def write_xy_csv(path, s, i, digits: int = 12, header=("s", "i")) -> None:
    _write_rows(path, header, [np.column_stack([s, i])], digits)


def write_table_csv(path, header, rows, digits: int = 12) -> None:
    """``rows`` is one (n, k) array, or an iterator of such blocks written in turn."""
    _write_rows(path, header, rows if isinstance(rows, Iterator) else [rows], digits)


# ---------------------------------------------------------------------------
# run manifests


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every output file."""

    command: str
    seed: int | None
    version: str
    wall_time_s: float
    outputs: dict = field(default_factory=dict)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(path, command: str, seed: int | None, version: str, started: float, outputs) -> RunManifest:
    manifest = RunManifest(
        command=command,
        seed=seed,
        version=version,
        wall_time_s=time.time() - started,
        outputs={Path(p).name: sha256_file(p) for p in outputs},
    )
    Path(path).write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return manifest


def read_manifest(path) -> RunManifest:
    doc = json.loads(Path(path).read_text())
    return RunManifest(
        command=doc["command"],
        seed=doc["seed"],
        version=doc["version"],
        wall_time_s=doc["wall_time_s"],
        outputs=dict(doc["outputs"]),
    )

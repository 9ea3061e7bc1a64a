"""CSV and JSON file formats plus deterministic run manifests.

Floats are written with 17 significant digits so a write/read round trip is
bit-exact; fixed formatting also makes repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .behavior import BehaviorError, Correlators
from .boundary import BoundaryCurve, FeasibleSet, ScanConfig, ScanMode, ScanPoint

SCAN_HEADER = ["s", "i", "converged", "a0", "a1", "b0", "b1", "c00", "c01", "c10", "c11"]


class ParseError(BehaviorError):
    """Malformed input file; message carries the offending line number."""


def _fmt(x: float, digits: int = 17) -> str:
    return format(float(x), f".{digits}g")


def write_curve_csv(path, curve: BoundaryCurve) -> None:
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_HEADER)
        for p in curve.points:
            row = [_fmt(p.s), _fmt(p.i), str(int(p.converged))]
            row.extend(_fmt(v) for v in p.argopt.vector())
            writer.writerow(row)


def read_curve_csv(path) -> BoundaryCurve:
    """Read a scan CSV back into a BoundaryCurve.

    The scan configuration is not stored in the file; the returned config is
    reconstructed from the data (the feasible set is inferred as SYM when
    every row is device-symmetric).
    """
    path = Path(path)
    points: list[ScanPoint] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if [h.strip() for h in header] != SCAN_HEADER:
            raise ParseError(f"{path}:1: expected header {','.join(SCAN_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SCAN_HEADER):
                raise ParseError(f"{path}:{lineno}: expected {len(SCAN_HEADER)} fields, got {len(row)}")
            try:
                s = float(row[0])
                i = float(row[1])
                conv = bool(int(row[2]))
                vec = np.array([float(v) for v in row[3:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            points.append(
                ScanPoint(s=s, i=i, argopt=Correlators.from_vector(vec), converged=conv)
            )
    if not points:
        raise ParseError(f"{path}: no data rows")
    ss = np.array([p.s for p in points])
    if len(ss) > 1 and np.any(np.diff(ss) <= 0):
        bad = int(np.flatnonzero(np.diff(ss) <= 0)[0]) + 3
        raise ParseError(f"{path}:{bad}: s column must be strictly increasing")
    symmetric = all(
        abs(p.argopt.a[0] - p.argopt.b[0]) <= 1e-6
        and abs(p.argopt.a[1] - p.argopt.b[1]) <= 1e-6
        and abs(p.argopt.ab[0, 1] - p.argopt.ab[1, 0]) <= 1e-6
        for p in points
    )
    config = ScanConfig(
        set=FeasibleSet.SYM if symmetric else FeasibleSet.NS,
        mode=ScanMode.MIN,
        s_lo=float(ss[0]),
        s_hi=float(ss[-1]) if len(ss) > 1 else float(ss[0]) + 1.0,
        grid_points=max(len(ss), 2),
    )
    return BoundaryCurve(points=tuple(points), config=config)


def write_xy_csv(path, s, i, digits: int = 12, header=("s", "i")) -> None:
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(np.asarray(s), np.asarray(i)):
            writer.writerow([_fmt(v, digits) for v in row])


def write_table_csv(path, header, rows, digits: int = 12) -> None:
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v, digits) for v in row])


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

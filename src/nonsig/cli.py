"""Command-line interface: curve evaluation, scans, sampling, concavity
analysis, membership checks, and the named reproduction recipes."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .behavior import (
    BehaviorError,
    BehaviorTag,
    ValidationError,
    behavior_from_json_dict,
    named_correlators,
)
from .curves import CurveId, curve_grid
from .functionals import TSIRELSON, _mi_correlators, _s_max_ab
from .geometry import (
    AnalysisError,
    check_window,
    concavity_profile,
    locate_inflection,
    slope_kinks,
    trajectory,
)
from .membership import _arcsin_margin, report, report_to_json_dict
from .quantum import sample_chunks
from .runio import (
    read_curve_csv,
    write_curve_csv,
    write_manifest,
    write_table_csv,
    write_xy_csv,
)
from .boundary import FeasibleSet, ScanConfig, ScanMode, scan
from .slice import _isotropic_eig_root

USAGE_EXIT = 64
#: The largest count flag: numpy cannot size more 128-byte probability tables, and a curve
#: grid builds one per point.  The streamed cloud would not need the bound but keeps it.
_MAX_COUNT = np.iinfo(np.intp).max // 128


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for analysis errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def count(text: str) -> int:
    """An integer count flag (``count`` in argparse's errors); above ``_MAX_COUNT`` is a usage error."""
    n = int(text)
    if n > _MAX_COUNT:
        raise argparse.ArgumentTypeError(f"{n} is too large (at most {_MAX_COUNT})")
    return n


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="nonsig", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nonsig {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    restarts_help = "random starts per audited NS or SYM point (every 10th); C kinds ignore it (proven witnesses)"

    p = sub.add_parser("curve", help="evaluate an analytic boundary curve on a grid")
    p.add_argument("--id", required=True, choices=[c.value for c in CurveId])
    p.add_argument("--grid", type=count, default=200)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("scan", help="numerical boundary scan")
    p.add_argument("--set", required=True, choices=[s.value for s in FeasibleSet])
    p.add_argument("--mode", required=True, choices=[m.value for m in ScanMode])
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--restarts", type=count, default=50, help=restarts_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qtilde", action="store_true", help="add the arcsin quantum cap (correlation space only)")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("sample", help="sample random two-qubit quantum behaviors")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="include the correlator columns")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("inflect", help="locate the concavity change of a scanned curve")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("trajectory", help="correlator series along a symmetric scan")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("check", help="membership report for a behavior JSON document")
    p.add_argument("--in", dest="infile", type=Path, default=None, help="defaults to stdin")

    p = sub.add_parser("repro", help="run a named reproduction recipe")
    p.add_argument("recipe", choices=["fig3", "fig4", "fig5", "fig6", "fig7"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.add_argument("--full-scale", action="store_true", help="large reference grids instead of desk-size")
    p.add_argument("--points", type=count, default=None, help="override the grid size")
    p.add_argument("--n", type=count, default=None, help="override the sample count")
    p.add_argument("--restarts", type=count, default=None, help=restarts_help)
    p.add_argument("--k", type=int, default=None, help="override the triple spacing")
    return parser


def _cmd_curve(args) -> int:
    ss, ii = curve_grid(args.id, args.grid)
    if args.out is None:
        sys.stdout.write("s,i\n")
        for s, i in zip(ss, ii):
            sys.stdout.write(f"{s:.12g},{i:.12g}\n")
        return 0
    started = time.time()
    write_xy_csv(args.out, ss, ii)
    _write_file_manifest(args.out, None, started)
    return 0


def _cmd_scan(args) -> int:
    started = time.time()
    config = ScanConfig(
        set=FeasibleSet(args.set),
        mode=ScanMode(args.mode),
        s_lo=args.lo,
        s_hi=args.hi,
        grid_points=args.n,
        restarts=args.restarts,
        seed=args.seed,
        qtilde_cap=args.qtilde,
    )
    curve = scan(config)
    write_curve_csv(args.out, curve)
    _write_file_manifest(args.out, args.seed, started)
    return 0


def _cmd_sample(args) -> int:
    started = time.time()
    _write_cloud(args.out, args.n, args.seed, full=args.full)
    _write_file_manifest(args.out, args.seed, started)
    return 0


def _cmd_inflect(args) -> int:
    started = time.time()
    _, doc = _inflection(read_curve_csv(args.infile), args.k)
    text = _json_text(doc)
    if args.out is not None:
        args.out.write_text(text)
        _write_file_manifest(args.out, None, started)
    sys.stdout.write(text)
    return 0


def _cmd_trajectory(args) -> int:
    header, rows = _trajectory_table(trajectory(read_curve_csv(args.infile)))
    if args.out is not None:
        started = time.time()
        write_table_csv(args.out, header, rows, digits=17)
        _write_file_manifest(args.out, None, started)
    else:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(format(v, ".17g") for v in row) + "\n")
    return 0


def _cmd_check(args) -> int:
    try:
        raw = args.infile.read_text(encoding="utf-8") if args.infile else sys.stdin.read()
    except UnicodeDecodeError:
        sys.stderr.write("invalid input: not UTF-8 text\n")
        return 1
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also nesting too deep or an integer literal too long
        sys.stderr.write(f"invalid JSON: {exc}\n")
        return 1
    try:
        behavior = behavior_from_json_dict(doc)
    except ValidationError as exc:
        sys.stderr.write(f"invalid behavior: {exc}\n")
        sys.stdout.write(_json_text({"ns_valid": False}))
        return 1
    except BehaviorError as exc:
        sys.stderr.write(f"malformed behavior document: {exc}\n")
        return 1
    rep = report(behavior)
    sys.stdout.write(_json_text(report_to_json_dict(rep)))
    return 0


# ---------------------------------------------------------------------------
# outputs shared by the subcommands and the reproduction recipes


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cmdline() -> str:
    return "nonsig " + " ".join(sys.argv[1:])


def _write_file_manifest(out: Path, seed: int | None, started: float) -> None:
    """The run manifest of a single output file, written beside it."""
    write_manifest(out.with_name(out.name + ".manifest.json"), _cmdline(), seed, __version__, started, [out])


def _write_cloud(out: Path, n: int, seed: int, full: bool = False) -> None:
    """Sample n quantum behaviors and write their (s, i), plus the sampled correlators if
    ``full``, one sampling chunk at a time, so memory does not grow with n."""
    chunks = sample_chunks(n, seed)  # checks n and seed before the file is opened
    header = ["s", "i", "a0", "a1", "b0", "b1", "c00", "c01", "c10", "c11"] if full else ["s", "i"]
    # map, not a generator expression: its loop variable would hold each chunk's correlators
    # while the next chunk is drawn, pinning that chunk's freed memory in the heap (RSS).
    write_table_csv(out, header, map(lambda chunk: _cloud_rows(*chunk, full), chunks))


def _cloud_rows(a: np.ndarray, b: np.ndarray, ab: np.ndarray, full: bool) -> np.ndarray:
    s, i = _s_max_ab(ab), _mi_correlators(a, b, ab)
    return np.column_stack([s, i, a, b, ab.reshape(-1, 4)] if full else [s, i])


def _inflection(curve, k: int):
    """The concavity profile of a scanned curve and its inflection estimate as a JSON document."""
    profile = concavity_profile(curve, k=k)
    est = locate_inflection(profile, float(curve.s[1] - curve.s[0]), k)
    return profile, dataclasses.asdict(est)


def _trajectory_table(traj) -> tuple[list[str], np.ndarray]:
    """CSV header and rows of a correlator trajectory."""
    series = traj.series()
    return ["s", *series], np.column_stack([traj.s, *series.values()])


# ---------------------------------------------------------------------------
# reproduction recipes


def _given(value, default):
    """A recipe override; an explicit 0 counts as given and reaches the validators."""
    return default if value is None else value


def _sample_mixtures(n: int, seed: int) -> np.ndarray:
    """Random convex combinations of the shared coin, Bell and PR behaviors.

    Returns rows (s, i, qtilde_pass) for the correlation-space cloud; the
    weights are uniform on the simplex.
    """
    rng = np.random.default_rng([seed, 901])
    w = rng.dirichlet(np.ones(3), size=n)
    base = np.stack(
        [
            named_correlators(BehaviorTag.SC).ab,
            named_correlators(BehaviorTag.BELL).ab,
            named_correlators(BehaviorTag.PR).ab,
        ]
    )
    ab = np.einsum("nk,kxy->nxy", w, base)
    zero = np.zeros((n, 2))
    ok = _arcsin_margin(ab) <= np.pi + 1e-9
    return np.column_stack([_s_max_ab(ab), _mi_correlators(zero, zero, ab), ok.astype(float)])


def _recipe_scan(args, set_, mode, lo, hi, n, restarts, qtilde_cap=False) -> ScanConfig:
    """A recipe's scan of ``n`` grid points, a size the recipe has already
    worked out from ``--points``; ``--restarts`` overrides ``restarts``."""
    return ScanConfig(
        set=set_,
        mode=mode,
        s_lo=lo,
        s_hi=hi,
        grid_points=n,
        restarts=_given(args.restarts, restarts),
        seed=args.seed,
        qtilde_cap=qtilde_cap,
    )


def _repro_fig3(args, outdir: Path) -> list[Path]:
    n_max, n_min = (700, 500) if args.full_scale else (200, 150)
    files = []
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MAX, 0.0, 4.0, _given(args.points, n_max), 50)
    out = outdir / "fig3_ns_max.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MIN, 2.0, 4.0, _given(args.points, n_min), 50)
    out = outdir / "fig3_ns_min.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    return files


def _repro_fig4(args, outdir: Path) -> list[Path]:
    files = []
    points = _given(args.points, 200)
    ss, ii = curve_grid(CurveId.QC_MAX, points)
    out = outdir / "fig4_qc_curve.csv"
    write_xy_csv(out, ss, ii)
    files.append(out)
    n = max(points // 4, 10)
    cfg = _recipe_scan(args, FeasibleSet.C, ScanMode.MAX, 2.0, TSIRELSON, n, 30, qtilde_cap=True)
    out = outdir / "fig4_qtilde_max.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MIN, 2.0, TSIRELSON, n, 30)
    out = outdir / "fig4_ns_min.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    return files


def _repro_fig5(args, outdir: Path) -> list[Path]:
    n_quantum = _given(args.n, 5_000_000 if args.full_scale else 200_000)
    n_mix = 10_000
    files = []
    out = outdir / "fig5_quantum.csv"
    _write_cloud(out, n_quantum, args.seed)
    files.append(out)
    out = outdir / "fig5_mixtures.csv"
    write_table_csv(out, ["s", "i", "qtilde_pass"], _sample_mixtures(n_mix, args.seed))
    files.append(out)
    ss, ii = curve_grid(CurveId.QC_MAX, 200)
    out = outdir / "fig5_qc_curve.csv"
    write_xy_csv(out, ss, ii)
    files.append(out)
    return files


def _repro_fig6(args, outdir: Path):
    n = _given(args.points, 5000 if args.full_scale else 2000)
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MIN, 2.5, 3.1, n, 8)
    k = _given(args.k, 100)
    check_window(k, n)
    curve = scan(cfg)
    files = []
    out = outdir / "fig6_scan.csv"
    write_curve_csv(out, curve)
    files.append(out)
    profile, doc = _inflection(curve, k)
    out = outdir / "fig6_profile.csv"
    write_xy_csv(out, *profile, digits=17, header=("s", "det"))
    files.append(out)
    doc["tsirelson"] = TSIRELSON
    doc["isotropic_eig_root"], doc["isotropic_eig_signs"] = _isotropic_eig_root()
    out = outdir / "fig6_inflection.json"
    out.write_text(_json_text(doc))
    files.append(out)
    sys.stdout.write(_json_text(doc))
    return files


def _repro_fig7(args, outdir: Path):
    n = _given(args.points, 2000 if args.full_scale else 600)
    cfg = _recipe_scan(args, FeasibleSet.SYM, ScanMode.MIN, 2.5, 3.1, n, 8)
    window = _given(args.k, 50)
    check_window(window, n, "window")
    curve = scan(cfg)
    files = []
    out = outdir / "fig7_scan.csv"
    write_curve_csv(out, curve)
    files.append(out)
    traj = trajectory(curve)
    out = outdir / "fig7_trajectory.csv"
    write_table_csv(out, *_trajectory_table(traj), digits=17)
    files.append(out)
    doc = {"kinks": slope_kinks(traj, window=window), "tsirelson": TSIRELSON}
    out = outdir / "fig7_kinks.json"
    out.write_text(_json_text(doc))
    files.append(out)
    sys.stdout.write(_json_text(doc))
    return files


_RECIPES = {
    "fig3": _repro_fig3,
    "fig4": _repro_fig4,
    "fig5": _repro_fig5,
    "fig6": _repro_fig6,
    "fig7": _repro_fig7,
}


def _cmd_repro(args) -> int:
    started = time.time()
    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    files = _RECIPES[args.recipe](args, outdir)
    write_manifest(
        outdir / f"{args.recipe}_manifest.json", _cmdline(), args.seed, __version__, started, files
    )
    return 0


def dispatch(argv=None) -> int:
    """Parse arguments and run one subcommand.

    Exit codes: 0 success, 1 validation, I/O or out-of-memory error, 2 analysis error, 64 usage.
    """
    args = _build_parser().parse_args(argv)
    handlers = {
        "curve": _cmd_curve,
        "scan": _cmd_scan,
        "sample": _cmd_sample,
        "inflect": _cmd_inflect,
        "trajectory": _cmd_trajectory,
        "check": _cmd_check,
        "repro": _cmd_repro,
    }
    try:
        return handlers[args.cmd](args)
    except AnalysisError as exc:
        sys.stderr.write(f"analysis error: {exc}\n")
        return 2
    except BehaviorError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"out of memory: {exc}\n")
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

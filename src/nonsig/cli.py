"""Command-line interface: curve evaluation, scans, sampling, concavity
analysis, membership checks, and the named reproduction recipes."""

from __future__ import annotations

import argparse
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
from .functionals import _mi_tables, _s_max_ab
from .geometry import (
    AnalysisError,
    concavity_profile,
    locate_inflection,
    slope_kinks,
    trajectory,
)
from .membership import _arcsin_margin, report, report_to_json_dict
from .quantum import sample_tables
from .runio import (
    read_curve_csv,
    write_curve_csv,
    write_manifest,
    write_table_csv,
    write_xy_csv,
)
from .boundary import FeasibleSet, ScanConfig, ScanMode, scan

USAGE_EXIT = 64
TSIRELSON = 2.0 * np.sqrt(2.0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for analysis errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nonsig", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nonsig {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("curve", help="evaluate an analytic boundary curve on a grid")
    p.add_argument("--id", required=True, choices=[c.value for c in CurveId])
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("scan", help="numerical boundary scan")
    p.add_argument("--set", required=True, choices=[s.value for s in FeasibleSet])
    p.add_argument("--mode", required=True, choices=[m.value for m in ScanMode])
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qtilde", action="store_true", help="add the arcsin quantum cap (correlation space only)")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("sample", help="sample random two-qubit quantum behaviors")
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("--points", type=int, default=None, help="override the grid size")
    p.add_argument("--n", type=int, default=None, help="override the sample count")
    p.add_argument("--restarts", type=int, default=None)
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
    write_manifest(
        _manifest_path(args.out), _cmdline(), None, __version__, started, [args.out]
    )
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
    write_manifest(_manifest_path(args.out), _cmdline(), args.seed, __version__, started, [args.out])
    return 0


def _cmd_sample(args) -> int:
    started = time.time()
    tables = sample_tables(args.n, args.seed)
    from .behavior import _correlators_from_tables

    a, b, ab = _correlators_from_tables(tables)
    s = _s_max_ab(ab)
    i = _mi_tables(tables)
    if args.full:
        header = ["s", "i", "a0", "a1", "b0", "b1", "c00", "c01", "c10", "c11"]
        rows = np.column_stack([s, i, a, b, ab.reshape(-1, 4)])
        write_table_csv(args.out, header, rows)
    else:
        write_xy_csv(args.out, s, i)
    write_manifest(_manifest_path(args.out), _cmdline(), args.seed, __version__, started, [args.out])
    return 0


def _cmd_inflect(args) -> int:
    started = time.time()
    curve = read_curve_csv(args.infile)
    profile = concavity_profile(curve, k=args.k)
    ds = float(curve.s[1] - curve.s[0])
    est = locate_inflection(profile, ds, args.k)
    doc = {
        "s_star": est.s_star,
        "uncertainty": est.uncertainty,
        "transition_lo": est.transition_lo,
        "transition_hi": est.transition_hi,
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out is not None:
        args.out.write_text(text)
        write_manifest(_manifest_path(args.out), _cmdline(), None, __version__, started, [args.out])
    sys.stdout.write(text)
    return 0


def _cmd_trajectory(args) -> int:
    curve = read_curve_csv(args.infile)
    traj = trajectory(curve)
    header = ["s", "a0", "a1", "c00", "c01", "c11"]
    rows = np.column_stack([traj.s, traj.a0, traj.a1, traj.c00, traj.c01, traj.c11])
    if args.out is not None:
        started = time.time()
        write_table_csv(args.out, header, rows, digits=17)
        write_manifest(_manifest_path(args.out), _cmdline(), None, __version__, started, [args.out])
    else:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(format(v, ".17g") for v in row) + "\n")
    return 0


def _cmd_check(args) -> int:
    raw = args.infile.read_text() if args.infile else sys.stdin.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"invalid JSON: {exc}\n")
        return 1
    try:
        behavior = behavior_from_json_dict(doc)
    except ValidationError as exc:
        sys.stderr.write(f"invalid behavior: {exc}\n")
        sys.stdout.write(json.dumps({"ns_valid": False}, indent=2, allow_nan=False) + "\n")
        return 1
    except BehaviorError as exc:
        sys.stderr.write(f"malformed behavior: {exc}\n")
        return 1
    rep = report(behavior)
    sys.stdout.write(json.dumps(report_to_json_dict(rep), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


# ---------------------------------------------------------------------------
# reproduction recipes


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def _cmdline() -> str:
    return "nonsig " + " ".join(sys.argv[1:])


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
    from .behavior import _tables_from_correlators

    zero = np.zeros((n, 2))
    tables = _tables_from_correlators(zero, zero, ab)
    s = _s_max_ab(ab)
    i = _mi_tables(tables)
    ok = _arcsin_margin(ab) <= np.pi + 1e-9
    return np.column_stack([s, i, ok.astype(float)])


def _recipe_scan(args, set_, mode, lo, hi, n, restarts) -> ScanConfig:
    return ScanConfig(
        set=set_,
        mode=mode,
        s_lo=lo,
        s_hi=hi,
        grid_points=args.points or n,
        restarts=args.restarts or restarts,
        seed=args.seed,
    )


def _repro_fig3(args, outdir: Path) -> list[Path]:
    n_max, n_min = (700, 500) if args.full_scale else (200, 150)
    files = []
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MAX, 0.0, 4.0, n_max, 50)
    out = outdir / "fig3_ns_max.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MIN, 2.0, 4.0, n_min, 50)
    out = outdir / "fig3_ns_min.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    return files


def _repro_fig4(args, outdir: Path) -> list[Path]:
    files = []
    ss, ii = curve_grid(CurveId.QC_MAX, args.points or 200)
    out = outdir / "fig4_qc_curve.csv"
    write_xy_csv(out, ss, ii)
    files.append(out)
    n = max((args.points or 200) // 4, 10)
    cfg = ScanConfig(
        set=FeasibleSet.C,
        mode=ScanMode.MAX,
        s_lo=2.0,
        s_hi=TSIRELSON,
        grid_points=n,
        restarts=args.restarts or 30,
        seed=args.seed,
        qtilde_cap=True,
    )
    out = outdir / "fig4_qtilde_max.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MIN, 2.0, TSIRELSON, n, 30)
    out = outdir / "fig4_ns_min.csv"
    write_curve_csv(out, scan(cfg))
    files.append(out)
    return files


def _repro_fig5(args, outdir: Path) -> list[Path]:
    n_quantum = args.n or (5_000_000 if args.full_scale else 200_000)
    n_mix = 10_000
    files = []
    tables = sample_tables(n_quantum, args.seed)
    from .behavior import _correlators_from_tables

    _, _, ab = _correlators_from_tables(tables)
    out = outdir / "fig5_quantum.csv"
    write_xy_csv(out, _s_max_ab(ab), _mi_tables(tables))
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
    n = args.points or (5000 if args.full_scale else 2000)
    k = args.k or 100
    cfg = _recipe_scan(args, FeasibleSet.NS, ScanMode.MIN, 2.5, 3.1, n, 8)
    curve = scan(cfg)
    files = []
    out = outdir / "fig6_scan.csv"
    write_curve_csv(out, curve)
    files.append(out)
    profile = concavity_profile(curve, k=k)
    out = outdir / "fig6_profile.csv"
    write_xy_csv(out, [p.s for p in profile], [p.det for p in profile], digits=17, header=("s", "det"))
    files.append(out)
    ds = float(curve.s[1] - curve.s[0])
    est = locate_inflection(profile, ds, k)
    doc = {
        "s_star": est.s_star,
        "uncertainty": est.uncertainty,
        "transition_lo": est.transition_lo,
        "transition_hi": est.transition_hi,
        "tsirelson": TSIRELSON,
    }
    out = outdir / "fig6_inflection.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    files.append(out)
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return files


def _repro_fig7(args, outdir: Path):
    n = args.points or (2000 if args.full_scale else 600)
    cfg = _recipe_scan(args, FeasibleSet.SYM, ScanMode.MIN, 2.5, 3.1, n, 8)
    curve = scan(cfg)
    files = []
    out = outdir / "fig7_scan.csv"
    write_curve_csv(out, curve)
    files.append(out)
    traj = trajectory(curve)
    out = outdir / "fig7_trajectory.csv"
    write_table_csv(
        out,
        ["s", "a0", "a1", "c00", "c01", "c11"],
        np.column_stack([traj.s, traj.a0, traj.a1, traj.c00, traj.c01, traj.c11]),
        digits=17,
    )
    files.append(out)
    kinks = slope_kinks(traj, window=args.k or 50)
    doc = {"kinks": kinks, "tsirelson": TSIRELSON}
    out = outdir / "fig7_kinks.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    files.append(out)
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
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

    Exit codes: 0 success, 1 validation error, 2 analysis error, 64 usage.
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


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

"""Run every reproduction recipe into results/ at desk scale.

Usage: python scripts/run_figures.py [--seed N] [--outdir DIR] [--full-scale]
Desk-scale runs finish in minutes; --full-scale restores the large grids and
the 5e6-point quantum sample (hours).

After each recipe, one ``<sha256>  <recipe>/<file>`` line per output, read from
the manifest the recipe writes, in ``sha256sum`` format (``sha256sum -c``
checks them from inside DIR).  Two runs wrote byte-identical outputs when

    diff <(grep -E '^[0-9a-f]{64} ' a.log) <(grep -E '^[0-9a-f]{64} ' b.log)

is empty.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from nonsig.cli import dispatch
from nonsig.runio import read_manifest

RECIPES = ["fig3", "fig4", "fig5", "fig6", "fig7"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--full-scale", action="store_true")
    parser.add_argument("--only", choices=RECIPES, default=None)
    args = parser.parse_args()

    recipes = [args.only] if args.only else RECIPES
    worst = 0
    for recipe in recipes:
        argv = ["repro", recipe, "--seed", str(args.seed), "--outdir", str(args.outdir / recipe)]
        if args.full_scale:
            argv.append("--full-scale")
        t0 = time.perf_counter()
        rc = dispatch(argv)
        print(f"{recipe}: exit {rc} in {time.perf_counter() - t0:.2f}s -> {args.outdir / recipe}")
        if rc == 0:
            manifest = read_manifest(args.outdir / recipe / f"{recipe}_manifest.json")
            for name, digest in sorted(manifest.outputs.items()):
                print(f"{digest}  {recipe}/{name}")
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())

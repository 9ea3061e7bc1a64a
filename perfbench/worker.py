"""Benchmark worker: imports nonsig, makes one workload's inputs, runs timed operations.

Started by run.py, never by hand.  It writes one JSON document to --result.
With --setup-only it stops once the first operation could be made, so
run.py can time set-up on its own.  With --trace 1 every input runs twice,
first untraced and then with spans around the calls into nonsig's modules,
so tracing overhead is measured within the same run on identical work.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import stats
import tracing
import workloads

KINDS = [k[0] for k in workloads.QUERY_KINDS]

#: Per-layer seconds, reported as self time per operation; see README.md.
LAYER_SECONDS = {
    "boundary.scan": "boundary.scan_s",
    "boundary.optimize": "boundary.optimize_s",
    "quantum.sample_tables": "quantum.sample_tables_s",
    "behavior.correlators": "behavior.correlators_s",
    "functionals.s_max": "functionals.s_max_s",
    "functionals.mi": "functionals.mi_s",
    "membership.arcsin_margin": "membership.arcsin_margin_s",
    "curves.curve_grid": "curves.curve_grid_s",
    "geometry.concavity_profile": "geometry.concavity_profile_s",
    "geometry.locate_inflection": "geometry.locate_inflection_s",
    "runio.csv_write": "runio.csv_write_s",
    "runio.manifest": "runio.manifest_s",
    "cli": "cli.self_s",
}


def scan_workers(nonsig) -> int:
    """Worker processes a scan of many points uses (1 once the pool is gone)."""
    pool_size = getattr(nonsig.boundary, "_pool_size", None)
    return pool_size() if pool_size is not None else 1


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


class LayerTotals:
    """Per-layer sums over the traced operations of a run."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.scan_cpu = 0.0
        self.scan_points = 0
        self.scan_converged = 0
        self.optimize_ms = defaultdict(list)
        self.sampled = 0
        self.mi_rows = 0
        self.csv_bytes = 0

    def add(self, spans, scale: float) -> None:
        """Add one operation's spans; ``scale`` turns its seconds into reference seconds."""
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        for span in spans:
            self.seconds[span.layer] += scale * stats.self_time(span.start, span.end, children[span.id])
            a = span.attrs
            if span.layer == "boundary.scan":
                self.scan_cpu += scale * span.cpu
                self.scan_points += a["points"]
                self.scan_converged += a["converged"]
            elif span.layer == "boundary.optimize":
                self.optimize_ms[a["kind"]].append(1e3 * scale * (span.end - span.start))
            elif span.layer == "quantum.sample_tables":
                self.sampled += a["rows"]
            elif span.layer == "functionals.mi":
                self.mi_rows += a["rows"]
            elif span.layer == "runio.csv_write":
                self.csv_bytes += a["bytes"]

    def metrics(self, n_ops: int, workers: int) -> dict:
        per_op = lambda v: v / n_ops  # noqa: E731
        sec = self.seconds
        out = {name: per_op(sec[layer]) for layer, name in LAYER_SECONDS.items()}
        out["boundary.scan_cpu_s"] = per_op(self.scan_cpu)
        out["boundary.scan_points"] = self.scan_points
        scan_s = sec["boundary.scan"]
        out["boundary.scan_busy_frac"] = self.scan_cpu / (scan_s * workers) if scan_s else 0.0
        out["boundary.converged_frac"] = self.scan_converged / self.scan_points if self.scan_points else 0.0
        out["boundary.optimize_calls"] = sum(len(v) for v in self.optimize_ms.values())
        for kind in KINDS:
            out[f"boundary.optimize_p50_ms.{kind}"] = stats.median(self.optimize_ms[kind])
        sample_s = sec["quantum.sample_tables"]
        out["quantum.ns_per_table"] = 1e9 * sample_s / self.sampled if self.sampled else 0.0
        func_s = sec["functionals.s_max"] + sec["functionals.mi"]
        out["functionals.ns_per_table"] = 1e9 * func_s / self.mi_rows if self.mi_rows else 0.0
        out["runio.csv_bytes"] = per_op(self.csv_bytes)
        return out


def run(args, nonsig, workload, ready: float) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    # A traced run repeats each input, untraced then traced, so the overhead
    # is measured on identical work.
    repeat = 2 if tracer else 1
    n_ops = repeat * workloads.inputs_per_run(workload, args.seconds, repeat)
    tally = stats.Tally()
    layers = LayerTotals()
    walls = {False: [], True: []}  # by traced or not
    items = {False: 0, True: 0}
    cpus, errors, digests, exceptions = [], [], [], []
    raw = {"walls": [], "cpus": [], "items": 0}  # unscaled, untraced
    extras = defaultdict(list)
    for _ in range(workload.warmup_ops):  # first-call costs stay out of the timed operations
        try:
            workload.run(nonsig, 0)
        except Exception:
            exceptions.append(traceback.format_exc(limit=3))
    probe = stats.probe_each_cpu if workload.uses_pool else stats.probe
    before = [probe() for _ in range(workload.probes_per_op)]
    probes = list(before)
    for index in range(n_ops):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            cpu0 = tracing.cpu_seconds()
            t0 = time.perf_counter()
            result = workload.run(nonsig, index // repeat)
            wall = time.perf_counter() - t0
            cpu = tracing.cpu_seconds() - cpu0
        except Exception:  # a crashing operation is a failed one; keep measuring
            result = None
            exceptions.append(traceback.format_exc(limit=3))
        finally:
            if traced:
                tracer.restore()
        after = [probe() for _ in range(workload.probes_per_op)]
        scale = stats.speed_scale(before + after)
        before = after
        probes.extend(after)
        if traced:
            layers.add(tracer.take(), scale)
        outcome = None
        if result is not None:
            try:
                outcome = workload.check(nonsig, result)
            except Exception:  # unreadable outputs fail every check of the operation
                exceptions.append(traceback.format_exc(limit=3))
        if outcome is None:
            tally.add(False, workload.checks_per_op)
        else:
            tally.merge(outcome.tally)
            walls[traced].append(wall * scale)
            items[traced] += outcome.items
            if not traced:
                cpus.append(cpu * scale)
                raw["walls"].append(wall)
                raw["cpus"].append(cpu)
                raw["items"] += outcome.items
            errors.extend(outcome.errors)
            if outcome.digest is not None:
                digests.append(outcome.digest)
            for key, value in outcome.extra.items():
                extras[key].append(value)

    untraced = walls[False]
    doc = {
        "ready": ready,
        "ops": n_ops,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "digests": digests,
        "exceptions": exceptions,
        "scan_workers": scan_workers(nonsig),
        "end_to_end": {
            "wall_s": stats.median(untraced),
            "items_per_s": items[False] / sum(untraced) if untraced else 0.0,
            "cpu_s": stats.median(cpus),
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    detail = {
        "item": workload.item,
        "op_wall_s": untraced,
        "probe_ms": [1e3 * p for p in probes],
        "unscaled": {
            "wall_s": stats.median(raw["walls"]),
            "items_per_s": raw["items"] / sum(raw["walls"]) if raw["walls"] else 0.0,
            "cpu_s": stats.median(raw["cpus"]),
        },
        "failed_frac": tally.failed_frac,
        "failures": [f for batch in extras["failures"] for f in batch],
        "max_abs_err": max(errors) if errors else None,
    }
    if workload.reports_latency:
        ms = [1e3 * w for w in untraced]
        tail = stats.tail_percentile(ms)
        detail["query_p50_ms"] = stats.median(ms)
        detail["query_tail_ms"] = tail and {"percentile": tail[0], "value": tail[1], "samples": len(ms)}
    if extras["inflection_dev"]:
        detail["inflection_dev"] = max(extras["inflection_dev"])
    if extras["converged_points"]:
        detail["converged_frac"] = stats.median(extras["converged_points"]) / workloads.FIG6_POINTS
    doc["detail"] = detail
    if tracer is not None:
        per_layer = layers.metrics(max(len(walls[True]), 1), doc["scan_workers"])
        base = stats.median(untraced)
        per_layer["trace_overhead_frac"] = stats.median(walls[True]) / base - 1.0 if base and walls[True] else 0.0
        doc["per_layer"] = per_layer
        doc["untraced_targets"] = tracer.missing
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import nonsig
    import nonsig.boundary
    import nonsig.cli

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.monotonic()
    doc = {"ready": ready} if args.setup_only else run(args, nonsig, workload, ready)
    args.result.write_text(json.dumps(doc, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

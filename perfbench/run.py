"""nonsig benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

Run from the repository root:

    python3 perfbench/run.py --workload fig6_scan --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  Set-up is timed in fresh worker processes (interpreter start,
``import nonsig``, input generation) and reported as the median of
``SETUP_SAMPLES``.  The measured operations run in one more worker process.
Outputs are checked after each operation, outside the timed region.

Prints the metrics by name and unit, then one ``detail`` line with the full
record (environment, digests, every metric that applies), and as its last
line the JSON result.  Everything it writes goes to ``.perfbench_runs/``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 15
#: Every worker of one run must have ended by then, so the run exits well within 180 s.
RUN_BUDGET_S = 165.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def launch(args, deadline: float, *extra) -> tuple[float, dict]:
    """Run one worker; return the monotonic time it was started and its document."""
    result = WORKDIR / f"worker-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(WORKDIR), "--result", str(result), *extra,
    ]
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker and its pool
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc is None:
        raise BenchError("worker did not finish within the run budget")
    if rc != 0:
        raise BenchError(f"worker exited with code {rc}")
    doc = json.loads(result.read_text())
    result.unlink()
    return started, doc


def source_digest() -> str:
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    return stats.digest_bytes((str(p.relative_to(SRC)), p.read_bytes()) for p in files)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def environment(args, doc: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "scan_workers": doc["scan_workers"],
        "NONSIG_THREADS": os.environ.get("NONSIG_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def check_digests(args, env: dict, digests) -> str:
    """Compare each output digest with every earlier one of the same code, seed and input.

    Earlier operations of this run count too, so repeated inputs within a
    run must also agree.  Returns 'new', 'match', 'mismatch' or 'missing'.
    """
    if not digests:
        return "missing"
    store_path = WORKDIR / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    prefix = f"{env['source_digest']}/{args.workload}/{args.seed}"
    found = {stats.compare_digest(store, f"{prefix}/{what}", digest) for what, digest in digests}
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    for status in ("mismatch", "new"):
        if status in found:
            return status
    return "match"


def _fmt(value, unit: str = "") -> str:
    if value is None:
        return "n/a"
    if isinstance(value, dict):
        return f"p{value['percentile']} = {value['value']:.6g} ms (n={value['samples']})"
    return f"{value:.6g} {unit}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nonsig" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"no nonsig source tree under {SRC}; run from a full checkout\n")
        return 2
    spec = json.loads(spec_path.read_text())
    WORKDIR.mkdir(exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups, raw_setups = [], []
        before = stats.probe_each_cpu()
        for _ in range(SETUP_SAMPLES):
            started, doc = launch(args, deadline, "--setup-only")
            raw_setups.append(doc["ready"] - started)
            after = stats.probe_each_cpu()
            setups.append(raw_setups[-1] * stats.speed_scale([before, after]))
            before = after
        _, doc = launch(args, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    env = environment(args, doc)
    status = check_digests(args, env, doc["digests"])
    correct = not doc["exceptions"] and status in ("new", "match")
    values = dict(doc["end_to_end"], setup_s=stats.median(setups), **doc.get("per_layer", {}))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"nonsig benchmark: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<34} {_fmt(m['value'], m['unit'])}")
    if not args.trace:
        detail = doc["detail"]
        print(f"  {'query_p50_ms':<34} {_fmt(detail.get('query_p50_ms'), 'ms')}")
        print(f"  {'query_tail_ms':<34} {_fmt(detail.get('query_tail_ms'))}")
        print(f"  {'failed_frac':<34} {_fmt(detail['failed_frac'])} ({doc['failed']}/{doc['attempted']})")
        print(f"  {'max_abs_err':<34} {_fmt(detail['max_abs_err'], 'bits')}")
        print(f"  {'inflection_dev':<34} {_fmt(detail.get('inflection_dev'))}")
    print(f"  output digests ({status}): " + ", ".join(f"{what} {d[:16]}" for what, d in doc["digests"]))
    for text in doc["exceptions"]:
        print(text, file=sys.stderr)
    record = {
        "environment": env,
        "digest": doc["digests"],
        "digest_status": status,
        "ops": doc["ops"],
        "setup_samples_s": setups,
        "setup_s_unscaled": stats.median(raw_setups),
        "detail": doc["detail"],
        "end_to_end": dict(doc["end_to_end"], setup_s=values["setup_s"]),
        "per_layer": doc.get("per_layer"),
        "untraced_targets": doc.get("untraced_targets"),
    }
    print("detail " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

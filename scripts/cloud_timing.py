"""Median wall and CPU seconds of each stage of the fig5 quantum cloud.

Usage: PYTHONPATH=src python scripts/cloud_timing.py

Runs the stages of ``repro fig5``'s cloud writer at n = 500,000, seed 1:
``sample_tables``, ``_correlators_from_tables``, ``_s_max_ab``,
``_mi_tables``, the CSV write and the SHA-256 of the CSV that the manifest
records.  The ``draws`` row times the sampler's random draws alone
(``_random_states`` and ``_random_bloch`` over the same per-chunk RNG
streams), the fixed cost inside ``sample_tables``.  The ``_write_cloud``
row is the writer that ``repro fig5`` really runs, end to end: it samples,
scores and writes one chunk at a time, and its tracemalloc peak (numpy
reports its buffers to tracemalloc) is printed below the table.  Prints
nproc, the numpy version and OPENBLAS_NUM_THREADS first and the process's
peak RSS last.
Each figure is the median of ``REPEATS`` runs.  CPU time counts every thread
of the process, so a cpu/wall ratio above 1 shows threads working or
spinning beside the caller (for example idle BLAS threads).
"""

from __future__ import annotations

import os
import resource
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from nonsig.behavior import _correlators_from_tables
from nonsig.cli import _write_cloud
from nonsig.functionals import _mi_tables, _s_max_ab
from nonsig.quantum import _SAMPLE_CHUNK, _random_bloch, _random_states, sample_tables
from nonsig.runio import sha256_file, write_xy_csv

N = 500_000
SEED = 1
REPEATS = 5


def draws(n: int, seed: int) -> None:
    """The random draws of ``sample_tables(n, seed)``, without the tables."""
    for chunk, start in enumerate(range(0, n, _SAMPLE_CHUNK)):
        m = min(_SAMPLE_CHUNK, n - start)
        rng = np.random.default_rng([seed, chunk])
        _random_states(m, rng), _random_bloch(m, rng), _random_bloch(m, rng)


def one_run(out: Path) -> dict[str, tuple[float, float]]:
    """(wall, cpu) seconds per stage of one cloud, in pipeline order."""
    times = {}

    def timed(name, fn, *args):
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        times[name] = (time.perf_counter() - w0, time.process_time() - c0)
        return result

    timed("draws", draws, N, SEED)
    tables = timed("sample_tables", sample_tables, N, SEED)
    _, _, ab = timed("_correlators_from_tables", _correlators_from_tables, tables)
    s = timed("_s_max_ab", _s_max_ab, ab)
    i = timed("_mi_tables", _mi_tables, tables)
    timed("csv write", write_xy_csv, out, s, i)
    timed("manifest hash", sha256_file, out)
    timed("_write_cloud", _write_cloud, out, N, SEED)
    return times


def cloud_peak(out: Path) -> int:
    """The tracemalloc peak, in bytes, of one streamed ``_write_cloud``."""
    tracemalloc.start()
    try:
        _write_cloud(out, N, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"nproc {os.cpu_count()}; numpy {np.__version__}; OPENBLAS_NUM_THREADS {threads}")
    print(f"n = {N:,}, seed {SEED}; median of {REPEATS} runs, seconds")
    with tempfile.TemporaryDirectory() as tmp:
        runs = [one_run(Path(tmp) / "fig5_quantum.csv") for _ in range(REPEATS)]
        peak = cloud_peak(Path(tmp) / "fig5_quantum.csv")
    print(f"{'stage':<26}{'wall':>8}{'cpu':>8}{'cpu/wall':>10}")
    for name in runs[0]:
        wall = statistics.median(r[name][0] for r in runs)
        cpu = statistics.median(r[name][1] for r in runs)
        print(f"{name:<26}{wall:>8.3f}{cpu:>8.3f}{cpu / wall:>10.2f}")
    print(f"_write_cloud tracemalloc peak {peak / 2**20:.1f} MiB")
    # ru_maxrss is in KiB on Linux.
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")


if __name__ == "__main__":
    main()

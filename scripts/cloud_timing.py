"""Median wall and CPU seconds of each stage of the fig5 quantum cloud.

Usage: PYTHONPATH=src python scripts/cloud_timing.py

Runs the per-chunk pipeline of ``repro fig5``'s cloud writer at n = 500,000,
seed 1, stage by stage: for each ``_SAMPLE_CHUNK`` rows, the random draws
(``_random_states`` and ``_random_bloch`` on the chunk's RNG stream), the
correlators (``_pauli_correlators``), then the scoring, S (``_s_max_ab``) and
I (``_mi_correlators``); each stage's time is summed over the chunks.  Then
the CSV write of the scored rows and the SHA-256 of the CSV that the
manifest records.  The ``_write_cloud`` row is the writer that ``repro
fig5`` really runs, end to end: it draws, scores and writes one chunk at a
time.  Below the table come the minor page faults (``ru_minflt``) of each
``_write_cloud`` run and its tracemalloc peak (numpy reports its buffers to
tracemalloc).  Prints nproc, the numpy version and OPENBLAS_NUM_THREADS first
and the process's peak RSS last.
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

from nonsig.cli import _write_cloud
from nonsig.functionals import _mi_correlators, _s_max_ab
from nonsig.quantum import _SAMPLE_CHUNK, _pauli_correlators, _random_bloch, _random_states
from nonsig.runio import sha256_file, write_xy_csv

N = 500_000
SEED = 1
REPEATS = 5


def one_run(out: Path) -> tuple[dict[str, tuple[float, float]], int]:
    """(wall, cpu) seconds per stage of one cloud, in pipeline order, and the
    minor page faults of its ``_write_cloud``."""
    times: dict[str, tuple[float, float]] = {}

    def timed(name, fn, *args):
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        wall, cpu = times.get(name, (0.0, 0.0))
        times[name] = (wall + time.perf_counter() - w0, cpu + time.process_time() - c0)
        return result

    def draws(m, rng):
        return _random_states(m, rng), _random_bloch(m, rng), _random_bloch(m, rng)

    s, i = [], []
    for chunk, start in enumerate(range(0, N, _SAMPLE_CHUNK)):
        drawn = timed("draws", draws, min(_SAMPLE_CHUNK, N - start), np.random.default_rng([SEED, chunk]))
        a, b, ab = timed("_pauli_correlators", _pauli_correlators, *drawn)
        s.append(timed("_s_max_ab", _s_max_ab, ab))
        i.append(timed("_mi_correlators", _mi_correlators, a, b, ab))
    timed("csv write", write_xy_csv, out, np.concatenate(s), np.concatenate(i))
    timed("manifest hash", sha256_file, out)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    timed("_write_cloud", _write_cloud, out, N, SEED)
    return times, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


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
        runs, faults = zip(*(one_run(Path(tmp) / "fig5_quantum.csv") for _ in range(REPEATS)))
        peak = cloud_peak(Path(tmp) / "fig5_quantum.csv")
    print(f"{'stage':<26}{'wall':>8}{'cpu':>8}{'cpu/wall':>10}")
    for name in runs[0]:
        wall = statistics.median(r[name][0] for r in runs)
        cpu = statistics.median(r[name][1] for r in runs)
        print(f"{name:<26}{wall:>8.3f}{cpu:>8.3f}{cpu / wall:>10.2f}")
    print(f"_write_cloud minor page faults per run {list(faults)}")
    print(f"_write_cloud tracemalloc peak {peak / 2**20:.1f} MiB")
    # ru_maxrss is in KiB on Linux.
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")


if __name__ == "__main__":
    main()

"""Helpers shared by run.py and worker.py: the speed probe and small statistics.

Nothing here imports nonsig, so all of it can be tested on synthetic inputs
(see test_stats.py).
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time

import numpy as np

#: A tail percentile is reported only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

#: The probe takes this long on the machine that times are scaled to.
PROBE_REF_S = 0.02
_PROBE_LOOPS = 6000
_PROBE_ARRAY = np.random.default_rng(0).standard_normal((10, 8))


def probe() -> float:
    """Seconds a fixed loop takes now: numpy calls on a 10x8 array and float formatting.

    The loop mixes the two costs that dominate nonsig (per-call overhead on
    small arrays, Python-level formatting).  Shared hosts change a core's
    speed by tens of percent for minutes at a time; timing the probe between
    operations measures the speed those operations ran at.
    """
    start = time.perf_counter()
    for k in range(_PROBE_LOOPS):
        format(float((_PROBE_ARRAY * _PROBE_ARRAY).sum()) * k, ".17g")
    return time.perf_counter() - start


def probe_each_cpu() -> float:
    """Mean ``probe`` over every CPU this process may use, pinned to each in turn.

    For operations spread over a process pool, where the CPU the caller sits
    on says little about the others.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def speed_scale(probes) -> float:
    """Factor that turns seconds measured between ``probes`` into reference seconds.

    Takes the mean of the probes on both sides of the measured span.  Hosts
    switch between a fast and a slow speed for seconds at a time, so probe
    times come in two clusters.  The mean weighs each speed by how often it
    was seen, while a median jumps from one cluster to the other.
    """
    return PROBE_REF_S / (sum(probes) / len(probes))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(samples) -> tuple[int, float] | None:
    """Highest whole percentile that has at least ``TAIL_MIN_BEYOND`` samples beyond it.

    Percentiles use the nearest-rank rule: the p-th percentile of n sorted
    samples is the one at rank ceil(p * n / 100), so n - rank samples lie
    beyond it.  Searches p = 99 down to 50; returns (p, value) or None when
    even the median has fewer than ``TAIL_MIN_BEYOND`` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, float(ordered[rank - 1])
    return None


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(start, end, child_intervals)


class Tally:
    """Operations attempted and failed; ``failed_frac`` is failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def failed_frac(self) -> float:
        if self.attempted < 1:
            raise ValueError("no operations attempted")
        return self.failed / self.attempted


def digest_bytes(parts) -> str:
    """SHA-256 over named byte strings, in order; names keep files apart."""
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def compare_digest(store: dict, key: str, digest: str) -> str:
    """Record ``digest`` under ``key``; 'new', 'match' or 'mismatch' with an earlier run.

    A mismatch leaves the first recorded digest in place, so every later run
    of the same code and seed is compared with the first one.
    """
    previous = store.get(key)
    if previous is None:
        store[key] = digest
        return "new"
    return "match" if previous == digest else "mismatch"

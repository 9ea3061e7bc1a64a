"""Spans around calls into nonsig's modules, recorded from outside the package.

``Tracer.install`` swaps each traced function for a wrapper in every loaded
``nonsig`` module namespace that holds it (``cli`` imports most layers by
name), and ``restore`` puts the originals back.  Spans stay in memory; the
worker turns them into per-layer numbers after each traced operation.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from dataclasses import dataclass, field


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0  # user + system seconds, reaped children included
    attrs: dict = field(default_factory=dict)


def _scan_attrs(args, kwargs, result):
    return {"points": len(result.points), "converged": sum(1 for p in result.points if p.converged)}


def _optimize_attrs(args, kwargs, result):
    bound = dict(zip(("set_", "mode"), args), **kwargs)
    set_ = getattr(bound["set_"], "value", bound["set_"])
    mode = getattr(bound["mode"], "value", bound["mode"])
    return {"kind": f"{set_}_{mode}"}


def _sample_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _mi_attrs(args, kwargs, result):
    return {"rows": int(getattr(result, "size", 1))}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: (layer, module, function, attribute extractor).  The batched array API is
#: still private in nonsig, so some targets are underscore names; a target
#: that no longer exists is skipped and listed in ``Tracer.missing``.
TARGETS = (
    ("cli", "nonsig.cli", "dispatch", None),
    ("boundary.scan", "nonsig.boundary", "scan", _scan_attrs),
    ("boundary.optimize", "nonsig.boundary", "optimize_at_s", _optimize_attrs),
    ("quantum.sample_tables", "nonsig.quantum", "sample_tables", _sample_attrs),
    ("behavior.correlators", "nonsig.behavior", "_correlators_from_tables", None),
    ("behavior.correlators", "nonsig.behavior", "_tables_from_correlators", None),
    ("functionals.s_max", "nonsig.functionals", "_s_max_ab", None),
    ("functionals.mi", "nonsig.functionals", "_mi_tables", _mi_attrs),
    ("membership.arcsin_margin", "nonsig.membership", "_arcsin_margin", None),
    ("curves.curve_grid", "nonsig.curves", "curve_grid", None),
    ("geometry.concavity_profile", "nonsig.geometry", "concavity_profile", None),
    ("geometry.locate_inflection", "nonsig.geometry", "locate_inflection", None),
    ("runio.csv_write", "nonsig.runio", "write_curve_csv", _file_attrs),
    ("runio.csv_write", "nonsig.runio", "write_xy_csv", _file_attrs),
    ("runio.csv_write", "nonsig.runio", "write_table_csv", _file_attrs),
    ("runio.manifest", "nonsig.runio", "write_manifest", None),
)


class Tracer:
    """Records nested spans; single-threaded (the scan pool's workers are not traced)."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(tracer.spans), tracer._stack[-1] if tracer._stack else None, layer)
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            cpu0 = cpu_seconds()
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                span.cpu = cpu_seconds() - cpu0
                tracer._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "nonsig" or name.startswith("nonsig.")]
        self.missing = []
        for layer, module_name, attr, attrs in self.targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(layer, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def restore(self) -> None:
        while self._undo:
            module, key, original = self._undo.pop()
            setattr(module, key, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

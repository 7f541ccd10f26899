"""Spans around ringspec's public functions, recorded from outside the package.

:class:`Tracer` wraps every public module-level function of every ringspec
module and rebinds each wrapper under every name that held the original, in
every ringspec module, because several modules bind names with
``from ... import``.  Each call records a span: name, start, end, parent span
and operation id.  Spans are kept in flat arrays and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: per-layer metrics: (name, unit); every traced run reports all of them
PER_LAYER = [
    ("polycore.poly_mul.calls", "count"),
    ("polycore.poly_mul.self_ms", "ms"),
    ("ringgraph.char_poly.calls", "count"),
    ("ringgraph.char_poly.self_ms", "ms"),
    ("ringgraph.classify_exact.self_ms", "ms"),
    ("ringgraph.exhaustive_scan.self_ms", "ms"),
    ("ringgraph.scan.solves_per_mask", "solves/mask"),
    ("rootfind.aberth_roots.double.calls", "count"),
    ("rootfind.aberth_roots.double.self_ms", "ms"),
    ("rootfind.aberth_roots.mp.calls", "count"),
    ("rootfind.aberth_roots.mp.self_ms", "ms"),
    ("rootfind.refine_root.calls", "count"),
    ("rootfind.refine_root.self_ms", "ms"),
    ("rootfind.refine_all.self_ms", "ms"),
    ("rootfind.spectral_verdict.calls", "count"),
    ("rootfind.spectral_verdict.self_ms", "ms"),
    ("rootfind.char_poly_exact.calls", "count"),
    ("rootfind.char_poly_exact.self_ms", "ms"),
    ("arborescence.bareiss_determinant.calls", "count"),
    ("arborescence.bareiss_determinant.self_ms", "ms"),
    ("dynamics.simulate.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_s", "s"),
]

ABERTH = "rootfind.aberth_roots"
SCAN = "ringgraph.exhaustive_scan"


def ringspec_modules(package) -> list:
    """The package and every submodule of it, imported."""
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{package.__name__}.{info.name}")
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        if name == ABERTH:
            # double and mpmath Aberth are told apart by cfg.working_dps
            ids = (self._name_id(name + ".double"), self._name_id(name + ".mp"))

            def kind_of(args, kwargs):
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                return ids[getattr(cfg, "working_dps", None) is not None]
        else:
            nid = self._name_id(name)

            def kind_of(args, kwargs):
                return nid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.kind.append(kind_of(args, kwargs))
            self.parent.append(self.stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.stack.append(sid)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self.stack.pop()

        return wrapper

    def install(self, package) -> None:
        modules = ringspec_modules(package)
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (views would pin the arrays' size)."""
        return {name: np.array(getattr(self, name))
                for name in ("kind", "parent", "op", "start", "end")}

    def layer_totals(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """{name: (calls, self seconds)} over the spans with ids in [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; calls nest, so the children cover disjoint intervals.
        """
        a = self.arrays()
        dur = a["end"][lo:hi] - a["start"][lo:hi]
        parent = a["parent"][lo:hi]
        kind = a["kind"][lo:hi]
        child = np.zeros(hi - lo)
        inner = parent >= lo
        np.add.at(child, parent[inner] - lo, dur[inner])
        self_time = dur - child
        calls = np.bincount(kind, minlength=len(self.names))
        selfs = np.bincount(kind, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.names)}

    def solves_under_scan(self, lo: int, hi: int) -> int:
        """Aberth calls made inside exhaustive_scan spans with ids in [lo, hi)."""
        if SCAN not in self.names:
            return 0
        a = self.arrays()
        kind, start = a["kind"][lo:hi], a["start"][lo:hi]
        scans = kind == self.names.index(SCAN)
        aberth = np.isin(kind, [i for i, n in enumerate(self.names) if n.startswith(ABERTH)])
        inside = np.zeros(hi - lo, dtype=bool)
        for s, e in zip(start[scans], a["end"][lo:hi][scans]):
            inside |= (start >= s) & (start <= e)
        return int(np.count_nonzero(inside & aberth))

    def write(self, path: Path, op_labels: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), ops=np.array(op_labels), **self.arrays())

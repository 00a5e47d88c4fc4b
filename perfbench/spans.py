"""In-memory span tracer for the kennedyrx benchmark.

A span is ``[name, start, end, parent, op, extra]``: the layer boundary it
marks (``<module>.<function>`` for library calls, ``op`` for the root of an
operation), its start and end in ``time.perf_counter`` seconds, the index of
the span that caused it (-1 for a root), the id of the operation it belongs
to, and an optional dict of work counts.  Spans are kept in memory; the
caller writes them out when the run ends.

:meth:`Tracer.install` replaces every public function of the traced modules
at every module attribute that names it -- the defining module and each
``from ... import`` alias, the package namespace included -- so a call is
recorded whichever module makes it.  :meth:`Tracer.uninstall` puts the
original objects back.

Stdlib only: the benchmark imports this module after it has timed the
program's own imports.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types

TRACED_MODULES = ("photonstats", "montecarlo", "estimation", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str, start: float | None = None, extra: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter() if start is None else start
        self.spans.append([name, start, start, parent, self.op, extra])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = time.perf_counter() if end is None else end
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def install(self, package: types.ModuleType) -> None:
        """Wrap the public functions of ``package``'s traced modules wherever they are named."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        qualnames: dict[types.FunctionType, str] = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"{package.__name__}.{short}")
            if mod is None:  # not imported by this process, so never called
                continue
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                ):
                    qualnames[value] = f"{short}.{attr}"
        counters = _work_counters({q: fn for fn, q in qualnames.items()})
        wrappers = {fn: self._wrap(fn, q, counters.get(q)) for fn, q in qualnames.items()}
        prefix = package.__name__ + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package.__name__ or name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def _wrap(self, fn, qualname: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = count(args, kwargs) if count is not None else None
            idx = tracer.begin(qualname, extra=extra)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return traced


def _work_counters(fns: dict) -> dict:
    """Work done per call, for the functions whose work a count describes."""
    cutoff = fns.get("photonstats.default_cutoff")

    def arguments(fn):
        sig = inspect.signature(fn)

        def bind(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        return bind

    def table_cells(fn):
        # computed cells: phases x photon-number columns x quadrature nodes
        bind = arguments(fn)

        def count(args, kwargs):
            a = bind(args, kwargs)
            phis = a["phis"]
            n_phis = getattr(phis, "size", None) or (len(phis) if hasattr(phis, "__len__") else 1)
            cols = (cutoff(a["amps"]) if a["n_max"] is None else int(a["n_max"])) + 1
            nodes = int(a["gl_nodes"]) if float(a["gamma"]) > 0.0 else 1
            return {"cells": n_phis * cols * nodes}

        return count

    def shots(fn):
        bind = arguments(fn)
        return lambda args, kwargs: {"shots": int(bind(args, kwargs)["cfg"].M)}

    def file_bytes(fn):
        bind = arguments(fn)

        def count(args, kwargs):
            try:
                return {"bytes": os.path.getsize(bind(args, kwargs)["path"])}
            except OSError:
                return {"bytes": 0}

        return count

    makers = {
        "photonstats.pmf_table": table_cells,
        "photonstats.dphi_table": table_cells,
        "montecarlo.sample_counts": shots,
        "cli.load_counts": file_bytes,
    }
    return {name: make(fns[name]) for name, make in makers.items() if name in fns}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted((max(spans[k][1], start), min(spans[k][2], end)) for k in kids):
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def has_ancestor(spans: list, idx: int, names) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False

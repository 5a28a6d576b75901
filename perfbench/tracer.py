"""Span tracer for the fingabor layers, installed from outside the package.

Every public module-level function of the layer modules is wrapped, and
the wrapper is rebound in every ``fingabor.*`` namespace that holds the
same object. The modules import each other by name (``stft`` is bound in
``tfa``, ``norms``, ``operators``, ``spectral`` and ``experiments``), so
patching only the defining module would miss most calls.

Each call records a span: the function's name, start, end and the id of
the enclosing span. Spans stay in flat arrays in memory and are written
once, by :meth:`Tracer.dump`. Self times are derived from them afterwards
by :func:`summarize`.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array

LAYERS = ("group", "signal", "tfa", "norms", "gabor", "operators", "spectral",
          "experiments", "cli")

# Cached tables whose builds are counted, with their bytes per entry of the
# order x order table: complex128 characters, int32 differences.
TABLE_BYTES = {"group.character_table": 16, "group.diff_table": 4}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


class Tracer:
    """In-memory span recorder; :meth:`install` wraps the layer functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.table_builds: list[tuple[str, int]] = []
        self._stack = [-1]

    def _wrap(self, name: str, func):
        nid = len(self.names)
        self.names.append(name)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(fn)
            fn.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        if name in TABLE_BYTES:
            builds, inner = self.table_builds, traced

            def traced(spec, *args, **kwargs):
                misses = func.cache_info().misses
                try:
                    return inner(spec, *args, **kwargs)
                finally:
                    if func.cache_info().misses > misses:
                        builds.append((name, spec.order))

        return functools.update_wrapper(traced, func)

    def install(self) -> None:
        modules = [importlib.import_module(f"fingabor.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in _public_functions(module):
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules + [importlib.import_module("fingabor")]:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def dump(self, directory: str) -> None:
        """Write the spans and table builds to ``directory``."""
        for field in ("fn", "parent", "start", "end"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "table_builds": self.table_builds}, fh)


def _load(directory: str, field: str, code: str) -> array:
    arr = array(code)
    path = os.path.join(directory, f"{field}.bin")
    with open(path, "rb") as fh:
        arr.fromfile(fh, os.path.getsize(path) // arr.itemsize)
    return arr


def summarize(directory: str) -> dict:
    """Per-layer and per-function figures from the spans in ``directory``.

    * ``<layer>.self_s``: span time of the layer's functions minus the time
      covered by their traced callees; ``<layer>.calls``: its span count.
    * ``<layer>.<fn>.s``: inclusive time of the calls of one function that
      are not nested in another call of the same function;
      ``<layer>.<fn>.calls``: all its calls.
    * ``group.table_builds`` and ``group.table_mb`` (MiB) over the builds
      of the cached character and difference tables.
    """
    with open(os.path.join(directory, "spans.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    names = meta["names"]
    fn = _load(directory, "fn", "i")
    parent = _load(directory, "parent", "i")
    start = _load(directory, "start", "d")
    end = _load(directory, "end", "d")
    n = len(fn)
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    self_s = [0.0] * len(names)
    incl_s = [0.0] * len(names)
    calls = [0] * len(names)
    for i in range(n):
        f = fn[i]
        dur = end[i] - start[i]
        self_s[f] += dur - covered[i]
        calls[f] += 1
        p = parent[i]
        while p >= 0 and fn[p] != f:
            p = parent[p]
        if p < 0:
            incl_s[f] += dur
    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for f, name in enumerate(names):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s[f]
        out[f"{layer}.calls"] += calls[f]
        out[f"{name}.s"] = incl_s[f]
        out[f"{name}.calls"] = calls[f]
    builds = meta["table_builds"]
    out["group.table_builds"] = len(builds)
    out["group.table_mb"] = sum(TABLE_BYTES[name] * order ** 2 for name, order in builds) / 2**20
    return out

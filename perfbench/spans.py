"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of every ``singscat`` module from
the outside by replacing module attributes.  A function that another
module imported by name (``from .core import free_transfer``) is replaced
there too, so calls between layers nest.  Nothing in ``src/`` is edited,
and ``uninstall`` puts every original object back.

A span is (name, start, end, parent, op id).  Spans are kept in flat
arrays while the run is on and written out once it ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
import time
from array import array

# Argument that sizes the work of a call, recorded with its span so that
# per-unit costs (per energy, per junction, per cell) can be derived.
SIZE_ARGS = {
    "mollifier.transfer_fixed_cells": ("n_cells", 2, int),
    "scatter.transmission_curve": ("k_grid", 1, len),
    "scatter.compose_chain": ("chain", 0, len),
    "sweep.sweep_map": ("items", 1, len),
    "serialize.csv_document": ("rows", 1, len),
}


def singscat_modules() -> list:
    """Every submodule of the singscat package, imported."""
    import singscat

    mods = [singscat]
    for info in pkgutil.iter_modules(singscat.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"singscat.{info.name}"))
    return mods


def public_functions(module) -> dict:
    """Public plain functions defined in the module's own file."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records nested spans of singscat calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op_id = 0

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, label: str) -> int:
        """Small integer id of a span name."""
        name_id = self._name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        return name_id

    def _wrap(self, label: str, fn):
        name_id = self.intern(label)
        size_rule = SIZE_ARGS.get(label)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            size = -1
            if size_rule is not None:
                key, pos, measure = size_rule
                value = kwargs[key] if key in kwargs else args[pos]
                size = measure(value)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.size.append(size)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public singscat function wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = singscat_modules()
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def rows(self):
        """Spans as (name, start_ns, end_ns, parent, op, size) tuples."""
        for i in range(len(self.start)):
            yield (
                self.names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                self.op[i],
                self.size[i],
            )

    def self_times(self) -> list[int]:
        """Per-span duration minus the time its child spans cover (ns)."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent,op,size\n")
            for row in self.rows():
                handle.write(",".join(map(str, row)) + "\n")


def merge_spans(tracer: Tracer, rows, op_id: int) -> None:
    """Append spans recorded elsewhere (a child process) under one op."""
    base = len(tracer)
    for name, start, end, parent, size in rows:
        tracer.name_id.append(tracer.intern(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(base + parent if parent >= 0 else -1)
        tracer.op.append(op_id)
        tracer.size.append(size)

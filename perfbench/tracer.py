"""External tracer for the hicomp package.

The package is not changed.  `Tracer.install` wraps every public function
of the hicomp modules and rebinds the wrapper at every module binding, not
only where the function is defined: `study`, `cli`, `analysis` and
`validate` import by name (`from .cns import cns_step`), so patching only
`hicomp.cns` would miss their calls.  `Field.__post_init__` is counted
without a span.  The CLI's `json.dump` is wrapped too, so that all output
writing has spans.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out by `dump_spans` after the traced run.  A span's self time is its
duration minus the durations of its direct children; calls are nested on
one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

MODULES = ("grid", "params", "pme", "cns", "analysis", "study", "config",
           "validate", "cli")
# Private functions that are still a layer boundary worth a span.
EXTRA = {"cli": ("_write_error_table",)}


def _solve_to_cells(args, kwargs, result):
    return args[0].rho.grid.n_cells


def _path_bytes(args, kwargs, result):
    times, path_e = result[0], result[1]
    return 3 * times.size * path_e.shape[1] * path_e.itemsize


def _dual_steps(args, kwargs, result):
    return len(args[0]) - 1


# Per-span integer tag computed from the call: the grid size of a march,
# the bytes of the stored paired paths, the steps of a backward march.
TAGGERS = {
    "pme.pme_solve_to": _solve_to_cells,
    "cns.cns_solve_to": _solve_to_cells,
    "study.run_paired_paths": _path_bytes,
    "analysis.dual_certificate": _dual_steps,
}


class _JsonProxy(types.SimpleNamespace):
    """Stands in for `hicomp.cli.json` so that `json.dump` gets a span."""

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_tag = array("q")
        self.field_count = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import hicomp  # noqa: F401  (loads the package modules)
        import hicomp.cli  # noqa: F401
        from hicomp import grid

        modules = [sys.modules[f"hicomp.{m}"] for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            extra = EXTRA.get(short, ())
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in extra)):
                    wrappers[obj] = self._wrap(obj, f"{short}.{name}")
        for mod in [sys.modules["hicomp"], *modules]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._rebind(mod, name, wrappers[obj])

        cli = sys.modules["hicomp.cli"]
        self._rebind(cli, "json",
                     _JsonProxy(dump=self._wrap(json.dump, "cli.json.dump")))

        post_init = grid.Field.__post_init__

        def counted_post_init(field):
            self.field_count += 1
            post_init(field)

        self._rebind(grid.Field, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _rebind(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        tagger = TAGGERS.get(name)
        stack = self._stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end, s_tag = self.span_start, self.span_end, self.span_tag
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            s_tag.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_start[idx] = t0
                s_end[idx] = t1
            if tagger is not None:
                s_tag[idx] = tagger(args, kwargs, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, and tag totals."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        funcs = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tag": 0}
                 for name in self.names}
        by_tag: dict[str, dict[int, float]] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = ends[i] - starts[i]
            entry = funcs[name]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
            tag = self.span_tag[i]
            entry["tag"] += tag
            if name in ("pme.pme_solve_to", "cns.cns_solve_to"):
                per = by_tag.setdefault(name, {})
                per[tag] = per.get(tag, 0.0) + dur
        return {"functions": funcs, "solve_to_by_cells": by_tag,
                "field_count": self.field_count, "spans": n}

    def dump_spans(self, stem) -> None:
        """Write the span arrays to `<stem>.bin` (the columns one after the
        other, native byte order) with their layout in `<stem>.json`."""
        columns = (("name", self.span_name), ("parent", self.span_parent),
                   ("start", self.span_start), ("end", self.span_end),
                   ("tag", self.span_tag))
        with open(f"{stem}.json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.span_name),
                       "byteorder": sys.byteorder,
                       "columns": [[c, a.typecode, a.itemsize] for c, a in columns]},
                      fh, indent=1)
        with open(f"{stem}.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)

"""Outside-in span tracing: wrap a package's functions without editing it.

A `Tracer` keeps one aggregate per span name -- calls, total time and self
time -- in memory.  Self time is a span's duration minus the time its direct
child spans cover; spans run on one thread and nest, so the children of one
span never overlap and their durations simply add.

`install` replaces every module-level binding of a function with one traced
wrapper, so a function imported by name into several modules
(``from .hilbert import energy_distribution``) is traced whichever binding
a caller looks up.  Names that a caller expects but the package no longer
defines are reported as absent rather than raising, so the same benchmark
keeps working across refactors.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

__all__ = ["Tracer", "install", "uninstall"]


class Tracer:
    """Aggregating span recorder; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        # open spans, innermost last: [name, time covered by children]
        self._stack: list[list] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name: str, fn, on_return=None):
        """Return `fn` traced as span `name`.

        `on_return(args, kwargs, result)` runs after the span closes and
        returns the value handed back to the caller.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
            if on_return is not None:
                result = on_return(args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def snapshot(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": tot, "self_s": own}
                for name, (c, tot, own) in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _is_traceable(obj, package: str) -> bool:
    return (
        callable(obj)
        and not inspect.isclass(obj)
        and not inspect.ismodule(obj)
        and getattr(obj, "__module__", None) is not None
        and (obj.__module__ == package or obj.__module__.startswith(package + "."))
        and not hasattr(obj, "__perfbench_original__")
    )


def install(tracer: Tracer, modules, package: str, hooks=None, methods=(),
            mappings=(), expected=()):
    """Trace the public functions of `modules` at every binding in the package.

    modules   -- the layer modules whose public functions (names without a
                 leading underscore, defined in that module) become spans.
    package   -- dotted prefix; every loaded module under it has its
                 bindings of those functions replaced.
    hooks     -- span name -> on_return callable (see `Tracer.wrap`).
    methods   -- (module, "Class.method") pairs to trace in place; class and
                 static methods keep their kind.
    mappings  -- (module, "DICT_NAME", prefix) triples: every callable value
                 of that module-level dict is traced as span prefix + key.
    expected  -- span names the caller will read; those never installed are
                 returned as absent.

    Returns (installed span names, absent span names, undo list).  Modules
    that do not exist (None entries) and missing attributes are skipped.
    """
    hooks = dict(hooks or {})
    undo: list = []
    names: dict[int, str] = {}
    wrappers: dict[int, object] = {}

    for mod in modules:
        if mod is None:
            continue
        # shortest public alias names the span (kernel = kernel_numpy)
        for attr in sorted(vars(mod), key=lambda a: (len(a), a)):
            obj = vars(mod)[attr]
            if attr.startswith("_") or not _is_traceable(obj, package):
                continue
            if obj.__module__ != mod.__name__ or id(obj) in names:
                continue
            names[id(obj)] = f"{_short(mod.__name__)}.{attr}"

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            key = id(obj)
            if key not in names:
                continue
            if key not in wrappers:
                name = names[key]
                wrappers[key] = tracer.wrap(name, obj, hooks.get(name))
            undo.append((mod, attr, obj))
            setattr(mod, attr, wrappers[key])

    for mod, dotted in methods:
        if mod is None:
            continue
        owner_name, _, meth = dotted.rpartition(".")
        owner = getattr(mod, owner_name, None)
        raw = None if owner is None else vars(owner).get(meth)
        if raw is None:
            continue
        name = f"{_short(mod.__name__)}.{dotted}"
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(tracer.wrap(name, raw.__func__, hooks.get(name)))
        else:
            new = tracer.wrap(name, raw, hooks.get(name))
        undo.append((owner, meth, raw))
        setattr(owner, meth, new)

    for mod, dict_name, prefix in mappings:
        table = getattr(mod, dict_name, None) if mod is not None else None
        if not isinstance(table, dict):
            continue
        for key, fn in list(table.items()):
            if callable(fn):
                name = f"{prefix}{key}"
                undo.append((table, key, fn))
                table[key] = tracer.wrap(name, fn, hooks.get(name))

    installed = set(tracer.stats)
    absent = sorted(n for n in expected if n not in installed)
    return sorted(installed), absent, undo


def uninstall(undo) -> None:
    """Put back every binding `install` replaced, newest first."""
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)

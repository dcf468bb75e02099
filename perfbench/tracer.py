"""Outside-in tracer for the weylstab layers.

The tracer never edits the package.  It replaces public names where they are
looked up at call time -- a module global such as ``weylstab.verify.classify``
or a ``TuplePerm`` method -- with a wrapper that records one span per call.
Spans live in memory as ``[name, start, end, parent, detail]`` lists, where
``parent`` is the index of the enclosing span (-1 for none), and are written
out once the run is over.  A name that no longer exists is recorded as absent
instead of failing the run, so a refactor that moves code keeps the benchmark
working and shows up as an absent name plus zero counts.

Only the process that installed the tracer records spans: a forked worker
process inherits the wrappers but calls straight through them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module, attribute, span name, detail function).  The module is where the
# name is looked up at call time, so one function can be traced under
# several call sites; the span name says which layer the callee belongs to.
FUNCTION_SITES = [
    ("weylstab.verify", "classify", "transposition3.classify", None),
    ("weylstab.verify", "rank_one_check", "stability.rank_one_check", None),
    ("weylstab.verify", "stability_search", "stability.stability_search", "verdict"),
    ("weylstab.stability", "stability_search", "stability.stability_search", "verdict"),
    ("weylstab.stability", "exact_rank_for_stable", "stability.exact_rank_for_stable", None),
    ("weylstab.stability", "definitional_prefix_check", "stability.definitional_prefix_check", None),
    ("weylstab.stability", "psi_materialize", "psi_flow.psi_materialize", "level"),
    ("weylstab.transposition3", "classify", "transposition3.classify", None),
    ("weylstab.transposition3", "witness_points", "transposition3.witness_points", None),
    ("weylstab.transposition3", "psi_apply", "psi_flow.psi_apply", "apply"),
    ("weylstab.transposition3", "psi_materialize", "psi_flow.psi_materialize", "level"),
]

TUPLEPERM_METHODS = [
    ("identity", None),
    ("from_cycles", None),
    ("transposition", None),
    ("compose", None),
    ("inverse", None),
    ("tensor", "entries"),
    ("tail_identity_split", None),
    ("__eq__", None),
]


def _detail_level(args, kwargs, result):
    u, k = args[0], args[1]
    key = (u.n, u.arity, frozenset(u.moved.items()), k)
    return (k, len(u.moved), u.n, len(result.moved), hash(key))


def _detail_apply(args, kwargs, result):
    return args[1]


def _detail_entries(args, kwargs, result):
    return len(result.moved)


def _detail_verdict(args, kwargs, result):
    return bool(result.stable)


DETAILS = {
    "level": _detail_level,
    "apply": _detail_apply,
    "entries": _detail_entries,
    "verdict": _detail_verdict,
}


class Tracer:
    """Span recorder; ``install`` patches the call sites, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def _wrap(self, fn, name: str, detail):
        spans, stack, pid = self.spans, self.stack, self._pid
        clock = time.perf_counter
        describe = DETAILS[detail] if detail else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if describe is not None:
                try:
                    record[4] = describe(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the detail, not the span
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, detail in FUNCTION_SITES:
            site = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(site)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(site)
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, detail))
        try:
            cls = importlib.import_module("weylstab.perm_core").TuplePerm
        except (ImportError, AttributeError):
            self.absent.append("weylstab.perm_core.TuplePerm")
            return
        for attr, detail in TUPLEPERM_METHODS:
            raw = cls.__dict__.get(attr)
            name = f"perm_core.TuplePerm.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, detail))
            elif callable(raw):
                wrapped = self._wrap(raw, name, detail)
            else:
                self.absent.append(f"weylstab.perm_core.TuplePerm.{attr}")
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def call(self, name: str, fn, *args, detail=None, **kwargs):
        """Run ``fn`` under a span opened by the benchmark itself."""
        return self._wrap(fn, name, detail)(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        """One JSON array per span: index, name, start and duration in µs, parent, detail."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent, detail) in enumerate(self.spans):
                row = [index, name, round((start - origin) * 1e6, 1),
                       round((end - start) * 1e6, 1), parent, detail]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")

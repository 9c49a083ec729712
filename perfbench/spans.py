"""The benchmark's span recorder, and the wrappers that put spans around
the public entry points of each layer from outside the program.

A span has a name, a start, an end, a parent and an op id; the spans of
one op share its op id (set-up work gets the op id ``-1``).  A layer's
time in an op is the self time of its spans; a span the benchmark opens
around a whole op (``cold.<program>``, ``runtime.call.<driver>``,
``serve.<op>``, ``corona.<op>``) is reported by its full duration.  Spans are
kept in memory and written out as JSON lines at the end of a run.
Self time is a span's duration minus the part its child spans cover.
Spans are timed in CPU time of the benchmark's one thread
(``thread_time``), like the ops, so time the host takes the core away
is left out.

``wrap_layers`` replaces each named function (in every ``repro`` module
that imported it) and method with a wrapper that opens a span while the
recorder is on, and returns an undo callable.  Nothing inside the
program changes; untraced runs never install the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import thread_time
from typing import Callable, Dict, List

#: (module, function, span name): module-level functions, rebound in
#: every loaded ``repro`` module that holds them.
FUNCTIONS = (
    ("repro.source.lexer", "tokenize", "source.lex"),
    ("repro.source.parser", "parse_program", "source.parse"),
    ("repro.source.parser", "parse_decls", "source.parse"),
    ("repro.lang.resolve", "resolve_program", "lang.resolve"),
    ("repro.lang.typecheck", "check_program", "lang.typecheck"),
)

#: (module, class, method, span name).  ``_resolve_all`` is the serve
#: session's resolver (the per-class twin of ``resolve_program``).
METHODS = (
    ("repro.lang.classtable", "ClassTable", "__init__", "lang.classtable"),
    ("repro.lang.incremental", "IncrementalChecker", "_resolve_all", "lang.resolve"),
    ("repro.runtime.specialize", "Specializer", "specialize_program", "runtime.specialize"),
)

#: the layer spans, reported by self time
LAYER_SPANS = frozenset(entry[-1] for entry in FUNCTIONS + METHODS)


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        rec_stack = rec.stack
        parent = rec_stack[-1] if rec_stack else -1
        self.index = len(rec.spans)
        rec.spans.append([name, thread_time(), 0.0, parent, rec.op])
        rec_stack.append(self.index)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rec.spans[self.index][2] = thread_time()
        self.rec.stack.pop()
        return False


class Recorder:
    """In-memory span recorder; ``span`` is a no-op while disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.tokens = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def op_times(self, total: bool = False) -> Dict[str, Dict[int, float]]:
        """Per span name, per op id: summed self time in seconds (the
        summed duration when ``total``)."""
        child = [0.0] * len(self.spans)
        if not total:
            for name, start, end, parent, _op in self.spans:
                if parent >= 0:
                    child[parent] += end - start
        out: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            out[name][op] += (end - start) - child[i]
        return out

    def total_seconds(self, name: str) -> float:
        return sum(e - s for n, s, e, _p, _o in self.spans if n == name)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent, "op": op}))
                f.write("\n")


def _wrap(fn: Callable, rec: Recorder, name: str) -> Callable:
    if name == "source.lex":
        @functools.wraps(fn)
        def lex(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            with rec.span(name):
                toks = fn(*args, **kwargs)
            rec.tokens += len(toks)
            return toks
        return lex

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def wrap_layers(rec: Recorder) -> Callable[[], None]:
    """Install span wrappers around the layers' public entry points;
    returns the function that removes them again."""
    undo: List[tuple] = []
    # methods first: importing their modules loads every module that
    # binds one of the functions below
    for modname, clsname, attr, name in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        orig = cls.__dict__[attr]
        setattr(cls, attr, _wrap(orig, rec, name))
        undo.append((cls, attr, orig))
    for modname, attr, name in FUNCTIONS:
        orig = getattr(importlib.import_module(modname), attr)
        wrapped = _wrap(orig, rec, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, orig))

    def restore() -> None:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)

    return restore


def spans_path(root: str, workload: str, seed: int) -> str:
    out = os.path.join(root, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"{workload}-seed{seed}.spans.jsonl")

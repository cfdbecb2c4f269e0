"""Spans and call counts recorded from outside the library.

``install_spans`` rebinds every public module-level function of each
eulerlab layer, in every eulerlab namespace that holds it, to a wrapper that
records one span per call.  ``install_op_counter`` wraps ExtReal's arithmetic
methods with exact counters instead; the two never run in the same pass, so
counting ~13 M arithmetic calls (certify) does not inflate span self times.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

LAYERS = ("hpreal", "zeta_core", "euler_sums", "genfun", "hypergeom", "zagier", "verify", "cli")
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__abs__")
DIV_METHODS = ("__truediv__", "__rtruediv__")


class Span(NamedTuple):
    sid: int
    parent: int  # -1 for a root span
    name: str  # "<layer>.<function>"
    request: object  # lookup request index, suite name or table call
    start_ns: int  # perf_counter_ns
    end_ns: int
    cpu_start_ns: int  # thread_time_ns of the calling thread
    cpu_end_ns: int
    key: object  # call arguments, for functions registered with a key function


class SpanRecorder:
    """Keeps spans in memory; one parent stack per thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request: object = None
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, key_fn: Optional[Callable] = None) -> Callable:
        spans, local, ids = self.spans, self._local, self._ids
        now, cpu = time.perf_counter_ns, time.thread_time_ns
        recorder = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            request = recorder.request
            key = key_fn(*args, **kwargs) if key_fn else None
            stack.append(sid)
            t0, c0 = now(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c1, t1 = cpu(), now()
                stack.pop()
                spans.append(Span(sid, parent, name, request, t0, t1, c0, c1, key))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict(), default=str))
                fh.write("\n")


def _namespaces():
    import eulerlab

    return [eulerlab] + [importlib.import_module(f"eulerlab.{layer}") for layer in LAYERS]


def _rebind(namespaces, old, new) -> None:
    """Replace ``old`` by ``new`` in module globals and in module-level dicts
    whose values are the function or tuples holding it."""
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, attr, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new
                    elif isinstance(v, tuple) and any(x is old for x in v):
                        value[k] = tuple(new if x is old else x for x in v)


def public_functions() -> Dict[str, Callable]:
    """``"<layer>.<name>"`` -> function, for every function in a layer's __all__."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"eulerlab.{layer}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            found[f"{layer}.{name}"] = obj
    return found


def _double_direct_key(idx, n_max=100_000):
    return (idx.r, idx.s, bool(idx.r_bar), bool(idx.s_bar), int(n_max))


KEY_FUNCTIONS = {"euler_sums.double_direct": _double_direct_key}


def install_wrappers(make_wrapper: Callable[[str, Callable], Callable],
                     names: Optional[Iterable[str]] = None) -> None:
    """Rebind each public layer function (or only those in ``names``), in
    every namespace that binds it, to ``make_wrapper(name, fn)``."""
    wanted = None if names is None else set(names)
    namespaces = _namespaces()
    for name, fn in public_functions().items():
        if wanted is None or name in wanted:
            _rebind(namespaces, fn, make_wrapper(name, fn))


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap every public layer function in every namespace that binds it."""
    install_wrappers(lambda name, fn: recorder.wrap(name, fn, KEY_FUNCTIONS.get(name)))


def install_op_counter() -> Callable[[], Dict[str, int]]:
    """Count ExtReal arithmetic calls (including the calls one method makes to
    another, e.g. __sub__ -> __neg__ + __add__).  Returns a reader."""
    from eulerlab.hpreal import ExtReal

    counters = {}
    for name in ARITH_METHODS:
        fn = ExtReal.__dict__.get(name)
        if fn is None:
            continue
        counter = counters[name] = itertools.count()

        def counted(*args, _fn=fn, _next=counter.__next__):
            _next()
            return _fn(*args)

        setattr(ExtReal, name, counted)

    def read() -> Dict[str, int]:
        # next() on itertools.count is atomic under the interpreter lock
        return {name: next(c) for name, c in counters.items()}

    return read


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> self time in ns: the span's duration minus its children's.

    Durations are thread CPU time, which leaves out time the thread spent
    waiting for the interpreter lock while another pool thread ran.
    Children run on the parent's thread and nest inside it, so the part of
    the parent's interval they cover is the sum of their durations.
    """
    spans = list(spans)
    dur = {s.sid: s.cpu_end_ns - s.cpu_start_ns for s in spans}
    covered: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += dur[s.sid]
    return {sid: d - covered[sid] for sid, d in dur.items()}


def layer_self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Layer name -> summed self time in seconds."""
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".", 1)[0]] += selfs[s.sid] / 1e9
    return dict(out)


def function_totals(spans: List[Span]) -> Dict[str, float]:
    """Function name -> inclusive CPU seconds over its outermost calls (a call
    nested inside another call of the same function is not counted twice)."""
    by_id = {s.sid: s for s in spans}
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        p, nested = s.parent, False
        while p >= 0:
            ps = by_id[p]
            if ps.name == s.name:
                nested = True
                break
            p = ps.parent
        if not nested:
            out[s.name] += (s.cpu_end_ns - s.cpu_start_ns) / 1e9
    return dict(out)

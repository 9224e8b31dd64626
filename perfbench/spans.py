"""In-memory span tracing of nilwalk's public functions, from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules
(and every public method of the classes they define, except the coordinate
accessors of ``StratifiedAlgebra``) by a wrapper that
records a span: name, layer, label, thread, start, end, parent and a few
attributes.  The wrapper is written into every module namespace that holds
the original object, so calls between modules (``from .walk import ...``)
and calls inside a module are both traced.  Leaving the context restores the
originals.  No file under ``src/`` is edited.

A span's parent is the innermost open span of its own thread.  A span opened
in a worker thread whose stack is empty takes as parent the innermost open
span of the thread that installed the tracer (the caller that submitted the
work).  Self time is a span's duration minus the union of the intervals of
its children on the same thread.  The self times of the spans on one thread
therefore add up to the time that thread spent inside its outermost spans:
on the installing thread, the duration of the root span.  Time the caller
spends waiting for worker threads is self time of the span that waits.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "nilwalk"
LAYERS = ("graph", "albanese", "algebra", "walk", "rates", "lattice", "experiments")
IO_FUNCTIONS = ("write_csv", "write_json", "write_summary")
# Coordinate accessors called inside every group product; spans on them would
# triple the span count of the BCH path and dominate the tracing overhead.
UNTRACED_CLASSES = ("StratifiedAlgebra",)


@dataclass
class Span:
    sid: int
    name: str           # "<layer>.<function>"
    layer: str
    label: str | None   # graph label set by the caller, if any
    thread: int
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "layer": self.layer, "label": self.label,
            "thread": self.thread, "start": self.start, "end": self.end,
            "parent": self.parent, "attrs": self.attrs,
        }


# Lifted-walk steps (DP convolution steps for the oracle) a call performs, from its arguments.
STEP_COUNTS = {
    "walk.batch_centered_sums": lambda a: int(a["n"]) * int(a["samples"]),
    "walk.batch_endpoints": lambda a: int(a["n"]) * int(a["samples"]),
    "walk.trajectory_scan": lambda a: int(a["checkpoints"][-1]),
    "lattice.tail_probability": lambda a: int(a["n"]),
}


def _attrs_from_result(name: str, result) -> dict:
    if name == "rates.minimize_endpoint_rate":
        return {
            "feasible": bool(result.feasible),
            "constraint_violation": float(result.constraint_violation),
        }
    if name == "rates.scipy_minimize":
        return {"nfev": int(getattr(result, "nfev", 0))}
    return {}


class Tracer:
    """Collects spans from wrapped nilwalk functions; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.label: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root_thread: int | None = None
        self._root_stack: list[Span] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._root_stack if threading.get_ident() == self._root_thread else []
            self._local.stack = stack
        return stack

    def open(self, name: str, layer: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            root = self._root_stack
            parent = root[-1].sid if root else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, name, layer, self.label, threading.get_ident(),
                    time.perf_counter(), parent=parent, attrs=attrs or {})
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.open(name, layer)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, func, name: str, layer: str):
        sig = inspect.signature(func)
        count_steps = STEP_COUNTS.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = {}
            if count_steps is not None:
                attrs["steps"] = count_steps(sig.bind(*args, **kwargs).arguments)
            s = tracer.open(name, layer, attrs)
            try:
                result = func(*args, **kwargs)
                s.attrs.update(_attrs_from_result(name, result))
                return result
            except BaseException as exc:
                s.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(s)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name, layer) for everything to wrap."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((None, attr, obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj) and attr not in UNTRACED_CLASSES:
                    for mattr, raw in list(vars(obj).items()):
                        if mattr.startswith("_"):
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, classmethod):
                            out.append((obj, mattr, raw, f"{layer}.{mattr}", layer))
        return out

    @contextmanager
    def installed(self):
        """Wrap the package's public functions for the duration of the block."""
        import scipy.optimize

        self._root_thread = threading.get_ident()
        self._local.stack = self._root_stack
        replaced = []      # (module or class, attribute, original)
        by_id = {}
        for owner, attr, orig, name, layer in self._targets():
            if owner is None:
                by_id[id(orig)] = (orig, self._wrap(orig, name, layer))
            elif isinstance(orig, classmethod):
                wrapped = classmethod(self._wrap(orig.__func__, name, layer))
                replaced.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
            else:
                replaced.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, layer))
        # every module of the package that holds a wrapped function by name
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    replaced.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        orig_minimize = scipy.optimize.minimize
        replaced.append((scipy.optimize, "minimize", orig_minimize))
        scipy.optimize.minimize = self._wrap(orig_minimize, "rates.scipy_minimize", "rates")
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(replaced):
                setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children's intervals."""
    thread_of = {s.sid: s.thread for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None and thread_of.get(s.parent) == s.thread:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.sid, ())
        covered = _union_length(
            (max(k.start, s.start), min(k.end, s.end)) for k in kids if k.end > s.start and k.start < s.end
        )
        out[s.sid] = s.duration - covered
    return out


def _outermost(spans: list[Span], pred, by_id: dict[int, Span]) -> list[Span]:
    """Spans of ``spans`` matching ``pred`` with no ancestor (in ``by_id``) matching it."""
    out = []
    for s in spans:
        if not pred(s):
            continue
        p = by_id.get(s.parent)
        nested = False
        while p is not None:
            if pred(p):
                nested = True
                break
            p = by_id.get(p.parent)
        if not nested:
            out.append(s)
    return out


def layer_metrics(spans: list[Span], graph_labels: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``graph_labels`` maps a per-graph function name (``walk.batch_endpoints``)
    to the graph labels reported for it; absent graphs report zero.
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    m: dict[str, float] = {}

    for layer in LAYERS:
        in_layer = [s for s in spans if s.layer == layer]
        entries = _outermost(in_layer, lambda s, layer=layer: s.layer == layer, by_id)
        m[f"{layer}.busy_s"] = sum(s.duration for s in entries)
        m[f"{layer}.self_s"] = sum(selfs[s.sid] for s in in_layer)
        m[f"{layer}.spans"] = len(in_layer)

    def named(name, label=None):
        return [s for s in spans if s.name == name and (label is None or s.label == label)]

    def busy(ss):
        names = {s.name for s in ss}
        return sum(s.duration for s in _outermost(ss, lambda s: s.name in names, by_id))

    for fname in ("walk.batch_centered_sums", "walk.trajectory_scan", "walk.batch_endpoints"):
        for label in graph_labels.get(fname, ()):
            ss = named(fname, label)
            b = busy(ss)
            steps = sum(s.attrs.get("steps", 0) for s in ss)
            m[f"{fname}.{label}.busy_s"] = b
            m[f"{fname}.{label}.msteps_per_s"] = steps / b / 1e6 if b > 0 else 0.0
    for label in graph_labels.get("rates.minimize_endpoint_rate", ()):
        ss = named("rates.minimize_endpoint_rate", label)
        b = busy(ss)
        m[f"rates.minimize_endpoint_rate.{label}.calls"] = len(ss)
        m[f"rates.minimize_endpoint_rate.{label}.ms_per_call"] = 1e3 * b / len(ss) if ss else 0.0
        m[f"rates.minimize_endpoint_rate.{label}.busy_s"] = b

    walk_entries = _outermost([s for s in spans if s.layer == "walk"], lambda s: s.layer == "walk", by_id)
    m["walk.steps"] = sum(s.attrs.get("steps") or 0 for s in walk_entries)
    for fname in ("walk.sample_stream", "algebra.bch_product"):
        ss = named(fname)
        m[f"{fname}.calls"] = len(ss)
        m[f"{fname}.busy_s"] = busy(ss)

    opt = named("rates.minimize_endpoint_rate")
    sci = named("rates.scipy_minimize")
    m["rates.scipy_minimize.calls"] = len(sci)
    m["rates.scipy_minimize.nfev"] = sum(s.attrs.get("nfev", 0) for s in sci)
    m["rates.infeasible_fraction"] = (
        sum(not s.attrs.get("feasible", False) for s in opt) / len(opt) if opt else 0.0
    )
    # infeasible results (violation possibly inf) are counted by the fraction above
    m["rates.max_constraint_violation"] = max(
        (s.attrs["constraint_violation"] for s in opt if s.attrs.get("feasible")), default=0.0
    )

    tails = named("lattice.tail_probability")
    b = busy(tails)
    m["lattice.tail_probability.calls"] = len(tails)
    m["lattice.tail_probability.ms_per_call"] = 1e3 * b / len(tails) if tails else 0.0
    m["lattice.tail_probability.busy_s"] = b
    m["lattice.convolution_steps"] = sum(s.attrs.get("steps", 0) for s in tails)

    m["albanese.albanese_pipeline.busy_s"] = busy(named("albanese.albanese_pipeline"))
    io = [s for s in spans if s.name in {f"experiments.{f}" for f in IO_FUNCTIONS}]
    m["experiments.io_s"] = busy(io)
    m["experiments.self_s"] = sum(
        selfs[s.sid] for s in spans
        if s.layer == "experiments" and s.name not in {f"experiments.{f}" for f in IO_FUNCTIONS}
    )
    return m

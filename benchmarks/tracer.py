"""Layer tracing for the benchmark's traced run.

The tracer wraps qcoord's layer entry points from outside the package: each
wrapper replaces the original at every binding (module globals and class
attributes of every loaded ``qcoord`` module), so a call reaches it whichever
import path the caller used.  Nothing under ``src/`` is edited.

Three kinds of wrapper:

* spans: timed, kept in memory as ``(id, name, start, end, parent, op)`` and
  written out at the end;
* timed counters: timed and counted, but not stored one by one, for layers
  called hundreds of thousands of times (``CycloRing.shift``);
* counters: call counts only.

Self time of a layer is its duration minus the time of the timed calls nested
directly inside it.  Wrappers record only while an op is running, so input
generation and verification never count.

Entry points are looked up by name, so a change to the engine that removes
or renames one leaves its metrics at 0 and names them in ``absent()``, with
the reason, instead of breaking the traced run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}
        self.cache_counts: Counter = Counter()
        self._missing: defaultdict = defaultdict(list)
        self._fed: defaultdict = defaultdict(int)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Record everything called inside as part of op ``op_id``."""
        for name, fn in self._caches.items():
            info = fn.cache_info()
            self._cache_base[name] = (info.hits, info.misses)
        self._op = op_id
        frame = self._enter("op")
        try:
            yield
        finally:
            self._exit("op", frame, True)
            self._op = None
            for name, fn in self._caches.items():
                info = fn.cache_info()
                hits, misses = self._cache_base[name]
                self.cache_counts[name + ".hits"] += info.hits - hits
                self.cache_counts[name + ".misses"] += info.misses - misses

    def _enter(self, name: str) -> list:
        self.calls[name] += 1
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, self._next_id, parent, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, name: str, frame: list, record: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        start = frame[3]
        duration = end - start
        self.busy[name] += duration
        self.self_time[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if record:
            self.spans.append((frame[1], name, start, end, frame[2], self._op))

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, record: bool = True, also_count: tuple[str, ...] = ()):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            for extra in also_count:
                self.calls[extra] += 1
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, record)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def straighten(self, fn):
        """Span around ``rewrite._rewrite`` that also counts swaps.

        The engine appends one entry per swap to its ``trace`` argument;
        passing a fresh list when the caller gave none counts them without
        changing the result.
        """
        timed = self.span("rewrite.straighten", fn)
        params = list(inspect.signature(fn).parameters)
        if "trace" not in params:
            self.missing(("rewrite.straighten.swaps",), "the straightener takes no trace= hook")
            return timed
        pos = params.index("trace")

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if len(args) > pos:
                args = list(args)
                if args[pos] is None:
                    args[pos] = []
                log = args[pos]
            else:
                if kwargs.get("trace") is None:
                    kwargs["trace"] = []
                log = kwargs["trace"]
            before = len(log)
            try:
                return timed(*args, **kwargs)
            finally:
                self.extra["rewrite.straighten.swaps"] += len(log) - before

        wrapper.__wrapped__ = fn
        return wrapper

    def watch_cache(self, name: str, fn) -> bool:
        """Count an ``lru_cache`` function's hits and misses during ops."""
        if not hasattr(fn, "cache_info"):
            return False
        self._caches[name] = fn
        return True

    def cache_entries(self, name: str) -> int:
        fn = self._caches.get(name)
        return fn.cache_info().currsize if fn is not None else 0

    # -- absent entry points -----------------------------------------------

    def missing(self, metrics, reason: str) -> None:
        for metric in metrics:
            self._missing[metric].append(reason)

    def absent(self) -> dict[str, str]:
        """Metrics that read 0 because an entry point feeding them is gone.

        A metric fed by several entry points (two rings) is listed if any of
        them is missing; the reason says which.
        """
        return {
            metric: "; ".join(reasons)
            + ("" if len(reasons) >= self._fed[metric] else " (partial: other entry points counted)")
            for metric, reasons in self._missing.items()
        }

    # -- binding -----------------------------------------------------------

    def patch(self, original, replacement) -> int:
        """Replace ``original`` at every binding in the loaded qcoord modules.

        Returns the number of bindings replaced.
        """
        replaced = 0
        for owner in _qcoord_namespaces():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._patches.append((owner, attr, original))
                    replaced += 1
        return replaced

    def wrap(self, entry: str, make, metrics: tuple[str, ...]):
        """Wrap the entry point ``"module:qualname"`` of qcoord at every
        binding with ``make(original)``; return the original, or None and
        note ``metrics`` as absent if it has no binding."""
        for metric in metrics:
            self._fed[metric] += 1
        fn = lookup(entry)
        if fn is None:
            self.missing(metrics, f"{entry} not found")
            return None
        if not self.patch(fn, make(fn)):
            self.missing(metrics, f"{entry} has no binding to patch")
            return None
        return fn

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, name, start, end, parent, op_id in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


def _qcoord_namespaces():
    """Every loaded qcoord module and every class defined in one."""
    seen: set[int] = set()
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == "qcoord" or modname.startswith("qcoord.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__.startswith("qcoord")
                and id(value) not in seen
            ):
                seen.add(id(value))
                yield value


def lookup(entry: str):
    """The object named ``"module:qualname"`` in qcoord, or None."""
    module, _, qualname = entry.partition(":")
    try:
        obj = importlib.import_module(f"qcoord.{module}")
    except ImportError:
        return None
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _import_submodules() -> None:
    """Load every qcoord module (``cli`` too), so that all bindings get patched."""
    import qcoord

    for info in pkgutil.iter_modules(qcoord.__path__):
        if not info.name.startswith("__"):
            importlib.import_module(f"qcoord.{info.name}")


def _timed(name: str) -> tuple[str, ...]:
    return (f"{name}.calls", f"{name}.self_s")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    _import_submodules()
    t = tracer
    for entry, name, metrics in (
        ("coeff:CycloElem.__mul__", "coeff.cyclo_mul", ("coeff.cyclo_mul.calls",)),
        ("coeff:LaurentPoly.__mul__", "coeff.laurent_mul", ("coeff.laurent_mul.calls",)),
        ("coeff:reduce_mod", "coeff.reduce_mod", ("coeff.reduce_mod.calls",)),
        ("coeff:LaurentRing.invert_unit", "coeff.invert_unit", ("coeff.invert_unit.calls",)),
        ("coeff:CycloRing.invert_unit", "coeff.invert_unit", ("coeff.invert_unit.calls",)),
        ("coeff:LaurentRing.qdiff_mul", "rewrite.straighten.branches",
         ("rewrite.straighten.branches",)),
        ("coeff:CycloRing.qdiff_mul", "rewrite.straighten.branches",
         ("rewrite.straighten.branches",)),
        ("coeff:LaurentRing.shift", "rewrite.straighten.qshifts", ("rewrite.straighten.qshifts",)),
    ):
        t.wrap(entry, lambda fn, name=name: t.counter(name, fn), metrics)
    t.wrap(
        "coeff:CycloRing.shift",
        lambda fn: t.span("coeff.cyclo_shift", fn, record=False,
                          also_count=("rewrite.straighten.qshifts",)),
        ("coeff.cyclo_shift.calls", "coeff.cyclo_shift.busy_s", "rewrite.straighten.qshifts"),
    )
    t.wrap("rewrite:_rewrite", t.straighten,
           (*_timed("rewrite.straighten"), "rewrite.straighten.swaps"))
    t.wrap("rewrite:multiply", lambda fn: t.span("rewrite.multiply", fn),
           ("rewrite.multiply.calls", "rewrite.multiply.busy_s"))
    t.wrap("rewrite:_enforce", lambda fn: t.span("rewrite.enforce", fn), _timed("rewrite.enforce"))
    cache = ("rewrite.reduction_step.hit_ratio", "rewrite.reduction_step.cache_entries")
    step = t.wrap("rewrite:_reduction_step", lambda fn: t.span("rewrite.reduction_step", fn),
                  (*_timed("rewrite.reduction_step"), *cache))
    if step is not None and not t.watch_cache("rewrite.reduction_step", step):
        t.missing(cache, "rewrite:_reduction_step has no cache_info()")
    for entry, name in (
        ("rootspec:module_expand", "rootspec.module_expand"),
        ("frobext:FrobeniusContext.phi", "frobext.phi"),
        ("frobext:FrobeniusContext.nakayama", "frobext.nakayama"),
        ("render:element_to_str", "render.element"),
        ("rootspec:ClassicalPoly.__str__", "render.classical"),
    ):
        t.wrap(entry, lambda fn, name=name: t.span(name, fn), _timed(name))

"""Layer-boundary tracing of eulermod, installed from the benchmark's own files.

``install`` replaces the public functions of ``eulermod.cli``,
``eulermod.congruences`` and ``eulermod.special``, the methods of the two
table classes, and the public and arithmetic methods of
``UnivariatePolynomial`` with wrappers.  A wrapper records a span (name,
start, end, parent, request) only when the call crosses into another layer;
a call from a layer into itself runs unrecorded, so its time stays in the
outer span's self time and the span count stays bounded.

The integer helpers of ``eulermod.exactmath`` (``mod_pow``, ``v_adic``, ...)
are not wrapped: the other modules bind them by ``from ... import``, and
they run once per term of the kernel's sums.  Their time is self time of
the caller.

Spans live in flat arrays and are written out by ``Tracer.write``; self
times are derived from them after the run.  A name that a later version of
the program removes is simply not wrapped and reports zero.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter

KERNEL = {"euler_mod_2n", "stern_sum", "alternating_power_sum"}
DECISION = {"congruent_mod", "poly_congruent_mod", "is_q_integer"}
CACHE = {"save_tables", "load_tables"}
POLYNOMIALS = {"euler_polynomial", "bernoulli_polynomial"}
IDENTITIES = {"check_raabe", "check_reflection", "check_euler_bernoulli_relation"}
TABLE_CLASSES = ("EulerNumberTable", "BernoulliNumberTable")
POLY_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__neg__", "__pow__", "__call__", "__eq__", "__truediv__"}

LAYERS = ("cli", "congruences.kernel", "congruences.decision", "congruences.checkers",
          "special.tables", "special.cache", "special.polynomials", "special.identities",
          "exactmath.poly")


def layer_of(module: str, name: str) -> str:
    """The layer a public function of eulermod.<module> belongs to."""
    if module == "congruences":
        if name in KERNEL:
            return "congruences.kernel"
        return "congruences.decision" if name in DECISION else "congruences.checkers"
    if module == "special":
        for names, layer in ((CACHE, "special.cache"), (POLYNOMIALS, "special.polynomials"),
                             (IDENTITIES, "special.identities")):
            if name in names:
                return layer
        return "special.tables"
    return module


class Tracer:
    """Spans in flat arrays plus the counts the layer metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of_name: list[int] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.calls: Counter[str] = Counter()  # every call, nested ones too
        self.counts: Counter[str] = Counter()  # terms, indices, bytes
        self._stack = [-1]
        self._layers = [""]
        self._request = -1

    def name_id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of_name.append(LAYERS.index(layer) if layer in LAYERS else -1)
        return self.name_ids[name]

    @property
    def layer(self) -> str:
        return self._layers[-1]

    @property
    def recording(self) -> bool:
        """Whether an operation is running; set-up and output checks are not traced."""
        return len(self._stack) > 1

    def open(self, name_id: int, layer: str) -> int:
        index = len(self.start)
        parent = self._stack[-1]
        if parent < 0:
            self._request = index
        self.span_name.append(name_id)
        self.parent.append(parent)
        self.request.append(self._request)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self._layers.append(layer)
        self.start.append(perf_counter())
        return index

    def close(self, index: int, failed: bool) -> None:
        self.end[index] = perf_counter()
        self.failed[index] = failed
        self._stack.pop()
        self._layers.pop()

    def span_factors(self, request_factors: list[float]) -> list[float]:
        """Per span: the factor of its request, given one factor per request in
        the order the requests ran."""
        of_request = {}
        for i, p in enumerate(self.parent):
            if p < 0:
                of_request[i] = request_factors[len(of_request)]
        return [of_request[r] for r in self.request]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_totals(self, request_factors: list[float]) -> dict[str, dict[str, float]]:
        """Per layer: self_s, entries (spans) and errors (spans that raised).

        Each span's self time is scaled by the factor of its request.
        """
        totals = {layer: {"self_s": 0.0, "entries": 0, "errors": 0} for layer in LAYERS}
        factors = self.span_factors(request_factors)
        for i, own in enumerate(self.self_times()):
            layer_index = self.layer_of_name[self.span_name[i]]
            if layer_index < 0:
                continue
            t = totals[LAYERS[layer_index]]
            t["self_s"] += own * factors[i]
            t["entries"] += 1
            t["errors"] += self.failed[i]
        return totals

    def inclusive_s(self, name: str, request_factors: list[float]) -> float:
        """Total duration of the spans of one function, scaled as in layer_totals."""
        wanted = self.name_ids.get(name)
        factors = self.span_factors(request_factors)
        return sum((self.end[i] - self.start[i]) * factors[i]
                   for i, n in enumerate(self.span_name) if n == wanted)

    def write(self, path: str) -> None:
        """Span arrays as a binary file plus a name table beside it."""
        with open(path, "wb") as fh:
            for arr in (self.span_name, self.parent, self.request, self.start, self.end,
                        self.failed):
                arr.tofile(fh)
        with open(path + ".names", "w", encoding="utf-8") as fh:
            fh.write(f"spans {len(self.start)}\n")
            fh.write("arrays name:int64 parent:int64 request:int64 start:f64 end:f64 "
                     "failed:int8\n")
            for name in self.names:
                fh.write(name + "\n")


def _wrap(tracer: Tracer, fn, name: str, layer: str, before=None):
    """A wrapper recording a span when the call enters ``layer`` from outside.

    ``before(args, kwargs)`` may return a callable run after the call, to
    count work (terms, indices, bytes) at the outermost call of a function.
    """
    name_id = tracer.name_id(name, layer)
    depth = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        after = before(args, kwargs) if before is not None and not depth[0] else None
        depth[0] += 1
        try:
            if tracer.layer == layer:
                return fn(*args, **kwargs)
            index = tracer.open(name_id, layer)
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # SystemExit is how argparse rejects a request, not an error
                failed = isinstance(exc, Exception)
                raise
            finally:
                tracer.close(index, failed)
        finally:
            depth[0] -= 1
            if after is not None:
                after()

    return wrapper


def _arg(args, kwargs, position: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[position]


def _hooks(tracer: Tracer):
    counts = tracer.counts

    def kernel_terms(name):
        position, keyword = {"stern_sum": (1, "n"), "alternating_power_sum": (0, "q")}[name]

        def before(args, kwargs):
            try:
                value = _arg(args, kwargs, position, keyword)
            except (IndexError, KeyError):
                return None
            counts["congruences.kernel.terms"] += (1 << value) if name == "stern_sum" else value
            return None
        return before

    def table_indices(args, kwargs):
        table = args[0]
        low = table.computed_up_to

        def after():
            counts["special.tables.indices"] += table.computed_up_to - low
        return after

    def cache_bytes(name):
        def before(args, kwargs):
            path = _arg(args, kwargs, 0, "path")
            if name == "load_tables":
                counts["special.cache.bytes"] += os.path.getsize(path)
                return None

            def after():
                if os.path.exists(path):
                    counts["special.cache.bytes"] += os.path.getsize(path)
            return after
        return before

    return {
        "congruences.stern_sum": kernel_terms("stern_sum"),
        "congruences.alternating_power_sum": kernel_terms("alternating_power_sum"),
        "special.save_tables": cache_bytes("save_tables"),
        "special.load_tables": cache_bytes("load_tables"),
        "EulerNumberTable.extend_to": table_indices,
        "BernoulliNumberTable.extend_to": table_indices,
    }


def install(tracer: Tracer) -> None:
    """Wrap eulermod's public entry points, for the rest of the process."""
    from eulermod import cli, congruences, exactmath, special

    hooks = _hooks(tracer)
    for short, module in (("cli", cli), ("congruences", congruences), ("special", special)):
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__):
                continue
            name = f"{short}.{attr}"
            setattr(module, attr, _wrap(tracer, value, name, layer_of(short, attr),
                                        hooks.get(name)))

    classes = [(getattr(special, c, None), "special.tables") for c in TABLE_CLASSES]
    classes.append((getattr(exactmath, "UnivariatePolynomial", None), "exactmath.poly"))
    for cls, layer in classes:
        if cls is None:
            continue
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in POLY_DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(tracer, raw.__func__, name, layer, hooks.get(name)))
            elif inspect.isfunction(raw):
                wrapped = _wrap(tracer, raw, name, layer, hooks.get(name))
            else:
                continue
            setattr(cls, attr, wrapped)


def cache_info_totals() -> tuple[int, int]:
    """(hits, misses) summed over the memoized polynomial functions, if memoized."""
    from eulermod import special

    hits = misses = 0
    for name in POLYNOMIALS:
        fn = getattr(special, name, None)
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            stats = fn.cache_info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses

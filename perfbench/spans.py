"""Tracing from outside the program.

`install` wraps the public functions of every negabeta module, in every
module namespace that binds them (the modules import each other's functions
by name), plus the few methods whose calls the per-layer counters need.  A
span records name, start, end and parent; spans stay in memory and are
written out when the run ends.  A layer's self time is its spans' time minus
the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import importlib
import time

LAYERS = ["numerics", "order", "expansion", "language", "codes", "series",
          "gaps", "plot", "wordset", "cli"]

# methods wrapped besides module-level functions: (module, class, method)
METHODS = [
    ("numerics", "BetaSpec", "refine"),
    ("numerics", "FieldElement", "inverse"),
    ("language", "Reference", "for_beta"),
    ("wordset", "WordSet", "from_words"),
    ("wordset", "WordSet", "from_json"),
    ("wordset", "WordSet", "to_json"),
    ("wordset", "WordSet", "union"),
    ("wordset", "WordSet", "up_to"),
    ("wordset", "WordSet", "count"),
]

# (name, unit, better): the per-layer metrics, in output order
METRICS = [
    ("numerics.self_s", "s", "lower"),
    ("numerics.floor_calls", "count", "lower"),
    ("numerics.compare_calls", "count", "lower"),
    ("numerics.inverse_calls", "count", "lower"),
    ("numerics.refine_calls", "count", "lower"),
    ("numerics.refines_per_decision", "ratio", "lower"),
    ("numerics.root_isolation_s", "s", "lower"),
    ("expansion.self_s", "s", "lower"),
    ("expansion.digits", "count", "lower"),
    ("expansion.digits_per_s", "1/s", "higher"),
    ("expansion.inverses_per_digit", "ratio", "lower"),
    ("order.self_s", "s", "lower"),
    ("order.compare_calls", "count", "lower"),
    ("language.self_s", "s", "lower"),
    ("language.words", "count", "lower"),
    ("language.words_per_s", "1/s", "higher"),
    ("language.queries", "count", "lower"),
    ("language.ref_lookups", "count", "lower"),
    ("language.ref_misses", "count", "lower"),
    ("codes.self_s", "s", "lower"),
    ("codes.words", "count", "lower"),
    ("series.self_s", "s", "lower"),
    ("series.coeffs", "count", "lower"),
    ("wordset.self_s", "s", "lower"),
    ("gaps.self_s", "s", "lower"),
    ("gaps.gamma_s", "s", "lower"),
    ("gaps.gamma_degree_max", "count", "lower"),
    ("plot.self_s", "s", "lower"),
    ("plot.laps", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
]


def _words(r) -> int:
    """Words in a WordSet, or in every WordSet field of a result dataclass."""
    if isinstance(getattr(r, "words", None), tuple):
        return len(r.words)
    fields = getattr(r, "__dataclass_fields__", None)
    if fields:
        return sum(_words(getattr(r, f)) for f in fields
                   if isinstance(getattr(getattr(r, f), "words", None), tuple))
    return 0


def _degree(r) -> int:
    return len(r.minpoly) - 1 if getattr(r, "minpoly", None) else 1


def _coeffs(r) -> int:
    c = getattr(r, "coeffs", None)
    return len(c) if isinstance(c, tuple) else 0


def _counter(key: str):
    """What a span of `key` counts from its result, if anything."""
    layer, name = key.split(".", 1)
    if key == "language.language_census":
        return sum
    if key == "language.enumerate_words":
        return _words
    if layer == "codes":
        return _words
    if layer == "series":
        return _coeffs
    if key == "gaps.gamma_n":
        return _degree
    if key == "plot.plot_tn":
        return lambda svg: svg.count('<line class="lap"')
    return None


class Tracer:
    def __init__(self) -> None:
        # span: [key, start, end, parent index, count]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _counter(key)

        def traced(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self) -> None:
        """Wrap every public negabeta function in every namespace binding it."""
        wrapped: dict[int, object] = {}
        modules = [importlib.import_module(f"negabeta.{m}") for m in LAYERS]
        modules.append(importlib.import_module("negabeta"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not home.startswith("negabeta.")):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(f"{home.split('.')[1]}.{name}", obj)
                setattr(mod, name, wrapped[id(obj)])
        for modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(f"negabeta.{modname}"), clsname)
            raw = cls.__dict__[meth]
            key = f"{modname}.{clsname}.{meth}"
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self.wrap(key, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(key, raw))


def dump(spans: list[list], path: str) -> None:
    """One span per line: name, start, end, parent index, count."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.writelines(f"{k}\t{a!r}\t{b!r}\t{p}\t{c}\n" for k, a, b, p, c in spans)


class LayerTotals:
    """Accumulates per-layer figures from spans, in reference seconds."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.ref_misses = 0
        self.gamma_degree_max = 0
        self.import_s = 0.0

    def add(self, spans: list[list], ref, offset: int = 0) -> None:
        """ref(a, b): reference seconds of the raw interval [a, b]; parent
        indices are counted from `offset`."""
        dur = [ref(s[1], s[2]) for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3] - offset] += dur[i]
        for i, (key, _a, _b, parent, count) in enumerate(spans):
            parent -= offset if parent >= 0 else 0
            self.self_s[key.split(".", 1)[0]] += dur[i] - child[i]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.counts[key] = self.counts.get(key, 0) + count
            self.incl_s[key] = self.incl_s.get(key, 0.0) + dur[i]
            if (key == "expansion.reference_pair" and parent >= 0
                    and spans[parent][0] == "language.Reference.for_beta"):
                self.ref_misses += 1
            if key == "gaps.gamma_n":
                self.gamma_degree_max = max(self.gamma_degree_max, count)

    def metrics(self, rounds: int, setup: "LayerTotals") -> dict[str, float]:
        """Per-round figures.  Root isolation and the cascade bases are built
        during set-up in a long-lived process, so those read from `setup`
        (the same object as self for the cli workload)."""
        c = lambda k: self.calls.get(k, 0) / rounds
        floor, compare = c("numerics.fe_floor"), c("numerics.fe_compare")
        refine = c("numerics.BetaSpec.refine")
        digits = c("expansion.t_step")
        step_s = self.incl_s.get("expansion.t_step", 0.0) / rounds
        words = (self.counts.get("language.language_census", 0)
                 + self.counts.get("language.enumerate_words", 0)) / rounds
        lang_s = self.self_s["language"] / rounds
        div = lambda a, b: a / b if b else 0.0
        srounds = rounds if setup is self else 1
        out = {f"{layer}.self_s": self.self_s[layer] / rounds for layer in LAYERS}
        out.update({
            "numerics.floor_calls": floor,
            "numerics.compare_calls": compare,
            "numerics.inverse_calls": c("numerics.FieldElement.inverse"),
            "numerics.refine_calls": refine,
            "numerics.refines_per_decision": div(refine, floor + compare),
            "numerics.root_isolation_s":
                setup.incl_s.get("numerics.beta_from_poly", 0.0) / srounds,
            "expansion.digits": digits,
            "expansion.digits_per_s": div(digits, step_s),
            "expansion.inverses_per_digit":
                div(c("numerics.FieldElement.inverse"), digits),
            "order.compare_calls": c("order.alt_compare") + c("order.alt_compare_seq"),
            "language.words": words,
            "language.words_per_s": div(words, lang_s),
            "language.queries": c("language.is_admissible_word"),
            "language.ref_lookups": c("language.Reference.for_beta"),
            "language.ref_misses": self.ref_misses / rounds,
            "codes.words": sum(v for k, v in self.counts.items()
                               if k.startswith("codes.")) / rounds,
            "series.coeffs": sum(v for k, v in self.counts.items()
                                 if k.startswith("series.")) / rounds,
            "gaps.gamma_s": setup.incl_s.get("gaps.gamma_n", 0.0) / srounds,
            "gaps.gamma_degree_max": float(setup.gamma_degree_max),
            "plot.laps": self.counts.get("plot.plot_tn", 0) / rounds,
            "cli.import_s": self.import_s / rounds,
        })
        return out

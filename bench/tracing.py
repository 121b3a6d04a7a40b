"""Per-layer spans and counters, installed from outside the library.

The library calls its layers through module-level names (``k1core`` calls
``ns_log``, ``novikov`` calls ``gr_inverse``, ...).  :meth:`Tracer.install`
rebinds those names to timing wrappers, so ``src/`` stays untouched and an
untraced pass runs the library exactly as shipped.  Spans are kept in memory
as (name, start, end, parent, job) and written out when the pass ends.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, span name).  A span's self time is its duration minus
# the durations of its child spans.
SPANS = (
    ("cover", "metabelian_rep", "cover.metabelian_rep"),
    ("cover", "smith_normal_form", "cover.smith_normal_form"),
    ("k1core", "k1_invariant", "k1core.k1_invariant"),
    ("k1core", "build_fox_matrix", "k1core.build_fox_matrix"),
    ("upsilon", "build_fox_matrix", "k1core.build_fox_matrix"),
    ("k1core", "eliminate", "k1core.eliminate"),
    ("k1core", "gr_is_unit", "k1core.pivot_unit_test"),
    ("k1core", "ns_invert", "novikov.ns_invert"),
    ("k1core", "witt_normalize", "novikov.witt_normalize"),
    ("k1core", "ns_log", "novikov.ns_log"),
    ("novikov", "gr_inverse", "grouprings.gr_inverse"),
    ("grouprings", "gr_inverse", "grouprings.gr_inverse"),
    ("upsilon", "metafinite_polynomial", "upsilon.metafinite_polynomial"),
    ("upsilon", "upsilon_matrix", "upsilon.upsilon_matrix"),
    ("upsilon", "det_commutative", "upsilon.det_commutative"),
    ("upsilon", "is_unit_laurent", "upsilon.is_unit_laurent"),
)

# (module, class, method, counter name): calls counted, no span.
COUNTED = (
    ("grouprings", "GroupAlgebraElem", "__mul__", "ga_mul"),
    ("grouprings", "GroupAlgebraElem", "__rmul__", "ga_mul"),
    ("novikov", "NovikovSeries", "__mul__", "series_mul"),
)


def _modules():
    from k1alex import cover, grouprings, k1core, novikov, upsilon
    return {"cover": cover, "grouprings": grouprings, "k1core": k1core,
            "novikov": novikov, "upsilon": upsilon}


def wrapped_names() -> list[str]:
    """Library names currently bound to a tracing wrapper."""
    mods = _modules()
    out = [f"{m}.{a}" for m, a, _ in SPANS
           if hasattr(getattr(mods[m], a), "__wrapped__")]
    out += [f"{c}.{meth}" for m, c, meth, _ in COUNTED
            if hasattr(getattr(getattr(mods[m], c), meth), "__wrapped__")]
    return out


class Tracer:
    """Collects spans and counts for one pass in this process."""

    def __init__(self):
        self.spans: list = []
        self.counts = {"ga_mul": [0], "series_mul": [0],
                       "gr_inverse_nontrivial": [0], "gr_inverse_hits": [0]}
        self.job = -1
        self._stack: list[int] = []

    def install(self) -> None:
        mods = _modules()
        for m, attr, name in SPANS:
            fn = getattr(mods[m], attr)
            if name == "grouprings.gr_inverse":
                fn = self._cache_probe(fn, mods["grouprings"])
            setattr(mods[m], attr, self._span(name, fn))
        for m, cls, meth, name in COUNTED:
            klass = getattr(mods[m], cls)
            setattr(klass, meth, self._counter(self.counts[name], getattr(klass, meth)))

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
        return wrapper

    @staticmethod
    def _counter(cell, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _cache_probe(self, fn, grouprings):
        """Count non-monomial gr_inverse calls and the cache hits among them."""
        nontrivial, hits = self.counts["gr_inverse_nontrivial"], self.counts["gr_inverse_hits"]
        cache = grouprings._INVERSE_CACHE

        @functools.wraps(fn)
        def probe(a):
            if len(a.coeffs) > 1:
                nontrivial[0] += 1
                if (a.group.divisors, frozenset(a.coeffs.items())) in cache:
                    hits[0] += 1
            return fn(a)
        return probe

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return self.counts[name][0]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)

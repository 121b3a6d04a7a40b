"""The library names the benchmark's tracer rebinds must keep resolving.

``bench/tracing.py`` times the library by rebinding module-level names
(``k1core.ns_log``, ``upsilon.det_commutative``, ...) and counting calls of
a few methods.  A refactor that drops or renames one of them would fail
every bench job; this test fails first.  The tracer is read from its file
and executed in a fresh namespace, so nothing under ``bench/`` is imported,
installed or written.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_span_resolves():
    tracing = _tracing()
    mods = tracing["_modules"]()
    for module, attr, _ in tracing["SPANS"]:
        assert callable(getattr(mods[module], attr, None)), f"{module}.{attr}"


def test_every_counted_method_resolves():
    tracing = _tracing()
    mods = tracing["_modules"]()
    for module, cls, method, _ in tracing["COUNTED"]:
        klass = getattr(mods[module], cls, None)
        assert callable(getattr(klass, method, None)), f"{module}.{cls}.{method}"


def test_inverse_cache_is_a_dict():
    mods = _tracing()["_modules"]()
    assert isinstance(mods["grouprings"]._INVERSE_CACHE, dict)


def test_nothing_is_wrapped_without_a_tracer():
    assert _tracing()["wrapped_names"]() == []

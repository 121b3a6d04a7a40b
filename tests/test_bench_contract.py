"""The library names the benchmark's tracer rebinds, and the result fields
its worker reads, must keep resolving.

``bench/tracing.py`` times the library by rebinding module-level names
(``k1core.ns_log``, ``upsilon.det_commutative``, ...) and counting calls of
a few methods.  A refactor that drops or renames one of them would fail
every bench job; this test fails first.  The tracer is read from its file
and executed in a fresh namespace, so nothing under ``bench/`` is imported,
installed or written.  ``bench/worker.py`` checks and measures each result
through a few attributes of the report and the polynomial; the last test
reads the same ones off a small run.
"""

from pathlib import Path

from k1alex import (
    GroupAlgebraElem,
    builtin,
    k1_invariant,
    metabelian_rep,
    metafinite_polynomial,
)

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


def test_bench_reads_of_a_report_resolve():
    """What ``bench/worker.py`` reads off a result in ``check``,
    ``max_coeff_bits`` and ``layer_metrics``: the Witt part's dense
    ``coeffs`` view, the pivot trace, the logs and the polynomial's terms."""
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    report = k1_invariant(p, rep, 8)
    poly = metafinite_polynomial(p, rep)
    assert report.invertible == "yes"
    witt = list(report.witt.coeffs)
    assert len(witt) == report.witt.window
    assert all(isinstance(a, GroupAlgebraElem) and isinstance(a.coeffs, dict)
               for a in witt)
    assert report.pivot_trace
    assert all(isinstance(s.witt_type, bool) for s in report.pivot_trace)
    assert isinstance(report.swaps, int)
    assert report.logs.degrees()
    assert all(isinstance(report.logs[k].coeffs, dict) for k in report.logs.degrees())
    assert poly.terms
    assert all(isinstance(a.coeffs, dict) for a in poly.terms.values())

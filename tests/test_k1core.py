"""Matrix assembly, elimination, and the invertibility pipeline."""

import random
from fractions import Fraction
from itertools import count

import pytest

from k1alex import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    GroupAut,
    GroupError,
    NovikovMatrix,
    NovikovSeries,
    LaurentPolyGA,
    build_fox_matrix,
    builtin,
    canonical_form,
    det_commutative,
    eliminate,
    fibered_obstruction,
    fox_image,
    is_unit_laurent,
    k1_invariant,
    metabelian_rep,
    metafinite_polynomial,
    ns_invert,
    parse_presentation,
    trivial_rep,
    upsilon_matrix,
    witt_normalize,
)
from k1alex.grouprings import MetaRep, gr_inverse
from k1alex.k1core import _norm_inverse, latest_relation
from k1alex.presentation import NielsenMove, apply_nielsen, transport_rep
from k1alex.words import gen

from helpers import (
    STABILIZED_4_1,
    STABILIZED_5_2,
    oracle_logs,
    rand_ga,
    rand_unit_ga,
    trivial_group,
    unit_laurent_by_evaluation,
    z4sq_order3,
    z5_negation,
)

PREC = 12


def _mono(kappa, coeffs, deg, window=PREC):
    return NovikovSeries.monomial(kappa, GroupAlgebraElem(kappa.group, coeffs), deg, window)


def _poly(kappa, terms, top=PREC):
    return NovikovSeries(
        kappa, {d: GroupAlgebraElem(kappa.group, c) for d, c in terms.items()}, top)


def test_fox_image_example():
    # w = x1 x2^2 x1^-1 x2^-1.  d/dx2: the two x2 letters add +rho(x1) and
    # +rho(x1 x2), and x2^-1 adds -rho(w) = -rho(x2) (H is abelian).  d/dx1:
    # x1 adds +1 and x1^-1 adds -rho(x1 x2^2 x1^-1) = -rho(x2)^2.
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    g = rep.group
    a, b = rep.images
    w = gen(1) * gen(2, 2) * gen(1, -1) * gen(2, -1)

    def el(e, c=1):
        return GroupAlgebraElem.of(g, e, c)

    assert fox_image(rep, w, 2) == el(a) + el(g.add(a, b)) + el(b, -1)
    assert fox_image(rep, w, 1) == el(g.identity()) + el(g.scale(b, 2), -1)


def test_build_matrix_trefoil_trivial():
    p = builtin("3_1")
    mx = build_fox_matrix(p, trivial_rep(p), PREC)
    k = mx.kappa
    assert mx[0, 0] == _poly(k, {0: {(): -1}, 1: {(): 1}})     # tau - 1
    assert mx[0, 1] == _poly(k, {1: {(): -1}})                 # -tau
    assert mx[1, 0] == _poly(k, {0: {(): 1}})                  # 1
    assert mx[1, 1] == _poly(k, {0: {(): -1}, 1: {(): 1}})


def test_build_matrix_figure8_trivial():
    # definitional Fox derivatives give + tau off the diagonal:
    # dy1/dx2 = x1 and dy2/dx1 = x2 both map to 1
    p = builtin("4_1")
    mx = build_fox_matrix(p, trivial_rep(p), PREC)
    k = mx.kappa
    assert mx[0, 1] == _poly(k, {1: {(): 1}})
    assert mx[1, 0] == _poly(k, {1: {(): 1}})
    assert mx[1, 1] == _poly(k, {0: {(): -1}, 1: {(): 2}})


def test_build_matrix_trefoil_symbolic():
    """Entries equal tau * rho(dy/dx) - rho(dz/dx) assembled independently."""
    p = builtin("3_1")
    rep = metabelian_rep(p, 2)
    mx = build_fox_matrix(p, rep, PREC)
    g, k = rep.group, rep.kappa
    a = rep.images[0]  # rho(x1)
    b = rep.images[1]
    x1x2inv = g.add(a, g.neg(b))
    x2x1inv = g.add(b, g.neg(a))
    one = GroupAlgebraElem.one(g)
    tau = NovikovSeries.monomial(k, one, 1, PREC)
    def const(e, c=1):
        return NovikovSeries.monomial(k, GroupAlgebraElem.of(g, e, c), 0, PREC)
    assert mx[0, 0] == tau - NovikovSeries.one(k, PREC)
    assert mx[0, 1] == tau * const(x1x2inv, -1)
    assert mx[1, 0] == const(x2x1inv)
    assert mx[1, 1] == tau - NovikovSeries.one(k, PREC)


def test_build_matrix_rejects_invalid_rep():
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    bad = MetaRep(rep.group, rep.kappa,
                  (rep.group.add(rep.images[0], (1,)), rep.images[1]), 2)
    with pytest.raises(GroupError, match="invalid"):
        build_fox_matrix(p, bad, PREC)


def test_eliminate_identity_matrix():
    _, kappa = z5_negation()
    one = NovikovSeries.one(kappa, PREC)
    zero = NovikovSeries.zero(kappa, PREC)
    report = eliminate(NovikovMatrix([[one, zero], [zero, one]]))
    assert report.invertible == "yes"
    assert report.degree == -1  # tau^{-g} with g = 1
    assert report.witt == NovikovSeries.one(kappa, PREC)
    assert report.unit_part == GroupAlgebraElem.one(kappa.group)


def test_eliminate_trefoil_gives_unit_witt():
    p = builtin("3_1")
    report = k1_invariant(p, trivial_rep(p), PREC)
    assert report.invertible == "yes"
    k = report.witt.kappa
    assert report.degree == -1
    assert report.witt == _poly(k, {0: {(): 1}, 1: {(): -1}, 2: {(): 1}})


def test_delta_is_shifted_pivot_product():
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    report = k1_invariant(p, rep, PREC)
    prod = NovikovSeries.one(rep.kappa, PREC)
    for d in report.diagonal:
        prod = prod * d
    assert report.delta == prod.shift(-p.genus)
    head = NovikovSeries.monomial(rep.kappa, report.unit_part, report.degree,
                                  report.delta.window)
    assert head * report.witt == report.delta


def _feed_matrix(monkeypatch, mx):
    """Make k1_invariant and fibered_obstruction see ``mx`` for any input;
    the memo of the latest job is restored after the test, so ``mx`` never
    reaches a later one."""
    import k1alex.k1core as k1core
    monkeypatch.setattr(k1core, "build_fox_matrix", lambda p, rep, precision: mx)
    monkeypatch.setattr(k1core, "_latest", (None, None, None, None))
    p = builtin("3_1")
    return p, trivial_rep(p)


def _rand_unit_leading_2x2(rng, kappa):
    """[[a, b], [c, d]] with entries u + v tau, u a unit of Q[H] (v often 0)."""
    entries = []
    for _ in range(4):
        terms = {0: rand_unit_ga(rng, kappa.group)}
        if rng.random() < 0.8:
            terms[1] = rand_ga(rng, kappa.group)
        entries.append(NovikovSeries(kappa, terms, PREC))
    a, b, c, d = entries
    return NovikovMatrix([[a, b], [c, d]])


def test_dieudonne_2x2_cofactor_oracle(monkeypatch):
    """Pivot products agree with the hand 2x2 Schur-complement determinant,
    compared through the canonical data (unit degree and projected logs)."""
    rng = random.Random(40)
    _, kappa = z5_negation()
    for _ in range(40):
        mx = _rand_unit_leading_2x2(rng, kappa)
        (a, b), (c, d) = mx.entries
        p, rep = _feed_matrix(monkeypatch, mx)
        report = k1_invariant(p, rep, PREC)
        assert report.invertible == "yes"
        schur = d - (c * ns_invert(a)) * b
        if schur.is_zero():
            continue
        ref = (a * schur).shift(-1)
        _, dref, wref = witt_normalize(ref)
        assert report.degree == dref
        ref_logs = oracle_logs(wref)
        for k in report.logs.degrees():
            assert report.logs[k] == ref_logs[k]


@pytest.mark.parametrize("fixture", [z5_negation, z4sq_order3])
def test_det_route_logs_match_power_sum_oracle(monkeypatch, fixture):
    """det Upsilon at period N = ord kappa lives in degrees divisible by N,
    the verdict is "yes" exactly when it is a unit, and on every completed
    elimination the logs k1_invariant reads off it equal the power-sum logs
    of the Witt part."""
    rng = random.Random(41)
    _, kappa = fixture()
    N = kappa.order
    checked = 0
    for _ in range(16):
        mx = _rand_unit_leading_2x2(rng, kappa)
        det = det_commutative(upsilon_matrix(mx, N))
        assert all(d % N == 0 for d in det.terms)
        p, rep = _feed_matrix(monkeypatch, mx)
        report = k1_invariant(p, rep, PREC)
        assert (report.invertible == "yes") == is_unit_laurent(det)
        if report.delta is not None:  # elimination completed: "yes"
            assert report.invertible == "yes"
            assert report.logs == oracle_logs(report.witt)
            checked += 1
    assert checked >= 12


def _count_unit_tests(monkeypatch) -> list:
    """Record every det Upsilon that upsilon.is_unit_laurent is asked about."""
    import k1alex.upsilon as upsilon
    calls = []
    real = upsilon.is_unit_laurent
    monkeypatch.setattr(upsilon, "is_unit_laurent", lambda p: calls.append(p) or real(p))
    return calls


@pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "s4_1", "s5_2"])
def test_completed_elimination_needs_no_unit_test(monkeypatch, name):
    """A completed elimination answers "yes" without testing det Upsilon,
    and that determinant is a unit on every such report: 3_1, 4_1, 5_2 and
    both stabilized texts at N = 2..6."""
    texts = {"s4_1": STABILIZED_4_1, "s5_2": STABILIZED_5_2}
    p = parse_presentation(texts[name]) if name in texts else builtin(name)
    calls = _count_unit_tests(monkeypatch)
    for n in range(2, 7):
        rep = metabelian_rep(p, n)
        report = k1_invariant(p, rep, PREC)
        assert report.delta is not None and report.invertible == "yes"
        assert is_unit_laurent(latest_relation(p, rep)[1])
    assert not calls


def test_stalled_unit_leading_2x2_verdict_is_a_unit_test(monkeypatch):
    """The Q[Z/5] draw (kappa = inversion) of
    test_det_route_logs_match_power_sum_oracle that stalls: every entry leads
    with a unit, but the Schur complement's lead is a zero divisor.
    k1_invariant then tests det Upsilon once and answers "yes", as the
    evaluation oracle does."""
    _, kappa = z5_negation()
    a = _poly(kappa, {0: {(1,): -1}})
    b = _poly(kappa, {0: {(4,): 1}, 1: {(1,): 3, (4,): -3}})
    c = _poly(kappa, {0: {(3,): -1}, 1: {(2,): 3}})
    d = _poly(kappa, {0: {(3,): 1}, 1: {(0,): 6, (3,): -1}})
    mx = NovikovMatrix([[a, b], [c, d]])
    assert eliminate(mx).note == "no admissible pivot at stage 1"
    p, rep = _feed_matrix(monkeypatch, mx)
    calls = _count_unit_tests(monkeypatch)
    report = k1_invariant(p, rep, PREC)
    det = latest_relation(p, rep)[1]
    assert calls == [det]
    assert report.delta is None and report.invertible == "yes"
    assert unit_laurent_by_evaluation(det)


@pytest.mark.parametrize("text", [STABILIZED_4_1, STABILIZED_5_2])
@pytest.mark.parametrize("n", [3, 4])
def test_pivot_verdicts_match_retesting_every_candidate(monkeypatch, text, n):
    """eliminate tests each entry once.  On the genus-2 relation matrices
    of stabilized 4_1 and 5_2 at N = 3, 4 and window 10, its pivot trace,
    swaps and delta equal those of a run whose memo never hits (every id a
    fresh key), which re-tests every candidate at every stage, with fewer
    unit tests."""
    import k1alex.k1core as k1core
    p = parse_presentation(text)
    mx = build_fox_matrix(p, metabelian_rep(p, n), 10)
    tests = []
    real = k1core.gr_is_unit
    monkeypatch.setattr(k1core, "gr_is_unit", lambda a: tests.append(a) or real(a))
    once = eliminate(mx)
    memo_tests = len(tests)
    fresh = count()
    monkeypatch.setattr(k1core, "id", lambda entry: next(fresh), raising=False)
    again = eliminate(mx)
    assert (again.pivot_trace, again.swaps) == (once.pivot_trace, once.swaps)
    assert (again.delta.terms, again.delta.top) == (once.delta.terms, once.delta.top)
    assert memo_tests < len(tests) - memo_tests


def test_eliminate_singular_matrix_certified_no(monkeypatch):
    _, kappa = trivial_group()
    row = _poly(kappa, {0: {(): -1}, 1: {(): 1}})  # tau - 1
    mx = NovikovMatrix([[row, row], [row, row]])
    report = eliminate(mx)  # elimination alone stalls
    assert report.delta is None
    p, rep = _feed_matrix(monkeypatch, mx)
    report2 = k1_invariant(p, rep, PREC)
    assert report2.invertible == "no"


def test_verdict_same_in_k1_invariant_and_fibered_obstruction(monkeypatch):
    """[[1 + x, 0], [0, 1]] over Q[Z/2]: 1 + x is a zero divisor, so
    elimination stalls on a nonzero block, and det Upsilon = 1 + x is not a
    unit.  Both entry points must answer with the same definite verdict."""
    H = FiniteAbelianGroup([2])
    kappa = GroupAut.identity(H)
    mx = NovikovMatrix([[_poly(kappa, {0: {(0,): 1, (1,): 1}}), _poly(kappa, {})],
                        [_poly(kappa, {}), _poly(kappa, {0: {(0,): 1}})]])
    assert eliminate(mx).delta is None
    p, rep = _feed_matrix(monkeypatch, mx)
    assert k1_invariant(p, rep, PREC).invertible == "no"
    res = fibered_obstruction(p, [rep])
    assert res.verdicts == ("not-invertible",)
    assert res.certified_nonfibered


def _matmul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(1, n)), A[i][0] * B[0][j])
             for j in range(n)] for i in range(n)]


def _rand_elementary(rng, kappa):
    """[[1, a], [0, 1]] or its transpose, a = a0 + a1 tau random over Q[H]."""
    one, zero = _poly(kappa, {0: {(0,): 1}}), _poly(kappa, {})
    a = NovikovSeries(kappa, {0: rand_ga(rng, kappa.group),
                                       1: rand_ga(rng, kappa.group)}, PREC)
    return [[one, a], [zero, one]] if rng.random() < 0.5 else [[one, zero], [a, one]]


def test_stalled_elimination_verdict_read_off_det(monkeypatch):
    """Over Q[Z/2] with the idempotent e = (1 + x)/2, f = e + (1 - e) tau is a
    unit (inverse e + (1 - e) tau^-1) whose leading coefficient e is not.
    E1 diag(f, 1) E2 is invertible and E1 diag(e, 1) E2 is not; elimination
    stalls on both, and the exact verdict comes from det Upsilon."""
    rng = random.Random(42)
    H = FiniteAbelianGroup([2])
    kappa = GroupAut.identity(H)
    e = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    f = _poly(kappa, {0: e, 1: {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)}})
    one, zero = _poly(kappa, {0: {(0,): 1}}), _poly(kappa, {})
    for middle, verdict, obstruction in ((f, "yes", "invertible"),
                                         (_poly(kappa, {0: e}), "no", "not-invertible")):
        for _ in range(10):
            D = [[middle, zero], [zero, one]]
            E1, E2 = _rand_elementary(rng, kappa), _rand_elementary(rng, kappa)
            mx = NovikovMatrix(_matmul(_matmul(E1, D), E2))
            assert eliminate(mx).delta is None
            p, rep = _feed_matrix(monkeypatch, mx)
            report = k1_invariant(p, rep, PREC)
            assert report.invertible == verdict
            assert report.delta is None and report.logs is None
            assert "no admissible pivot at stage" in report.note
            assert fibered_obstruction(p, [rep]).verdicts == (obstruction,)


def test_fibered_obstruction_verdicts():
    p3 = builtin("3_1")
    reps = [metabelian_rep(p3, n) for n in (2, 3, 6)]
    res = fibered_obstruction(p3, reps)
    assert res.verdicts == ("invertible",) * 3
    assert not res.certified_nonfibered
    assert "consistent-with-fibered" in res.summary
    assert "non-fibered" not in res.summary

    p4 = builtin("4_1")
    res4 = fibered_obstruction(p4, [metabelian_rep(p4, 2), metabelian_rep(p4, 3)])
    assert res4.verdicts == ("invertible", "invertible")

    p5 = builtin("5_2")
    res5 = fibered_obstruction(p5, [metabelian_rep(p5, 3)])
    assert res5.verdicts == ("invertible",)
    assert res5.summary == "no obstruction found: consistent-with-fibered"


def test_fibered_obstruction_runs_no_elimination_or_log(monkeypatch):
    """The verdicts come from det Upsilon alone: with eliminate and ns_log
    made to raise, fibered_obstruction still gives them."""
    import k1alex.k1core as k1core

    def refuse(*args):
        raise AssertionError("fibered_obstruction must not call this")

    monkeypatch.setattr(k1core, "eliminate", refuse)
    monkeypatch.setattr(k1core, "ns_log", refuse)
    for knot in ("3_1", "4_1", "5_2"):
        p = builtin(knot)
        res = fibered_obstruction(p, [metabelian_rep(p, n) for n in (2, 3, 4)])
        assert res.verdicts == ("invertible",) * 3


def _count_builds(monkeypatch):
    """Record the precision of every relation matrix k1core or upsilon
    builds, from an empty memo of the latest job."""
    import k1alex.k1core as k1core
    import k1alex.upsilon as upsilon
    monkeypatch.setattr(k1core, "_latest", (None, None, None, None))
    builds = []

    def counting(p, rep, precision):
        builds.append(precision)
        return build_fox_matrix(p, rep, precision)

    monkeypatch.setattr(k1core, "build_fox_matrix", counting)
    monkeypatch.setattr(upsilon, "build_fox_matrix", counting)
    return builds


def _cold_polynomial(p, rep):
    return canonical_form(det_commutative(upsilon_matrix(build_fox_matrix(p, rep, 4),
                                                         rep.cover_n)))


def test_compute_builds_one_relation_matrix(monkeypatch):
    """k1_invariant then metafinite_polynomial on 4_1 N=5 build the relation
    matrix once, at the invariant's precision, and an equal but distinct
    rep is still a hit; the polynomial is the one a window-4 matrix gives."""
    builds = _count_builds(monkeypatch)
    p = builtin("4_1")
    rep = metabelian_rep(p, 5)
    k1_invariant(p, rep, 16)
    assert metafinite_polynomial(p, rep) == _cold_polynomial(p, rep)
    assert metafinite_polynomial(p, metabelian_rep(p, 5)) == _cold_polynomial(p, rep)
    assert builds == [16]


def test_shared_matrix_serves_both_periods(monkeypatch):
    """On 3_1 N=9 (ord kappa = 3) the one matrix gives det Upsilon at
    period 3 for the invariant and at period 9 for the polynomial."""
    import k1alex.upsilon as upsilon
    builds = _count_builds(monkeypatch)
    periods = []

    def counting(U):
        periods.append(U.period)
        return det_commutative(U)

    monkeypatch.setattr(upsilon, "det_commutative", counting)
    p = builtin("3_1")
    rep = metabelian_rep(p, 9)
    assert rep.kappa.order == 3
    assert k1_invariant(p, rep, 12).invertible == "yes"
    assert metafinite_polynomial(p, rep) == _cold_polynomial(p, rep)
    assert (builds, periods) == ([12], [3, 9])


def test_shared_matrix_is_never_stale(monkeypatch):
    """After k1_invariant on 5_2 N=3, a Nielsen-moved presentation with its
    transported rep and the same knot at N=4 each get a fresh matrix and
    their own polynomial; the original input still hits.  Only the latest
    job is held: after k1_invariant on the moved input, the original one
    misses, builds at window 4 and still gets its own polynomial."""
    builds = _count_builds(monkeypatch)
    p = builtin("5_2")
    rep = metabelian_rep(p, 3)
    k1_invariant(p, rep, 10)
    move = NielsenMove("invert", 1)
    moved, moved_rep = apply_nielsen(p, move), transport_rep(rep, move)
    assert moved != p and moved_rep != rep
    for q, r in ((moved, moved_rep), (p, metabelian_rep(p, 4)), (p, rep)):
        assert metafinite_polynomial(q, r) == _cold_polynomial(q, r)
    assert builds == [10, 4, 4]
    k1_invariant(moved, moved_rep, 10)
    assert metafinite_polynomial(p, rep) == _cold_polynomial(p, rep)
    assert builds == [10, 4, 4, 10, 4]


def _count_det_calls(monkeypatch):
    """Record every argument upsilon.det_commutative is called with, from an
    empty memo of the latest job."""
    import k1alex.k1core as k1core
    import k1alex.upsilon as upsilon
    calls = []
    monkeypatch.setattr(k1core, "_latest", (None, None, None, None))
    det = upsilon.det_commutative

    def counting(U):
        calls.append(U)
        return det(U)

    monkeypatch.setattr(upsilon, "det_commutative", counting)
    return calls


def test_fibered_obstruction_certifies_once(monkeypatch):
    """[[1 - tau, 1], [1, 1 + tau + ... + tau^(K-1)]] at window K: the Schur
    complement tau^K vanishes on the window, so elimination stalls, but the
    exact determinant -tau^K is a unit and -tau^-K adj is the exact inverse.
    The verdict is "invertible" and the commutative determinant is computed
    exactly once."""
    K = PREC
    _, kappa = trivial_group()

    def relation_matrix(top):
        one = _poly(kappa, {0: {(): 1}}, top)
        return [[_poly(kappa, {0: {(): 1}, 1: {(): -1}}, top), one],
                [one, _poly(kappa, {d: {(): 1} for d in range(K)}, top)]]

    mx = NovikovMatrix(relation_matrix(K))
    det = det_commutative(upsilon_matrix(mx, 1))
    assert det == LaurentPolyGA.monomial(GroupAlgebraElem.one(kappa.group), K).scale(-1)
    assert eliminate(mx).delta is None

    # the entries have degree < K, so a wider top stores the same matrix
    (a, b), (c, d) = wide = relation_matrix(3 * K)
    inverse = [[-x.shift(-K) for x in row] for row in ((d, -b), (-c, a))]
    one, zero = NovikovSeries.one(kappa, 2 * K), NovikovSeries.zero(kappa, 2 * K)
    assert _matmul(wide, inverse) == [[one, zero], [zero, one]]

    p, rep = _feed_matrix(monkeypatch, mx)
    calls = _count_det_calls(monkeypatch)
    res = fibered_obstruction(p, [rep])
    assert res.verdicts == ("invertible",)
    assert res.summary == "no obstruction found: consistent-with-fibered"
    assert len(calls) == 1
    assert calls[0].entries == upsilon_matrix(mx, 1).entries


def test_yes_verdict_computes_det_once(monkeypatch):
    """A "yes" matrix takes its logs from det Upsilon: one determinant per
    k1_invariant call, at period ord kappa.  fibered_obstruction builds its
    own matrices and takes one determinant per rep."""
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    calls = _count_det_calls(monkeypatch)
    report = k1_invariant(p, rep, PREC)
    assert report.invertible == "yes"
    assert len(calls) == 1
    assert calls[0].period == rep.kappa.order
    res = fibered_obstruction(p, [rep, metabelian_rep(p, 3)])
    assert res.verdicts == ("invertible", "invertible")
    assert len(calls) == 3


@pytest.mark.parametrize("name,n,periods", [("4_1", 5, [5]), ("3_1", 9, [3, 9])])
def test_compute_takes_one_det_per_period(monkeypatch, name, n, periods):
    """k1_invariant then metafinite_polynomial, as ``k1alex compute`` calls
    them: det Upsilon is computed once per distinct period.  On 4_1 N=5 ord
    kappa = N and the metafinite polynomial reuses k1_invariant's
    determinant; on 3_1 N=9 ord kappa = 3 and both periods run."""
    p = builtin(name)
    rep = metabelian_rep(p, n)
    calls = _count_det_calls(monkeypatch)
    k1_invariant(p, rep, PREC)
    poly = metafinite_polynomial(p, rep)
    assert [U.period for U in calls] == periods
    assert poly == canonical_form(det_commutative(upsilon_matrix(
        build_fox_matrix(p, rep, PREC), n)))


def test_pivot_trace_records_witt_type():
    p = builtin("4_1")
    report = k1_invariant(p, metabelian_rep(p, 2), PREC)
    assert len(report.pivot_trace) == 2
    assert report.witt_pivots_only()
    for step, d in zip(report.pivot_trace, report.diagonal):
        assert step.lead_degree == d.leading()[0]


@pytest.mark.parametrize("name,n,sign", [("3_1", 6, -1), ("4_1", 5, 1), ("4_1", 2, 1),
                                         ("s5_2", 4, -1)])
def test_det_constant_is_the_norm_of_the_delta_lead(name, n, sign):
    """The lowest coefficient c0 of det Upsilon is sign * N(lead delta), N
    the kappa-norm, on both signs: ord kappa 1, 5 and 2 with monomial leads,
    and 4 with a two-term lead and a 15-term c0 over Z/3 + Z/21.  The
    inverse k1_invariant takes from the norm equals gr_inverse(c0), the
    route it replaced, and a c0 that matches neither sign raises."""
    p = parse_presentation(STABILIZED_5_2) if name == "s5_2" else builtin(name)
    rep = metabelian_rep(p, n)
    kappa, lead = rep.kappa, k1_invariant(p, rep, PREC).unit_part
    _, det = latest_relation(p, rep)
    c0 = det.coefficient(det.min_degree())
    norm = GroupAlgebraElem.one(kappa.group)
    for i in range(kappa.order):
        norm = norm * lead.apply_aut(kappa, i)
    assert c0 == norm.scale(sign)
    assert _norm_inverse(c0, lead, kappa) == gr_inverse(c0)
    with pytest.raises(GroupError):
        _norm_inverse(c0.scale(2), lead, kappa)

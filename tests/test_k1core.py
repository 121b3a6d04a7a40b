"""Matrix assembly, elimination, and the invertibility pipeline."""

import random
from fractions import Fraction

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
    det_commutative,
    eliminate,
    fibered_obstruction,
    k1_invariant,
    metabelian_rep,
    ns_invert,
    ns_log,
    rep_image,
    trivial_rep,
    upsilon_matrix,
    witt_normalize,
)
from k1alex.grouprings import MetaRep
from k1alex.words import FreeRingElem, gen

from helpers import rand_ga, rand_unit_ga, trivial_group, z5_negation

PREC = 12


def _mono(kappa, coeffs, deg, window=PREC):
    return NovikovSeries.monomial(kappa, GroupAlgebraElem(kappa.group, coeffs), deg, window)


def _poly(kappa, terms, top=PREC):
    return NovikovSeries.from_map(
        kappa, {d: GroupAlgebraElem(kappa.group, c) for d, c in terms.items()}, top)


def test_rep_image_pushforward():
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    e = FreeRingElem.of(gen(1) * gen(2), 2) + FreeRingElem.of(gen(2, -1), -1)
    img = rep_image(rep, e)
    g = rep.group
    expected = GroupAlgebraElem(g, {
        g.add(rep.images[0], rep.images[1]): Fraction(2),
        g.neg(rep.images[1]): Fraction(-1)})
    assert img == expected


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


def test_dieudonne_2x2_cofactor_oracle():
    """Pivot products agree with the hand 2x2 Schur-complement determinant,
    compared through the canonical data (unit degree and projected logs)."""
    rng = random.Random(40)
    _, kappa = z5_negation()
    for _ in range(40):
        entries = []
        for _ in range(4):
            terms = {0: rand_unit_ga(rng, kappa.group)}
            if rng.random() < 0.8:
                terms[1] = rand_ga(rng, kappa.group)
            entries.append(NovikovSeries.from_map(kappa, terms, PREC))
        a, b, c, d = entries
        mx = NovikovMatrix([[a, b], [c, d]])
        report = eliminate(mx)
        assert report.invertible == "yes"
        schur = d - (c * ns_invert(a)) * b
        if schur.is_zero():
            continue
        ref = (a * schur).shift(-1)
        _, dref, wref = witt_normalize(ref)
        assert report.degree == dref
        ref_logs = ns_log(wref)
        for k in report.logs.degrees():
            assert report.logs[k] == ref_logs[k]


def _feed_matrix(monkeypatch, mx):
    """Make k1_invariant and fibered_obstruction see ``mx`` for any input."""
    import k1alex.k1core as k1core
    monkeypatch.setattr(k1core, "build_fox_matrix", lambda p, rep, precision: mx)
    p = builtin("3_1")
    return p, trivial_rep(p)


def test_eliminate_singular_matrix_certified_no(monkeypatch):
    _, kappa = trivial_group()
    row = _poly(kappa, {0: {(): -1}, 1: {(): 1}})  # tau - 1
    mx = NovikovMatrix([[row, row], [row, row]])
    report = eliminate(mx)  # elimination alone: honest indeterminate
    assert report.invertible == "indeterminate"
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
    assert eliminate(mx).invertible == "indeterminate"
    p, rep = _feed_matrix(monkeypatch, mx)
    assert k1_invariant(p, rep, PREC).invertible == "no"
    res = fibered_obstruction(p, [rep], PREC)
    assert res.verdicts == ("not-invertible",)
    assert res.certified_nonfibered


def test_fibered_obstruction_verdicts():
    p3 = builtin("3_1")
    reps = [metabelian_rep(p3, n) for n in (2, 3, 6)]
    res = fibered_obstruction(p3, reps, PREC)
    assert res.verdicts == ("invertible",) * 3
    assert not res.certified_nonfibered
    assert "consistent-with-fibered" in res.summary
    assert "non-fibered" not in res.summary

    p4 = builtin("4_1")
    res4 = fibered_obstruction(p4, [metabelian_rep(p4, 2), metabelian_rep(p4, 3)], PREC)
    assert res4.verdicts == ("invertible", "invertible")

    p5 = builtin("5_2")
    res5 = fibered_obstruction(p5, [metabelian_rep(p5, 3)], PREC)
    assert res5.verdicts == ("invertible",)
    assert res5.summary == "no obstruction found: consistent-with-fibered"


def test_fibered_obstruction_certifies_once(monkeypatch):
    """[[1 - tau, 1], [1, 1 + tau + ... + tau^(K-1)]] at window K: the Schur
    complement tau^K vanishes on the window, so elimination stalls, but the
    exact determinant -tau^K is a unit.  The verdict is indeterminate and
    the commutative certifier runs exactly once."""
    import k1alex.k1core as k1core

    K = PREC
    _, kappa = trivial_group()
    one = _poly(kappa, {0: {(): 1}}, K)
    mx = NovikovMatrix([[_poly(kappa, {0: {(): 1}, 1: {(): -1}}, K), one],
                        [one, _poly(kappa, {d: {(): 1} for d in range(K)}, K)]])
    det = det_commutative(upsilon_matrix(mx, 1))
    assert det == LaurentPolyGA.monomial(GroupAlgebraElem.one(kappa.group), K).scale(-1)
    assert eliminate(mx).invertible == "indeterminate"

    calls = []
    certify = k1core._upsilon_certifier

    def counting(m):
        calls.append(m)
        return certify(m)

    p, rep = _feed_matrix(monkeypatch, mx)
    monkeypatch.setattr(k1core, "_upsilon_certifier", counting)
    res = fibered_obstruction(p, [rep], K)
    assert res.verdicts == ("indeterminate",)
    assert res.summary == "inconclusive"
    assert calls == [mx]


def test_pivot_trace_records_witt_type():
    p = builtin("4_1")
    report = k1_invariant(p, metabelian_rep(p, 2), PREC)
    assert len(report.pivot_trace) == 2
    assert report.witt_pivots_only()
    for step, d in zip(report.pivot_trace, report.diagonal):
        assert step.lead_degree == d.leading()[0]

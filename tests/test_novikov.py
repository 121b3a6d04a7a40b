"""Twisted series arithmetic, inversion, Witt normalization, logarithms."""

import random
from fractions import Fraction

import pytest

from k1alex import (
    GroupAlgebraElem,
    NovikovSeries,
    SeriesError,
    WittVector,
    log_series,
    ns_invert,
    ns_log,
    orbit_project,
    witt_normalize,
)

from helpers import (
    dict_series_log,
    rand_ga,
    rand_unit_ga,
    rational_log,
    trivial_group,
    z5_negation,
)

W = 10  # window for the random suites


def series(kappa, terms, top=W):
    group = kappa.group
    return NovikovSeries.from_map(
        kappa, {d: GroupAlgebraElem(group, c) for d, c in terms.items()}, top)


def rand_series(rng, kappa, neg=True):
    lo = rng.randint(-2, 1) if neg else 0
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(lo, lo + 4)
        terms[d] = rand_ga(rng, kappa.group, denominators=True)
    return NovikovSeries.from_map(kappa, terms, lo + W)


def rand_unit_leading(rng, kappa):
    lo = rng.randint(-2, 2)
    terms = {lo: rand_unit_ga(rng, kappa.group)}
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(lo + 1, lo + 4)
        terms[d] = rand_ga(rng, kappa.group)
    return NovikovSeries.from_map(kappa, terms, lo + W)


def test_twisting_rule():
    H, kappa = z5_negation()
    tau = NovikovSeries.monomial(kappa, GroupAlgebraElem.one(H), 1, W)
    x = NovikovSeries.monomial(kappa, GroupAlgebraElem.of(H, (1,)), 0, W)
    x4tau = series(kappa, {1: {(4,): 1}})
    assert tau * x == x4tau


def test_geometric_series_inverts_one_minus_tau():
    H, kappa = trivial_group()
    one_minus = series(kappa, {0: {(): 1}, 1: {(): -1}})
    geo = series(kappa, {d: {(): 1} for d in range(W)})
    assert one_minus * geo == NovikovSeries.one(kappa, W)
    assert ns_invert(one_minus) == geo


def test_laurent_shift_example():
    H, kappa = trivial_group()
    s = series(kappa, {-1: {(): 1}, 0: {(): 1}})  # tau^-1 + 1
    tau = NovikovSeries.monomial(kappa, GroupAlgebraElem.one(H), 1, W)
    assert s * tau == series(kappa, {0: {(): 1}, 1: {(): 1}})


def test_invert_monomial():
    H, kappa = z5_negation()
    tau = NovikovSeries.monomial(kappa, GroupAlgebraElem.one(H), 1, W)
    assert ns_invert(tau) == NovikovSeries.monomial(kappa, GroupAlgebraElem.one(H), -1, W)


def test_invert_leading_unit_example():
    H, kappa = z5_negation()
    a = series(kappa, {0: {(1,): 1}, 1: {(3,): 1}})  # x(1 + x^2 tau)
    inv = ns_invert(a)
    assert a * inv == NovikovSeries.one(kappa, W)
    assert inv * a == NovikovSeries.one(kappa, W)


def test_invert_rejects_non_unit_leading():
    H, kappa = z5_negation()
    norm = GroupAlgebraElem(H, {e: 1 for e in H.elements()})
    s = NovikovSeries.monomial(kappa, norm, 0, W)
    with pytest.raises(SeriesError, match="leading"):
        ns_invert(s)


def test_ring_axioms_random():
    rng = random.Random(20)
    _, kappa = z5_negation()
    for _ in range(400):
        a, b, c = (rand_series(rng, kappa) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_inverse_random_suite():
    rng = random.Random(21)
    _, kappa = z5_negation()
    one = NovikovSeries.one(kappa, W)
    for _ in range(500):
        a = rand_unit_leading(rng, kappa)
        inv = ns_invert(a)
        assert a * inv == one
        assert inv * a == one


def test_witt_normalize_examples():
    H, kappa = trivial_group()
    s = series(kappa, {0: {(): 1}, 1: {(): -1}, 2: {(): 1}})  # 1 - tau + tau^2
    u, d, w = witt_normalize(s)
    assert (u, d) == (GroupAlgebraElem.one(H), 0) and w == s

    H5, kappa5 = z5_negation()
    minus_x = GroupAlgebraElem.of(H5, (1,), -1)
    s2 = series(kappa5, {1: {(1,): -1}, 2: {(1,): -1}})  # -x tau (1 + tau)
    u2, d2, w2 = witt_normalize(s2)
    assert u2 == minus_x and d2 == 1
    assert w2 == series(kappa5, {0: {(0,): 1}, 1: {(0,): 1}}, top=s2.top - 1)


def test_witt_normalize_reconstructs():
    rng = random.Random(22)
    _, kappa = z5_negation()
    for _ in range(200):
        a = rand_unit_leading(rng, kappa)
        u, d, w = witt_normalize(a)
        head = NovikovSeries.monomial(kappa, u, d, a.window)
        assert head * w == a
        assert isinstance(w, WittVector)


def test_log_of_one_is_zero():
    _, kappa = z5_negation()
    lc = ns_log(NovikovSeries.one(kappa, W))
    assert all(lc[k].is_zero() for k in lc.degrees())


def test_log_of_trefoil_polynomial_against_closed_form():
    """Independent oracle: log(1 - t + t^2) = log(1 + t^3) - log(1 + t), so the
    t^m coefficient is (3/m) * (-1)^(m/3 - 1) for 3 | m, minus (-1)^(m-1)/m."""
    _, kappa = trivial_group()
    w = series(kappa, {0: {(): 1}, 1: {(): -1}, 2: {(): 1}}, top=26)
    raw = log_series(w)
    for m in range(1, 26):
        expected = Fraction(0)
        if m % 3 == 0:
            expected += Fraction((-1) ** (m // 3 - 1) * 3, m)
        expected -= Fraction((-1) ** (m - 1), m)
        got = raw.coefficient(m).augmentation()
        assert got == expected
    # in particular the tau^(6n) coefficients are -1/(3n)
    for n in (1, 2, 3, 4):
        assert raw.coefficient(6 * n).augmentation() == Fraction(-1, 3 * n)


def test_log_additivity_random_suite():
    rng = random.Random(23)
    _, kappa = z5_negation()
    one = GroupAlgebraElem.one(kappa.group)
    for _ in range(500):
        tails = []
        for _ in range(2):
            terms = {0: one}
            for _ in range(rng.randint(1, 3)):
                terms[rng.randint(1, 4)] = rand_ga(rng, kappa.group)
            tails.append(NovikovSeries.from_map(kappa, terms, 9))
        u, v = tails
        lu, lv, luv = ns_log(u), ns_log(v), ns_log(u * v)
        for k in luv.degrees():
            assert luv[k] == lu[k] + lv[k]


def test_log_against_dict_oracle():
    rng = random.Random(24)
    _, kappa = z5_negation()
    one = GroupAlgebraElem.one(kappa.group)
    for _ in range(60):
        terms = {0: one}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(1, 4)] = rand_ga(rng, kappa.group, denominators=True)
        w = NovikovSeries.from_map(kappa, terms, 9)
        raw = log_series(w)
        oracle = dict_series_log(kappa, terms, 9)
        for d in range(1, 9):
            assert raw.coefficient(d) == oracle.get(d, GroupAlgebraElem.zero(kappa.group))


def test_log_entries_only_at_multiples_of_order():
    _, kappa = z5_negation()
    one = GroupAlgebraElem.one(kappa.group)
    w = NovikovSeries.from_map(
        kappa, {0: one, 1: GroupAlgebraElem.of(kappa.group, (2,))}, 9)
    lc = ns_log(w)
    assert lc.degrees() == [2, 4, 6, 8]
    with pytest.raises(KeyError, match="not a multiple"):
        lc[3]
    with pytest.raises(KeyError, match="precision"):
        lc[10]


def test_log_augmentation_consistency():
    """Pushforward along H -> 1 must commute with the twisted logarithm."""
    rng = random.Random(25)
    _, kappa = z5_negation()
    one = GroupAlgebraElem.one(kappa.group)
    for _ in range(50):
        terms = {0: one}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(1, 4)] = rand_ga(rng, kappa.group)
        w = NovikovSeries.from_map(kappa, terms, 9)
        raw = log_series(w)
        aug = {d: c.augmentation() for d, c in
               ((d, terms.get(d)) for d in range(0, 9)) if c is not None}
        aug = {d: v for d, v in aug.items() if v or d == 0}
        aug[0] = Fraction(1)
        expected = rational_log(aug, 9)
        for d in range(1, 9):
            assert raw.coefficient(d).augmentation() == expected.get(d, Fraction(0))


def test_zero_series_representation():
    _, kappa = z5_negation()
    z = NovikovSeries.zero(kappa, 5)
    assert z.is_zero() and z.support() == []
    cancel = series(kappa, {0: {(1,): 1}}) - series(kappa, {0: {(1,): 1}})
    assert cancel.is_zero()
    assert cancel == NovikovSeries.zero(kappa, W)
    with pytest.raises(SeriesError):
        cancel.leading()


def test_window_semantics_on_mixed_ops():
    _, kappa = trivial_group()
    a = series(kappa, {0: {(): 1}}, top=6)
    b = series(kappa, {-1: {(): 1}}, top=4)
    assert (a + b).top == 4
    # unknown tail of a (>= tau^6) against b's lowest degree -1 gives tau^5;
    # unknown tail of b (>= tau^4) against a's lowest degree 0 gives tau^4
    assert (a * b).top == 4
    assert a == a.truncate(3)  # equality on the common window only


def test_witt_vector_validates():
    _, kappa = z5_negation()
    with pytest.raises(SeriesError):
        WittVector.from_series(series(kappa, {0: {(2,): 1}}))

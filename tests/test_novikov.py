"""Twisted series arithmetic, inversion, Witt normalization, logarithms."""

import random
from fractions import Fraction

import pytest

from k1alex import (
    GroupAlgebraElem,
    LogClass,
    NovikovMatrix,
    NovikovSeries,
    SeriesError,
    WittVector,
    det_commutative,
    ns_invert,
    ns_log,
    orbit_project,
    upsilon_matrix,
    witt_normalize,
)

from helpers import (
    dict_series_log,
    rand_ga,
    rand_unit_ga,
    rational_log,
    trivial_group,
    unit_by_rank,
    z4sq_order3,
    z5_negation,
)

W = 10  # window for the random suites


def series(kappa, terms, top=W):
    group = kappa.group
    return NovikovSeries(
        kappa, {d: GroupAlgebraElem(group, c) for d, c in terms.items()}, top)


def rand_series(rng, kappa, neg=True):
    lo = rng.randint(-2, 1) if neg else 0
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(lo, lo + 4)
        terms[d] = rand_ga(rng, kappa.group, denominators=True)
    return NovikovSeries(kappa, terms, lo + W)


def det_log(w):
    """Projected logs of a polynomial Witt vector by the determinant route:
    det Upsilon of the 1 x 1 matrix [w], fed to ns_log."""
    det = det_commutative(upsilon_matrix(NovikovMatrix([[w]], genus=0)))
    return ns_log(det.terms, w.kappa, w.top)


def rand_unit_leading(rng, kappa):
    lo = rng.randint(-2, 2)
    terms = {lo: rand_unit_ga(rng, kappa.group)}
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(lo + 1, lo + 4)
        terms[d] = rand_ga(rng, kappa.group)
    return NovikovSeries(kappa, terms, lo + W)


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


def test_inverse_window_with_non_monomial_leads():
    """The inverse of a series leading at tau^d lives on [-d, a.top - 2d),
    which the window-relative == cannot see, and inverts on both sides when
    the leading unit of Q[H] has several terms."""
    rng = random.Random(23)
    count = 0
    for _, kappa in (z5_negation(), z4sq_order3()):
        for _ in range(60):
            lead = rand_ga(rng, kappa.group, max_terms=4, denominators=True)
            if len(lead.coeffs) < 2 or not unit_by_rank(lead):
                continue
            d, window = rng.randint(-3, 3), rng.randint(1, 9)
            terms = {d: lead}
            for _ in range(rng.randint(0, 4) if window > 1 else 0):
                terms[rng.randint(d + 1, d + window - 1)] = rand_ga(rng, kappa.group)
            a = NovikovSeries(kappa, terms, d + window)
            inv = ns_invert(a)
            assert (inv.min_deg, inv.top) == (-d, a.top - 2 * d)
            one = NovikovSeries.one(kappa, a.window)
            assert a * inv == one and inv * a == one
            count += 1
    assert count >= 40


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
    lc = det_log(NovikovSeries.one(kappa, W))
    assert all(lc[k].is_zero() for k in lc.degrees())


def test_log_of_trefoil_polynomial_against_closed_form():
    """Independent oracle: log(1 - t + t^2) = log(1 + t^3) - log(1 + t), so the
    t^m coefficient is (3/m) * (-1)^(m/3 - 1) for 3 | m, minus (-1)^(m-1)/m."""
    _, kappa = trivial_group()
    w = series(kappa, {0: {(): 1}, 1: {(): -1}, 2: {(): 1}}, top=26)
    lc = det_log(w)
    for m in range(1, 26):
        expected = Fraction(0)
        if m % 3 == 0:
            expected += Fraction((-1) ** (m // 3 - 1) * 3, m)
        expected -= Fraction((-1) ** (m - 1), m)
        got = lc[m].augmentation()
        assert got == expected
    # in particular the tau^(6n) coefficients are -1/(3n)
    for n in (1, 2, 3, 4):
        assert lc[6 * n].augmentation() == Fraction(-1, 3 * n)


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
            tails.append(NovikovSeries(kappa, terms, 9))
        u, v = tails
        lu, lv, luv = det_log(u), det_log(v), det_log(u * v)
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
        w = NovikovSeries(kappa, terms, 9)
        lc = det_log(w)
        oracle = dict_series_log(kappa, terms, 9)
        assert lc.degrees() == [2, 4, 6, 8]
        for d in lc.degrees():
            assert lc[d] == orbit_project(
                oracle.get(d, GroupAlgebraElem.zero(kappa.group)), kappa)


def test_log_entries_only_at_multiples_of_order():
    _, kappa = z5_negation()
    one = GroupAlgebraElem.one(kappa.group)
    w = NovikovSeries(
        kappa, {0: one, 1: GroupAlgebraElem.of(kappa.group, (2,))}, 9)
    lc = det_log(w)
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
        w = NovikovSeries(kappa, terms, 9)
        lc = det_log(w)
        aug = {d: c.augmentation() for d, c in
               ((d, terms.get(d)) for d in range(0, 9)) if c is not None}
        aug = {d: v for d, v in aug.items() if v or d == 0}
        aug[0] = Fraction(1)
        expected = rational_log(aug, 9)
        for d in lc.degrees():
            assert lc[d].augmentation() == expected.get(d, Fraction(0))


def test_log_class_equality_needs_equal_degrees():
    """Equality compares every recorded degree, not only the shared ones."""
    H, kappa = z5_negation()
    x, y = (orbit_project(GroupAlgebraElem.of(H, (e,)), kappa) for e in (1, 2))
    logs = LogClass(kappa, 2, 5, {2: x, 4: y})
    assert logs == LogClass(kappa, 2, 5, {2: x, 4: y})
    assert logs != LogClass(kappa, 2, 1, {})
    assert logs != LogClass(kappa, 2, 3, {2: x})
    assert logs != LogClass(kappa, 2, 5, {2: x, 4: x})


def test_zero_series_representation():
    _, kappa = z5_negation()
    z = NovikovSeries.zero(kappa, 5)
    assert z.is_zero() and z.support() == []
    cancel = series(kappa, {0: {(1,): 1}}) - series(kappa, {0: {(1,): 1}})
    assert cancel.is_zero()
    assert cancel == NovikovSeries.zero(kappa, W)
    with pytest.raises(SeriesError):
        cancel.leading()
    assert (z.min_deg, z.window, z.coeffs) == (5, 0, ())
    # no term may sit at or above the knowledge bound
    with pytest.raises(SeriesError, match="knowledge bound"):
        series(kappa, {0: {(1,): 1}, 5: {(2,): 1}}, top=5)


def test_window_semantics_on_mixed_ops():
    _, kappa = trivial_group()
    a = series(kappa, {0: {(): 1}}, top=6)
    b = series(kappa, {-1: {(): 1}}, top=4)
    assert (a + b).top == 4
    # unknown tail of a (>= tau^6) against b's lowest degree -1 gives tau^5;
    # unknown tail of b (>= tau^4) against a's lowest degree 0 gives tau^4
    assert (a * b).top == 4
    assert a == a.truncate(3)  # equality on the common window only
    # when the lowest terms cancel, min_deg and the lead move up to the first
    # surviving degree
    c = series(kappa, {-2: {(): 1}, 0: {(): 3}, 2: {(): 5}}, top=7)
    s = c + series(kappa, {-2: {(): -1}, 0: {(): -3}, 1: {(): 2}}, top=6)
    assert (s.min_deg, s.top) == (1, 6)
    assert s.leading() == (1, GroupAlgebraElem.of(kappa.group, (), 2))
    assert s.support() == [1, 2]
    # coeffs is the dense view of the window [min_deg, top)
    for t in (c, s, s.truncate(2), NovikovSeries.zero(kappa, 3)):
        assert t.coeffs == tuple(t.coefficient(d) for d in range(t.min_deg, t.top))
    assert len(c.coeffs) == c.window == 9


def test_witt_vector_validates():
    _, kappa = z5_negation()
    with pytest.raises(SeriesError):
        WittVector.from_series(series(kappa, {0: {(2,): 1}}))

"""The untwisting map, commutative determinants, and polynomial invariants."""

import random
from fractions import Fraction

import pytest

from k1alex import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    LaurentPolyGA,
    NovikovSeries,
    UpsilonMatrix,
    build_fox_matrix,
    builtin,
    canonical_form,
    det_commutative,
    gr_is_unit,
    is_unit_laurent,
    k1_invariant,
    metabelian_rep,
    metafinite_polynomial,
    parse_presentation,
    poly_equiv,
    trivial_rep,
    upsilon_elem,
    upsilon_matrix,
)

from helpers import (
    STABILIZED_4_1,
    STABILIZED_5_2,
    det_subset_dp_oracle,
    rand_ga,
    rand_unit_ga,
    trivial_group,
    unit_laurent_by_evaluation,
    z4sq_order3,
    z5_negation,
)


def _series(kappa, terms, top=8):
    return NovikovSeries(
        kappa, {d: GroupAlgebraElem(kappa.group, c) for d, c in terms.items()}, top)


def _blocks_equal(U: UpsilonMatrix, expected):
    n = U.size
    return all(U[i, j] == expected[i][j] for i in range(n) for j in range(n))


def _mat_mul(A: UpsilonMatrix, B: UpsilonMatrix) -> UpsilonMatrix:
    n = A.size
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPolyGA.zero(A.group)
            for k in range(n):
                acc = acc + A[i, k] * B[k, j]
            row.append(acc)
        out.append(row)
    return UpsilonMatrix(out, A.group, A.period)


def test_upsilon_order3_block_layout():
    """For N = 3 the image of a + b tau + c tau^2 is the displayed sum of a
    diagonal t^0 block and two shifted blocks carrying t and t^2."""
    H, kappa = z4sq_order3()
    rng = random.Random(50)
    a, b, c = (rand_ga(rng, H) for _ in range(3))
    s = NovikovSeries(kappa, {0: a, 1: b, 2: c}, 8)
    U = upsilon_elem(s, 3)
    k = lambda v, j: v.apply_aut(kappa, j)
    L = lambda v, d: LaurentPolyGA.monomial(v, d)
    Z = LaurentPolyGA.zero(H)
    expected = [
        [L(k(a, 3), 0), L(k(c, 3), 2), L(k(b, 3), 1)],
        [L(k(b, 2), 1), L(k(a, 2), 0), L(k(c, 2), 2)],
        [L(k(c, 1), 2), L(k(b, 1), 1), L(k(a, 1), 0)],
    ]
    assert _blocks_equal(U, expected)


def test_upsilon_of_one_is_identity():
    H, kappa = z4sq_order3()
    U = upsilon_elem(NovikovSeries.one(kappa, 8), 3)
    one, zero = LaurentPolyGA.one(H), LaurentPolyGA.zero(H)
    assert _blocks_equal(U, [[one if i == j else zero for j in range(3)]
                             for i in range(3)])


def test_upsilon_tau_is_cyclic_shift():
    H, kappa = trivial_group()
    tau = NovikovSeries.monomial(kappa, GroupAlgebraElem.one(H), 1, 8)
    U = upsilon_elem(tau, 6)
    for i in range(6):
        for j in range(6):
            entry = U[i, j]
            if (i - j) % 6 == 1:
                assert entry == LaurentPolyGA.monomial(GroupAlgebraElem.one(H), 1)
            else:
                assert entry.is_zero()


def test_upsilon_tau_inverse_is_inverse_block():
    H, kappa = z5_negation()
    one = GroupAlgebraElem.one(H)
    tau = NovikovSeries.monomial(kappa, one, 1, 8)
    tau_inv = NovikovSeries.monomial(kappa, one, -1, 8)
    prod = _mat_mul(upsilon_elem(tau, 2), upsilon_elem(tau_inv, 2))
    ident = upsilon_elem(NovikovSeries.one(kappa, 8), 2)
    assert _blocks_equal(prod, ident.entries)


def test_upsilon_twisted_monomial_example():
    # N=2, kappa = inversion on Z/5: (x tau)^2 = x kappa(x) tau^2 = tau^2
    H, kappa = z5_negation()
    x = GroupAlgebraElem.of(H, (1,))
    xtau = NovikovSeries.monomial(kappa, x, 1, 8)
    U = upsilon_elem(xtau, 2)
    x4 = GroupAlgebraElem.of(H, (4,))
    assert _blocks_equal(U, [
        [LaurentPolyGA.zero(H), LaurentPolyGA.monomial(x, 1)],
        [LaurentPolyGA.monomial(x4, 1), LaurentPolyGA.zero(H)],
    ])
    sq = _mat_mul(U, U)
    tausq = upsilon_elem(_series(kappa, {2: {(0,): 1}}), 2)
    assert _blocks_equal(sq, tausq.entries)


def test_upsilon_ring_homomorphism_suite():
    rng = random.Random(51)
    H, kappa = z5_negation()
    for _ in range(500):
        fterms = {d: rand_ga(rng, H) for d in
                  rng.sample(range(-3, 5), rng.randint(1, 3))}
        gterms = {d: rand_ga(rng, H) for d in
                  rng.sample(range(-3, 5), rng.randint(1, 3))}
        # windows wide enough that the polynomial products are exact
        f = NovikovSeries(kappa, fterms, 16)
        g = NovikovSeries(kappa, gterms, 16)
        fg = f * g
        assert fg.top > 8, "operands must stay polynomial on the window"
        lhs = upsilon_elem(fg, 2)
        rhs = _mat_mul(upsilon_elem(f, 2), upsilon_elem(g, 2))
        assert _blocks_equal(lhs, rhs.entries)
        s = upsilon_elem(f + g, 2)
        for i in range(2):
            for j in range(2):
                assert s[i, j] == upsilon_elem(f, 2)[i, j] + upsilon_elem(g, 2)[i, j]


def test_upsilon_rejects_bad_period():
    H, kappa = z4sq_order3()
    s = NovikovSeries.one(kappa, 8)
    with pytest.raises(Exception, match="period"):
        upsilon_elem(s, 2)  # order 3 does not divide 2


def test_det_identity_and_diagonal():
    H, _ = z5_negation()
    one, zero = LaurentPolyGA.one(H), LaurentPolyGA.zero(H)
    ident = UpsilonMatrix([[one, zero], [zero, one]], H, 1)
    assert det_commutative(ident) == one
    p = LaurentPolyGA(H, {0: GroupAlgebraElem.of(H, (1,)), 2: GroupAlgebraElem.one(H)})
    q = LaurentPolyGA(H, {-1: GroupAlgebraElem.of(H, (2,), Fraction(1, 2))})
    diag = UpsilonMatrix([[p, zero], [zero, q]], H, 1)
    assert det_commutative(diag) == p * q


def _rand_lp(rng, H):
    return LaurentPolyGA(H, {d: rand_ga(rng, H) for d in
                             rng.sample(range(-2, 3), rng.randint(1, 2))})


def test_det_multiplicativity_suite():
    rng = random.Random(52)
    H, _ = z5_negation()
    for _ in range(500):
        A = UpsilonMatrix([[_rand_lp(rng, H) for _ in range(2)] for _ in range(2)], H, 1)
        B = UpsilonMatrix([[_rand_lp(rng, H) for _ in range(2)] for _ in range(2)], H, 1)
        AB = _mat_mul(A, B)
        assert det_commutative(AB) == det_commutative(A) * det_commutative(B)


def test_det_row_swap_changes_sign():
    rng = random.Random(53)
    H, _ = z5_negation()
    rows = [[_rand_lp(rng, H) for _ in range(3)] for _ in range(3)]
    A = UpsilonMatrix(rows, H, 1)
    B = UpsilonMatrix([rows[1], rows[0], rows[2]], H, 1)
    assert det_commutative(B) == det_commutative(A).scale(-1)


def _sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _check_against_oracle(U: UpsilonMatrix, rng, shuffles: int) -> LaurentPolyGA:
    """det_commutative equals the oracle on U and, up to the permutation's
    sign, on U with its rows shuffled."""
    expected = det_subset_dp_oracle(U)
    assert det_commutative(U) == expected
    for _ in range(shuffles):
        perm = list(range(U.size))
        rng.shuffle(perm)
        shuffled = UpsilonMatrix([U.entries[i] for i in perm], U.group, U.period)
        assert det_commutative(shuffled) == expected.scale(_sign(perm))
    return expected


def _sparse_matrix(rng, H, n) -> UpsilonMatrix:
    """Sparse n x n matrix over Q[H][t, t^-1] that may carry zero rows, zero
    columns, repeated rows and zero-divisor entries (1 +- h, h of order 2)."""
    one = GroupAlgebraElem.one(H)
    halves = [one + GroupAlgebraElem.of(H, h).scale(s)
              for h in H.elements() if h != H.identity() for s in (1, -1)]
    zero = LaurentPolyGA.zero(H)

    def entry():
        if rng.random() < 0.6:
            return zero
        coeff = rand_ga(rng, H, max_terms=2)
        if rng.random() < 0.3:
            coeff = rng.choice(halves) * coeff
        return LaurentPolyGA.monomial(coeff, rng.randint(-1, 2))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
    if rng.random() < 0.1:
        rows[rng.randrange(n)] = [zero] * n
    if rng.random() < 0.1:
        j = rng.randrange(n)
        for row in rows:
            row[j] = zero
    return UpsilonMatrix(rows, H, 1)


def test_det_matches_subset_dp_oracle_on_sparse_matrices():
    rng = random.Random(90)
    H = FiniteAbelianGroup([2, 2])
    nonzero = 0
    for _ in range(200):
        U = _sparse_matrix(rng, H, rng.randint(1, 10))
        nonzero += not _check_against_oracle(U, rng, shuffles=1).is_zero()
    assert 20 <= nonzero <= 180  # both outcomes are exercised


_STABILIZED = {"s4_1": STABILIZED_4_1, "s5_2": STABILIZED_5_2}


@pytest.mark.parametrize("name,n", [("3_1", 9), ("5_2", 6), ("4_1", 7)]
                         + [(s, n) for s in _STABILIZED for n in (3, 4, 6)])
def test_det_matches_subset_dp_oracle_on_bench_covers(name, n):
    p = (parse_presentation(_STABILIZED[name], name=name) if name in _STABILIZED
         else builtin(name))
    U = upsilon_matrix(build_fox_matrix(p, metabelian_rep(p, n), precision=4), n)
    assert not _check_against_oracle(U, random.Random(n), shuffles=3).is_zero()


def test_det_width_is_polynomial_on_trefoil_cover(monkeypatch):
    # Natural row order keeps each 12 x 12 cyclic block open across its rows
    # and multiplies 535,858 times; the greedy order needs 137.
    p = builtin("3_1")
    U = upsilon_matrix(build_fox_matrix(p, metabelian_rep(p, 12), precision=4), 12)
    calls = [0]
    mul = LaurentPolyGA.__mul__

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(LaurentPolyGA, "__mul__", counting)
    assert not det_commutative(U).is_zero()
    assert calls[0] <= 1000


def test_trefoil_sixfold_determinant():
    p = builtin("3_1")
    rep = metabelian_rep(p, 6)
    poly = metafinite_polynomial(p, rep)
    H = rep.group
    one = GroupAlgebraElem.one(H)
    target = LaurentPolyGA(H, {0: one, 6: one.scale(-2), 12: one})  # (1 - t^6)^2
    assert poly_equiv(poly, target)


def test_poly_equiv_cases():
    H, _ = z5_negation()
    rng = random.Random(54)
    p = _rand_lp(rng, H)
    assert poly_equiv(p, p)
    shifted = p.shift(3) * LaurentPolyGA.monomial(GroupAlgebraElem.of(H, (1,)))
    assert poly_equiv(p, shifted)
    scaled = p.scale(Fraction(-7, 3))
    assert poly_equiv(p, scaled)
    Ht, _ = trivial_group()
    onet = GroupAlgebraElem.one(Ht)
    sixth = LaurentPolyGA(Ht, {0: onet, 6: onet.scale(-2), 12: onet})
    third = LaurentPolyGA(Ht, {0: onet, 3: onet.scale(-2), 6: onet})
    assert not poly_equiv(sixth, third)


def test_is_unit_laurent_cases():
    H, _ = z5_negation()
    assert is_unit_laurent(LaurentPolyGA.monomial(GroupAlgebraElem.one(H), 3))
    norm = GroupAlgebraElem(H, {e: 1 for e in H.elements()})
    x = GroupAlgebraElem.of(H, (1,))
    assert ((GroupAlgebraElem.one(H) - x) * norm).is_zero()  # zero divisor witness
    assert not is_unit_laurent(LaurentPolyGA.monomial(norm, 0))
    mixed = LaurentPolyGA(H, {0: norm, 1: GroupAlgebraElem.one(H)})
    assert is_unit_laurent(mixed)  # non-unit coefficients, unit series
    assert not is_unit_laurent(LaurentPolyGA.zero(H))


def _idempotent(H, x):
    """(1/|<x>|) * (sum of the powers of x): an idempotent zero divisor."""
    powers = {H.scale(x, k) for k in range(H.element_order(x))}
    return GroupAlgebraElem(H, {e: Fraction(1, len(powers)) for e in powers})


def test_is_unit_laurent_agrees_with_evaluation_oracle():
    """Seeded agreement with the evaluation oracle over seven groups: random
    polynomials, non-units of span >= 2 (a random polynomial times a zero
    divisor), and units all of whose coefficients are zero divisors, with
    and without a unit value at t = 2."""
    rng = random.Random(55)
    seen = {"unit": 0, "non-unit span>=2": 0, "zero-divisor coefficients": 0,
            "p(2) not a unit": 0}
    for divisors in ((), (2,), (5,), (2, 2), (6,), (2, 4), (4, 4)):
        H = FiniteAbelianGroup(divisors)
        one = GroupAlgebraElem.one(H)
        gens = H.generator_basis() or [H.identity()]
        for _ in range(8):
            cases = [_rand_lp(rng, H),
                     LaurentPolyGA(H, {d: rand_ga(rng, H) for d in range(-1, 3)})]
            if divisors:
                x = rng.choice(gens)
                e = _idempotent(H, x)
                zero_divisor = one - GroupAlgebraElem.of(H, x)
                cases.append(cases[1] * LaurentPolyGA.monomial(zero_divisor))
                a, b = rng.sample(range(-2, 3), 2)
                cases.append(LaurentPolyGA(H, {a: e * rand_unit_ga(rng, H),
                                               b: (one - e) * rand_unit_ga(rng, H)}))
                two_minus_t = LaurentPolyGA(H, {0: one.scale(2), 1: -one})
                cases.append(LaurentPolyGA.monomial(e * rand_unit_ga(rng, H))
                             + LaurentPolyGA.monomial((one - e) * rand_unit_ga(rng, H), 1)
                             * two_minus_t)
            for p in cases:
                unit = is_unit_laurent(p)
                assert unit == unit_laurent_by_evaluation(p), p
                if p.is_zero():
                    continue
                span = p.max_degree() - p.min_degree()
                seen["unit"] += unit
                seen["non-unit span>=2"] += not unit and span >= 2
                if unit and not any(gr_is_unit(c) for c in p.terms.values()):
                    seen["zero-divisor coefficients"] += 1
                    lo = p.min_degree()
                    at_two = GroupAlgebraElem.zero(H)
                    for d, c in p.terms.items():
                        at_two = at_two + c.scale(2 ** (d - lo))
                    seen["p(2) not a unit"] += not gr_is_unit(at_two)
    assert min(seen.values()) >= 20, seen


def test_figure8_double_cover_polynomial():
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    poly = metafinite_polynomial(p, rep)
    H = rep.group
    x = rep.images[0]
    mid = GroupAlgebraElem(H, {H.identity(): -3, x: -1, H.scale(x, 2): -1,
                               H.scale(x, 3): -1, H.scale(x, 4): -1})
    target = LaurentPolyGA(H, {-2: GroupAlgebraElem.one(H), 0: mid,
                               2: GroupAlgebraElem.one(H)})
    assert poly_equiv(poly, target)
    assert poly == canonical_form(target)  # the canonical form is the target
    assert is_unit_laurent(poly)


def test_canonical_form_rules():
    H, _ = trivial_group()
    one = GroupAlgebraElem.one(H)
    # even span: symmetric window; lowest coefficient made positive
    p = LaurentPolyGA(H, {3: one.scale(-1), 5: one.scale(2), 7: one.scale(-1)})
    c = canonical_form(p)
    assert c.min_degree() == -2 and c.coefficient(-2) == one
    # odd span: shifted to start at degree 0
    q = LaurentPolyGA(H, {2: one, 5: one})
    assert canonical_form(q).min_degree() == 0


def test_exactness_bridge_on_builtins():
    for name, n in (("3_1", 2), ("3_1", 3), ("4_1", 2), ("4_1", 3), ("5_2", 3)):
        p = builtin(name)
        rep = metabelian_rep(p, n)
        report = k1_invariant(p, rep, 10)
        mx = build_fox_matrix(p, rep, 4)
        det = det_commutative(upsilon_matrix(mx, rep.cover_n))
        assert report.invertible == "yes"
        assert is_unit_laurent(det)


def test_augmentation_of_metafinite_is_alexander_norm():
    """Pushforward along H -> 1 of the N-fold polynomial is the product of
    the Alexander polynomial over the N-th roots of unity: for 4_1 this is
    (t^N - a^N)(t^N - b^N) with a, b roots of s^2 - 3s + 1, i.e.
    t^{2N} - L_N t^N + 1 in the trace sequence."""
    from helpers import figure8_trace
    p = builtin("4_1")
    for n in (2, 3):
        rep = metabelian_rep(p, n)
        poly = metafinite_polynomial(p, rep)
        aug = poly.augmentation()
        lo = min(aug)
        monic = {d - lo: v for d, v in aug.items()}
        assert monic == {0: 1, n: -figure8_trace(n), 2 * n: 1}


def _alexander_norm(coeffs, n):
    """prod over n-th roots of unity of a quadratic c2 s^2 + c1 s + c0,
    computed via power sums of the roots (all rational arithmetic)."""
    c2, c1, c0 = (Fraction(c) for c in coeffs)
    s1 = -c1 / c2          # alpha + beta
    e2 = c0 / c2           # alpha * beta
    powers = [Fraction(2), s1]
    for _ in range(n - 1):
        powers.append(s1 * powers[-1] - e2 * powers[-2])
    # (t^n - alpha^n)(t^n - beta^n) * c2^n
    pn = powers[n]
    en = e2 ** n
    return {0: c2 ** n * en, n: -c2 ** n * pn, 2 * n: c2 ** n}


@pytest.mark.parametrize("name,coeffs,n", [
    ("3_1", (1, -1, 1), 2),
    ("3_1", (1, -1, 1), 3),
    ("5_2", (2, -3, 2), 2),
    ("5_2", (2, -3, 2), 3),
])
def test_metafinite_norm_oracle_other_knots(name, coeffs, n):
    """Same augmentation oracle for the trefoil (s^2 - s + 1) and 5_2
    (2s^2 - 3s + 2), including a non-monic Alexander polynomial."""
    p = builtin(name)
    rep = metabelian_rep(p, n)
    poly = metafinite_polynomial(p, rep)
    aug = poly.augmentation()
    lo = min(aug)
    monic = {d - lo: v for d, v in aug.items()}
    expected = _alexander_norm(coeffs, n)
    sign = 1 if monic.get(0) == expected[0] else -1
    assert monic == {d: sign * v for d, v in expected.items()}

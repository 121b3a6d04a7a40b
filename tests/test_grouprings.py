"""Group algebras, automorphisms, unit testing, orbit projection."""

import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from k1alex import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    GroupAut,
    GroupError,
    OrbitClass,
    gr_inverse,
    gr_is_unit,
    orbit_project,
)
from k1alex import grouprings, snf
from k1alex.grouprings import character_orbits, cyclotomic, translate
from k1alex.snf import inverse_mod, pdivmod

from helpers import (
    character_images_oracle,
    dict_ga_mul,
    echelon,
    fraction_divmod_poly,
    fraction_field_inverse,
    rand_ga,
    unit_by_rank,
    z4sq_order3,
    z5_negation,
)


def ga(group, mapping):
    return GroupAlgebraElem(group, mapping)


def test_group_validation():
    FiniteAbelianGroup([2, 4, 8])
    with pytest.raises(GroupError):
        FiniteAbelianGroup([4, 2])
    with pytest.raises(GroupError):
        FiniteAbelianGroup([1])
    assert FiniteAbelianGroup(()).order == 1


def test_gr_add_examples():
    H, _ = z5_negation()
    x = ga(H, {(1,): 1})
    assert (x + (-x)).is_zero()
    one = GroupAlgebraElem.one(H)
    assert one + x + x == ga(H, {(0,): 1, (1,): 2})
    assert GroupAlgebraElem.zero(H) + x == x


def test_constructor_sums_keys_that_normalize_alike():
    H, _ = z5_negation()
    assert ga(H, {(1,): 1, (6,): 1}) == ga(H, {(1,): 2})
    assert ga(H, {(1,): 1, (6,): -1}).is_zero()
    half = ga(H, {(1,): Fraction(1, 6), (-4,): Fraction(1, 3)})
    assert (half.den, half.nums) == (2, {(1,): 1})


def _fraction_constructor_oracle(group, coeffs):
    """(den, nums) as the constructor built them with one Fraction per term."""
    summed = {}
    for e, c in coeffs.items():
        e = tuple(x % d for x, d in zip(e, group.divisors))
        summed[e] = summed.get(e, 0) + Fraction(c)
    den = 1
    for c in summed.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return den, {e: int(c * den) for e, c in summed.items() if c}


@pytest.mark.parametrize("divisors", [(), (5,), (3, 21), (2, 4, 8)])
def test_constructor_matches_the_fraction_oracle(divisors):
    """int, Fraction and str coefficients, keys unreduced or negative, keys
    that merge after reduction and sums that cancel."""
    rng = random.Random(sum(divisors) + 7)
    H = FiniteAbelianGroup(divisors)
    for trial in range(300):
        coeffs = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randrange(-2 * d, 2 * d) for d in divisors)
            kind = rng.randrange(3)
            c = (rng.randint(-3, 3) if kind == 0
                 else Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if kind == 1
                 else f"{rng.randint(-6, 6)}/{rng.randint(1, 6)}")
            coeffs[e] = c
            if rng.random() < 0.3:  # the same element again, with the opposite sign
                coeffs[tuple(x + d for x, d in zip(e, divisors))] = (
                    -c if kind < 2 else "-" + c.lstrip("-"))
        a = GroupAlgebraElem(H, coeffs)
        assert (a.den, a.nums) == _fraction_constructor_oracle(H, coeffs)
        assert type(a.den) is int and all(type(n) is int for n in a.nums.values())
    with pytest.raises(GroupError):
        GroupAlgebraElem(H, {(0,) * (len(divisors) + 1): 1})


def test_gr_mul_examples():
    H, _ = z5_negation()
    x2, x4 = ga(H, {(2,): 1}), ga(H, {(4,): 1})
    assert x2 * x4 == ga(H, {(1,): 1})  # exponents add mod 5
    one = GroupAlgebraElem.one(H)
    x = ga(H, {(1,): 1})
    assert (one + x) * (one - x) == one - x * x
    a = rand_ga(random.Random(0), H)
    assert a * one == a


def _rand_dense(rng, group, terms, big=False):
    """``terms`` distinct elements with nonzero coefficients: negative and
    non-integer ones, and numerators of 2^70 and more when ``big``."""
    coeffs = {}
    for e in rng.sample(list(group.elements()), terms):
        num = rng.randint(2 ** 70, 2 ** 90) if big else rng.randint(1, 9)
        coeffs[e] = Fraction(rng.choice((-1, 1)) * num, rng.choice((1, 1, 2, 3, 10)))
    return ga(group, coeffs)


def _count_packed(monkeypatch) -> list:
    """Record each product that ``__mul__`` sends down the packed path."""
    calls = []
    real = grouprings._packed_product
    monkeypatch.setattr(grouprings, "_packed_product",
                        lambda a, b: calls.append(1) or real(a, b))
    return calls


@pytest.mark.parametrize("divisors", [(), (2,), (7,), (2, 4), (3, 21), (11, 11)])
def test_packed_product_matches_dict_oracle(divisors, monkeypatch):
    real = grouprings._packed_product
    packed = _count_packed(monkeypatch)
    rng = random.Random(sum(divisors) + 1)
    H = FiniteAbelianGroup(divisors)
    for i in range(40):
        a = _rand_dense(rng, H, rng.randint(1, H.order), big=i % 3 == 0)
        b = _rand_dense(rng, H, rng.randint(1, H.order), big=i % 4 == 1)
        expected = dict_ga_mul(a, b)
        assert (a * b).coeffs == expected
        # the packed route on every pair, whichever side of the crossover
        assert real(a, b).coeffs == expected
    # fewer than 16 term pairs always stay on the schoolbook loop
    if H.order ** 2 >= 16:
        assert 0 < len(packed) < 40
    else:
        assert not packed


def test_packed_product_dense_29_squared(monkeypatch):
    packed = _count_packed(monkeypatch)
    rng = random.Random(29)
    H = FiniteAbelianGroup([29, 29])
    a = _rand_dense(rng, H, H.order)
    b = _rand_dense(rng, H, 30, big=True)
    assert (a * b).coeffs == dict_ga_mul(a, b)
    assert packed == [1]


@pytest.mark.parametrize("divisors", [(29,), (3, 21), (11, 11)])
def test_packed_product_cancellations(divisors):
    H = FiniteAbelianGroup(divisors)
    one = GroupAlgebraElem.one(H)
    x = ga(H, {H.generator_basis()[-1]: 1})
    norm = ga(H, {e: 1 for e in H.elements()})
    # (1 - x) kills the sum over all of H
    assert ((one - x) * norm).is_zero()
    assert dict_ga_mul(one - x, norm) == {}
    # s * prod (1 + x_i) * sum (-1)^(h_1 + ... + h_r) h / 3 = 2^r / 3 * s when
    # every d_i is odd, since (1 + x) sum (-1)^i x^i = 1 + x^d = 2
    s = tuple(5 % d for d in divisors)
    lift = ga(H, {tuple(a + b for a, b in zip(s, bits)): 1
                  for bits in product((0, 1), repeat=H.rank)})
    alt = ga(H, {h: Fraction((-1) ** sum(h), 3) for h in H.elements()})
    single = {s: Fraction(2 ** H.rank, 3)}
    assert (lift * alt).coeffs == single
    assert dict_ga_mul(lift, alt) == single
    # ``*`` may take either route here; the packed one cancels alike
    packed = grouprings._packed_product
    assert packed(one - x, norm).is_zero() and packed(lift, alt).coeffs == single


def test_packed_product_enters_mul_once(monkeypatch):
    rng = random.Random(3)
    H = FiniteAbelianGroup([11, 11])
    a, b = _rand_dense(rng, H, 121), _rand_dense(rng, H, 121)
    packed = _count_packed(monkeypatch)
    mul_calls = []
    real_mul = GroupAlgebraElem.__mul__
    monkeypatch.setattr(GroupAlgebraElem, "__mul__",
                        lambda x, y: mul_calls.append(1) or real_mul(x, y))
    result = a * b
    assert len(mul_calls) == 1 and len(packed) == 1
    assert result.coeffs == dict_ga_mul(a, b)


def _check_storage(a, expected):
    """a holds integer numerators over a positive den in lowest terms, and
    its Fraction view equals the oracle ``expected``."""
    assert isinstance(a.den, int) and a.den > 0
    assert all(isinstance(n, int) and n for n in a.nums.values())
    assert gcd(a.den, *a.nums.values()) == 1
    assert a.coeffs == {e: c for e, c in expected.items() if c}


def _fraction_sum(a, b, sign=1):
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        out[e] = out.get(e, 0) + sign * c
    return out


@pytest.mark.parametrize("divisors", [(), (2,), (7,), (3, 21), (11, 11)])
def test_storage_stays_in_lowest_terms(divisors, monkeypatch):
    """Every operation returns den > 0 and coprime nonzero numerators with
    the Fraction oracle's values; equal results of different routes hash
    alike."""
    real = grouprings._packed_product
    packed = _count_packed(monkeypatch)
    rng = random.Random(sum(divisors) + 2)
    H = FiniteAbelianGroup(divisors)
    negation = GroupAut(H, [[-1 if i == j else 0 for j in range(H.rank)]
                            for i in range(H.rank)])
    one = GroupAlgebraElem.one(H)
    routes, units = set(), 0
    for i in range(16):
        big = i % 4 == 0
        a = _rand_dense(rng, H, rng.randint(1, min(H.order, 40)), big=big)
        b = _rand_dense(rng, H, rng.randint(1, min(H.order, 40)), big=i % 4 == 1)
        ab = dict_ga_mul(a, b)
        _check_storage(a + b, _fraction_sum(a, b))
        _check_storage(a - b, _fraction_sum(a, b, -1))
        _check_storage(a - a, {})
        calls = len(packed)
        _check_storage(a * b, ab)
        routes.add(len(packed) > calls)
        _check_storage(real(a, b), ab)
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        _check_storage(a.scale(c), {e: v * c for e, v in a.coeffs.items()})
        _check_storage(a.scale(a.den), {e: v * a.den for e, v in a.coeffs.items()})
        assert a.scale(a.den).den == 1 and a.scale(0).is_zero()
        _check_storage(a.apply_aut(negation),
                       {negation.apply(e): v for e, v in a.coeffs.items()})
        for x, y in (((a + b) - b, a), (a.scale(c).scale(1 / c), a),
                     (real(a, b), b * a), (ga(H, ab), a * b),
                     (a.apply_aut(negation).apply_aut(negation), a)):
            assert x == y and hash(x) == hash(y)
        inv = None if big else gr_inverse(a)
        if inv is not None:
            units += 1
            _check_storage(inv, inv.coeffs)  # its values: the product with a, next
            assert dict_ga_mul(a, inv) == {H.identity(): Fraction(1)}
            assert a * inv == one and hash(a * inv) == hash(one)
    assert units
    # the schoolbook loop ran, and the packed route too once H is large enough
    assert routes == ({False} if H.order ** 2 < 16 else {False, True})


def test_gr_mul_group_mismatch():
    H1, _ = z5_negation()
    H2 = FiniteAbelianGroup([3])
    with pytest.raises(GroupError):
        GroupAlgebraElem.one(H1) + GroupAlgebraElem.one(H2)


def test_operands_outside_the_group_algebra_raise_type_error():
    H, _ = z5_negation()
    one, other = GroupAlgebraElem.one(H), GroupAlgebraElem.one(FiniteAbelianGroup([3]))
    for op in (lambda: one + 1, lambda: 1 + one, lambda: one - 1, lambda: 1 - one,
               lambda: 3 * one, lambda: one * 3, lambda: one * "x", lambda: one * 0.5,
               lambda: one + None):
        with pytest.raises(TypeError):
            op()
    for op in (lambda: one + other, lambda: one - other, lambda: one * other,
               lambda: other * one):
        with pytest.raises(GroupError):
            op()
    assert GroupAlgebraElem.__rmul__ is GroupAlgebraElem.__mul__


PRODUCT_GROUPS = [(), (5,), (7,), (2, 2), (2, 2, 4), (3, 21), (5, 35), (29, 29)]


def _rand_wide(rng, group, terms, max_bits=200):
    """``terms`` distinct elements with numerators of 1 to ``max_bits`` bits,
    mixed signs, over a small denominator."""
    coeffs = {}
    for e in rng.sample(list(group.elements()), terms):
        bits = rng.randint(1, max_bits)
        num = rng.choice((-1, 1)) * rng.randint(1 << (bits - 1), (1 << bits) - 1)
        coeffs[e] = Fraction(num, rng.choice((1, 1, 2, 6)))
    return ga(group, coeffs)


def _force_schoolbook(monkeypatch):
    """Make the packed route look too expensive for every product."""
    monkeypatch.setattr(grouprings, "slot_width", lambda a, b: 10 ** 9)


@pytest.mark.parametrize("divisors", PRODUCT_GROUPS)
def test_both_product_routes_match_dict_oracle(divisors, monkeypatch):
    """The packed route, called directly, and the schoolbook route, forced
    for every shape, agree with the dict oracle: 1-term operands, sparse
    and dense ones, numerators of 1 to 200 bits of both signs, results in
    lowest terms."""
    packed = grouprings._packed_product
    rng = random.Random(sum(divisors) * 7 + len(divisors))
    H = FiniteAbelianGroup(divisors)
    cap = min(H.order, 40)
    shapes = [(1, 1), (1, cap), (cap, 1), (min(2, cap), cap), (cap, cap)] + [
        (rng.randint(1, cap), rng.randint(1, cap)) for _ in range(6)]
    cases = [(_rand_wide(rng, H, i), _rand_wide(rng, H, j)) for i, j in shapes]
    _force_schoolbook(monkeypatch)
    for a, b in cases:
        expected = dict_ga_mul(a, b)
        _check_storage(packed(a, b), expected)
        _check_storage(a * b, expected)
        _check_storage(b * a, expected)


@pytest.mark.parametrize("divisors", PRODUCT_GROUPS)
def test_translate_matches_per_key_oracle(divisors):
    """translate(nums, e) moves every key k to k + e, values unchanged, on
    sparse (at most 4 keys) and dense operands; the identity returns nums."""
    rng = random.Random(sum(divisors) * 3 + len(divisors))
    H = FiniteAbelianGroup(divisors)
    elements = list(H.elements())
    for size in {1, min(2, H.order), min(4, H.order), min(5, H.order), H.order,
                 rng.randint(1, H.order)}:
        nums = {e: rng.randint(-9, 9) or 1 for e in rng.sample(elements, size)}
        assert translate(nums, H.identity(), divisors) is nums
        for e in rng.sample(elements, min(6, H.order)):
            moved = translate(nums, e, divisors)
            assert moved == {H.add(k, e): v for k, v in nums.items()}
            assert all(type(k) is tuple and len(k) == H.rank for k in moved)


@pytest.mark.parametrize("divisors", PRODUCT_GROUPS)
def test_one_term_operands_on_the_schoolbook_route(divisors, monkeypatch):
    """A one-term operand relabels the other one: the identity and other
    elements with coefficient +-1 over 1 (lowest terms kept as they are),
    +-1 over 2 (renormalized) and other integers, against the dict oracle,
    on either side.  a * one == a, and arithmetic on a product leaves its
    operands as they were."""
    rng = random.Random(sum(divisors) * 5 + 1)
    H = FiniteAbelianGroup(divisors)
    elements = list(H.elements())
    one = GroupAlgebraElem.one(H)
    _force_schoolbook(monkeypatch)
    renormalized = 0
    for size in (1, min(3, H.order), min(40, H.order)):
        # even numerators over 3: a half of it cancels the 2
        a = ga(H, {e: Fraction(2 * rng.randint(1, 50) * rng.choice((1, -1)), 3)
                   for e in rng.sample(elements, size)})
        before = (a.den, dict(a.nums))
        assert a * one == a and one * a == a and hash(a * one) == hash(a)
        for e in [H.identity()] + rng.sample(elements, min(3, H.order)):
            for c in (1, -1, Fraction(1, 2), Fraction(-1, 2), 3, -7, Fraction(5, 4)):
                mono = GroupAlgebraElem.of(H, e, c)
                expected = dict_ga_mul(mono, a)
                for product_ab in (mono * a, a * mono):
                    _check_storage(product_ab, expected)
                    renormalized += product_ab.den < mono.den * a.den
                    _check_storage(product_ab + a, _fraction_sum(product_ab, a))
                    _check_storage(-product_ab, {k: -v for k, v in expected.items()})
                    _check_storage(product_ab * mono, dict_ga_mul(product_ab, mono))
        assert (a.den, a.nums) == before
    assert renormalized


@pytest.mark.parametrize("divisors", PRODUCT_GROUPS)
def test_packed_slots_at_the_byte_boundaries(divisors):
    """(c N) N = c |H| N for the norm element N = sum of all of H: every
    coefficient of the product reaches the slot bound c |H| that sizes the
    slots.  Bounds whose bit length is 8k - 1 (k bytes, the top bit spare)
    and 8k (k + 1 bytes) both come out exact, with either sign."""
    H = FiniteAbelianGroup(divisors)
    norm = {e: 1 for e in H.elements()}
    seen = set()
    for k in (1, 2, 3, 8):
        top = 1 << (8 * k - 1)
        for c in range(max(1, top // H.order - 2), (top + 2 * H.order) // H.order + 3):
            for sign in (1, -1):
                a, b = ga(H, {e: sign * c for e in norm}), ga(H, {e: 1 for e in norm})
                bound = c * H.order
                seen.add(bound.bit_length() % 8)
                assert grouprings.slot_width(a.nums, b.nums) == bound.bit_length() // 8 + 1
                _check_storage(grouprings._packed_product(a, b),
                               {e: Fraction(sign * bound) for e in norm})
    assert {0, 7} <= seen


def _sized_operands(rng, H, width):
    """Integer operands a, b with min(|a|, |b|) = m terms and largest
    magnitudes A and B, such that the slot bound A B m has bit length
    8 width - 1 or 8 (width - 1) (1 at least): the widest and the narrowest
    bound that still takes slots of ``width`` bytes.  About half the pairs
    put all of a at +-A and b on all of H at +-B, so that every coefficient
    of the product reaches the bound in absolute value."""
    elements = list(H.elements())
    aligned = rng.random() < 0.5
    while True:
        bits = rng.choice((max(1, 8 * (width - 1)), 8 * width - 1))
        lo, hi = 1 << (bits - 1), (1 << bits) - 1
        m = rng.randint(1, min(H.order, hi))
        B = rng.randint(1, min(hi // m, 1 << rng.choice((1, 8 * width))))
        if -(-lo // (m * B)) <= hi // (m * B):
            break
    A = rng.randint(-(-lo // (m * B)), hi // (m * B))

    def values(k, top):
        if aligned:
            return [rng.choice((-1, 1)) * top] * k
        return [top] + [rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(k - 1)]

    b_keys = elements if aligned else rng.sample(elements, rng.randint(m, H.order))
    a = dict(zip(rng.sample(elements, m), values(m, A)))
    b = dict(zip(b_keys, values(len(b_keys), B)))
    return a, b


@pytest.mark.parametrize("divisors", [(), (7,), (3, 21), (11, 11), (2, 4, 8)])
def test_kronecker_product_at_every_slot_width(divisors, monkeypatch):
    """Operands sized for slots of exactly 1, 2, 3, 4, 5, 8 and 9 bytes and
    of 30 and 47: the packed product equals the schoolbook oracle on the
    native memoryview route, which takes slots of up to 8 bytes widened to
    1, 2, 4 or 8, and on the byte-slice route, which wider slots take and,
    with no native format at hand, every width."""
    rng = random.Random(sum(divisors) + 23)
    H = FiniteAbelianGroup(divisors)
    if sys.byteorder == "little":  # a big-endian host packs every slot as bytes
        assert set(snf._VIEWS) == set(range(1, 9))
        assert all(w <= size < 2 * w for w, (size, _) in snf._VIEWS.items())
    for width in (1, 2, 3, 4, 5, 8, 9, 30, 47):
        for _ in range(4):
            a, b = _sized_operands(rng, H, width)
            assert snf.slot_width(a, b) == width
            expected = {e: int(c) for e, c in dict_ga_mul(ga(H, a), ga(H, b)).items()}
            for views in (snf._VIEWS, {}):
                with monkeypatch.context() as patch:
                    patch.setattr(snf, "_VIEWS", views)
                    product_ab = snf.kronecker_product(divisors, a, b)
                assert set(product_ab) == set(H.elements())
                assert {e: v for e, v in product_ab.items() if v} == expected


@pytest.mark.parametrize("divisors", PRODUCT_GROUPS[1:])
def test_cancelled_keys_are_dropped_on_both_routes(divisors, monkeypatch):
    """(1 - g) times a g-periodic element cancels on every key, and times
    that element plus one spike r at the identity on all but two: r and
    -r g.  Cancelled keys are dropped on both routes."""
    rng = random.Random(len(divisors) + 11)
    H = FiniteAbelianGroup(divisors)
    g = H.generator_basis()[-1]
    one_minus_g = ga(H, {H.identity(): 1, g: -1})
    big = 1 << 150
    periodic = ga(H, {e: big + sum(e[:-1]) for e in H.elements()})  # constant along g
    r = rng.randint(1, big)
    spiked = periodic + ga(H, {H.identity(): r})
    packed = grouprings._packed_product
    _force_schoolbook(monkeypatch)
    for a, b in ((one_minus_g, periodic), (periodic, one_minus_g),
                 (one_minus_g, spiked), (spiked, one_minus_g)):
        expected = dict_ga_mul(a, b)
        for product_ab in (packed(a, b), a * b):
            _check_storage(product_ab, expected)
    assert (one_minus_g * periodic).is_zero() and packed(one_minus_g, periodic).is_zero()
    spike = {H.identity(): r, g: -r}
    assert (one_minus_g * spiked).nums == packed(one_minus_g, spiked).nums == spike


def test_ring_axioms_random():
    rng = random.Random(5)
    H, _ = z5_negation()
    one = GroupAlgebraElem.one(H)
    for _ in range(500):
        a, b, c = (rand_ga(rng, H, denominators=True) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a and one * a == a
        assert a * b == b * a  # H abelian


def test_apply_aut_examples():
    H, kappa = z5_negation()
    x = ga(H, {(1,): 1})
    assert x.apply_aut(kappa) == ga(H, {(4,): 1})
    H2, kappa2 = z4sq_order3()
    xy = ga(H2, {(1, 0): 1})
    assert xy.apply_aut(kappa2) == ga(H2, {(2, 3): 1})  # x -> x^2 y^-1
    ident = GroupAut.identity(H)
    a = rand_ga(random.Random(6), H)
    assert a.apply_aut(ident) == a


def test_apply_aut_is_ring_homomorphism():
    rng = random.Random(7)
    H, kappa = z4sq_order3()
    for _ in range(200):
        a, b = rand_ga(rng, H), rand_ga(rng, H)
        assert (a * b).apply_aut(kappa) == a.apply_aut(kappa) * b.apply_aut(kappa)
        assert (a + b).apply_aut(kappa) == a.apply_aut(kappa) + b.apply_aut(kappa)
        assert a.apply_aut(kappa, kappa.order) == a


def test_aut_order():
    H, kappa = z5_negation()
    assert kappa.order == 2
    H2, kappa2 = z4sq_order3()
    # independent check: cube the matrix mod 4 by hand
    m = [[2, -1], [-1, 1]]
    def matmul(p, q):
        return [[sum(p[i][k] * q[k][j] for k in range(2)) % 4 for j in range(2)]
                for i in range(2)]
    cube = matmul(matmul(m, m), m)
    assert cube == [[1, 0], [0, 1]]
    assert matmul(m, m) != [[1, 0], [0, 1]]
    assert kappa2.order == 3
    assert GroupAut.identity(H).order == 1


def _twist_oracle(a, kappa, p):
    """The numerators of kappa^p(a), each key moved by p mod ord kappa
    applications of kappa, with no table."""
    out = {}
    for e, n in a.nums.items():
        for _ in range(p % kappa.order):
            e = kappa._apply_once(e)
        out[e] = n
    return out


def _check_apply_aut(a, kappa, powers):
    for p in powers:
        got = a.apply_aut(kappa, p)
        assert (got.den, got.nums) == (a.den, _twist_oracle(a, kappa, p))


def test_apply_aut_walks_kappas_one_table(monkeypatch):
    """Every power of kappa acts on a dense element as p applications of
    kappa per key, and all powers share kappa's one table, built once."""
    for divisors, matrix, order in (
        # (16, 24) have order 7 mod 29; the upper-right 8 mixes the coordinates
        ([29, 29], [[16, 8], [0, 24]], 7),
        # |H| = 10201: one table serves Q[H] at any group order
        ([101, 101], [[0, 1], [-1, 0]], 4),
    ):
        H = FiniteAbelianGroup(divisors)
        kappa = GroupAut(H, matrix)
        assert kappa.order == order
        dense = _rand_dense(random.Random(7), H, H.order)
        built = []
        index = grouprings._character_index
        monkeypatch.setattr(grouprings, "_character_index",
                            lambda *args: built.append(args) or index(*args))
        # descending, the order untwisting used to ask in, then past ord kappa
        powers = [*range(order - 1, -2, -1), order, order + 2, 3 * order - 1, -order - 1]
        _check_apply_aut(dense, kappa, powers)
        monkeypatch.undo()
        assert len(built) == H.rank
        assert [name for name in GroupAut.__slots__
                if isinstance(getattr(kappa, name), dict)] == ["_perm"]


def test_aut_table_matches_iterated_apply_once():
    """apply_aut(kappa, p) relabels each key where p applications of kappa
    send it, for p negative, zero, inside ord kappa and past it, over groups
    of rank 0 to 3 and seeded automorphisms."""
    rng = random.Random(41)
    for divisors in ((), (7,), (12,), (2, 6), (5, 5), (2, 2, 4), (3, 3, 9)):
        H = FiniteAbelianGroup(divisors)
        found = 0
        while found < 4:
            try:
                kappa = GroupAut(H, [[rng.randint(-30, 30) for _ in divisors]
                                     for _ in divisors])
            except GroupError:
                continue
            found += 1
            n = kappa.order
            powers = [-n - 1, -1, 0, *rng.sample(range(1, n + 1), min(n, 3)),
                      n + 1, 2 * n + rng.randrange(n)]
            for a in (_rand_dense(rng, H, H.order), rand_ga(rng, H, denominators=True)):
                _check_apply_aut(a, kappa, powers)


def test_aut_equality_of_one_object_applies_no_map(monkeypatch):
    """kappa == kappa returns at once; distinct automorphisms are still
    compared as maps, so equal maps from other matrices compare equal and
    different maps unequal."""
    H, kappa = z4sq_order3()
    calls = [0]
    once = GroupAut._apply_once

    def counting(self, e):
        calls[0] += 1
        return once(self, e)

    monkeypatch.setattr(GroupAut, "_apply_once", counting)
    assert kappa == kappa and not kappa != kappa
    assert calls[0] == 0
    assert kappa == GroupAut(H, kappa.matrix)
    assert kappa == GroupAut(H, [[6, -1], [-1, 5]])  # the same map mod 4
    assert kappa != GroupAut.identity(H)
    assert calls[0] > 0
    H5, negation = z5_negation()
    assert negation == GroupAut(H5, [[4]]) and negation != GroupAut.identity(H5)
    assert negation != kappa


def test_aut_rejects_non_bijective():
    H = FiniteAbelianGroup([4])
    with pytest.raises(GroupError):
        GroupAut(H, [[2]])


def test_aut_bijectivity_checked_at_every_order():
    # |H| = 10201 is past the permutation-table limit
    H = FiniteAbelianGroup([101, 101])
    with pytest.raises(GroupError, match="matrix is not bijective on the group"):
        GroupAut(H, [[1, 0], [0, 0]])
    assert GroupAut(H, [[1, 1], [0, 1]]).order == 101
    # det 3 on Z/6 x Z/6: invertible mod 2, singular mod 3
    with pytest.raises(GroupError, match="not bijective"):
        GroupAut(FiniteAbelianGroup([6, 6]), [[1, 1], [1, 4]])


def test_aut_bijectivity_matches_enumeration():
    rng = random.Random(12)
    for divisors in ([], [4], [12], [2, 4], [3, 6], [2, 2], [2, 12], [3, 9],
                     [2, 2, 2], [5, 5], [6, 6], [2, 4, 8], [9, 9]):
        H = FiniteAbelianGroup(divisors)
        r = H.rank
        for _ in range(40):
            m = [[rng.randrange(13) * (divisors[i] // gcd(divisors[i], divisors[j]))
                  for j in range(r)] for i in range(r)]
            image = {tuple(sum(m[i][j] * e[j] for j in range(r)) % divisors[i]
                           for i in range(r)) for e in H.elements()}
            try:
                GroupAut(H, m)
                accepted = True
            except GroupError:
                accepted = False
            assert accepted == (len(image) == H.order)


def test_gr_is_unit_examples():
    H, _ = z5_negation()
    for e in H.elements():
        assert gr_is_unit(ga(H, {e: Fraction(3, 2)}))
    norm = ga(H, {e: 1 for e in H.elements()})  # 1 + x + x^2 + x^3 + x^4
    # brute-force zero-divisor witness: (1 - x) * norm = 0
    x = ga(H, {(1,): 1})
    assert ((GroupAlgebraElem.one(H) - x) * norm).is_zero()
    assert not gr_is_unit(norm)
    assert not gr_is_unit(GroupAlgebraElem.zero(H))


def test_gr_inverse_random_units():
    rng = random.Random(8)
    H, _ = z5_negation()
    one = GroupAlgebraElem.one(H)
    units = 0
    for _ in range(500):
        a = rand_ga(rng, H, denominators=True)
        inv = gr_inverse(a)
        if gr_is_unit(a):
            units += 1
            assert inv is not None and a * inv == one and inv * a == one
        else:
            assert inv is None
    assert units > 300  # most random elements of Q[Z/5] are units


def _rand_matrix(rng, m, n):
    return [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            for _ in range(m)]


def _matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
            for row in A]


def test_echelon_rank_of_products():
    """A product of m x r and r x n matrices has rank at most r, row rank
    equals column rank, and echelon leaves a row-echelon form whose leading
    entries sit at the pivots."""
    rng = random.Random(11)
    for _ in range(100):
        m, n, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
        A = _matmul(_rand_matrix(rng, m, r), _rand_matrix(rng, r, n)) if r else \
            [[Fraction(0)] * n for _ in range(m)]
        E = [row[:] for row in A]
        pivots = echelon(E, n)
        assert len(pivots) <= min(r, m, n)
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert E[i][c] and not any(E[i][:c])
            assert not any(E[k][c] for k in range(i + 1, m))
        assert not any(any(row) for row in E[len(pivots):])
        assert len(echelon([list(col) for col in zip(*A)], m)) == len(pivots)


def _phi(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


@pytest.mark.parametrize("divisors", [(), (2,), (6,), (2, 2), (4, 4), (3, 9), (5, 35),
                                      (11, 11), (2, 4, 8)])
def test_character_orbits_split_the_group(divisors):
    """Q[H] = prod Q(zeta_m): the field degrees phi(m) add up to |H|, and
    there is one orbit per cyclic subgroup of H."""
    H = FiniteAbelianGroup(divisors)
    orbits = character_orbits(H)
    assert sum(_phi(m) for m, _ in orbits) == H.order
    cyclic = {frozenset(H.scale(h, k) for k in range(H.element_order(h)))
              for h in H.elements()}
    assert len(orbits) == len(cyclic)


@pytest.mark.parametrize("divisors", [(), (2,), (6,), (2, 2), (4, 4), (3, 21), (5, 35),
                                      (11, 11), (2, 4, 8)])
def test_character_images_match_the_pdivmod_oracle(divisors):
    """The table-driven transform equals the generator sum and division by
    Phi_m (helpers.character_images_oracle) on seeded elements of 1 to |H|
    terms, with big and small numerators, and on zero divisors, whose images
    vanish on some orbits."""
    rng = random.Random(sum(divisors) + 5)
    H = FiniteAbelianGroup(divisors)
    one = GroupAlgebraElem.one(H)
    for i in range(30):
        a = _rand_dense(rng, H, rng.randint(1, H.order), big=i % 3 == 0)
        if divisors and i % 4 == 1:
            a = a * (one - GroupAlgebraElem.of(H, rng.choice(H.generator_basis())))
        assert grouprings.character_images(a) == character_images_oracle(a)
    assert grouprings.character_images(GroupAlgebraElem.zero(H)) == \
        [[]] * len(character_orbits(H))


def test_cyclotomic_products():
    """prod_{d | m} Phi_d = x^m - 1 for m <= 60."""
    for m in range(1, 61):
        prod_poly = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi_d = cyclotomic(d)
                out = [0] * (len(prod_poly) + len(phi_d) - 1)
                for i, x in enumerate(prod_poly):
                    for j, y in enumerate(phi_d):
                        out[i + j] += x * y
                prod_poly = out
        assert prod_poly == [-1] + [0] * (m - 1) + [1]


def _rand_int_poly(rng, degree, bound=2 ** 70):
    """Seeded integer coefficients, small or up to ``bound``, with a nonzero
    leading one."""
    coeffs = [rng.choice((rng.randint(-5, 5), rng.randint(-bound, bound)))
              for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or 1
    return coeffs


def test_pdivmod_matches_fraction_oracle():
    """k a = q b + r over Z, and q / k, r / k are the quotient and remainder
    over Q; a monic divisor needs no scaling."""
    rng = random.Random(16)
    for _ in range(200):
        b = _rand_int_poly(rng, rng.randint(0, 6))
        a = _rand_int_poly(rng, rng.randint(0, 12))
        k, q, r = pdivmod(a, b)
        oq, orem = fraction_divmod_poly(a, b)
        assert k > 0
        assert [Fraction(x, k) for x in q] == oq
        assert [Fraction(x, k) for x in r] == orem
        k, q, r = pdivmod(a, b[:-1] + [1])
        assert k == 1 and (q, r) == fraction_divmod_poly(a, b[:-1] + [1])


def _trim(poly):
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    return poly


def test_inverse_mod_matches_fraction_oracle():
    """For every m <= 60 and seeded c, some with coefficients above 2^64:
    s * c = r mod Phi_m with r a nonzero int, and s / r is the inverse the
    Euclidean algorithm over Q gives.  The oracle's rationals grow fast with
    the degree, so big coefficients fill every degree only up to phi(m) = 12."""
    rng = random.Random(17)
    for m in range(1, 61):
        f = cyclotomic(m)
        top = len(f) - 2
        cases = [_rand_int_poly(rng, rng.randint(0, top), 5),
                 _rand_int_poly(rng, min(2, top))]
        if top < 12:
            cases.append(_rand_int_poly(rng, top))
        for c in cases:
            s, r = inverse_mod(c, f)
            assert isinstance(r, int) and r
            sc = [0] * (len(s) + len(c) - 1)
            for i, x in enumerate(s):
                for j, y in enumerate(c):
                    sc[i + j] += x * y
            assert fraction_divmod_poly(sc, f)[1] == [r]
            assert _trim(Fraction(x, r) for x in s) == _trim(fraction_field_inverse(c, f))


@pytest.mark.parametrize("divisors", [(11, 11), (5, 35), (29,)])
def test_gr_inverse_large_orbits(divisors, monkeypatch):
    """Orbits up to m = 35 and mixed denominators: a * a^-1 = 1, a zero
    divisor gives None with gr_is_unit agreeing, and that None is cached."""
    rng = random.Random(sum(divisors))
    H = FiniteAbelianGroup(divisors)
    one = GroupAlgebraElem.one(H)
    for _ in range(4):
        a = GroupAlgebraElem(H, {
            tuple(rng.randrange(d) for d in divisors):
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12, 1001)))
            for _ in range(rng.randint(2, 14))})
        inv = gr_inverse(a)
        assert inv is not None and gr_is_unit(a)
        assert a * inv == one
        zero_divisor = a * (one - GroupAlgebraElem.of(H, rng.choice(H.generator_basis())))
        monkeypatch.setattr(grouprings, "_INVERSE_CACHE", {})
        assert gr_inverse(zero_divisor) is None
        assert list(grouprings._INVERSE_CACHE.values()) == [None]

        def uncached(_):
            raise AssertionError("the cached None was not used")

        with monkeypatch.context() as patch:
            patch.setattr(grouprings, "character_images", uncached)
            assert gr_inverse(zero_divisor) is None
            assert not gr_is_unit(zero_divisor)


def test_gr_inverse_agrees_with_rank_oracle():
    """Seeded units and zero divisors over seven groups: gr_inverse is None
    exactly when the regular representation is singular, else a * b = 1."""
    rng = random.Random(13)
    counts = {"unit": 0, "zero divisor": 0}
    for divisors in ((), (2,), (5,), (6,), (2, 2), (4, 4), (3, 9)):
        H = FiniteAbelianGroup(divisors)
        one = GroupAlgebraElem.one(H)
        for _ in range(12):
            a = rand_ga(rng, H, max_terms=6, denominators=True)
            if divisors and rng.random() < 0.4:
                h = GroupAlgebraElem.of(H, rng.choice(H.generator_basis()))
                a = a * (one - h)
            inv = gr_inverse(a)
            unit = unit_by_rank(a)
            assert (inv is not None) == unit == gr_is_unit(a), a
            if unit:
                assert a * inv == one
            counts["unit" if unit else "zero divisor"] += 1
    assert min(counts.values()) >= 20, counts


def test_gr_is_unit_forms_no_inverse(monkeypatch):
    """On a cold cache gr_is_unit agrees with the rank oracle and, without
    calling it, with gr_inverse.  A non-unit's verdict is cached as None
    under gr_inverse's key and is read back from there; a unit and a
    monomial leave no entry."""
    rng = random.Random(15)
    counts = {"unit": 0, "zero divisor": 0}

    def forbidden(_):
        raise AssertionError("gr_is_unit formed an inverse")

    for divisors in ((2,), (5,), (6,), (2, 2), (4, 4), (3, 9)):
        H = FiniteAbelianGroup(divisors)
        one = GroupAlgebraElem.one(H)
        for _ in range(12):
            a = rand_ga(rng, H, max_terms=6, denominators=True)
            if rng.random() < 0.4:
                a = a * (one - GroupAlgebraElem.of(H, rng.choice(H.generator_basis())))
            monkeypatch.setattr(grouprings, "_INVERSE_CACHE", {})
            with monkeypatch.context() as patch:
                patch.setattr(grouprings, "gr_inverse", forbidden)
                unit = gr_is_unit(a)
                assert unit == unit_by_rank(a), a
                key = (divisors, frozenset(a.coeffs.items()))
                cached = {} if unit or len(a.nums) < 2 else {key: None}
                assert grouprings._INVERSE_CACHE == cached
                patch.setattr(grouprings, "character_images", forbidden)
                if cached:
                    assert not gr_is_unit(a)
            assert unit == (gr_inverse(a) is not None)
            counts["unit" if unit else "zero divisor"] += 1
    assert min(counts.values()) >= 20, counts


def test_orbit_project_examples():
    H, kappa = z5_negation()
    a = ga(H, {(1,): 2, (4,): 3})
    oc = orbit_project(a, kappa)
    assert oc.coeffs == {(1,): Fraction(5)}
    val = ga(H, {(0,): Fraction(3, 2), (1,): 1, (2,): Fraction(1, 2),
                 (3,): Fraction(1, 2), (4,): Fraction(3, 2)})
    oc = orbit_project(val, kappa)
    assert oc.coeffs == {(0,): Fraction(3, 2), (1,): Fraction(5, 2), (2,): 1}
    ident = GroupAut.identity(H)
    b = rand_ga(random.Random(9), H)
    assert orbit_project(b, ident).coeffs == b.coeffs


def test_orbit_project_kills_twist_differences():
    rng = random.Random(10)
    for H, kappa in (z5_negation(), z4sq_order3()):
        for _ in range(250):
            a = rand_ga(rng, H, denominators=True)
            diff = a - a.apply_aut(kappa)
            assert orbit_project(diff, kappa).is_zero()


def test_orbit_reps_are_orbit_minima():
    rng = random.Random(11)
    H = FiniteAbelianGroup([11, 11])
    cases = [z5_negation(), z4sq_order3(), (H, GroupAut(H, [[0, 1], [-1, 0]])),
             (H, GroupAut.identity(H))]
    for H, kappa in cases:
        reps = kappa._orbit_reps()
        assert reps == {e: min(kappa.orbit(e)) for e in H.elements()}
        for _ in range(20):
            a = rand_ga(rng, H, max_terms=8, denominators=True)
            walked = {}
            for e, c in a.coeffs.items():
                rep = min(kappa.orbit(e))
                walked[rep] = walked.get(rep, Fraction(0)) + c
            oc = orbit_project(a, kappa)
            assert oc.coeffs == {e: c for e, c in walked.items() if c}
            assert str(oc) == str(OrbitClass(H, kappa, walked))


def test_orbit_project_on_integers_matches_the_fraction_route():
    """Numerators summed per orbit and divided once give the OrbitClass of
    the Fraction coefficients, with or without a divisor, under the
    identity and a nontrivial kappa; a kappa on another group raises."""
    rng = random.Random(27)
    H5, negation = z5_negation()
    H, order3 = z4sq_order3()
    cases = [(H5, negation), (H5, GroupAut.identity(H5)), (H, order3), (H, GroupAut.identity(H))]
    seen_den = False
    for group, kappa in cases:
        for _ in range(40):
            a = rand_ga(rng, group, max_terms=8, denominators=True)
            seen_den |= a.den > 1
            assert orbit_project(a, kappa) == OrbitClass(group, kappa, a.coeffs)
            d = rng.randint(1, 12)
            projected = orbit_project(a, kappa, d)
            expected = OrbitClass(group, kappa, a.scale(Fraction(1, d)).coeffs)
            assert projected == expected and str(projected) == str(expected)
    assert seen_den
    with pytest.raises(GroupError):
        orbit_project(GroupAlgebraElem.one(H), negation)


def test_orbit_class_equality_and_sum():
    H, kappa = z5_negation()
    a = orbit_project(ga(H, {(1,): 1}), kappa)
    b = orbit_project(ga(H, {(4,): 1}), kappa)
    assert a == b
    assert (a + b).coeffs == {(1,): Fraction(2)}


def test_orbit_class_equality_sees_the_automorphism():
    H, kappa = z5_negation()
    a = OrbitClass(H, kappa, {(1,): 1})
    assert a != OrbitClass(H, GroupAut.identity(H), {(1,): 1})
    assert a == OrbitClass(H, GroupAut(H, [[4]]), {(4,): 1})  # kappa from another matrix


def test_orbit_class_keys_are_canonical():
    """Keys fold onto the least member of their orbit, whatever the input."""
    H, kappa = z5_negation()
    direct = OrbitClass(H, kappa, {(4,): 3})
    assert direct.coeffs == {(1,): Fraction(3)}
    assert direct == orbit_project(ga(H, {(4,): 3}), kappa)
    assert OrbitClass(H, kappa, {(2,): 1, (3,): -1, (9,): 2}).coeffs == {(1,): Fraction(2)}
    with pytest.raises(GroupError):
        OrbitClass(FiniteAbelianGroup([7]), kappa, {(1,): 1})


def test_orbit_class_normalizes_only_the_keys_it_cannot_find(monkeypatch):
    """Keys already in normal form are read from the orbit table as they
    are; only other keys are normalized, and one of the wrong length still
    raises.  The trivial group's one key is ()."""
    H, kappa = z5_negation()
    calls = []
    normalize = FiniteAbelianGroup.normalize

    def counting(self, e):
        calls.append(e)
        return normalize(self, e)

    monkeypatch.setattr(FiniteAbelianGroup, "normalize", counting)
    assert OrbitClass(H, kappa, {(1,): 2, (4,): 3, (0,): 1}).coeffs == {(1,): 5, (0,): 1}
    assert calls == []
    assert OrbitClass(H, kappa, {(9,): 2, (-1,): 1}).coeffs == {(1,): 3}
    assert calls == [(9,), (-1,)]
    with pytest.raises(GroupError):
        OrbitClass(H, kappa, {(1, 0): 1})
    assert calls == [(9,), (-1,), (1, 0)]
    T = FiniteAbelianGroup(())
    trivial = OrbitClass(T, GroupAut.identity(T), {(): 3}, 2)
    assert trivial.coeffs == {(): Fraction(3, 2)} and len(calls) == 3


def test_orbit_class_sum_refuses_other_quotients():
    H, kappa = z5_negation()
    H7 = FiniteAbelianGroup([7])
    a = OrbitClass(H, kappa, {(1,): 1})
    with pytest.raises(GroupError):
        a + OrbitClass(H7, GroupAut(H7, [[-1]]), {(6,): 2})
    with pytest.raises(GroupError):
        a + OrbitClass(H, GroupAut.identity(H), {(1,): 1})

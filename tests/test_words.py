"""Free-group word arithmetic and Fox derivatives pushed into Z[H]."""

import random

import pytest

from k1alex import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    GroupAut,
    MetaRep,
    WordError,
    fox_image,
    gen,
    reduce,
)
from k1alex.words import IDENTITY, substitute

from helpers import fox_derivative_oracle, rand_element, rand_word

x1, x2, x3 = gen(1), gen(2), gen(3)


def test_reduce_cancels_adjacent_inverses():
    assert reduce([(1, 1), (1, -1)]) == IDENTITY
    assert reduce([(1, 1), (2, 1), (2, -1), (2, 1)]) == x1 * x2
    assert reduce([(1, -1), (1, 1), (1, 1)]) == x1


def test_reduce_is_idempotent_and_checks_rank():
    w = reduce([(1, 2), (2, -1), (1, 1)], rank=2)
    assert reduce(w.letters, rank=2) == w
    with pytest.raises(WordError):
        reduce([(3, 1)], rank=2)


def test_multiply_examples():
    assert (x1 * x2) * (x2.inverse() * x3) == x1 * x3
    w = x1 * x2 * x1.inverse()
    assert w * w.inverse() == IDENTITY
    assert IDENTITY * w == w


def test_invert_examples():
    assert (x1 * x2).inverse() == x2.inverse() * x1.inverse()
    assert IDENTITY.inverse() == IDENTITY
    assert gen(1, -1).inverse() == x1


def test_equal_words_compare_and_hash_equal():
    rng = random.Random(2)
    for _ in range(100):
        a, b = rand_word(rng, 3), rand_word(rng, 3)
        ab = reduce([*a.letters, *b.letters])
        assert ab == a * b and hash(ab) == hash(a * b)
        assert len({ab, a * b, a * b * IDENTITY}) == 1
    assert x1 != x2 and x1 != x1.letters


def test_word_group_axioms_random():
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (rand_word(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == IDENTITY
        assert a.inverse().inverse() == a


def _reps(rng):
    """Representations of rank 3 into Z/5, Z/12 and (Z/4)^2, seeded images."""
    out = []
    for divisors in ([5], [12], [4, 4]):
        H = FiniteAbelianGroup(divisors)
        images = tuple(rand_element(rng, H) for _ in range(3))
        out.append(MetaRep(H, GroupAut.identity(H), images, 1))
    return out


def _rho(rep, w):
    """rho(w) as an element of Z[H]."""
    exps = [w.exponent_sum(k) for k in (1, 2, 3)]
    return GroupAlgebraElem.of(rep.group, rep.image_of_exponents(exps))


def test_fox_derivative_base_cases():
    for rep in _reps(random.Random(5)):
        one = GroupAlgebraElem.one(rep.group)
        assert fox_image(rep, IDENTITY, 1).is_zero()
        assert fox_image(rep, x1, 1) == one
        assert fox_image(rep, x1, 2).is_zero()
        assert fox_image(rep, x1 * x2, 2) == _rho(rep, x1)
        assert fox_image(rep, gen(1, -1), 1) == -_rho(rep, gen(1, -1))
        assert fox_image(rep, gen(1, 3), 1) == one + _rho(rep, x1) + _rho(rep, gen(1, 2))


def test_fox_image_matches_free_ring_oracle():
    rng = random.Random(6)
    for _ in range(170):
        for rep in _reps(rng):
            w = rand_word(rng, 3, max_len=20)
            for i in (1, 2, 3):
                expected = GroupAlgebraElem.zero(rep.group)
                for t, c in fox_derivative_oracle(w, i).items():
                    expected = expected + _rho(rep, t).scale(c)
                assert fox_image(rep, w, i) == expected


def test_fox_fundamental_identity_random():
    # sum_i rho(dw/dx_i) * (rho(x_i) - 1) = rho(w) - 1
    rng = random.Random(2)
    reps = _reps(rng)
    for n in range(1000):
        rep = reps[n % 3]
        one = GroupAlgebraElem.one(rep.group)
        w = rand_word(rng, 3, max_len=30)
        total = GroupAlgebraElem.zero(rep.group)
        for i in (1, 2, 3):
            total = total + fox_image(rep, w, i) * (_rho(rep, gen(i)) - one)
        assert total == _rho(rep, w) - one


def test_fox_product_rule_random():
    rng = random.Random(3)
    reps = _reps(rng)
    for n in range(500):
        rep = reps[n % 3]
        h, k = rand_word(rng, 3, 12), rand_word(rng, 3, 12)
        for i in (1, 2, 3):
            rhs = fox_image(rep, h, i) + _rho(rep, h) * fox_image(rep, k, i)
            assert fox_image(rep, h * k, i) == rhs


def test_fox_chain_rule_random():
    # rho(d(phi y)/dx_i) = sum_k (rho phi)(dy/dx_k) * rho(d phi(x_k)/dx_i)
    rng = random.Random(4)
    reps = _reps(rng)
    for n in range(500):
        rep = reps[n % 3]
        sub = {k: rand_word(rng, 3, 5) for k in (1, 2, 3)}
        pulled = MetaRep(rep.group, rep.kappa,
                         tuple(rep.image_of_exponents([sub[k].exponent_sum(j)
                                                       for j in (1, 2, 3)])
                               for k in (1, 2, 3)), 1)
        y = rand_word(rng, 3, 8)
        for i in (1, 2, 3):
            rhs = GroupAlgebraElem.zero(rep.group)
            for k in (1, 2, 3):
                rhs = rhs + fox_image(pulled, y, k) * fox_image(rep, sub[k], i)
            assert fox_image(rep, substitute(y, sub), i) == rhs

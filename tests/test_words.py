"""Free-group word arithmetic and the Fox differential calculus."""

import random

import pytest

from k1alex import FreeRingElem, WordError, fox_derivative, gen, reduce, word
from k1alex.words import IDENTITY, substitute

from helpers import rand_word

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


def test_word_group_axioms_random():
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (rand_word(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == IDENTITY
        assert a.inverse().inverse() == a


def test_fox_derivative_base_cases():
    assert fox_derivative(x1, 1) == FreeRingElem.of(IDENTITY)
    assert fox_derivative(x1, 2) == FreeRingElem.zero()
    assert fox_derivative(x1 * x2, 2) == FreeRingElem.of(x1)
    assert fox_derivative(gen(1, -1), 1) == FreeRingElem.of(gen(1, -1), -1)


def test_fox_derivative_of_meridian_letter():
    w = word((0, 1), (1, 1), (0, -1))  # m x1 m^-1
    assert fox_derivative(w, 0) == (FreeRingElem.of(IDENTITY)
                                    + FreeRingElem.of(word((0, 1), (1, 1), (0, -1)), -1))
    assert fox_derivative(w, 1) == FreeRingElem.of(gen(0))


def _fundamental_defect(w, rank):
    # sum_i dw/dx_i * (x_i - 1) - (w - 1) must vanish identically
    total = FreeRingElem.zero()
    for i in range(1, rank + 1):
        d = fox_derivative(w, i)
        total = total + d * (FreeRingElem.of(gen(i)) - FreeRingElem.of(IDENTITY))
    return total - (FreeRingElem.of(w) - FreeRingElem.of(IDENTITY))


def test_fox_fundamental_identity_random():
    rng = random.Random(2)
    for _ in range(1000):
        w = rand_word(rng, 3, max_len=30)
        assert not _fundamental_defect(w, 3)


def test_fox_product_rule_random():
    rng = random.Random(3)
    for _ in range(500):
        h, k = rand_word(rng, 3, 12), rand_word(rng, 3, 12)
        for i in (1, 2, 3):
            lhs = fox_derivative(h * k, i)
            rhs = fox_derivative(h, i) + fox_derivative(k, i).word_multiply(h)
            assert lhs == rhs


def test_fox_chain_rule_random():
    rng = random.Random(4)
    for _ in range(500):
        sub = {i: rand_word(rng, 3, 5) for i in (1, 2, 3)}
        y = rand_word(rng, 3, 8)
        for i in (1, 2, 3):
            lhs = fox_derivative(substitute(y, sub), i)
            rhs = FreeRingElem.zero()
            for k in (1, 2, 3):
                outer = FreeRingElem.zero()
                for w, c in fox_derivative(y, k).terms.items():
                    outer = outer + FreeRingElem.of(substitute(w, sub), c)
                rhs = rhs + outer * fox_derivative(sub[k], i)
            assert lhs == rhs


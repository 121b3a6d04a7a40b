"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's window-based series type:
they use plain dictionaries over exact rationals so that expected values are
computed through a second, independent implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction

from k1alex import FiniteAbelianGroup, GroupAlgebraElem, GroupAut, Word, gr_is_unit, word


def z5_negation():
    """Z/5 with the inversion automorphism (order 2)."""
    H = FiniteAbelianGroup([5])
    return H, GroupAut(H, [[-1]])


def z4sq_order3():
    """(Z/4)^2 with the order-3 automorphism (a, b) -> (2a - b, -a + b)."""
    H = FiniteAbelianGroup([4, 4])
    return H, GroupAut(H, [[2, -1], [-1, 1]])


def trivial_group():
    H = FiniteAbelianGroup(())
    return H, GroupAut.identity(H)


def rand_element(rng: random.Random, group: FiniteAbelianGroup):
    return tuple(rng.randrange(d) for d in group.divisors)


def rand_ga(rng: random.Random, group: FiniteAbelianGroup, max_terms: int = 3,
            denominators: bool = False) -> GroupAlgebraElem:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        num = rng.randint(-4, 4)
        den = rng.choice((1, 1, 2, 3)) if denominators else 1
        e = rand_element(rng, group)
        terms[e] = terms.get(e, Fraction(0)) + Fraction(num, den)
    return GroupAlgebraElem(group, terms)


def rand_unit_ga(rng: random.Random, group: FiniteAbelianGroup) -> GroupAlgebraElem:
    """A guaranteed unit: nonzero rational times a single group element."""
    c = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 1, 2)))
    return GroupAlgebraElem.of(group, rand_element(rng, group), c)


def rand_word(rng: random.Random, rank: int, max_len: int = 8) -> Word:
    letters = [(rng.randint(1, rank), rng.choice((1, -1)))
               for _ in range(rng.randint(0, max_len))]
    return word(*letters)


# ---------------------------------------------------------------------------
# independent series oracles (dict-based, no window machinery)
# ---------------------------------------------------------------------------

def dict_series_mul(kappa: GroupAut, f: dict, g: dict, top: int) -> dict:
    """Twisted product of dict series {deg: GroupAlgebraElem}, truncated."""
    out: dict[int, GroupAlgebraElem] = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            d = d1 + d2
            if d >= top:
                continue
            c = c1 * c2.apply_aut(kappa, d1)
            if d in out:
                out[d] = out[d] + c
            else:
                out[d] = c
    return {d: c for d, c in out.items() if not c.is_zero()}


def dict_series_log(kappa: GroupAut, w: dict, top: int) -> dict:
    """log(w) for w = 1 + (positive-degree tail), as a dict series."""
    group = kappa.group
    one = GroupAlgebraElem.one(group)
    assert w.get(0) == one
    mu = {d: c for d, c in w.items() if d != 0}
    assert all(d >= 1 for d in mu)
    out: dict[int, GroupAlgebraElem] = {}
    power = dict(mu)
    n = 1
    while power and n <= top:
        for d, c in power.items():
            term = c.scale(Fraction((-1) ** (n - 1), n))
            out[d] = out[d] + term if d in out else term
        power = dict_series_mul(kappa, power, mu, top)
        n += 1
    return {d: c for d, c in out.items() if not c.is_zero()}


def rational_log(coeffs: dict[int, Fraction], top: int) -> dict[int, Fraction]:
    """log of 1 + tail over plain Q, for augmentation cross-checks."""
    assert coeffs.get(0) == 1
    mu = {d: c for d, c in coeffs.items() if d != 0}
    out: dict[int, Fraction] = {}
    power = dict(mu)
    n = 1
    while power and n <= top:
        for d, c in power.items():
            out[d] = out.get(d, Fraction(0)) + c * Fraction((-1) ** (n - 1), n)
        nxt: dict[int, Fraction] = {}
        for d1, c1 in power.items():
            for d2, c2 in mu.items():
                if d1 + d2 < top:
                    nxt[d1 + d2] = nxt.get(d1 + d2, Fraction(0)) + c1 * c2
        power = nxt
        n += 1
    return {d: c for d, c in out.items() if c}


def unit_laurent_by_evaluation(p) -> bool:
    """Unit test in Q[H]((t)) by evaluation, the oracle for is_unit_laurent.

    After clearing t^lo, the determinant of the regular representation of p
    is a polynomial over Q of degree <= |H| * span.  p is a unit iff that
    polynomial is nonzero, iff p(t0) is a unit of Q[H] at one of |H| * span + 1
    distinct rational points t0 = 2, 3, ...
    """
    if p.is_zero():
        return False
    lo = p.min_degree()
    span = p.max_degree() - lo
    for t0 in range(2, p.group.order * span + 3):
        value = GroupAlgebraElem.zero(p.group)
        for d, c in p.terms.items():
            value = value + c.scale(Fraction(t0) ** (d - lo))
        if gr_is_unit(value):
            return True
    return False


def figure8_trace(k: int) -> int:
    """Power sums of the roots of s^2 - 3s + 1 (trace recursion)."""
    a, b = 2, 3  # L_0, L_1
    if k == 0:
        return a
    for _ in range(k - 1):
        a, b = b, 3 * b - a
    return b

"""Group algebras, automorphisms, unit testing, orbit projection."""

import random
from fractions import Fraction
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
from k1alex.grouprings import character_orbits, cyclotomic

from helpers import echelon, rand_ga, unit_by_rank, z4sq_order3, z5_negation


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


def test_gr_mul_examples():
    H, _ = z5_negation()
    x2, x4 = ga(H, {(2,): 1}), ga(H, {(4,): 1})
    assert x2 * x4 == ga(H, {(1,): 1})  # exponents add mod 5
    one = GroupAlgebraElem.one(H)
    x = ga(H, {(1,): 1})
    assert (one + x) * (one - x) == one - x * x
    a = rand_ga(random.Random(0), H)
    assert a * one == a


def test_gr_mul_group_mismatch():
    H1, _ = z5_negation()
    H2 = FiniteAbelianGroup([3])
    with pytest.raises(GroupError):
        GroupAlgebraElem.one(H1) + GroupAlgebraElem.one(H2)


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


def test_aut_tables_compose_from_the_cached_chain(monkeypatch):
    once = GroupAut._apply_once
    for divisors, matrix, order in (
        # (16, 24) have order 7 mod 29; the upper-right 8 mixes the coordinates
        ([29, 29], [[16, 8], [0, 24]], 7),
        # |H| = 10201: tables serve Q[H] at any group order
        ([101, 101], [[0, 1], [-1, 0]], 4),
    ):
        H = FiniteAbelianGroup(divisors)
        kappa = GroupAut(H, matrix)
        assert kappa.order == order
        calls = [0]

        def counting(self, e):
            calls[0] += 1
            return once(self, e)

        monkeypatch.setattr(GroupAut, "_apply_once", counting)
        # descending, the order untwisting asks in
        tables = {p: kappa._table(p) for p in range(order - 1, 0, -1)}
        assert calls[0] <= 2 * H.order
        monkeypatch.undo()
        for p, table in tables.items():
            assert all(table[e] == kappa.apply(e, p) for e in H.elements())
        # any other request order gives the same tables
        rng = random.Random(7)
        other = GroupAut(H, kappa.matrix)
        for p in rng.sample(range(1, order), order - 1):
            assert other._table(p) == tables[p]


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


def test_orbit_class_equality_and_sum():
    H, kappa = z5_negation()
    a = orbit_project(ga(H, {(1,): 1}), kappa)
    b = orbit_project(ga(H, {(4,): 1}), kappa)
    assert a == b
    assert (a + b).coeffs == {(1,): Fraction(2)}

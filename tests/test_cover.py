"""Smith normal form and cover-derived metabelian representations."""

import random
from math import gcd

import pytest

from k1alex import (
    IntMatrix,
    MetabelianRepError,
    SNFResult,
    alexander_presentation,
    apply_nielsen,
    builtin,
    metabelian_rep,
    parse_presentation,
    smith_normal_form,
    trivial_rep,
    validate_rep,
)
from k1alex.grouprings import FiniteAbelianGroup, GroupAut
from k1alex.presentation import NielsenMove
from k1alex.snf import SNFError, _verify_snf

from helpers import STABILIZED_4_1, STABILIZED_5_2, dense_snf_oracle


def divisors_of(mat):
    return [d for d in smith_normal_form(mat).divisors]


def test_snf_identity():
    r = smith_normal_form(IntMatrix.identity(3))
    assert r.D == IntMatrix.identity(3)


def test_snf_of_figure8_reduced_relation_matrix():
    # gcds of k x k minors are 1, 4, 16, so the normal form is diag(1, 4, 4)
    A = [[1, -3, 1], [1, 1, -3], [-3, 1, 1]]
    minors1 = {abs(x) for row in A for x in row}
    assert gcd(*minors1) == 1
    from itertools import combinations
    m2 = []
    for rows in combinations(range(3), 2):
        for cols in combinations(range(3), 2):
            a, b = rows
            c, d = cols
            m2.append(abs(A[a][c] * A[b][d] - A[a][d] * A[b][c]))
    g2 = 0
    for v in m2:
        g2 = gcd(g2, v)
    assert g2 == 4
    det = (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
           - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
           + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))
    assert abs(det) == 16
    assert divisors_of(A) == [1, 4, 4]


def test_snf_with_zero_divisor():
    assert divisors_of([[2, 0], [0, 0]]) == [2, 0]


def test_snf_divisibility_needs_gcd_mixing():
    # diag(4, 6) must become diag(2, 12)
    assert divisors_of([[4, 0], [0, 6]]) == [2, 12]


def test_snf_random_reconstruction_suite():
    rng = random.Random(30)
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        r = smith_normal_form(A)  # reconstruction is asserted internally
        assert (r.U @ A) @ r.V == r.D
        assert r.U @ r.U_inv == IntMatrix.identity(m)
        ds = [d for d in r.divisors if d]
        for a, b in zip(ds, ds[1:]):
            assert b % a == 0


def _elementary(rng, n):
    """A random elementary integer matrix: a shear, a row swap or a sign."""
    E = IntMatrix.identity(n)
    kind = rng.choice(("shear", "swap", "sign")) if n > 1 else "sign"
    if kind == "sign":
        i = rng.randrange(n)
        E.rows[i][i] = -1
        return E
    i, j = rng.sample(range(n), 2)
    if kind == "shear":
        E.rows[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
    else:
        E.rows[i], E.rows[j] = E.rows[j], E.rows[i]
    return E


def test_snf_u_inv_round_trip():
    """U_inv inverts U on both sides, for random unimodular products."""
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = IntMatrix.identity(n)
        for _ in range(rng.randint(0, 10)):
            M = M @ _elementary(rng, n)
        r = smith_normal_form(M)
        assert r.U @ r.U_inv == IntMatrix.identity(n)
        assert r.U_inv @ r.U == IntMatrix.identity(n)


def test_intmatrix_matmul_matches_triple_loop():
    """Row-times-column products equal the triple loop on seeded shapes,
    with negative and 100-bit entries and operands with no rows or no
    columns; transposes swap the shape; a shape mismatch raises."""
    rng = random.Random(17)
    assert (IntMatrix([]) @ IntMatrix([])).rows == []
    assert (IntMatrix([[], []]) @ IntMatrix([])).rows == [[], []]
    product = IntMatrix([], 1) @ IntMatrix([[1, 2]])
    assert (product.rows, product.nrows, product.ncols) == ([], 0, 2)
    assert product != IntMatrix([]) and product.transpose() == IntMatrix([[], []])
    shapes = [(1, 1, 1), (1, 5, 1), (1, 4, 3), (4, 1, 1), (3, 1, 4), (2, 3, 5), (5, 2, 3),
              (1, 3, 0), (4, 4, 4), (0, 1, 2), (0, 3, 0), (0, 0, 0), (2, 0, 3), (0, 2, 4),
              (3, 0, 0)] + [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(20)]
    for m, k, n in shapes:
        bits = rng.choice((3, 100))
        A = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(k)] for _ in range(m)]
        B = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)] for _ in range(k)]
        C = IntMatrix(A, k) @ IntMatrix(B, n)
        assert C.rows == [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)]
                          for i in range(m)]
        assert (C.nrows, C.ncols) == (m, n)
        T = IntMatrix(A, k).transpose()
        assert (T.nrows, T.ncols) == (k, m)
        assert T.transpose() == IntMatrix(A, k)
        with pytest.raises(ValueError):
            IntMatrix(A, k) @ (IntMatrix(A, k) if m != k
                               else IntMatrix([row + [0] for row in A] + [[0] * (k + 1)]))


def test_intmatrix_constructor_copies_and_checks():
    """The public constructor copies its rows, so a later change to them
    leaves the matrix alone, and refuses ragged rows; identity, products,
    transposes and SNF factors hold rows of their own."""
    rows = [[1, 2], [3, 4]]
    M = IntMatrix(rows)
    rows[0][0] = 9
    assert M.rows == [[1, 2], [3, 4]]
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1], [2, 3]])
    r = smith_normal_form(M)
    held = [M, IntMatrix.identity(2), M @ M, M.transpose(), r.U, r.U_inv, r.D, r.V]
    ids = [id(row) for X in held for row in X.rows]
    assert len(set(ids)) == len(ids)


def _assert_snf_matches_oracle(A: IntMatrix):
    r = smith_normal_form(A)
    assert (r.U.rows, r.U_inv.rows, r.D.rows, r.V.rows) == dense_snf_oracle(A.rows, A.ncols)
    assert (r.D.nrows, r.D.ncols, r.V.ncols) == (A.nrows, A.ncols, A.ncols)


def test_snf_matches_the_dense_oracle():
    """U, U_inv, D and V equal the dense minimal-pivot loop's, entry for
    entry: on empty and all-zero shapes, on seeded matrices with free rank,
    with no unit entry (non-unit and negative pivots, divisibility repairs)
    or with many, and on the cover matrix of every benchmark job."""
    for A in (IntMatrix([], 3), IntMatrix([[], []]), IntMatrix([]), IntMatrix([[0] * 3] * 2),
              IntMatrix([[-6, 4], [10, -8]]), IntMatrix([[4, 0], [0, 6]])):
        _assert_snf_matches_oracle(A)
    rng = random.Random(19)
    values = {"small": range(-3, 4), "no units": (0, 0, 2, -2, 3, -3, 4, -6, 9),
              "wide": range(-40, 41)}
    for _ in range(300):
        kind = rng.choice(sorted(values))
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice(values[kind]) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:  # a repeated row leaves free rank
            rows[-1] = rows[0][:]
        _assert_snf_matches_oracle(IntMatrix(rows))
    stabilized = {"s4_1": parse_presentation(STABILIZED_4_1),
                  "s5_2": parse_presentation(STABILIZED_5_2)}
    jobs = [("4_1", 5), ("5_2", 4), ("3_1", 6), ("4_1", 2), ("5_2", 2),  # log
            ("s4_1", 3), ("s4_1", 4), ("s5_2", 3), ("s5_2", 4),  # elim_g2
            ("3_1", 9), ("5_2", 6), ("4_1", 7), ("s5_2", 6),  # untwist
            ("4_1", 10)]
    for name, n in jobs:
        p = stabilized[name] if name in stabilized else builtin(name)
        _assert_snf_matches_oracle(alexander_presentation(p, n).transpose())


def test_snf_check_catches_a_corrupted_factor():
    """On a nonsingular cover matrix, bumping any one entry of U, U_inv, V or
    D breaks U A V = D or U U_inv = I, and the check raises."""
    A = alexander_presentation(builtin("4_1"), 2).transpose()
    r = smith_normal_form(A)
    assert r.divisors == [1, 1, 1, 5]
    for name in ("U", "U_inv", "V", "D"):
        M = getattr(r, name)
        for i in range(M.nrows):
            for j in range(M.ncols):
                rows = [row[:] for row in M.rows]
                rows[i][j] += 1
                factors = {"U": r.U, "U_inv": r.U_inv, "D": r.D, "V": r.V,
                           name: IntMatrix(rows)}
                with pytest.raises(SNFError):
                    _verify_snf(A, SNFResult(**factors))


def test_alexander_presentation_torsion():
    p = builtin("4_1")
    m3 = alexander_presentation(p, 3)
    assert (m3.nrows, m3.ncols) == (6, 6)
    tors = [d for d in divisors_of(m3) if d not in (0, 1)]
    assert tors == [4, 4]
    m2 = alexander_presentation(p, 2)
    assert [d for d in divisors_of(m2) if d not in (0, 1)] == [5]


def test_alexander_presentation_trefoil_trivial_specialization():
    # at N = 1 the product of the divisors is |det| = 1: no torsion at all
    p = builtin("3_1")
    m1 = alexander_presentation(p, 1)
    assert divisors_of(m1) == [1, 1]


def test_metabelian_rep_figure8_double_cover():
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    assert rep.group.divisors == (5,)
    # kappa is inversion
    for e in rep.group.elements():
        assert rep.kappa.apply(e) == rep.group.neg(e)
    assert rep.kappa.order == 2
    # the validated relation forces rho(x2) = rho(x1)^3, and rho(x1) generates
    assert rep.images[1] == rep.group.scale(rep.images[0], 3)
    assert rep.group.element_order(rep.images[0]) == 5
    assert validate_rep(p, rep) is None


def test_metabelian_rep_figure8_triple_cover():
    p = builtin("4_1")
    rep = metabelian_rep(p, 3)
    assert rep.group.divisors == (4, 4)
    assert rep.kappa.order == 3
    # in the basis (rho(x1), rho(x2)) the action is [[2, -1], [-1, 1]] mod 4:
    # solve kappa(images) in terms of the images
    g = rep.group
    X, Y = rep.images
    def coords(e):
        for a in range(4):
            for b in range(4):
                if g.add(g.scale(X, a), g.scale(Y, b)) == e:
                    return (a, b)
        raise AssertionError("images do not generate H")
    kx = coords(rep.kappa.apply(X))
    ky = coords(rep.kappa.apply(Y))
    assert kx == (2, 3) and ky == (3, 1)  # columns of [[2,-1],[-1,1]] mod 4


def test_metabelian_rep_52_triple_cover():
    p = builtin("5_2")
    rep = metabelian_rep(p, 3)
    assert rep.group.divisors == (5, 5)
    assert rep.kappa.order == 3  # deck action of a 3-fold cover
    assert validate_rep(p, rep) is None


def test_metabelian_rep_trefoil_covers():
    p = builtin("3_1")
    assert metabelian_rep(p, 2).group.divisors == (3,)
    assert metabelian_rep(p, 3).group.divisors == (2, 2)
    rep6 = metabelian_rep(p, 6)
    assert rep6.group.divisors == ()  # torsion-free at N = 6
    assert rep6.free_rank == 2
    assert rep6.cover_n == 6 and rep6.kappa.order == 1


def test_deck_action_order_divides_cover_degree():
    for name, n in (("3_1", 2), ("3_1", 3), ("3_1", 6), ("4_1", 2), ("4_1", 3),
                    ("4_1", 4), ("5_2", 2), ("5_2", 3)):
        rep = metabelian_rep(builtin(name), n)
        assert n % rep.kappa.order == 0


def test_torsion_order_is_nielsen_invariant():
    rng = random.Random(31)
    kinds = ("swap", "invert", "left-multiply", "right-multiply")
    for name, n in (("4_1", 2), ("4_1", 3), ("5_2", 3)):
        p = builtin(name)
        base = metabelian_rep(p, n).group.order
        for _ in range(10):
            kind = rng.choice(kinds)
            i = rng.randint(1, 2)
            mv = NielsenMove(kind, i) if kind == "invert" else NielsenMove(kind, i, 3 - i)
            p = apply_nielsen(p, mv)
            assert metabelian_rep(p, n).group.order == base


@pytest.mark.parametrize("name,n,divisors,kappa,images", [
    ("4_1", 9, (76, 76), ((56, 59), (45, 23)), ((56, 65), (57, 67))),
    ("5_2", 8, (3, 21), ((1, 2), (14, 20)), ((2, 12), (0, 13))),
    ("3_1", 12, (), (), ((), ())),
    ("stabilized 5_2", 6, (5, 35), ((1, 2), (21, 13)),
     ((1, 23), (3, 1), (0, 0), (2, 26))),
])
def test_metabelian_rep_pinned_at_larger_covers(name, n, divisors, kappa, images):
    """H, kappa and the images as read off the Smith normal form, at covers
    whose cover matrix is 16 x 16 to 24 x 24."""
    p = parse_presentation(STABILIZED_5_2) if name == "stabilized 5_2" else builtin(name)
    rep = metabelian_rep(p, n)
    assert rep.group.divisors == divisors
    assert rep.kappa.matrix == kappa
    assert rep.images == images


def test_metabelian_rep_builds_no_table_for_a_large_group(monkeypatch):
    """4_1 at N = 14 has |H| = 710645: reading kappa and validating the
    representation act on a few elements only, never on all of H, and
    kappa's table is not built."""
    calls = [0]
    once = GroupAut._apply_once

    def counting(self, e):
        calls[0] += 1
        return once(self, e)

    monkeypatch.setattr(GroupAut, "_apply_once", counting)
    rep = metabelian_rep(builtin("4_1"), 14)
    assert rep.group.order == 710645
    assert calls[0] < 1000
    assert rep.kappa._perm is None


def test_equal_reps_hash_equal():
    """A rep built twice is one dict key; kappa hashes by its action, so
    matrices that agree modulo the divisors hash alike."""
    a, b = metabelian_rep(builtin("4_1"), 3), metabelian_rep(builtin("4_1"), 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a != metabelian_rep(builtin("4_1"), 4)
    for divisors, matrices in (([5], ([[4]], [[-1]], [[9]])),
                               ([3, 21], ([[1, 0], [0, 1]], [[4, 0], [21, 22]]))):
        H = FiniteAbelianGroup(divisors)
        auts = [GroupAut(H, m) for m in matrices]
        assert all(k == auts[0] and hash(k) == hash(auts[0]) for k in auts)
        assert len(set(auts)) == 1


def test_trivial_rep_basics():
    p = builtin("3_1")
    rep = trivial_rep(p, 6)
    assert rep.group.order == 1 and rep.cover_n == 6
    assert validate_rep(p, rep) is None

"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's window-based series type:
they use plain dictionaries over exact rationals so that expected values are
computed through a second, independent implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest

from k1alex import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    GroupAut,
    LaurentPolyGA,
    LogClass,
    UpsilonMatrix,
    Word,
    orbit_project,
    word,
)
from k1alex.grouprings import character_orbits, cyclotomic
from k1alex.snf import pdivmod


# Genus-2 presentations: 4_1 and 5_2 with a trivial handle added.
STABILIZED_4_1 = """\
genus 2
y1 = x1 x2 ; z1 = x1
y2 = x2 x1 x2 ; z2 = x2
y3 = x1 x4 ; z3 = x2
y4 = 1 ; z4 = x3
"""

STABILIZED_5_2 = """\
genus 2
y1 = x1^-2 ; z1 = x2 x1^-2
y2 = x1^-1 x2 ; z2 = x2
y3 = x2^-1 x4 ; z3 = x1 x2
y4 = 1 ; z4 = x3
"""


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


def dict_ga_mul(a: GroupAlgebraElem, b: GroupAlgebraElem) -> dict:
    """a * b in Q[H] as {element: nonzero Fraction}: the schoolbook double
    loop over the two coefficient dicts, exponents added mod each divisor.
    The oracle for the packed product."""
    divisors = a.group.divisors
    out: dict = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple((x + y) % d for x, y, d in zip(e1, e2, divisors))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dense_snf_oracle(A: list[list[int]], ncols: int = 0) -> tuple[list, list, list, list]:
    """(U, U_inv, D, V) as row lists, by the dense minimal-pivot loop (a
    matrix with no rows takes its column count from ``ncols``): a full
    scan of the remaining block for the least nonzero |entry| (ties
    row-major), dense row and column updates, and the remainder and
    divisibility scans at every pivot.  The oracle for
    ``snf.smith_normal_form``, whose factors must be bit-identical."""
    m, n = len(A), len(A[0]) if A else ncols
    D = [list(r) for r in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    U_inv = [r[:] for r in U]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]
            for r in U_inv:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i != j:
            for r in D + V:
                r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):  # row_i += c * row_j; on U_inv, col_j -= c * col_i
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in U_inv:
            r[j] -= c * r[i]

    def add_col(i, j, c):  # col_i += c * col_j
        for r in D + V:
            r[i] += c * r[j]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v and (best is None or abs(v) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
            for r in U_inv:
                r[t] = -r[t]
        piv = D[t][t]
        for i in range(t + 1, m):
            if D[i][t]:
                add_row(i, t, -(D[i][t] // piv))
        for j in range(t + 1, n):
            if D[t][j]:
                add_col(j, t, -(D[t][j] // piv))
        if any(D[i][t] for i in range(t + 1, m)) or any(D[t][j] for j in range(t + 1, n)):
            continue
        bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                    if D[i][j] % piv), None)
        if bad is not None:
            add_row(t, bad[0], 1)
            continue
        t += 1
    return U, U_inv, D, V


def fraction_divmod_poly(a, b) -> tuple[list, list]:
    """Quotient and remainder over Q, coefficients constant term first; the
    remainder carries no trailing zeros.  The oracle for ``snf.pdivmod``."""
    r, n = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(r) - n, 1)
    for k in range(len(r) - 1 - n, -1, -1):
        c = q[k] = Fraction(r[k + n]) / b[n]
        if c:
            for i in range(n + 1):
                r[k + i] -= c * b[i]
    r = r[:n]
    while r and not r[-1]:
        r.pop()
    return q, r


def fraction_field_inverse(c, f) -> list[Fraction]:
    """c^-1 in Q[x]/f, for f irreducible and c nonzero of lower degree, by
    the extended Euclidean algorithm over Q: s * c = r mod f for every
    remainder r, and the last one is a nonzero constant.  The oracle for
    ``snf.inverse_mod``."""
    r0, r1, s0, s1 = f, c, [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = fraction_divmod_poly(r0, r1)
        qs = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                qs[i + j] += x * y
        r0, r1, s0, s1 = r1, r, s1, [x - y for x, y in zip_longest(s0, qs, fillvalue=0)]
    return [x / r1[0] for x in s1]


def rand_word(rng: random.Random, rank: int, max_len: int = 8) -> Word:
    letters = [(rng.randint(1, rank), rng.choice((1, -1)))
               for _ in range(rng.randint(0, max_len))]
    return word(*letters)


def fox_derivative_oracle(w: Word, i: int) -> dict[Word, int]:
    """dw/dx_i in Z[F] as {word: coefficient}, from the defining rules alone:
    dx_i/dx_i = 1, d(x_i^-1)/dx_i = -x_i^-1, other letters 0, and
    d(uv) = du + u dv applied to the two halves of w."""
    letters = list(w.syllables())
    if len(letters) <= 1:
        if not letters or letters[0][0] != i:
            return {}
        return {word(): 1} if letters[0][1] > 0 else {w: -1}
    u, v = word(*letters[:len(letters) // 2]), word(*letters[len(letters) // 2:])
    out = fox_derivative_oracle(u, i)
    for t, c in fox_derivative_oracle(v, i).items():
        out[u * t] = out.get(u * t, 0) + c
    return {t: c for t, c in out.items() if c}


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


def oracle_logs(w) -> LogClass:
    """Projected logs of a Witt vector from dict_series_log, at the degrees
    the library records (multiples of the automorphism order below w.top)."""
    kappa = w.kappa
    raw = dict_series_log(kappa, {d: w.coefficient(d) for d in w.support()}, w.top)
    zero = GroupAlgebraElem.zero(kappa.group)
    return LogClass(kappa, kappa.order, w.top,
                    {k: orbit_project(raw.get(k, zero), kappa)
                     for k in range(kappa.order, w.top, kappa.order)})


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


def echelon(A: list[list[Fraction]], ncols: int) -> list[int]:
    """Forward Gaussian elimination over Q, in place; returns the pivot columns.

    Pivots are searched in the first ``ncols`` columns only.  Afterwards
    row i leads at column ``pivots[i]`` and every row past ``len(pivots)``
    is zero there, so the rank is the number of pivots.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(A)) if A[i][c]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        row = A[r]
        inv = 1 / row[c]
        nonzero = [j for j in range(c, len(row)) if row[j]]
        for i in range(r + 1, len(A)):
            Ai = A[i]
            if Ai[c]:
                f = Ai[c] * inv
                for j in nonzero:
                    Ai[j] -= f * row[j]
        pivots.append(c)
        r += 1
    return pivots


def regular_representation(a) -> list[list[Fraction]]:
    """Matrix of left multiplication by ``a`` on Q[H] in the element basis."""
    els = list(a.group.elements())
    idx = {e: i for i, e in enumerate(els)}
    M = [[Fraction(0)] * len(els) for _ in els]
    for e, c in a.coeffs.items():
        for j, h in enumerate(els):
            M[idx[a.group.add(e, h)]][j] += c
    return M


def unit_by_rank(a) -> bool:
    """Rank oracle for the unit test in Q[H], independent of the character
    transform: Q[H] is semisimple, so a is a unit iff it is not a zero
    divisor, iff its regular representation is nonsingular over Q."""
    n = a.group.order
    return len(echelon(regular_representation(a), n)) == n


def character_images_oracle(a) -> list[list[int]]:
    """chi(a.den * a) per character (m, u) of ``character_orbits``: each
    term added at the generator sum u . h mod m, then one pseudo-division by
    the monic Phi_m.  The oracle for the table-driven character transform."""
    images = []
    for m, u in character_orbits(a.group):
        vec = [0] * m
        for e, n in a.nums.items():
            vec[sum(x * y for x, y in zip(u, e)) % m] += n
        images.append(pdivmod(vec, cyclotomic(m))[2])
    return images


def unit_laurent_by_evaluation(p) -> bool:
    """Unit test in Q[H]((t)) by evaluation, the oracle for is_unit_laurent.

    After clearing t^lo, the determinant of the regular representation of p
    is a polynomial over Q of degree <= |H| * span.  p is a unit iff that
    polynomial is nonzero, iff p(t0) is a unit of Q[H] at one of |H| * span + 1
    distinct rational points t0 = 2, 3, ..., each decided by
    :func:`unit_by_rank`.
    """
    if p.is_zero():
        return False
    lo = p.min_degree()
    span = p.max_degree() - lo
    for t0 in range(2, p.group.order * span + 3):
        value = GroupAlgebraElem.zero(p.group)
        for d, c in p.terms.items():
            value = value + c.scale(Fraction(t0) ** (d - lo))
        if unit_by_rank(value):
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


def det_subset_dp_oracle(U: UpsilonMatrix) -> LaurentPolyGA:
    """Determinant of an UpsilonMatrix by the plain subset DP, the oracle for
    det_commutative: rows in natural order, every column set kept, no
    pruning.  Exponential width on Upsilon's cyclic blocks; small cases only.
    """
    n = U.size
    group = U.group
    if n == 0:
        return LaurentPolyGA.one(group)
    frontier: dict[int, LaurentPolyGA] = {0: LaurentPolyGA.one(group)}
    for r in range(n):
        row = U.entries[r]
        nxt: dict[int, LaurentPolyGA] = {}
        for mask, minor in frontier.items():
            for j in range(n):
                if mask & (1 << j):
                    continue
                e = row[j]
                if e.is_zero():
                    continue
                term = minor * e
                if bin(mask >> (j + 1)).count("1") % 2:
                    term = -term
                if term.is_zero():
                    continue
                key = mask | (1 << j)
                acc = nxt.get(key)
                nxt[key] = term if acc is None else acc + term
        frontier = {m: p for m, p in nxt.items() if not p.is_zero()}
        if not frontier:
            return LaurentPolyGA.zero(group)
    return frontier.get((1 << n) - 1, LaurentPolyGA.zero(group))


def row_order_oracle(supports: list[int]) -> tuple[list[int], int]:
    """The greedy row order of ``upsilon._row_order`` and its sign, by the
    direct rule: for every candidate, OR the supports of all the other
    untaken rows (O(n^3) mask operations in all)."""
    untaken = list(range(len(supports)))
    order: list[int] = []
    touched = inversions = 0
    while untaken:
        best = best_open = -1
        for i, r in enumerate(untaken):
            live = 0
            for s in untaken:
                if s != r:
                    live |= supports[s]
            n_open = ((touched | supports[r]) & live).bit_count()
            if best < 0 or n_open < best_open:
                best, best_open = i, n_open
        inversions += best
        order.append(untaken.pop(best))
        touched |= supports[order[-1]]
    return order, -1 if inversions % 2 else 1


def untwist_oracle(entries, kappa: GroupAut, period: int) -> list[list[LaurentPolyGA]]:
    """The untwisted grid cell by cell: term a tau^ell of entry (bi, bj)
    puts apply_aut(a, kappa, N - i) t^ell at row bi*N + i, column
    bj*N + (i - ell) mod N, each cell twisted on its own."""
    N, group = period, kappa.group
    size = len(entries) * N
    cells = [[{} for _ in range(size)] for _ in range(size)]
    for bi, row in enumerate(entries):
        for bj, a in enumerate(row):
            for ell, coeff in a.terms.items():
                for i in range(N):
                    cells[bi * N + i][bj * N + (i - ell) % N][ell] = coeff.apply_aut(kappa, N - i)
    return [[LaurentPolyGA(group, c) for c in row] for row in cells]


def poly_equiv_oracle(p: LaurentPolyGA, q: LaurentPolyGA) -> bool:
    """Equality up to a unit monomial c * t^a * h by trying every h in H,
    the oracle for upsilon.poly_equiv: after aligning the lowest degrees,
    every coefficient of p must be h times q's, with one ratio throughout."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    shift = p.min_degree() - q.min_degree()
    qs = q.shift(shift)
    if set(p.terms) != set(qs.terms):
        return False
    group = p.group
    degs = sorted(p.terms)
    for h in group.elements():
        ratio = None
        good = True
        for d in degs:
            pc = p.terms[d].coeffs
            qc = {group.add(h, e): v for e, v in qs.terms[d].coeffs.items()}
            if set(pc) != set(qc):
                good = False
                break
            for e, v in pc.items():
                r = v / qc[e]
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False

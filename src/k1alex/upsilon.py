"""Block-matrix untwisting and the commutative metafinite polynomial.

With kappa of finite order (or any declared period N with kappa^N = id), a
twisted series ring embeds into N x N matrices over the untwisted Laurent
ring: a monomial a tau^ell maps to the block

    M_ell(a)[i][j] = kappa^(N+1-i)(a) * t^ell    when j = i - ell  (mod N)

(1-based indices, zero elsewhere), so the cyclic shift by ell carries the
t-power and the row index carries the kappa twist.  This is a ring
homomorphism; applying it entrywise to a relation matrix and taking an exact
division-free determinant over Q[H][t, t^-1] yields the metafinite Alexander
polynomial, well defined up to unit monomials c * t^a * h.

Q[H] has zero divisors, so the determinant uses a division-free minor
expansion, memoized over the sets of used columns.  The number of live sets
depends only on the order the rows are visited in.  A relation entry
a + b tau maps to a block with two cyclic diagonals, one of which wraps
around a corner, so visiting Upsilon block by block keeps every block's
columns open across its N rows and the table grows exponentially in N.
The rows are instead taken greedily by the fewest open columns, which
interleaves the n blocks so that they advance together, a row of each in
turn; column sets that miss a column no later row can fill are dropped.
The width then stays bounded in N.  The expansion runs on plain
{degree: coefficient} maps, and the grid it reads holds each relation
term's N monomials, with one shared zero polynomial everywhere else.

:func:`det_upsilon`, the one route to det Upsilon, is a pure function of
the matrix and the period.  ``k1alex compute`` takes each determinant once:
:func:`metafinite_polynomial` reads the determinant
:func:`~k1alex.k1core.k1_invariant` just took from the one memo of the
latest job, in :mod:`k1alex.k1core`.  Invertibility of a Laurent polynomial
over Q[H]((t)) is decided exactly on the characters of H.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .grouprings import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    GroupAut,
    GroupError,
    MetaRep,
    character_images,
    character_orbits,
    translate,
)
from .k1core import UPSILON_WINDOW, NovikovMatrix, build_fox_matrix, latest_relation
from .novikov import NovikovSeries, format_terms
from .presentation import MeridianPresentation


class LaurentPolyGA:
    """Laurent polynomial in t with coefficients in Q[H] (commutative)."""

    __slots__ = ("group", "terms")

    def __init__(self, group: FiniteAbelianGroup,
                 terms: Mapping[int, GroupAlgebraElem] | None = None):
        self.group = group
        self.terms: dict[int, GroupAlgebraElem] = {
            int(d): c for d, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, group: FiniteAbelianGroup) -> "LaurentPolyGA":
        return cls(group)

    @classmethod
    def one(cls, group: FiniteAbelianGroup) -> "LaurentPolyGA":
        return cls(group, {0: GroupAlgebraElem.one(group)})

    @classmethod
    def monomial(cls, coeff: GroupAlgebraElem, deg: int = 0) -> "LaurentPolyGA":
        return cls(coeff.group, {deg: coeff})

    def _check(self, other: "LaurentPolyGA") -> None:
        if self.group != other.group:
            raise GroupError("polynomials over different group algebras")

    def __add__(self, other: "LaurentPolyGA") -> "LaurentPolyGA":
        self._check(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            s = out.get(d)
            out[d] = c if s is None else s + c
        return LaurentPolyGA(self.group, out)

    def __neg__(self) -> "LaurentPolyGA":
        return LaurentPolyGA(self.group, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolyGA") -> "LaurentPolyGA":
        return self + (-other)

    def __mul__(self, other: "LaurentPolyGA") -> "LaurentPolyGA":
        self._check(other)
        out: dict[int, GroupAlgebraElem] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = d1 + d2
                c = c1 * c2
                s = out.get(d)
                out[d] = c if s is None else s + c
        return LaurentPolyGA(self.group, out)

    def scale(self, c: Fraction | int) -> "LaurentPolyGA":
        return LaurentPolyGA(self.group, {d: v.scale(c) for d, v in self.terms.items()})

    def shift(self, k: int) -> "LaurentPolyGA":
        return LaurentPolyGA(self.group, {d + k: c for d, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self) -> int:
        return min(self.terms)

    def max_degree(self) -> int:
        return max(self.terms)

    def coefficient(self, d: int) -> GroupAlgebraElem:
        return self.terms.get(d, GroupAlgebraElem.zero(self.group))

    def augmentation(self) -> dict[int, Fraction]:
        """Pushforward along H -> 1: a plain rational Laurent polynomial."""
        return {d: c.augmentation() for d, c in self.terms.items()
                if c.augmentation()}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LaurentPolyGA)
                and self.group == other.group and self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_terms(self.terms, "t")

    __repr__ = __str__


class UpsilonMatrix:
    """(n*N) x (n*N) grid of commutative Laurent polynomials, block built."""

    __slots__ = ("entries", "group", "period")

    def __init__(self, entries: Sequence[Sequence[LaurentPolyGA]],
                 group: FiniteAbelianGroup, period: int):
        self.entries = [list(row) for row in entries]
        self.group = group
        self.period = period

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


def _untwist(entries: Sequence[Sequence[NovikovSeries]], kappa: GroupAut,
             period: int) -> UpsilonMatrix:
    """Place the N monomials of every term of every entry into the grid.

    Term a tau^ell of entry (bi, bj) puts kappa^(N-i)(a) t^ell at row
    bi*N + i, column bj*N + (i - ell) mod N, for i = 0 .. N-1, read from a's
    kappa-orbit, each step of it one relabeling through kappa's one table
    (:meth:`~k1alex.grouprings.GroupAlgebraElem.apply_aut`).  Cells no term
    reaches share one zero polynomial.
    """
    if period < 1 or period % kappa.order != 0:
        raise GroupError(f"period {period} is not a multiple of the "
                         f"automorphism order {kappa.order}")
    group = kappa.group
    N, order = period, kappa.order
    cells: dict[tuple[int, int], dict[int, GroupAlgebraElem]] = {}
    for bi, row in enumerate(entries):
        for bj, a in enumerate(row):
            for ell, coeff in a.terms.items():
                orbit = [coeff]
                while len(orbit) < order:
                    orbit.append(orbit[-1].apply_aut(kappa))
                for i in range(N):
                    cell = cells.setdefault((bi * N + i, bj * N + (i - ell) % N), {})
                    cell[ell] = orbit[(N - i) % order]
    zero = LaurentPolyGA.zero(group)
    size = len(entries) * N
    grid = [[zero] * size for _ in range(size)]
    for (i, j), terms in cells.items():
        grid[i][j] = LaurentPolyGA(group, terms)
    return UpsilonMatrix(grid, group, N)


def upsilon_elem(a: NovikovSeries, period: int) -> UpsilonMatrix:
    """Image of one series under the untwisting map, as an N x N block.

    ``a`` must be a Laurent polynomial (all of its support is stored in the
    window, nothing truncated away) and ``period`` a multiple of the order of
    its twisting automorphism.
    """
    return _untwist([[a]], a.kappa, period)


def upsilon_matrix(mx: NovikovMatrix, period: int) -> UpsilonMatrix:
    """Entrywise untwisting of a Novikov matrix into blocks."""
    return _untwist(mx.entries, mx.kappa, period)


def _row_order(supports: Sequence[int]) -> tuple[list[int], int]:
    """Greedy row order for the subset DP, from the rows' column bitmasks,
    and the sign of that permutation.

    A column is open once a taken row touches it while an untaken row is
    still nonzero in it.  The next row is the one leaving the fewest open
    columns; ties go to the lowest index.  The untaken rows other than r
    cover the columns two untaken rows share (``multi``) and the untaken
    rows' columns (``once``) that r lacks, so a step costs O(n) mask
    operations.
    """
    untaken = list(range(len(supports)))
    order: list[int] = []
    touched = inversions = 0
    while untaken:
        once = multi = 0
        for r in untaken:
            multi |= once & supports[r]
            once |= supports[r]
        best = best_open = -1
        for i, r in enumerate(untaken):
            live = multi | (once & ~supports[r])
            n_open = ((touched | supports[r]) & live).bit_count()
            if best < 0 or n_open < best_open:
                best, best_open = i, n_open
        # the untaken rows before the chosen one each make an inversion
        inversions += best
        order.append(untaken.pop(best))
        touched |= supports[order[-1]]
    return order, -1 if inversions % 2 else 1


def det_commutative(U: UpsilonMatrix) -> LaurentPolyGA:
    """Exact determinant over Q[H][t, t^-1], division free.

    Minor expansion across rows with memoization over the set of used
    columns: no divisions ever occur, so zero divisors in Q[H] are harmless.
    The table holds one minor per live column set, so its width depends on
    the order the rows are visited in.  That order is chosen greedily from
    the zero pattern (:func:`_row_order`), and the result is multiplied by
    its sign.  Walking Upsilon block by block would keep every N x N cyclic
    block open across its N rows (tau^1 wraps around a corner) and the
    width would grow exponentially in N; the greedy order interleaves the n
    blocks, taking a row of each in turn, so only a band of columns of
    bounded width is open at a time.  A column set is dropped as soon as it
    misses a column no later row can fill, and a zero column gives zero at
    once.  Multiplicative and alternating like any determinant.

    The table runs on plain maps: a minor is ``{degree: coefficient}``, and
    a row is its nonzero cells as (column, bit, terms, negated terms), the
    negated copy serving the expansion's odd-sign positions, so the inner
    loop makes only the Q[H] products and sums themselves.
    """
    n = U.size
    group = U.group
    zero = LaurentPolyGA.zero(group)
    if n == 0:
        return LaurentPolyGA.one(group)
    rows = [[(j, 1 << j, list(e.terms.items()), [(d, -c) for d, c in e.terms.items()])
             for j, e in enumerate(row) if e.terms] for row in U.entries]
    supports = [sum(bit for _, bit, _, _ in row) for row in rows]
    full = (1 << n) - 1
    order, sign = _row_order(supports)
    # fillable[k]: columns some row at position >= k of the order touches
    fillable = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        fillable[k] = fillable[k + 1] | supports[order[k]]
    if fillable[0] != full:
        return zero
    frontier: dict[int, dict[int, GroupAlgebraElem]] = {0: {0: GroupAlgebraElem.one(group)}}
    for k, r in enumerate(order):
        # a column set must already hold every column the rest cannot fill
        must = full & ~fillable[k + 1]
        nxt: dict[int, dict[int, GroupAlgebraElem]] = {}
        for mask, minor in frontier.items():
            minor_terms = list(minor.items())
            for j, bit, plus, minus in rows[r]:
                if mask & bit:
                    continue
                key = mask | bit
                if key & must != must:
                    continue
                terms = minus if (mask >> (j + 1)).bit_count() & 1 else plus
                acc = nxt.get(key)
                if acc is None:
                    acc = nxt[key] = {}
                for d1, c1 in minor_terms:
                    for d2, c2 in terms:
                        d = d1 + d2
                        c = c1 * c2
                        s = acc.get(d)
                        acc[d] = c if s is None else s + c
        frontier = {}
        for mask, minor in nxt.items():
            minor = {d: c for d, c in minor.items() if c}
            if minor:
                frontier[mask] = minor
        if not frontier:
            return zero
    det = frontier.get(full)
    if det is None:
        return zero
    return LaurentPolyGA(group, det if sign > 0 else {d: -c for d, c in det.items()})


def canonical_form(p: LaurentPolyGA) -> LaurentPolyGA:
    """Fix the unit-monomial ambiguity for printing and golden comparisons.

    Shift by a power of t so the minimal degree is -(span/2) for even span
    and 0 otherwise, then scale by -1 if needed so the lexicographically
    first rational in the lowest coefficient is positive.
    """
    if p.is_zero():
        return p
    lo, hi = p.min_degree(), p.max_degree()
    span = hi - lo
    target_lo = -(span // 2) if span % 2 == 0 else 0
    q = p.shift(target_lo - lo)
    low = q.coefficient(target_lo)
    first = low.coeffs[min(low.coeffs)]
    if first < 0:
        q = q.scale(-1)
    return q


def poly_equiv(p: LaurentPolyGA, q: LaurentPolyGA) -> bool:
    """Equality up to a unit monomial c * t^a * h (c rational, h in H).

    Once the lowest degrees are aligned, h must carry some key e of q's
    lowest coefficient onto one fixed key e0 of p's, and that pair fixes c,
    so only the h = e0 - e are tried.
    """
    if p.group != q.group:
        raise GroupError("polynomials over different group algebras")
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    lo, group = p.min_degree(), p.group
    qs = q.shift(lo - q.min_degree())
    if set(p.terms) != set(qs.terms):
        return False
    p0, q0 = p.terms[lo], qs.terms[lo]
    e0, n0 = next(iter(p0.nums.items()))
    for e, n in q0.nums.items():
        h, c = group.add(e0, group.neg(e)), Fraction(n0 * q0.den, n * p0.den)
        for d, a in p.terms.items():
            b = qs.terms[d].scale(c)  # a relabeling keeps lowest terms
            if a.den != b.den or a.nums != translate(b.nums, h, group.divisors):
                break
        else:
            return True
    return False


def is_unit_laurent(p: LaurentPolyGA) -> bool:
    """Invertibility of p in Q[H]((t)), decided exactly on the characters of H.

    Q[H] is the product of the cyclotomic fields Q(zeta_m), one per Galois
    orbit of characters, so Q[H]((t)) is the product of the Laurent series
    fields Q(zeta_m)((t)).  p is a unit iff every component is nonzero, iff
    on every orbit some coefficient of p has a nonzero character value, iff
    the coefficients generate the unit ideal of Q[H].  The coefficients are
    read from the lowest degree up, until every orbit has a nonzero value.
    """
    pending = range(len(character_orbits(p.group)))
    for d in sorted(p.terms):
        images = character_images(p.terms[d])
        pending = [i for i in pending if not images[i]]
        if not pending:
            return True
    return False


def det_upsilon(mx: NovikovMatrix, period: int) -> LaurentPolyGA:
    """det Upsilon(mx) at ``period``, the one route to that determinant.

    Both steps are module globals, looked up per call, so a tracer may
    rebind them.
    """
    return det_commutative(upsilon_matrix(mx, period))


def metafinite_polynomial(p: MeridianPresentation, rep: MetaRep) -> LaurentPolyGA:
    """Commutative determinant of the untwisted relation matrix.

    Computes det of the block image, at period ``rep.cover_n``, of the
    relation matrix and returns its canonical form.  Right after
    :func:`~k1alex.k1core.k1_invariant` on an equal (p, rep), the matrix and
    its det Upsilon at ord kappa are the ones that call took
    (:func:`~k1alex.k1core.latest_relation`): with ord kappa = N that
    determinant is the answer, and at any other period the recorded matrix
    is untwisted again (Upsilon reads only the tau^0 and tau^1 terms, so the
    matrix's window does not matter).  Otherwise a matrix is built at
    :data:`~k1alex.k1core.UPSILON_WINDOW`.  Comparisons should go through
    :func:`poly_equiv`, since the class is only defined up to unit monomials.
    """
    matrix, det = latest_relation(p, rep) or (build_fox_matrix(p, rep, UPSILON_WINDOW), None)
    if det is None or rep.cover_n != matrix.kappa.order:
        det = det_upsilon(matrix, rep.cover_n)
    return canonical_form(det)

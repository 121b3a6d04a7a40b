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

Q[H] has zero divisors, so the determinant is a division-free minor
expansion on integer numerators, memoized over the sets of used columns
(:func:`det_commutative`): the rows are taken in a greedy order that keeps
the number of live sets bounded in N, and a minor is a frame c * g * t^s *
base over a shared base map, so a monomial cell touches no dict.  The grid
it reads holds each relation term's N monomials, with one shared zero
polynomial everywhere else.

:func:`det_upsilon`, the one route to det Upsilon, is a pure function of
the matrix and the period.  At a period N = k ord kappa, det Upsilon is the
norm of det Upsilon at ord kappa, one k x k determinant (:func:`_norm`), so
``k1alex compute`` untwists only at ord kappa: :func:`metafinite_polynomial`
reads the determinant :func:`~k1alex.k1core.k1_invariant` just took from
the one memo of the latest job, in :mod:`k1alex.k1core`.  Invertibility of
a Laurent polynomial over Q[H]((t)) is decided exactly on the characters of H.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mod
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
    """Grid of commutative Laurent polynomials: Upsilon's blocks, or a norm's."""

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


def _adder(divisors: tuple[int, ...]):
    """g + h on H, unrolled on rank 2."""
    if len(divisors) == 2:
        return lambda a, b, d=divisors[0], e=divisors[1]: ((a[0] + b[0]) % d, (a[1] + b[1]) % e)
    return lambda a, b: tuple(map(mod, map(add, a, b), divisors))


def _add_frame(acc: dict, g, c: int, s: int, base: dict, divisors) -> None:
    """acc += c * g * t^s * base, on {degree: {element: int}} maps."""
    for d, nums in base.items():
        moved, out = translate(nums, g, divisors), acc.get(d + s)
        if out is None:  # translate's own dict when it made one and c = 1
            acc[d + s] = {k: c * v for k, v in moved.items()} if c != 1 or moved is nums else moved
        else:
            for k, v in moved.items():
                out[k] = out.get(k, 0) + c * v


def det_commutative(U: UpsilonMatrix) -> LaurentPolyGA:
    """Exact determinant over Q[H][t, t^-1], division free.

    Minor expansion across rows, memoized over the sets of used columns.
    The rows go in a greedy order (:func:`_row_order`, whose sign the result
    takes) that advances Upsilon's n blocks a row of each in turn, so the
    live column sets stay bounded in N where block by block they grow
    exponentially (tau^1 wraps a corner); a set missing a column no later
    row can fill is dropped.  Row r is scaled by L_r, the lcm of its
    denominators, and det U over prod L_r is put in lowest terms once per
    degree.  A minor is a frame (g, c, s, base) worth c * g * t^s * base,
    base a shared ``{degree: {element: int}}`` map: a monomial cell v h t^l
    makes (g + h, +-c v, s + l, base) and touches no dict.  Where a second
    term meets a frame, or a cell has more terms, the frame becomes a map
    of its own; a cell of more than two terms multiplies through
    :meth:`GroupAlgebraElem.__mul__`, which may pack it.
    """
    n, group, divisors = U.size, U.group, U.group.divisors
    zero, plus, den, rows = LaurentPolyGA.zero(group), _adder(divisors), 1, []
    for row in U.entries:
        cells = [(j, e.terms) for j, e in enumerate(row) if e.terms]
        scale = lcm(*(c.den for _, cell in cells for c in cell.values()))
        den *= scale
        cells = [(j, [(d, c.scale(scale) if scale > 1 else c) for d, c in cell.items()])
                 for j, cell in cells]
        # (column, bit, (degree, element, int) terms, integer Q[H] elements by degree)
        rows.append([(j, 1 << j, [(d, h, v) for d, c in cell for h, v in c.nums.items()], cell)
                     for j, cell in cells])
    supports = [sum(cell[1] for cell in row) for row in rows]
    full = (1 << n) - 1
    order, sign = _row_order(supports)
    # fillable[k]: columns some row at position >= k of the order touches
    fillable = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        fillable[k] = fillable[k + 1] | supports[order[k]]
    if fillable[0] != full:
        return zero
    identity = group.identity()
    frontier = {0: (identity, 1, 0, {0: {identity: 1}})}
    for k, r in enumerate(order):
        # a column set must already hold every column the rest cannot fill
        must = full & ~fillable[k + 1]
        nxt: dict = {}
        for mask, (g, c, s, base) in frontier.items():
            for j, bit, terms, by_degree in rows[r]:
                key = mask | bit
                if mask & bit or key & must != must:
                    continue
                sc = -c if (mask >> (j + 1)).bit_count() & 1 else c
                acc = nxt.get(key)
                if acc is None and len(terms) == 1:
                    ((ell, h, v),) = terms
                    nxt[key] = (plus(g, h), sc * v, s + ell, base)
                    continue
                if type(acc) is not dict:  # a map of its own, from the first frame
                    lazy, acc = acc, {}
                    nxt[key] = acc
                    if lazy:
                        _add_frame(acc, *lazy, divisors)
                if len(terms) <= 2:
                    for ell, h, v in terms:
                        _add_frame(acc, plus(g, h), sc * v, s + ell, base, divisors)
                    continue
                for d, nums in base.items():
                    b = GroupAlgebraElem._make(group, 1, nums, reduced=True)
                    for ell, x in by_degree:
                        _add_frame(acc, g, sc, s, {d + ell: (b * x).nums}, divisors)
        frontier = {}
        for key, acc in nxt.items():
            if type(acc) is dict:  # drop the zeros where terms met
                acc = (identity, 1, 0, {d: nz for d, nums in acc.items() if (nz := {
                    h: v for h, v in nums.items() if v} if 0 in nums.values() else nums)})
            if acc[3]:
                frontier[key] = acc
        if not frontier:
            return zero
    # the last row's column sets all hold every column
    ((g, c, s, base),), out = frontier.values(), {}
    _add_frame(out, g, c * sign, s, base, divisors)
    return LaurentPolyGA(group, {d: GroupAlgebraElem._make(group, den, nums)
                                 for d, nums in out.items()})


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


def _norm(P: LaurentPolyGA, order: int, period: int) -> LaurentPolyGA:
    """det Upsilon at ``period`` = k ``order`` from P, det Upsilon at
    ``order``: the norm of P(s), s = t^order, down to Q[H][u], u = s^k =
    t^period, as the det of the k x k matrix of multiplication by P on the
    basis 1, s, ..., s^(k-1), its degrees in u scaled by ``period``."""
    k, group = period // order, P.group
    if period % order or any(d % order for d in P.terms):
        raise GroupError(f"det Upsilon at period {order} has no norm to period {period}")
    cells = [[{} for _ in range(k)] for _ in range(k)]
    for d, c in P.terms.items():
        for j in range(k):  # P s^j: c s^(d/order + j) = c u^q s^r
            q, r = divmod(d // order + j, k)
            cells[r][j][q] = c
    det = det_commutative(UpsilonMatrix([[LaurentPolyGA(group, c) for c in row]
                                         for row in cells], group, period))
    return LaurentPolyGA(group, {d * period: c for d, c in det.terms.items()})


def metafinite_polynomial(p: MeridianPresentation, rep: MetaRep) -> LaurentPolyGA:
    """Commutative determinant of the untwisted relation matrix at period
    N = ``rep.cover_n``, in canonical form: det Upsilon at ord kappa, and at
    N > ord kappa its norm (:func:`_norm`).  Right after
    :func:`~k1alex.k1core.k1_invariant` on an equal (p, rep) the matrix and
    that determinant are the ones it took (:func:`~k1alex.k1core.latest_relation`);
    otherwise a matrix is built at :data:`~k1alex.k1core.UPSILON_WINDOW`,
    Upsilon reading only tau^0 and tau^1.  Comparisons should go through
    :func:`poly_equiv`, since the class is only defined up to unit monomials.
    """
    matrix, det = latest_relation(p, rep) or (build_fox_matrix(p, rep, UPSILON_WINDOW), None)
    order = matrix.kappa.order
    if det is None:
        det = det_upsilon(matrix, order)
    return canonical_form(det if rep.cover_n == order else _norm(det, order, rep.cover_n))

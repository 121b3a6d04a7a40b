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
expansion (memoized over column subsets, which also exploits the sparsity of
the blocks); invertibility of a Laurent polynomial over Q[H]((t)) is decided
exactly by a rank of rational regular representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .grouprings import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    GroupError,
    MetaRep,
    echelon,
    gr_is_unit,
    regular_representation,
)
from .k1core import NovikovMatrix, build_fox_matrix
from .novikov import NovikovSeries
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
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(d, None)
            else:
                out[d] = s
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
        return LaurentPolyGA(self.group, {d: c for d, c in out.items()
                                          if not c.is_zero()})

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
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            c = self.terms[d]
            if d == 0:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})*t^{d}" if d != 1 else f"({c})*t")
        return " + ".join(parts)

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


def upsilon_elem(a: NovikovSeries, period: int) -> UpsilonMatrix:
    """Image of one series under the untwisting map, as an N x N block.

    ``a`` must be a Laurent polynomial (all of its support is stored in the
    window, nothing truncated away) and ``period`` a multiple of the order of
    its twisting automorphism.
    """
    kappa = a.kappa
    if period < 1 or period % kappa.order != 0:
        raise GroupError(f"period {period} is not a multiple of the "
                         f"automorphism order {kappa.order}")
    group = kappa.group
    N = period
    blk = [[LaurentPolyGA.zero(group) for _ in range(N)] for _ in range(N)]
    for ell in a.support():
        coeff = a.coefficient(ell)
        for i in range(1, N + 1):
            j = (i - 1 - ell) % N
            twisted = coeff.apply_aut(kappa, N + 1 - i)
            blk[i - 1][j] = blk[i - 1][j] + LaurentPolyGA.monomial(twisted, ell)
    return UpsilonMatrix(blk, group, N)


def upsilon_matrix(mx: NovikovMatrix, period: int | None = None) -> UpsilonMatrix:
    """Entrywise untwisting of a Novikov matrix into blocks."""
    if period is None:
        period = mx.kappa.order
    n = mx.size
    N = period
    group = mx.kappa.group
    big = [[LaurentPolyGA.zero(group) for _ in range(n * N)] for _ in range(n * N)]
    for bi in range(n):
        for bj in range(n):
            blk = upsilon_elem(mx[bi, bj], N)
            for i in range(N):
                for j in range(N):
                    big[bi * N + i][bj * N + j] = blk[i, j]
    return UpsilonMatrix(big, group, N)


def det_commutative(U: UpsilonMatrix) -> LaurentPolyGA:
    """Exact determinant over Q[H][t, t^-1], division free.

    Minor expansion across rows with memoization over the set of used
    columns: no divisions ever occur, so zero divisors in Q[H] are harmless,
    and the subset table stays small because the untwisted blocks are sparse.
    Multiplicative and alternating like any determinant.
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
                sign = -1 if bin(mask >> (j + 1)).count("1") % 2 else 1
                term = (minor * e).scale(sign)
                if term.is_zero():
                    continue
                key = mask | (1 << j)
                acc = nxt.get(key)
                nxt[key] = term if acc is None else acc + term
        frontier = {m: p for m, p in nxt.items() if not p.is_zero()}
        if not frontier:
            return LaurentPolyGA.zero(group)
    return frontier.get((1 << n) - 1, LaurentPolyGA.zero(group))


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
    """Equality up to a unit monomial c * t^a * h (c rational, h in H)."""
    if p.group != q.group:
        raise GroupError("polynomials over different group algebras")
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


def is_unit_laurent(p: LaurentPolyGA) -> bool:
    """Invertibility of p in Q[H]((t)), decided exactly by a rank over Q.

    Q[H] is semisimple and commutative, a finite product of fields K_i, so
    Q[H]((t)) is the product of the Laurent series fields K_i((t)).  p is a
    unit iff every component is nonzero, iff for every i some coefficient of
    p is nonzero in K_i, iff the coefficients generate the unit ideal of
    Q[H].  That holds iff no nonzero x in Q[H] is killed by all of them,
    i.e. iff their regular representations, stacked, have rank |H|.

    p(2) (after clearing t^lo) lies in that ideal, so when it is a unit of
    Q[H] -- the usual case -- one |H| x |H| elimination decides; otherwise
    the stacked coefficients are ranked.  At most two eliminations run.
    """
    if p.is_zero():
        return False
    if len(p.terms) == 1:
        ((_, coeff),) = p.terms.items()
        return gr_is_unit(coeff)
    n = p.group.order
    lo = p.min_degree()
    at_two = GroupAlgebraElem.zero(p.group)
    for d, c in p.terms.items():
        at_two = at_two + c.scale(2 ** (d - lo))
    if len(echelon(regular_representation(at_two), n)) == n:
        return True
    stacked = [row for c in p.terms.values() for row in regular_representation(c)]
    return len(echelon(stacked, n)) == n


def metafinite_polynomial(p: MeridianPresentation, rep: MetaRep) -> LaurentPolyGA:
    """Commutative determinant of the untwisted relation matrix.

    Computes det of the block image of the relation matrix, multiplied by the
    determinant of the untwisted tau^{-g} normalization (a unit monomial
    t^{-2 g^2 N}), and returns the canonical form.  Comparisons should go
    through :func:`poly_equiv`, since the class is only defined up to unit
    monomials.
    """
    matrix = build_fox_matrix(p, rep, precision=4)
    N = rep.cover_n
    det = det_commutative(upsilon_matrix(matrix, N))
    det = det.shift(-2 * p.genus * p.genus * N)
    return canonical_form(det)

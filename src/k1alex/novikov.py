"""Truncated skew Laurent (Novikov) series over a rational group algebra.

A series sum_i a_i tau^i with a_i in Q[H] and finitely many negative terms,
subject to the twisting rule tau^n a = kappa^n(a) tau^n.  Coefficients are
always written on the left of tau powers.

Truncation model: a series is a map from tau-degrees to its nonzero
coefficients, all below a knowledge bound ``top``; it guarantees that every
coefficient absent from the map below ``top`` vanishes, and knows nothing at
degrees >= top.  Its lowest stored degree is ``min_deg`` (``top`` for the
zero series).  Binary operations produce the largest window both operands
support, and all zero tests and equalities are window-relative.

Unit inversion requires an invertible leading coefficient (leading-unit
series); 1 - tau and every monomial u tau^k with u a unit of Q[H] are the
motivating examples.  Witt vectors are the units 1 + a_1 tau + a_2 tau^2 +
... and carry the logarithm

    log(1 + mu) = mu - mu^2/2 + mu^3/3 - ...

whose tau^k coefficients, projected to the coinvariants A/{a - kappa(a)},
are the computable invariants extracted downstream.  :func:`ns_log` reads
them off the commutative determinant of w, since log det = tr log.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Mapping

from .grouprings import (
    FiniteAbelianGroup,
    GroupAut,
    GroupAlgebraElem,
    GroupError,
    OrbitClass,
    gr_inverse,
    orbit_project,
)

DEFAULT_PRECISION = 24


class SeriesError(ValueError):
    """Raised on incompatible operands or non-invertible leading terms."""


def format_terms(terms: Mapping[int, GroupAlgebraElem], var: str) -> str:
    """``(c)*var^d`` summands in increasing degree, or "0" for no terms."""
    parts = []
    for d in sorted(terms):
        c = terms[d]
        parts.append(f"({c})" if d == 0 else f"({c})*{var}" if d == 1
                     else f"({c})*{var}^{d}")
    return " + ".join(parts) or "0"


class NovikovSeries:
    """Truncated element of the Novikov ring A_kappa((tau))."""

    __slots__ = ("kappa", "terms", "top")

    def __init__(self, kappa: GroupAut, terms: Mapping[int, GroupAlgebraElem],
                 top: int):
        self.kappa = kappa
        self.terms: dict[int, GroupAlgebraElem] = {
            d: c for d, c in sorted(terms.items()) if c}
        if self.terms and next(reversed(self.terms)) >= top:
            raise SeriesError("coefficient at or above the knowledge bound")
        self.top = top

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, kappa: GroupAut, top: int) -> "NovikovSeries":
        return cls(kappa, {}, top)

    @classmethod
    def monomial(cls, kappa: GroupAut, coeff: GroupAlgebraElem, deg: int,
                 window: int = DEFAULT_PRECISION) -> "NovikovSeries":
        return cls(kappa, {deg: coeff}, deg + window)

    @classmethod
    def one(cls, kappa: GroupAut, window: int = DEFAULT_PRECISION) -> "NovikovSeries":
        return cls.monomial(kappa, GroupAlgebraElem.one(kappa.group), 0, window)

    # -- inspection --------------------------------------------------------

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.kappa.group

    @property
    def min_deg(self) -> int:
        return next(iter(self.terms), self.top)

    @property
    def window(self) -> int:
        return self.top - self.min_deg

    @property
    def coeffs(self) -> tuple[GroupAlgebraElem, ...]:
        """Dense read-only view of the coefficients of tau^min_deg .. tau^(top-1)."""
        return tuple(self.coefficient(d) for d in range(self.min_deg, self.top))

    def coefficient(self, deg: int) -> GroupAlgebraElem:
        if deg >= self.top:
            raise SeriesError(f"coefficient of tau^{deg} is beyond the window (top {self.top})")
        return self.terms.get(deg) or GroupAlgebraElem.zero(self.group)

    def support(self) -> list[int]:
        return list(self.terms)

    def is_zero(self) -> bool:
        """All known coefficients vanish (window-relative)."""
        return not self.terms

    def leading(self) -> tuple[int, GroupAlgebraElem]:
        for d, c in self.terms.items():
            return d, c
        raise SeriesError("zero series has no leading coefficient")

    def _check(self, other: "NovikovSeries") -> None:
        if self.kappa != other.kappa:
            raise GroupError("series live over different twisted rings")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        self._check(other)
        top = min(self.top, other.top)
        terms = {d: c for d, c in self.terms.items() if d < top}
        for d, c in other.terms.items():
            if d >= top:
                break
            terms[d] = terms[d] + c if d in terms else c
        return NovikovSeries(self.kappa, terms, top)

    def __neg__(self) -> "NovikovSeries":
        return NovikovSeries(self.kappa, {d: -c for d, c in self.terms.items()},
                             self.top)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + (-other)

    def __mul__(self, other: "NovikovSeries") -> "NovikovSeries":
        self._check(other)
        # knowledge bound: unknown tail of one factor times leading known
        # degree of the other
        lo = other.min_deg
        top = min(self.top + lo, other.top + self.min_deg)
        terms: dict[int, GroupAlgebraElem] = {}
        kappa = self.kappa
        for d1, a in self.terms.items():
            if d1 + lo >= top:
                break
            for d2, b in other.terms.items():
                d = d1 + d2
                if d >= top:
                    break
                c = a * b.apply_aut(kappa, d1)
                terms[d] = terms[d] + c if d in terms else c
        return NovikovSeries(kappa, terms, top)

    def shift(self, k: int) -> "NovikovSeries":
        """Left multiplication by tau^k: twists coefficients by kappa^k."""
        return NovikovSeries(self.kappa, {d + k: c.apply_aut(self.kappa, k)
                                          for d, c in self.terms.items()},
                             self.top + k)

    def truncate(self, top: int) -> "NovikovSeries":
        if top >= self.top:
            return self
        return NovikovSeries(self.kappa, {d: c for d, c in self.terms.items()
                                          if d < top}, top)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality of all coefficients on the common knowledge window."""
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        if self.kappa != other.kappa:
            return False
        top = min(self.top, other.top)
        return self.truncate(top).terms == other.truncate(top).terms

    __hash__ = None  # window-relative equality is not hashable

    def __str__(self) -> str:
        return f"{format_terms(self.terms, 'tau')} + O(tau^{self.top})"

    __repr__ = __str__


class WittVector(NovikovSeries):
    """A unit series 1 + a_1 tau + a_2 tau^2 + ... (constant term exactly 1)."""

    def __init__(self, kappa, terms, top):
        super().__init__(kappa, terms, top)
        if self.min_deg != 0 or self.coefficient(0) != GroupAlgebraElem.one(self.group):
            raise SeriesError("a Witt vector must start with constant term 1")

    @classmethod
    def from_series(cls, s: NovikovSeries) -> "WittVector":
        return cls(s.kappa, s.terms, s.top)


def ns_invert(p: NovikovSeries, num: NovikovSeries | None = None) -> NovikovSeries:
    """num * p^-1 by right division, to the available precision; p^-1 when
    ``num`` is None.

    With p = sum_i c_i tau^(d+i) and u = c_0^-1, solving f p = num degree by
    degree gives f_j = (num_(j+d) - sum_(i>=1) f_(j-i) kappa^(j-i)(c_i)) *
    kappa^j(u) from j = num.min_deg - d, on the window of num times p^-1:
    top = min(num.top - d, p.top - 2d + num.min_deg).  The twists depend on
    j mod ord kappa only and are taken once per residue, each from the one
    before.  A non-unit leading coefficient raises: such a series may still
    be invertible in the Novikov ring, but not by this route.
    """
    d, lead = p.leading()
    u = gr_inverse(lead)
    if u is None:
        raise SeriesError(f"leading coefficient ({lead}) is not a unit")
    kappa = p.kappa
    if num is None:
        rhs, lo, top = {0: GroupAlgebraElem.one(p.group)}, 0, p.top - 2 * d
    else:
        p._check(num)
        rhs, lo = num.terms, num.min_deg
        top = min(num.top - d, p.top - 2 * d + lo)
    # kappa^j twists only by j mod n = ord kappa: u and each c_i are twisted
    # at the first n powers of the range, each from the one before by one
    # relabel, and read at (j - first) mod n.  The tail holds (i, twists of
    # c_i) for the terms past the lead that reach some f_(j-i), highest i
    # first, so that each sum adds its products in increasing degree j - i.
    n, first = kappa.order, lo - d

    def twisted(c: GroupAlgebraElem) -> list[GroupAlgebraElem]:
        return [*accumulate(repeat(kappa, min(n, top - first) - 1), GroupAlgebraElem.apply_aut,
                            initial=c.apply_aut(kappa, first))]
    twisted_u = twisted(u)
    tail = [(e - d, twisted(c)) for e, c in reversed(p.terms.items()) if 0 < e - d < top - first]
    zero = GroupAlgebraElem.zero(p.group)
    f: dict[int, GroupAlgebraElem] = {}
    for j in range(first, top):
        acc = rhs.get(j + d, zero)
        for i, twists in tail:
            if j - i in f:
                acc = acc - f[j - i] * twists[(j - i - first) % n]
        if acc:
            f[j] = acc * twisted_u[(j - first) % n]
    return NovikovSeries(kappa, f, top)


def witt_normalize(a: NovikovSeries) -> tuple[GroupAlgebraElem, int, WittVector]:
    """Factor a = (u * tau^d) * w with u a unit of Q[H] and w a Witt vector."""
    if a.is_zero():
        raise SeriesError("zero series has no Witt normalization")
    d, lead = a.leading()
    u = gr_inverse(lead)
    if u is None:
        raise SeriesError(f"leading coefficient ({lead}) is not a unit")
    head_inv = NovikovSeries.monomial(a.kappa, u.apply_aut(a.kappa, -d), -d,
                                      a.window)
    w = head_inv * a
    return lead, d, WittVector.from_series(w)


class LogClass:
    """Coinvariant-projected logarithm coefficients of a Witt vector.

    Entries exist for 1 <= k < top with k a multiple of the automorphism
    order N (every k when N = 1), each an :class:`OrbitClass` in the quotient
    A/{a - kappa(a)}.
    """

    __slots__ = ("kappa", "period", "top", "entries")

    def __init__(self, kappa: GroupAut, period: int, top: int,
                 entries: dict[int, OrbitClass]):
        self.kappa = kappa
        self.period = period
        self.top = top
        self.entries = entries

    def __getitem__(self, k: int) -> OrbitClass:
        if k not in self.entries:
            if k % self.period != 0:
                raise KeyError(f"tau^{k} coefficient unsupported: k is not a "
                               f"multiple of the automorphism order {self.period}")
            raise KeyError(f"tau^{k} beyond precision window (top {self.top})")
        return self.entries[k]

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogClass):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return "LogClass(" + ", ".join(
            f"{k}: {v}" for k, v in sorted(self.entries.items())) + ")"


def ns_log(terms: Mapping[int, GroupAlgebraElem], kappa: GroupAut,
           top: int) -> LogClass:
    """Projected logarithm of a Witt vector w, read off its determinant.

    ``terms`` are the coefficients of f = det Upsilon(w) at period N = ord
    kappa, a polynomial in t over Q[H] with constant term 1.  Upsilon is a
    ring homomorphism, log det = tr log, and the trace of a tau^k is the sum
    of its N twists when N | k and 0 otherwise.  So the projected tau^k
    coefficient of log w is (1/N) * orbit_project([t^k] log f), where log f
    is k g_k = k f_k - sum_{j<k} j g_j f_{k-j}, O(top * deg f) products.
    """
    group = kappa.group
    if terms.get(0) != GroupAlgebraElem.one(group) or min(terms) < 0:
        raise SeriesError("ns_log needs a polynomial with constant term 1")
    period = kappa.order
    tail = [(d, c) for d, c in terms.items() if d > 0]
    kg: dict[int, GroupAlgebraElem] = {}  # k -> k * g_k, nonzero only
    entries = {}
    for k in range(1, top):
        acc = terms[k].scale(k) if k in terms else GroupAlgebraElem.zero(group)
        for d, c in tail:
            if k - d in kg:
                acc = acc - kg[k - d] * c
        if not acc.is_zero():
            kg[k] = acc
        if k % period == 0:
            entries[k] = orbit_project(acc, kappa, k * period)
    return LogClass(kappa, period, top, entries)

"""Truncated skew Laurent (Novikov) series over a rational group algebra.

A series sum_i a_i tau^i with a_i in Q[H] and finitely many negative terms,
subject to the twisting rule tau^n a = kappa^n(a) tau^n.  Coefficients are
always written on the left of tau powers.

Truncation model: a series knows the coefficients of tau^d .. tau^(top-1)
exactly and guarantees that every coefficient below d vanishes; nothing is
known at degrees >= top.  Binary operations produce the largest window both
operands support.  The canonical zero series stores no coefficients and is
distinguished from a series whose known window merely happens to vanish by
its explicit window bounds; all zero tests are window-relative.

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

from fractions import Fraction
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


class NovikovSeries:
    """Truncated element of the Novikov ring A_kappa((tau))."""

    __slots__ = ("kappa", "min_deg", "coeffs", "top")

    def __init__(self, kappa: GroupAut, min_deg: int,
                 coeffs: tuple[GroupAlgebraElem, ...], top: int | None = None):
        self.kappa = kappa
        if top is None:
            top = min_deg + len(coeffs)
        if top != min_deg + len(coeffs):
            raise SeriesError("window bounds disagree with coefficient count")
        # strip leading zeros: shrinks the window from below
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            min_deg += 1
        if not coeffs:
            min_deg = top
        self.min_deg = min_deg
        self.coeffs = coeffs
        self.top = top

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, kappa: GroupAut, top: int) -> "NovikovSeries":
        return cls(kappa, top, (), top)

    @classmethod
    def from_map(cls, kappa: GroupAut, terms: Mapping[int, GroupAlgebraElem],
                 top: int) -> "NovikovSeries":
        terms = {d: c for d, c in terms.items() if not c.is_zero()}
        if not terms:
            return cls.zero(kappa, top)
        lo = min(terms)
        if max(terms) >= top:
            raise SeriesError("coefficient at or above the knowledge bound")
        group = kappa.group
        coeffs = tuple(terms.get(d, GroupAlgebraElem.zero(group))
                       for d in range(lo, top))
        return cls(kappa, lo, coeffs, top)

    @classmethod
    def monomial(cls, kappa: GroupAut, coeff: GroupAlgebraElem, deg: int,
                 window: int = DEFAULT_PRECISION) -> "NovikovSeries":
        return cls.from_map(kappa, {deg: coeff}, deg + window)

    @classmethod
    def one(cls, kappa: GroupAut, window: int = DEFAULT_PRECISION) -> "NovikovSeries":
        return cls.monomial(kappa, GroupAlgebraElem.one(kappa.group), 0, window)

    # -- inspection --------------------------------------------------------

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.kappa.group

    @property
    def window(self) -> int:
        return self.top - self.min_deg

    def coefficient(self, deg: int) -> GroupAlgebraElem:
        if deg >= self.top:
            raise SeriesError(f"coefficient of tau^{deg} is beyond the window (top {self.top})")
        if deg < self.min_deg:
            return GroupAlgebraElem.zero(self.group)
        return self.coeffs[deg - self.min_deg]

    def support(self) -> list[int]:
        return [self.min_deg + i for i, c in enumerate(self.coeffs) if not c.is_zero()]

    def is_zero(self) -> bool:
        """All known coefficients vanish (window-relative)."""
        return all(c.is_zero() for c in self.coeffs)

    def leading(self) -> tuple[int, GroupAlgebraElem]:
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return self.min_deg + i, c
        raise SeriesError("zero series has no leading coefficient")

    def _check(self, other: "NovikovSeries") -> None:
        if self.kappa != other.kappa:
            raise GroupError("series live over different twisted rings")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        self._check(other)
        top = min(self.top, other.top)
        terms: dict[int, GroupAlgebraElem] = {}
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                d = s.min_deg + i
                if d >= top or c.is_zero():
                    continue
                terms[d] = terms[d] + c if d in terms else c
        return NovikovSeries.from_map(self.kappa, terms, top)

    def __neg__(self) -> "NovikovSeries":
        return NovikovSeries(self.kappa, self.min_deg,
                             tuple(-c for c in self.coeffs), self.top)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + (-other)

    def __mul__(self, other: "NovikovSeries") -> "NovikovSeries":
        self._check(other)
        # knowledge bound: unknown tail of one factor times leading known
        # degree of the other
        top = min(self.top + other.min_deg, other.top + self.min_deg)
        terms: dict[int, GroupAlgebraElem] = {}
        kappa = self.kappa
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            d1 = self.min_deg + i
            if d1 + other.min_deg >= top:
                break
            for j, b in enumerate(other.coeffs):
                d = d1 + other.min_deg + j
                if d >= top:
                    break
                if b.is_zero():
                    continue
                c = a * b.apply_aut(kappa, d1)
                terms[d] = terms[d] + c if d in terms else c
        return NovikovSeries.from_map(kappa, terms, top)

    def shift(self, k: int) -> "NovikovSeries":
        """Left multiplication by tau^k: twists coefficients by kappa^k."""
        return NovikovSeries(self.kappa, self.min_deg + k,
                             tuple(c.apply_aut(self.kappa, k) for c in self.coeffs),
                             self.top + k)

    def truncate(self, top: int) -> "NovikovSeries":
        if top >= self.top:
            return self
        keep = max(0, top - self.min_deg)
        return NovikovSeries(self.kappa, min(self.min_deg, top),
                             self.coeffs[:keep], top)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality of all coefficients on the common knowledge window."""
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        if self.kappa != other.kappa:
            return False
        top = min(self.top, other.top)
        lo = min(self.min_deg, other.min_deg)
        for d in range(lo, top):
            if self.coefficient(d) != other.coefficient(d):
                return False
        return True

    __hash__ = None  # window-relative equality is not hashable

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            d = self.min_deg + i
            if d == 0:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})*tau^{d}" if d != 1 else f"({c})*tau")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(tau^{self.top})"

    __repr__ = __str__


class WittVector(NovikovSeries):
    """A unit series 1 + a_1 tau + a_2 tau^2 + ... (constant term exactly 1)."""

    def __init__(self, kappa, min_deg, coeffs, top=None):
        super().__init__(kappa, min_deg, coeffs, top)
        if self.min_deg != 0 or self.coefficient(0) != GroupAlgebraElem.one(self.group):
            raise SeriesError("a Witt vector must start with constant term 1")

    @classmethod
    def from_series(cls, s: NovikovSeries) -> "WittVector":
        return cls(s.kappa, s.min_deg, s.coeffs, s.top)


def ns_invert(a: NovikovSeries) -> NovikovSeries:
    """Two-sided inverse to the available precision.

    With a = sum_i c_i tau^(d+i) and u = c_0^-1, the tau^n coefficient of
    b a = 1 gives b = sum_n b_n tau^(n-d) one coefficient at a time, b_0 =
    kappa^-d(u) and b_n = -kappa^(n-d)(u) sum_(j<n) b_j kappa^(j-d)(c_(n-j)):
    O(K^2) products by a's own coefficients and one :func:`gr_inverse`, on
    the window [-d, a.top - 2d).  A non-unit leading coefficient raises: such
    a series may still be invertible in the Novikov ring, but not by this
    route.
    """
    d, lead = a.leading()
    u = gr_inverse(lead)
    if u is None:
        raise SeriesError(f"leading coefficient ({lead}) is not a unit")
    kappa, c = a.kappa, a.coeffs
    b = [u.apply_aut(kappa, -d)]
    for n in range(1, len(c)):
        acc = GroupAlgebraElem.zero(a.group)
        for j in range(n):
            if b[j] and c[n - j]:
                acc = acc - b[j] * c[n - j].apply_aut(kappa, j - d)
        b.append(acc * u.apply_aut(kappa, n - d))
    return NovikovSeries(kappa, -d, tuple(b), a.top - 2 * d)


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
            entries[k] = orbit_project(acc.scale(Fraction(1, k * period)), kappa)
    return LogClass(kappa, period, top, entries)

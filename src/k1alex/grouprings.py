"""Finite abelian groups, distinguished automorphisms, and rational group algebras.

A :class:`FiniteAbelianGroup` is a product Z/d_1 x ... x Z/d_r with a
divisibility chain d_1 | d_2 | ... | d_r; elements are exponent tuples.  A
:class:`GroupAut` is an integer matrix acting on exponent columns modulo the
divisors.  :class:`GroupAlgebraElem` is a finitely supported map from group
elements to exact rationals, i.e. an element of Q[H].

Q[H] is a product of cyclotomic fields, Q[H] = prod Q(zeta_m), with one
factor per Galois orbit of characters of H (Perlis-Walker): a character chi
of order m sends a to chi(a) in Q[x]/Phi_m.  Every unit test and inverse in
Q[H] goes through this one character transform (:func:`character_images`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest
from math import gcd, prod
from typing import Iterator, Mapping, Sequence

from .snf import smith_normal_form

Element = tuple[int, ...]


class GroupError(ValueError):
    """Raised for malformed groups, automorphisms, or mismatched operands."""


class FiniteAbelianGroup:
    """Z/d_1 + ... + Z/d_r with d_1 | d_2 | ... | d_r, each d_i >= 2.

    The trivial group is the empty product (r = 0, order 1).
    """

    __slots__ = ("divisors", "order")

    def __init__(self, divisors: Sequence[int] = ()):
        divisors = tuple(int(d) for d in divisors)
        for d in divisors:
            if d < 2:
                raise GroupError(f"elementary divisor must be >= 2, got {d}")
        for a, b in zip(divisors, divisors[1:]):
            if b % a != 0:
                raise GroupError(f"divisibility chain broken: {a} does not divide {b}")
        self.divisors = divisors
        self.order = prod(divisors)

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def identity(self) -> Element:
        return (0,) * self.rank

    def normalize(self, e: Sequence[int]) -> Element:
        if len(e) != self.rank:
            raise GroupError(f"element length {len(e)} != rank {self.rank}")
        return tuple(x % d for x, d in zip(e, self.divisors))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.divisors))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % d for x, d in zip(a, self.divisors))

    def scale(self, a: Element, n: int) -> Element:
        return tuple((n * x) % d for x, d in zip(a, self.divisors))

    def elements(self) -> Iterator[Element]:
        return product(*(range(d) for d in self.divisors))

    def element_order(self, a: Element) -> int:
        n, cur = 1, self.normalize(a)
        while any(cur):
            cur = self.add(cur, a)
            n += 1
        return n

    def generator_basis(self) -> list[Element]:
        """Standard generators e_1, ..., e_r."""
        return [tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank)]

    def describe(self) -> str:
        if not self.divisors:
            return "trivial"
        return " + ".join(f"Z/{d}" for d in self.divisors)

    def element_str(self, e: Element) -> str:
        names = "xyzuvw"
        parts = []
        for i, a in enumerate(e):
            if a == 0:
                continue
            name = names[i] if i < len(names) else f"g{i + 1}"
            parts.append(name if a == 1 else f"{name}^{a}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.divisors == other.divisors

    def __hash__(self) -> int:
        return hash(self.divisors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.divisors)})"


class GroupAut:
    """Automorphism of a finite abelian group given by an integer matrix.

    The matrix acts on exponent columns: (kappa e)_i = sum_j M[i][j] e_j mod d_i.
    Construction checks that the map is well defined on the product of cyclic
    factors and bijective, and caches the multiplicative order.  H is
    Z^r / (d_1 Z + ... + d_r Z) and finite, so kappa is bijective iff onto,
    iff the columns of M and diag(d) span Z^r, iff every Smith normal form
    divisor of the r x 2r matrix [M | diag(d)] is 1.
    """

    __slots__ = ("group", "matrix", "_order", "_perms")

    def __init__(self, group: FiniteAbelianGroup, matrix: Sequence[Sequence[int]]):
        r = group.rank
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        if len(matrix) != r or any(len(row) != r for row in matrix):
            raise GroupError(f"automorphism matrix must be {r}x{r}")
        self.group = group
        self.matrix = matrix
        d = group.divisors
        for i in range(r):
            for j in range(r):
                # column j is killed by d_j, so its image must be too
                if (matrix[i][j] * d[j]) % d[i] != 0:
                    raise GroupError("matrix does not define a map on the group")
        self._order: int | None = None
        self._perms: dict[int, dict[Element, Element]] = {}
        snf = smith_normal_form([list(row) + [d[i] if j == i else 0 for j in range(r)]
                                 for i, row in enumerate(matrix)])
        if any(x != 1 for x in snf.divisors):
            raise GroupError("matrix is not bijective on the group")

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "GroupAut":
        r = group.rank
        return cls(group, [[1 if i == j else 0 for j in range(r)] for i in range(r)])

    def apply(self, e: Element, power: int = 1) -> Element:
        """kappa^power(e), iterating kappa on the one element: a single
        element needs no table, so no group order is too large here."""
        for _ in range(power % self.order):
            e = self._apply_once(e)
        return e

    def _table(self, power: int) -> dict[Element, Element]:
        """Tabulated kappa^power, through which Q[H] elements are acted on
        at any group order (:meth:`GroupAlgebraElem.apply_aut`); a single
        element takes no table (:meth:`apply`).

        kappa is tabulated once; kappa^p is the table of kappa^(p-1) composed
        with it, filling the missing lower powers upward from the highest
        cached one, so any request order costs |H| applications in all.
        """
        perms = self._perms
        table = perms.get(power)
        if table is None:
            if 1 not in perms:
                perms[1] = {e: self._apply_once(e) for e in self.group.elements()}
            once = perms[1]
            p = max(q for q in perms if q <= power)
            table = perms[p]
            for q in range(p + 1, power + 1):
                table = perms[q] = {e: once[v] for e, v in table.items()}
        return table

    @property
    def order(self) -> int:
        if self._order is None:
            basis = self.group.generator_basis()
            target = basis
            cur = [self._apply_once(e) for e in basis]
            n = 1
            while cur != target:
                cur = [self._apply_once(e) for e in cur]
                n += 1
                if n > self.group.order ** self.group.rank + 1:
                    raise GroupError("automorphism order did not terminate")
            self._order = n
        return self._order

    def _apply_once(self, e: Element) -> Element:
        g = self.group
        return tuple(
            sum(self.matrix[i][j] * e[j] for j in range(g.rank)) % g.divisors[i]
            for i in range(g.rank)
        )

    def orbit(self, e: Element) -> list[Element]:
        out = [e]
        cur = self._apply_once(e)
        while cur != e:
            out.append(cur)
            cur = self._apply_once(cur)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAut) or self.group != other.group:
            return False
        return all(self._apply_once(e) == other._apply_once(e)
                   for e in self.group.generator_basis())

    def __repr__(self) -> str:
        return f"GroupAut({self.group.describe()}, {[list(r) for r in self.matrix]})"


class GroupAlgebraElem:
    """Exact-rational linear combination of elements of a finite abelian group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteAbelianGroup,
                 coeffs: Mapping[Element, Fraction | int] | None = None):
        self.group = group
        clean: dict[Element, Fraction] = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                clean[group.normalize(e)] = c
        self.coeffs = clean

    @classmethod
    def _reduced(cls, group: FiniteAbelianGroup,
                 coeffs: Mapping[Element, Fraction]) -> "GroupAlgebraElem":
        """Internal constructor for normalized keys and Fraction values:
        only drops the zero coefficients."""
        out = cls.__new__(cls)
        out.group = group
        out.coeffs = {e: c for e, c in coeffs.items() if c}
        return out

    @classmethod
    def zero(cls, group: FiniteAbelianGroup) -> "GroupAlgebraElem":
        return cls(group)

    @classmethod
    def one(cls, group: FiniteAbelianGroup) -> "GroupAlgebraElem":
        return cls(group, {group.identity(): Fraction(1)})

    @classmethod
    def of(cls, group: FiniteAbelianGroup, e: Element,
           coeff: Fraction | int = 1) -> "GroupAlgebraElem":
        return cls(group, {e: Fraction(coeff)})

    def _check(self, other: "GroupAlgebraElem") -> None:
        if self.group != other.group:
            raise GroupError("operands live in different group algebras")

    def __add__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return GroupAlgebraElem._reduced(self.group, out)

    def __neg__(self) -> "GroupAlgebraElem":
        return GroupAlgebraElem._reduced(self.group, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        self._check(other)
        g = self.group
        out: dict[Element, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = g.add(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return GroupAlgebraElem._reduced(g, out)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "GroupAlgebraElem":
        c = Fraction(c)
        return GroupAlgebraElem._reduced(self.group, {e: v * c for e, v in self.coeffs.items()})

    def apply_aut(self, kappa: GroupAut, power: int = 1) -> "GroupAlgebraElem":
        if kappa.group != self.group:
            raise GroupError("automorphism acts on a different group")
        power %= kappa.order
        if power == 0 or not self.coeffs:
            return self
        table = kappa._table(power)
        return GroupAlgebraElem._reduced(self.group, {table[e]: c for e, c in self.coeffs.items()})

    def augmentation(self) -> Fraction:
        """Coefficient sum: the pushforward along H -> 1."""
        return sum(self.coeffs.values(), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> set[Element]:
        return set(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupAlgebraElem)
                and self.group == other.group and self.coeffs == other.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self) -> int:
        return hash((self.group, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            name = self.group.element_str(e)
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m, constant term first: x^m - 1 over Phi_d for each proper d | m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divmod_poly(poly, cyclotomic(d))[0]
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def _traces(m: int) -> tuple[int, ...]:
    """Tr(zeta_m^s) over Q, s = 0 .. m-1: sum_(d | m) Tr(zeta_d^s) = m [s = 0]."""
    return tuple((m if s == 0 else 0)
                 - sum(_traces(d)[s % d] for d in range(1, m) if m % d == 0)
                 for s in range(m))


def _divmod_poly(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder over Q, coefficients constant term first; the
    remainder carries no trailing zeros."""
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


def _field_inverse(c: list[Fraction], f: Sequence[int]) -> list[Fraction]:
    """c^-1 in Q[x]/f, for f irreducible and c nonzero of lower degree, by
    the extended Euclidean algorithm: s * c = r mod f for every remainder r,
    and the last one is a nonzero constant."""
    r0, r1, s0, s1 = f, c, [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _divmod_poly(r0, r1)
        qs = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                qs[i + j] += x * y
        r0, r1, s0, s1 = r1, r, s1, [x - y for x, y in zip_longest(s0, qs, fillvalue=0)]
    return [x / r1[0] for x in s1]


@lru_cache(maxsize=None)
def character_orbits(group: FiniteAbelianGroup) -> tuple[tuple[int, Element], ...]:
    """One character per Galois orbit, as (m, u) with chi(h) = zeta_m^(u . h).

    H's characters are chi_w(h) = prod_i zeta_(d_i)^(w_i h_i), w in H, and
    zeta -> zeta^k sends chi_w to chi_(k w): an orbit is the generators of a
    cyclic subgroup <w> of order m and gives the factor Q(zeta_m) of Q[H].
    """
    seen: set[Element] = set()
    out = []
    for w in group.elements():
        if w not in seen:
            m = group.element_order(w)
            seen.update(group.scale(w, k) for k in range(1, m + 1) if gcd(k, m) == 1)
            out.append((m, tuple(x * m // d for x, d in zip(w, group.divisors))))
    return tuple(out)


def character_images(a: GroupAlgebraElem) -> list[list[Fraction]]:
    """chi(a) in Q[x]/Phi_m for each character of :func:`character_orbits`,
    reduced below degree phi(m); the empty list is zero."""
    out = []
    for m, u in character_orbits(a.group):
        vec = [Fraction(0)] * m
        for e, c in a.coeffs.items():
            vec[sum(x * y for x, y in zip(u, e)) % m] += c
        out.append(_divmod_poly(vec, cyclotomic(m))[1])
    return out


def gr_is_unit(a: GroupAlgebraElem) -> bool:
    """Unit test in Q[H]: chi(a) != 0 on every orbit, checked by the cached
    :func:`gr_inverse`, since a unit pivot candidate's inverse is needed next."""
    return len(a.coeffs) == 1 or gr_inverse(a) is not None


_INVERSE_CACHE: dict = {}


def gr_inverse(a: GroupAlgebraElem) -> GroupAlgebraElem | None:
    """Exact inverse in Q[H], or None if ``a`` is not a unit.

    chi(a) is inverted in each factor Q[x]/Phi_m and carried back by Fourier
    inversion, b_h = (1/|H|) sum_orbits Tr(chi(a)^-1 * zeta_m^-(u . h)).
    Results are memoized: elimination pivots and their leading coefficients
    recur heavily across a run.
    """
    if not a.coeffs:
        return None
    if len(a.coeffs) == 1:
        ((e, c),) = a.coeffs.items()
        return GroupAlgebraElem.of(a.group, a.group.neg(e), 1 / c)
    key = (a.group.divisors, frozenset(a.coeffs.items()))
    if key in _INVERSE_CACHE:
        return _INVERSE_CACHE[key]
    group = a.group
    images = character_images(a)
    result = None
    if all(images):
        els = list(group.elements())
        b = [Fraction(0)] * len(els)
        for (m, u), image in zip(character_orbits(group), images):
            c, tr = _field_inverse(image, cyclotomic(m)), _traces(m)
            # Tr(c * zeta^-j) = sum_k c_k Tr(zeta^(k - j))
            row = [sum(ck * tr[(k - j) % m] for k, ck in enumerate(c)) for j in range(m)]
            for i, h in enumerate(els):
                b[i] += row[sum(x * y for x, y in zip(u, h)) % m]
        result = GroupAlgebraElem._reduced(group, {h: x / group.order for h, x in zip(els, b)})
    if len(_INVERSE_CACHE) < 4096:
        _INVERSE_CACHE[key] = result
    return result


class OrbitClass:
    """Class of a group-algebra element in the quotient A / {a - kappa(a)}.

    Coefficients are accumulated over kappa-orbits and stored on the
    lexicographically least member of each orbit, giving a canonical form.
    """

    __slots__ = ("group", "kappa", "coeffs")

    def __init__(self, group: FiniteAbelianGroup, kappa: GroupAut,
                 coeffs: Mapping[Element, Fraction]):
        self.group = group
        self.kappa = kappa
        self.coeffs = {e: Fraction(c) for e, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def augmentation(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OrbitClass) and self.group == other.group
                and self.coeffs == other.coeffs)

    def __add__(self, other: "OrbitClass") -> "OrbitClass":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return OrbitClass(self.group, self.kappa, out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*[{self.group.element_str(e)}]" for e, c in sorted(self.coeffs.items()))

    __repr__ = __str__


def orbit_project(a: GroupAlgebraElem, kappa: GroupAut) -> OrbitClass:
    """Project onto the kappa-coinvariants A / {a - kappa(a)}."""
    if kappa.group != a.group:
        raise GroupError("automorphism acts on a different group")
    out: dict[Element, Fraction] = {}
    for e, c in a.coeffs.items():
        rep = min(kappa.orbit(e))
        out[rep] = out.get(rep, Fraction(0)) + c
    return OrbitClass(a.group, kappa, out)


@dataclass(frozen=True)
class MetaRep:
    """Representation data for a map to H semidirect Z.

    ``images[i]`` is the image of x_{i+1} in H; the meridian maps to the
    generator of the Z factor, which acts on H through ``kappa``.  ``cover_n``
    records the grading period: kappa**cover_n must be the identity, though
    the automorphism order may be a proper divisor of it.
    """

    group: FiniteAbelianGroup
    kappa: GroupAut
    images: tuple[Element, ...]
    cover_n: int
    free_rank: int = 0

    def __post_init__(self):
        if self.cover_n < 1 or self.cover_n % self.kappa.order != 0:
            raise GroupError(
                f"cover degree {self.cover_n} incompatible with automorphism "
                f"order {self.kappa.order}")

    def image_of_exponents(self, exps: Sequence[int]) -> Element:
        """Image of a word with the given x_i exponent sums (H is abelian)."""
        out = self.group.identity()
        for img, n in zip(self.images, exps):
            if n:
                out = self.group.add(out, self.group.scale(img, n))
        return out

    @property
    def rank(self) -> int:
        return len(self.images)

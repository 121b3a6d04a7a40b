"""Finite abelian groups, distinguished automorphisms, and rational group algebras.

A :class:`FiniteAbelianGroup` is a product Z/d_1 x ... x Z/d_r with a
divisibility chain d_1 | d_2 | ... | d_r; elements are exponent tuples.  A
:class:`GroupAut` is an integer matrix acting on exponent columns modulo the
divisors; every power of it acts on Q[H] through its one table.  A
:class:`GroupAlgebraElem` is an element of Q[H], stored as integer
numerators on group elements over one positive denominator, in lowest
terms; all of its arithmetic runs on these integers, and ``coeffs`` is a
``Fraction`` view for printing and projections.

A product in Q[H] takes one of two exact routes, whichever a measured cost
model (:meth:`GroupAlgebraElem.__mul__`) finds cheaper: the schoolbook route
moves the larger operand's keys by each term of the smaller one
(:func:`translate`), and the packed route is one product of two ints
(Kronecker substitution, :func:`~k1alex.snf.kronecker_product`).

Q[H] is a product of cyclotomic fields, Q[H] = prod Q(zeta_m), with one
factor per Galois orbit of characters of H (Perlis-Walker).  Every unit test
and inverse in Q[H] goes through one character transform of the numerators
into Z[x]/Phi_m (:func:`character_images`): :func:`gr_inverse` inverts each
image there up to an integer (:func:`~k1alex.snf.inverse_mod`) and sums the
Fourier back-transform as ints over one new denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import add, mod, mul
from typing import Iterator, Mapping, Sequence

from .snf import (character_transform, cyclotomic, inverse_mod, kronecker_product,
                  kronecker_slots, slot_width, smith_normal_form)

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

    kappa is tabulated at most once (:meth:`_table`), and only for Q[H]
    elements and orbits; single elements are moved without a table, so no
    group order is too large for :meth:`apply`, :attr:`order` or ``==``.
    """

    __slots__ = ("group", "matrix", "_order", "_perm", "_reps")

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
        self._perm: dict[Element, Element] | None = None
        self._reps: dict[Element, Element] | None = None
        snf = smith_normal_form([list(row) + [d[i] if j == i else 0 for j in range(r)]
                                 for i, row in enumerate(matrix)])
        if any(x != 1 for x in snf.divisors):
            raise GroupError("matrix is not bijective on the group")

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "GroupAut":
        r = group.rank
        return cls(group, [[1 if i == j else 0 for j in range(r)] for i in range(r)])

    def apply(self, e: Element, power: int = 1) -> Element:
        """kappa^power(e), iterating kappa on the one element."""
        for _ in range(power % self.order):
            e = self._apply_once(e)
        return e

    def _table(self) -> dict[Element, Element]:
        """kappa as a table, built on first use."""
        if self._perm is None:
            # each image coordinate as one list in elements() order
            g = self.group
            coords = [_character_index(g.divisors, row, d)
                      for row, d in zip(self.matrix, g.divisors)]
            self._perm = dict(zip(g.elements(), list(zip(*coords)) or [()]))
        return self._perm

    @property
    def order(self) -> int:
        """ord kappa, iterated on the generators; it is finite, since kappa
        is bijective (checked at construction) on the finite H."""
        if self._order is None:
            basis = self.group.generator_basis()
            cur = [self._apply_once(e) for e in basis]
            n = 1
            while cur != basis:
                cur = [self._apply_once(e) for e in cur]
                n += 1
            self._order = n
        return self._order

    def _apply_once(self, e: Element) -> Element:
        g = self.group
        return tuple(
            sum(self.matrix[i][j] * e[j] for j in range(g.rank)) % g.divisors[i]
            for i in range(g.rank)
        )

    def _orbit_reps(self) -> dict[Element, Element]:
        """e -> the least element of its kappa-orbit, tabulated once from
        kappa's table.  Elements are visited in increasing order, so the
        first one met on an orbit is its least."""
        if self._reps is None:
            once, reps = self._table(), {}
            for e in self.group.elements():
                if e not in reps:
                    cur = e
                    while cur not in reps:
                        reps[cur] = e
                        cur = once[cur]
            self._reps = reps
        return self._reps

    def orbit(self, e: Element) -> list[Element]:
        out = [e]
        cur = self._apply_once(e)
        while cur != e:
            out.append(cur)
            cur = self._apply_once(cur)
        return out

    def __eq__(self, other: object) -> bool:
        if self is other:  # every series of a relation matrix shares one kappa
            return True
        if not isinstance(other, GroupAut) or self.group != other.group:
            return False
        return all(self._apply_once(e) == other._apply_once(e)
                   for e in self.group.generator_basis())

    def __repr__(self) -> str:
        return f"GroupAut({self.group.describe()}, {[list(r) for r in self.matrix]})"


class GroupAlgebraElem:
    """Element of Q[H]: integer numerators ``nums`` over one ``den`` > 0, in
    lowest terms (no zero numerator, gcd(den, *nums) == 1), so equal
    elements have equal fields."""

    __slots__ = ("group", "den", "nums")

    def __init__(self, group: FiniteAbelianGroup,
                 coeffs: Mapping[Element, Fraction | int] | None = None):
        summed: dict[Element, Fraction] = {}
        for e, c in (coeffs or {}).items():
            e = group.normalize(e)
            summed[e] = summed.get(e, 0) + Fraction(c)
        # the lcm of reduced denominators is coprime to the numerators over it
        den = lcm(*(c.denominator for c in summed.values() if c))
        self.group, self.den = group, den
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in summed.items() if c}

    @classmethod
    def _make(cls, group: FiniteAbelianGroup, den: int, nums: Mapping[Element, int],
              reduced: bool = False) -> "GroupAlgebraElem":
        """Internal constructor for normalized keys and den > 0: drops zero
        numerators and divides out the gcd, unless ``nums`` is ``reduced``."""
        if not reduced:
            nums = {e: n for e, n in nums.items() if n}
            g = gcd(den, *nums.values()) if den > 1 else 1
            if g > 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        out = cls.__new__(cls)
        out.group, out.den, out.nums = group, den, nums
        return out

    @property
    def coeffs(self) -> dict[Element, Fraction]:
        """The coefficients as ``Fraction``s, a fresh dict on every read."""
        return {e: Fraction(n, self.den) for e, n in self.nums.items()}

    @classmethod
    def zero(cls, group: FiniteAbelianGroup) -> "GroupAlgebraElem":
        return cls(group)

    @classmethod
    def one(cls, group: FiniteAbelianGroup) -> "GroupAlgebraElem":
        return cls(group, {group.identity(): 1})

    @classmethod
    def of(cls, group: FiniteAbelianGroup, e: Element,
           coeff: Fraction | int = 1) -> "GroupAlgebraElem":
        return cls(group, {e: coeff})

    def _check(self, other: object) -> bool:
        """False for a non-Q[H] operand; raises for another group's."""
        if not isinstance(other, GroupAlgebraElem):
            return False
        if self.group is not other.group and self.group != other.group:
            raise GroupError("operands live in different group algebras")
        return True

    def __add__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        if not self._check(other):
            return NotImplemented
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {e: n * s for e, n in self.nums.items()}
        for e, n in other.nums.items():
            out[e] = out.get(e, 0) + n * t
        return GroupAlgebraElem._make(self.group, den, out)

    def __neg__(self) -> "GroupAlgebraElem":
        return GroupAlgebraElem._make(self.group, self.den, {e: -n for e, n in self.nums.items()},
                                      reduced=True)

    def __sub__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        return self + (-other) if self._check(other) else NotImplemented

    def __mul__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        """Exact product by the cheaper route for the numerators.  Measured
        under CPython 3.11 (2-vCPU x86), the schoolbook route costs about
        0.3 us per term pair, m n with m <= n the term counts; the packed
        one (:func:`_packed_product`) as much per slot packed or read,
        m + n + |H|, plus a product of two S w-byte ints, S = prod (2 d_i - 1)
        slots of w bytes (:func:`~k1alex.snf.slot_width`), which grows like
        Karatsuba's (S w)^1.585 and took 3 ms at S w = 29 kB.  So products
        with m n - m - n - |H| >= (S w)^1.585 / 1600 are packed: 16 x 841
        on (Z/29)^2 with 30-bit numerators, not 1 x 841 (0.27 ms schoolbook,
        1.5 ms packed).  A product by +-g over den 1 is in lowest terms.
        """
        if not self._check(other):
            return NotImplemented
        small, big = (self, other) if len(self.nums) <= len(other.nums) else (other, self)
        divisors, m, n = self.group.divisors, len(small.nums), len(big.nums)
        spare = m * n - m - n - self.group.order
        if spare >= 0 and 1600 * spare >= (kronecker_slots(divisors)[1]
                                           * slot_width(small.nums, big.nums)) ** 1.585:
            return _packed_product(self, other)
        if not m:
            return small
        terms = iter(small.nums.items())
        e, c = next(terms)
        moved = translate(big.nums, e, divisors)
        if m == 1 and small.den == 1 and c in (1, -1):  # big's lowest terms hold
            return GroupAlgebraElem._make(self.group, big.den, moved if c == 1 else
                                          {k: -v for k, v in moved.items()}, reduced=True)
        out = {k: c * v for k, v in moved.items()}
        for e, c in terms:
            for k, v in translate(big.nums, e, divisors).items():
                out[k] = out.get(k, 0) + c * v
        return GroupAlgebraElem._make(self.group, self.den * other.den, out)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "GroupAlgebraElem":
        c = Fraction(c)
        return GroupAlgebraElem._make(self.group, self.den * c.denominator,
                                      {e: n * c.numerator for e, n in self.nums.items()})

    def apply_aut(self, kappa: GroupAut, power: int = 1) -> "GroupAlgebraElem":
        """kappa^power(self): the keys relabeled (power mod ord kappa) times
        through kappa's one table, since an element has few keys and a table
        of kappa^power is not worth its |H| entries."""
        if kappa.group != self.group:
            raise GroupError("automorphism acts on a different group")
        power %= kappa.order
        if power == 0 or not self.nums:
            return self
        table, nums = kappa._table(), self.nums
        for _ in range(power):
            nums = {table[e]: n for e, n in nums.items()}
        # a relabeling keeps lowest terms
        return GroupAlgebraElem._make(self.group, self.den, nums, reduced=True)

    def augmentation(self) -> Fraction:
        """Coefficient sum: the pushforward along H -> 1."""
        return Fraction(sum(self.nums.values()), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def support(self) -> set[Element]:
        return set(self.nums)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupAlgebraElem) and self.group == other.group
                and self.den == other.den and self.nums == other.nums)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __hash__(self) -> int:
        return hash((self.group, self.den, frozenset(self.nums.items())))

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
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
def _shift_lists(divisors: tuple[int, ...]) -> tuple[list, list | None]:
    """H's elements twice over, entry k + s being k + s mod d for k, s < d:
    1-tuples on Z/d; rows (x, y) and column indices on Z/d_1 x Z/d_2."""
    if len(divisors) == 1:
        return [(x,) for x in range(divisors[0])] * 2, None
    d1, d2 = divisors
    return [[(x, y) for y in range(d2)] for x in range(d1)] * 2, [*range(d2)] * 2


def translate(nums: Mapping[tuple[int, ...], int], e: tuple[int, ...],
              divisors: tuple[int, ...]) -> Mapping[tuple[int, ...], int]:
    """``nums`` times the group element e: each key k moved to k + e, read
    on rank 1 and 2 from one shift list per factor (:func:`_shift_lists`) at
    offset e_i, so no tuple is built or reduced; rank 3 and up adds per key.
    An identity e returns ``nums`` itself."""
    if not any(e):
        return nums
    if len(divisors) > 2:
        return {tuple(map(mod, map(add, k, e), divisors)): v for k, v in nums.items()}
    rows, cols = _shift_lists(divisors)
    if cols is None:
        (s,) = e
        return {rows[x + s]: v for (x,), v in nums.items()}
    s, t = e
    return {rows[x + s][cols[y + t]]: v for (x, y), v in nums.items()}


def _packed_product(a: GroupAlgebraElem, b: GroupAlgebraElem) -> GroupAlgebraElem:
    """a * b as one Kronecker product of the numerators, over a.den * b.den."""
    return GroupAlgebraElem._make(a.group, a.den * b.den,
                                  kronecker_product(a.group.divisors, a.nums, b.nums))


@lru_cache(maxsize=None)
def _traces(m: int) -> tuple[int, ...]:
    """Tr(zeta_m^s) over Q, s = 0 .. m-1: sum_(d | m) Tr(zeta_d^s) = m [s = 0]."""
    return tuple((m if s == 0 else 0)
                 - sum(_traces(d)[s % d] for d in range(1, m) if m % d == 0)
                 for s in range(m))


@lru_cache(maxsize=None)
def character_orbits(group: FiniteAbelianGroup) -> tuple[tuple[int, Element], ...]:
    """One character per Galois orbit, as (m, u) with chi(h) = zeta_m^(u . h):
    H's characters are chi_w(h) = prod_i zeta_(d_i)^(w_i h_i), w in H, and
    zeta -> zeta^k sends chi_w to chi_(k w), so an orbit is the generators of
    a cyclic subgroup <w> of order m and gives the factor Q(zeta_m) of Q[H].
    """
    seen: set[Element] = set()
    out = []
    for w in group.elements():
        if w not in seen:
            m = group.element_order(w)
            seen.update(group.scale(w, k) for k in range(1, m + 1) if gcd(k, m) == 1)
            out.append((m, tuple(x * m // d for x, d in zip(w, group.divisors))))
    return tuple(out)


def character_images(a: GroupAlgebraElem) -> list[list[int]]:
    """chi(a.den * a) in Z[x]/Phi_m, reduced below degree phi(m), for each
    character of :func:`character_orbits`; the empty list is zero."""
    return character_transform(a.group.divisors, character_orbits(a.group), a.nums)


def _character_index(divisors: Sequence[int], u: Element, m: int) -> list[int]:
    """u . h mod m for every h, in ``elements()`` order."""
    idx = [0]
    for x, d in zip(u, divisors):
        idx = [(i + x * k) % m for i in idx for k in range(d)]
    return idx


def gr_is_unit(a: GroupAlgebraElem) -> bool:
    """Unit test in Q[H]: chi(a) != 0 on every orbit, or the verdict cached
    by :func:`gr_inverse`.  No inverse is formed, since most pivot candidates
    never become pivots; a non-unit is cached as None, as gr_inverse would."""
    if len(a.nums) <= 1:
        return bool(a.nums)
    key = (a.group.divisors, frozenset(a.coeffs.items()))
    if key in _INVERSE_CACHE:
        return _INVERSE_CACHE[key] is not None
    if all(character_images(a)):
        return True
    if len(_INVERSE_CACHE) < 4096:
        _INVERSE_CACHE[key] = None
    return False


_INVERSE_CACHE: dict = {}


def gr_inverse(a: GroupAlgebraElem) -> GroupAlgebraElem | None:
    """Exact inverse in Q[H], or None if ``a`` is not a unit.

    With a = A / den and A = a.nums integral, each image chi(A) in
    Z[x]/Phi_m is inverted up to an integer, s * chi(A) = r mod Phi_m
    (:func:`~k1alex.snf.inverse_mod`), so chi(a)^-1 = den * s / r.  Fourier
    inversion, b_h = (1/|H|) sum_orbits Tr(chi(a)^-1 * zeta_m^-(u . h)),
    then sums the integer rows (L / r) Tr(s * zeta_m^-j), with L the lcm of
    the r: the inverse has numerators den * sum over the denominator L |H|.
    Results are memoized, since pivot leads recur across a run.
    """
    if not a.nums:
        return None
    if len(a.nums) == 1:
        ((e, n),) = a.nums.items()
        return GroupAlgebraElem.of(a.group, a.group.neg(e), Fraction(a.den, n))
    key = (a.group.divisors, frozenset(a.coeffs.items()))
    if key in _INVERSE_CACHE:
        return _INVERSE_CACHE[key]
    group = a.group
    images = character_images(a)
    result = None
    if all(images):
        orbits = character_orbits(group)
        inverses = [inverse_mod(c, cyclotomic(m)) for (m, _), c in zip(orbits, images)]
        big = lcm(*(r for _, r in inverses))
        b = [0] * group.order
        for (m, u), (s, r) in zip(orbits, inverses):
            tr, scale = _traces(m), big // r
            # Tr(s * zeta^-j) = sum_k s_k Tr(zeta^(k - j)), tr rotated by j
            row = [scale * sum(map(mul, s, tr[-j:] + tr[:-j])) for j in range(m)]
            b = [x + row[j] for x, j in zip(b, _character_index(group.divisors, u, m))]
        result = GroupAlgebraElem._make(group, big * group.order,
                                        {h: x * a.den for h, x in zip(group.elements(), b)})
    if len(_INVERSE_CACHE) < 4096:
        _INVERSE_CACHE[key] = result
    return result


class OrbitClass:
    """Class of a group-algebra element in the quotient A / {a - kappa(a)}.

    Coefficients are accumulated over kappa-orbits and stored on the
    lexicographically least member of each orbit, giving a canonical form.
    Only keys not in normal form are normalized.  Each orbit's sum is
    divided by ``den``, so integer numerators summed on ints make one
    Fraction per orbit.
    """

    __slots__ = ("group", "kappa", "coeffs")

    def __init__(self, group: FiniteAbelianGroup, kappa: GroupAut,
                 coeffs: Mapping[Element, Fraction | int], den: int = 1):
        if kappa.group != group:
            raise GroupError("automorphism acts on a different group")
        self.group = group
        self.kappa = kappa
        reps = kappa._orbit_reps()
        out: dict[Element, Fraction | int] = {}
        for e, c in coeffs.items():
            rep = reps.get(e)
            if rep is None:  # the trivial group's rep is ()
                rep = reps[group.normalize(e)]
            out[rep] = out[rep] + c if rep in out else c
        self.coeffs = {e: Fraction(c, den) for e, c in out.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def augmentation(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OrbitClass) and self.kappa == other.kappa
                and self.coeffs == other.coeffs)

    def __add__(self, other: "OrbitClass") -> "OrbitClass":
        if self.kappa != other.kappa:
            raise GroupError("operands live in different coinvariant quotients")
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


def orbit_project(a: GroupAlgebraElem, kappa: GroupAut, divisor: int = 1) -> OrbitClass:
    """Project a / divisor (an int > 0) onto the kappa-coinvariants
    A / {a - kappa(a)}, summing a's integer numerators per orbit."""
    return OrbitClass(a.group, kappa, a.nums, a.den * divisor)


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

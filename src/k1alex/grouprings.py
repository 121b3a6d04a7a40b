"""Finite abelian groups, distinguished automorphisms, and rational group algebras.

A :class:`FiniteAbelianGroup` is a product Z/d_1 x ... x Z/d_r with a
divisibility chain d_1 | d_2 | ... | d_r; elements are exponent tuples.  A
:class:`GroupAut` is an integer matrix acting on exponent columns modulo the
divisors.  :class:`GroupAlgebraElem` is a finitely supported map from group
elements to exact rationals, i.e. an element of Q[H].

Q[H] is semisimple, so invertibility is decidable by the rational regular
representation: an element is a unit iff its |H| x |H| multiplication matrix
over Q is nonsingular.  No cyclotomic arithmetic is used anywhere.  All exact
linear algebra over Q in the library (inverses, ranks, unit tests) goes
through :func:`echelon` and :func:`solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

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
        order = 1
        for d in divisors:
            order *= d
        self.order = order

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
    factors and bijective, and caches the multiplicative order.
    """

    __slots__ = ("group", "matrix", "_order", "_perms")

    # permutation tables are only tabulated for groups up to this order
    _TABLE_LIMIT = 10_000

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
        if group.order <= self._TABLE_LIMIT:
            seen = {self._apply_once(e) for e in group.elements()}
            if len(seen) != group.order:
                raise GroupError("matrix is not bijective on the group")

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "GroupAut":
        r = group.rank
        return cls(group, [[1 if i == j else 0 for j in range(r)] for i in range(r)])

    def apply(self, e: Element, power: int = 1) -> Element:
        power %= self.order
        if power == 0:
            return e
        table = self._table(power)
        if table is not None:
            return table[e]
        return self._apply_power(e, power)

    def _table(self, power: int) -> dict[Element, Element] | None:
        """Tabulated kappa^power (small groups only)."""
        if self.group.order > self._TABLE_LIMIT:
            return None
        table = self._perms.get(power)
        if table is None:
            prev = self._perms.get(power - 1) if power > 1 else None
            if prev is None:
                table = {e: self._apply_power(e, power) for e in self.group.elements()}
            else:
                table = {e: self._apply_once(v) for e, v in prev.items()}
            self._perms[power] = table
        return table

    def _apply_power(self, e: Element, power: int) -> Element:
        for _ in range(power):
            e = self._apply_once(e)
        return e

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
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return GroupAlgebraElem(self.group, out)

    def __neg__(self) -> "GroupAlgebraElem":
        return GroupAlgebraElem(self.group, {e: -c for e, c in self.coeffs.items()})

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
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return GroupAlgebraElem(g, out)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "GroupAlgebraElem":
        c = Fraction(c)
        return GroupAlgebraElem(self.group, {e: v * c for e, v in self.coeffs.items()})

    def apply_aut(self, kappa: GroupAut, power: int = 1) -> "GroupAlgebraElem":
        if kappa.group != self.group:
            raise GroupError("automorphism acts on a different group")
        power %= kappa.order
        if power == 0 or not self.coeffs:
            return self
        table = kappa._table(power)
        if table is not None:
            out = GroupAlgebraElem.__new__(GroupAlgebraElem)
            out.group = self.group
            out.coeffs = {table[e]: c for e, c in self.coeffs.items()}
            return out
        return GroupAlgebraElem(
            self.group, {kappa.apply(e, power): c for e, c in self.coeffs.items()})

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


def regular_representation(a: GroupAlgebraElem) -> list[list[Fraction]]:
    """Matrix of left multiplication by ``a`` on Q[H] in the element basis."""
    els = list(a.group.elements())
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    M = [[Fraction(0)] * n for _ in range(n)]
    for e, c in a.coeffs.items():
        for j, h in enumerate(els):
            M[idx[a.group.add(e, h)]][j] += c
    return M


def echelon(A: list[list[Fraction]], ncols: int) -> list[int]:
    """Forward Gaussian elimination over Q, in place; returns the pivot columns.

    Pivots are searched in the first ``ncols`` columns only; row operations
    act on whole rows, so columns past ``ncols`` carry augmented right-hand
    sides along.  Afterwards row i leads at column ``pivots[i]`` and every
    row past ``len(pivots)`` is zero in the first ``ncols`` columns, so the
    rank is the number of pivots.  This is the only exact elimination loop
    in the library.
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


def solve(M: Sequence[Sequence[Fraction]],
          rhs_rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """Exact solution X of M X = B for square M, or None if M is singular.

    ``rhs_rows`` and the result are given by rows: row i of B is
    ``rhs_rows[i]``.  Forward elimination by :func:`echelon`, then
    back-substitution.
    """
    n = len(M)
    A = [list(row) + list(b) for row, b in zip(M, rhs_rows)]
    if len(echelon(A, n)) < n:
        return None
    X: list[list[Fraction]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = A[i]
        acc = row[n:]
        for j in range(i + 1, n):
            if row[j]:
                f = row[j]
                acc = [a - f * x for a, x in zip(acc, X[j])]
        inv = 1 / row[i]
        X[i] = [a * inv for a in acc]
    return X


def gr_is_unit(a: GroupAlgebraElem) -> bool:
    """Unit test in Q[H] via the regular representation.

    Valid because Q[H] is semisimple: a is invertible iff it is not a zero
    divisor iff its regular representation is nonsingular over Q.
    """
    if not a.coeffs:
        return False
    if len(a.coeffs) == 1:
        return True  # nonzero multiple of a group element
    return gr_inverse(a) is not None


_INVERSE_CACHE: dict = {}


def gr_inverse(a: GroupAlgebraElem) -> GroupAlgebraElem | None:
    """Exact inverse in Q[H], or None if ``a`` is not a unit.

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
    els = list(a.group.elements())
    identity = a.group.identity()
    x = solve(regular_representation(a), [[Fraction(int(e == identity))] for e in els])
    if x is None:
        result = None
    else:
        result = GroupAlgebraElem(a.group, {e: xe for e, (xe,) in zip(els, x) if xe})
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
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
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

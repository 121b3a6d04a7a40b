"""Exact integer algebra: the Smith normal form U * A * V = D, division
with remainder and the extended Euclidean algorithm in Z[x], the character
transform of Z[H] (:func:`character_transform`), and products in Z[H] by
Kronecker substitution (:func:`kronecker_product`).

The Smith normal form is the one exact elimination over Z: it reads the
finite group H off the cover homology (:mod:`k1alex.cover`) and decides that
an endomorphism of H is onto (:class:`~k1alex.grouprings.GroupAut`).  Every
factorization is re-verified exactly before it is returned.  The character
transform takes Z[H] to Z[x]/Phi_m, one cyclotomic ring per Galois orbit of
characters, each image reduced by one division by the monic Phi_m; the
polynomial routines invert its images (:func:`~k1alex.grouprings.gr_inverse`)
without leaving the integers.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import product, zip_longest
from math import gcd, prod
from operator import getitem
from typing import Mapping, Sequence

from .words import Record


class SNFError(RuntimeError):
    """Internal inconsistency while diagonalizing (should not happen)."""


class IntMatrix:
    """Dense integer matrix with explicit shape; entries are Python ints.

    A matrix with no rows takes its column count from ``ncols``; rows, when
    there are any, fix it themselves.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int = 0):
        rows = [list(map(int, r)) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else ncols

    @classmethod
    def _adopt(cls, rows: list[list[int]], ncols: int) -> "IntMatrix":
        """Internal constructor: adopts rows no one else holds, unchecked."""
        out = cls.__new__(cls)
        out.rows, out.nrows, out.ncols = rows, len(rows), ncols
        return out

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._adopt([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The exact product, summed over the nonzero entries of both factors."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        sparse = [[(j, y) for j, y in enumerate(row) if y] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for a, brow in zip(row, sparse):
                if a:
                    for j, y in brow:
                        acc[j] += a * y
            out.append(acc)
        return IntMatrix._adopt(out, other.ncols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._adopt([[self.rows[i][j] for i in range(self.nrows)]
                                 for j in range(self.ncols)], self.nrows)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.ncols == other.ncols)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows})"


class SNFResult(Record):
    """U @ A @ V = D with U, V unimodular and D diagonal, d_1 | d_2 | ...

    ``U_inv`` is the exact inverse of U, accumulated alongside it.
    """

    __slots__ = ("U", "U_inv", "D", "V")

    def __init__(self, U: IntMatrix, U_inv: IntMatrix, D: IntMatrix, V: IntMatrix):
        self.U, self.U_inv, self.D, self.V = U, U_inv, D, V

    @property
    def divisors(self) -> list[int]:
        return [self.D[i, i] for i in range(min(self.D.nrows, self.D.ncols))]


def smith_normal_form(A: IntMatrix | Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with deterministic minimal-pivot selection.

    The pivot at each stage is the entry of smallest nonzero absolute value
    in the remaining block, ties broken row-major.  The scan stops at the
    first entry of absolute value 1: no entry is smaller and a later one
    only ties, so the rule picks that entry anyway.  After a pivot of 1
    every quotient is exact, so the divisibility scan is skipped.  Every
    row operation on U is undone by the inverse column operation on U_inv,
    so U_inv stays the inverse of U; column updates skip the rows whose
    multiplier is zero.  The factorization and U @ U_inv = I are
    re-verified exactly before returning.
    """
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    m, n = A.nrows, A.ncols
    D = [r[:] for r in A.rows]
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
            for r in D:
                r[i], r[j] = r[j], r[i]
            for r in V:
                r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):  # row_i += c * row_j; on U_inv, col_j -= c * col_i
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in U_inv:
            if r[i]:
                r[j] -= c * r[i]

    def add_col(i, j, c):  # col_i += c * col_j
        for r in D:
            if r[j]:
                r[i] += c * r[j]
        for r in V:
            if r[j]:
                r[i] += c * r[j]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for r in U_inv:
            r[i] = -r[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = _least_entry(D, t)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if D[t][t] < 0:
            negate_row(t)
        piv = D[t][t]
        for i in range(t + 1, m):
            if D[i][t]:
                add_row(i, t, -(D[i][t] // piv))
        for j in range(t + 1, n):
            if D[t][j]:
                add_col(j, t, -(D[t][j] // piv))
        if piv != 1:
            if any(D[i][t] for i in range(t + 1, m)) or any(D[t][j] for j in range(t + 1, n)):
                continue  # remainders got strictly smaller; re-pick pivot
            bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                        if D[i][j] % piv), None)
            if bad is not None:
                add_row(t, bad[0], 1)  # pull the offending row up, then redo
                continue
        t += 1

    result = SNFResult(IntMatrix._adopt(U, m), IntMatrix._adopt(U_inv, m),
                       IntMatrix._adopt(D, n), IntMatrix._adopt(V, n))
    _verify_snf(A, result)
    return result


def _least_entry(D: list[list[int]], t: int) -> tuple[int, int] | None:
    """Position of the first entry, row-major, of least nonzero absolute
    value in the block D[t:][t:], or None if the block is zero."""
    best, least = None, 0
    for i in range(t, len(D)):
        row = D[i]
        for j in range(t, len(row)):
            v = row[j]
            if v and (best is None or abs(v) < least):
                best, least = (i, j), abs(v)
                if least == 1:
                    return best
    return best


def _verify_snf(A: IntMatrix, r: SNFResult) -> None:
    """Check that D is a chain of divisors, U U_inv = I and U A V = D.

    U is square, so once U U_inv = I holds, U A V = D is A V = U_inv D, and
    for diagonal D that product only scales U_inv's columns: two exact
    products in all, each summed over nonzero entries only."""
    ds = r.divisors
    for i, row in enumerate(r.D.rows):
        if any(row[:i]) or any(row[i + 1:]):
            raise SNFError("D is not diagonal")
    for a, b in zip(ds, ds[1:]):
        if a == 0 and b != 0:
            raise SNFError("zero divisor precedes nonzero one")
        if a != 0 and b % a != 0:
            raise SNFError(f"divisibility chain broken: {a} then {b}")
    if r.U @ r.U_inv != IntMatrix.identity(r.U.nrows):
        raise SNFError("U_inv is not the inverse of U")
    scaled = [[row[j] * ds[j] if j < len(ds) else 0 for j in range(r.D.ncols)]
              for row in r.U_inv.rows]
    if (A @ r.V).rows != scaled:
        raise SNFError("U A V != D")


def pdivmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Pseudo-division in Z[x], coefficients constant term first.

    Returns (k, q, r) with k * a = q * b + r, k > 0 and deg r < deg b; r
    carries no trailing zeros, and b must carry none.  Each step scales the
    partial remainder only by what its leading coefficient needs to become a
    multiple of lc(b), so k divides a power of lc(b), and k = 1 when b is
    monic: then q and r are the quotient and remainder over Q.
    """
    r, n, lead = list(a), len(b) - 1, b[-1]
    k, q = 1, [0] * max(len(r) - n, 1)
    for i in range(len(r) - 1 - n, -1, -1):
        c = r[i + n]
        if not c:
            continue
        s = abs(lead) // gcd(c, lead)
        if s != 1:
            k *= s
            q = [x * s for x in q]
            r = [x * s for x in r]
        t = q[i] = s * c // lead
        r[i:i + n + 1] = [x - t * y for x, y in zip(r[i:i + n + 1], b)]
    r = r[:n]
    while r and not r[-1]:
        r.pop()
    return k, q, r


def inverse_mod(c: Sequence[int], f: Sequence[int]) -> tuple[list[int], int]:
    """(s, r) with s * c = r modulo f in Z[x] and r a nonzero integer, so
    that c^-1 = s / r in Q[x]/f; f irreducible over Q, c nonzero of lower
    degree, both without trailing zeros.

    A fraction-free extended Euclidean algorithm: every remainder r_i keeps
    a cofactor s_i with s_i * c = r_i mod f.  A step pseudo-divides,
    k r_(i-1) = q r_i + r_(i+1) (:func:`pdivmod`), sets s_(i+1) =
    k s_(i-1) - q s_i, and divides the pair by its joint content.  f is
    irreducible, so the last nonzero remainder is a constant.
    """
    r0, r1, s0, s1 = list(f), list(c), [0], [1]
    while len(r1) > 1:
        k, q, r = pdivmod(r0, r1)
        qs = [0] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    qs[i + j] += x * y
        s = [k * x - y for x, y in zip_longest(s0, qs, fillvalue=0)]
        g = gcd(*r, *s)
        r0, r1, s0, s1 = r1, [x // g for x in r], s1, [x // g for x in s]
    return s1, r1[0]


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m, constant term first: x^m - 1 over Phi_d for each proper d | m,
    each a division by a monic integer polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = pdivmod(poly, cyclotomic(d))[1]
    return tuple(poly)


@lru_cache(maxsize=None)
def _character_tables(divisors: tuple[int, ...], orbits: tuple) -> tuple[tuple, ...]:
    """Per character (m, u) in ``orbits``: m, Phi_m, and per factor i the
    list u_i h mod m for h < d_i."""
    return tuple((m, cyclotomic(m), [[x * h % m for h in range(d)] for x, d in zip(u, divisors)])
                 for m, u in orbits)


def character_transform(divisors: tuple[int, ...], orbits: tuple,
                        nums: Mapping[tuple[int, ...], int]) -> list[list[int]]:
    """chi(sum_h nums[h] h) in Z[x]/Phi_m for each character (m, u) in
    ``orbits`` (:func:`~k1alex.grouprings.character_orbits`, chi(h) =
    zeta_m^(u . h)), reduced below degree phi(m) and without trailing
    zeros; the empty list is zero.

    Each term adds its value at index u . h mod m of a length-m vector,
    read from one table per factor (:func:`_character_tables`); the vector
    is then divided by the monic Phi_m (:func:`pdivmod`), and the remainder
    is the image.
    """
    images, items, rank = [], nums.items(), len(divisors)
    for m, f, tables in _character_tables(divisors, orbits):
        vec = [0] * m
        if rank == 1:
            (s,) = tables
            for (x,), n in items:
                vec[s[x]] += n
        elif rank == 2:
            s, t = tables
            for (x, y), n in items:
                vec[(s[x] + t[y]) % m] += n
        else:
            for e, n in items:
                vec[sum(map(getitem, tables, e)) % m] += n
        images.append(pdivmod(vec, f)[2])
    return images


@lru_cache(maxsize=None)
def kronecker_slots(divisors: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], int]:
    """Slot of each element, and the slot count, for packing Z/d_1 x ... x
    Z/d_r with 2 d_i - 1 slots per factor, the last factor the lowest digit.
    A slot is an exponent vector k with k_i < 2 d_i - 1, so the exponents of
    a product of two elements never carry."""
    radix = [2 * d - 1 for d in divisors]
    steps = [prod(radix[i + 1:]) for i in range(len(divisors))]
    return ({e: sum(x * s for x, s in zip(e, steps))
             for e in product(*(range(d) for d in divisors))}, prod(radix))


@lru_cache(maxsize=8)
def _fold_masks(divisors: tuple[int, ...],
                width: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The offset, 2^(8 width - 1) in every slot of ``width`` bytes, and per
    factor i the slots with k_i >= d_i: their mask, the offset on them, and
    the shift by d_i steps of digit i that moves them onto k_i - d_i."""
    radix, half = [2 * d - 1 for d in divisors], bytes(width - 1) + b"\x80"
    folds = []
    for i, d in enumerate(divisors):
        step, blocks = prod(radix[i + 1:]), prod(radix[:i])
        mask, high = (int.from_bytes((bytes(width * step * d) + fill * (step * (d - 1)))
                                     * blocks, "little") for fill in (b"\xff" * width, half))
        folds.append((mask, high, 8 * width * step * d))
    return int.from_bytes(half * prod(radix), "little"), tuple(folds)


def slot_width(a: Mapping[tuple[int, ...], int], b: Mapping[tuple[int, ...], int]) -> int:
    """Bytes per slot that hold any sum of at most min(|a|, |b|) products of
    a value of ``a`` and one of ``b`` signed, with a spare top bit."""
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    return bound.bit_length() // 8 + 1


# _VIEWS: slot width -> (item size, format) of the smallest native unsigned
# memoryview item that holds it.  Native sizes vary by platform, so they are
# read off memoryview itself; items are read in native byte order, so a
# big-endian host has no views and packs every slot as a byte slice.
_VIEW_FORMATS = ({memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}
                 if sys.byteorder == "little" else {})
_VIEWS = {w: min((s, f) for s, f in _VIEW_FORMATS.items() if s >= w)
          for w in range(1, max(_VIEW_FORMATS, default=0) + 1)}


def kronecker_product(divisors: tuple[int, ...], a: Mapping[tuple[int, ...], int],
                      b: Mapping[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The product in Z[Z/d_1 x ... x Z/d_r] of nonempty ``a`` and ``b``
    (exponent tuple -> int; zero values kept) as one product of two ints.

    Each operand is packed at its elements' slots (:func:`kronecker_slots`),
    each slot plus the offset 2^(8 width - 1), a nonnegative digit wide
    enough (:func:`slot_width`) for any sum of slots that fold onto one
    element.  Each factor then folds on the int itself: the slots with
    k_i >= d_i, less their offset, are masked out, shifted down by d_i
    steps of digit i and added back.  Only the elements' slots are read.

    A slot of at most 8 bytes is widened to 1, 2, 4 or 8 bytes and written
    and read as one item of a ``memoryview`` of the little-endian bytes;
    wider slots, and every slot on a big-endian host, are byte slices.
    """
    width = slot_width(a, b)
    width, fmt = _VIEWS.get(width, (width, None))
    slot_of, nslots = kronecker_slots(divisors)
    half = 1 << (8 * width - 1)
    offset, folds = _fold_masks(divisors, width)
    size = width * nslots
    ints = []
    for x in (a, b):
        buf = bytearray(offset.to_bytes(size, "little"))
        if fmt:
            view = memoryview(buf).cast(fmt)
            for e, n in x.items():
                view[slot_of[e]] = n + half
        else:
            for e, n in x.items():
                k = slot_of[e] * width
                buf[k:k + width] = (n + half).to_bytes(width, "little")
        ints.append(int.from_bytes(buf, "little") - offset)
    q = ints[0] * ints[1] + offset
    for mask, high, shift in folds:
        moved = (q & mask) - high
        q += (moved >> shift) - moved
    raw = q.to_bytes(size, "little")
    if fmt:
        view = memoryview(raw).cast(fmt)
        return {e: view[k] - half for e, k in slot_of.items()}
    return {e: int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
            for e, k in slot_of.items()}

"""Integer matrices and their Smith normal form U * A * V = D.

The one exact elimination over Z: it reads the finite group H off the cover
homology (:mod:`k1alex.cover`) and decides that an endomorphism of H is onto
(:class:`~k1alex.grouprings.GroupAut`).  Every factorization is re-verified
exactly before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class SNFError(RuntimeError):
    """Internal inconsistency while diagonalizing (should not happen)."""


class IntMatrix:
    """Dense integer matrix with explicit shape; entries are Python ints."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = [list(map(int, r)) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return IntMatrix([[sum(self.rows[i][k] * other.rows[k][j]
                               for k in range(self.ncols))
                           for j in range(other.ncols)]
                          for i in range(self.nrows)])

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.rows[i][j] for i in range(self.nrows)]
                          for j in range(self.ncols)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows})"


@dataclass(frozen=True)
class SNFResult:
    """U @ A @ V = D with U, V unimodular and D diagonal, d_1 | d_2 | ...

    ``U_inv`` is the exact inverse of U, accumulated alongside it.
    """

    U: IntMatrix
    U_inv: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def divisors(self) -> list[int]:
        return [self.D[i, i] for i in range(min(self.D.nrows, self.D.ncols))]


def smith_normal_form(A: IntMatrix | Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with deterministic minimal-pivot selection.

    The pivot at each stage is the entry of smallest nonzero absolute value
    in the remaining block, ties broken row-major.  Every row operation on U
    is undone by the inverse column operation on U_inv, so U_inv stays the
    inverse of U.  The factorization and U @ U_inv = I are re-verified
    exactly before returning.
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
            r[j] -= c * r[i]

    def add_col(i, j, c):  # col_i += c * col_j
        for r in D:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for r in U_inv:
            r[i] = -r[i]

    t = 0
    limit = min(m, n)
    while t < limit:
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
            negate_row(t)
        piv = D[t][t]
        for i in range(t + 1, m):
            if D[i][t]:
                add_row(i, t, -(D[i][t] // piv))
        for j in range(t + 1, n):
            if D[t][j]:
                add_col(j, t, -(D[t][j] // piv))
        if any(D[i][t] for i in range(t + 1, m)) or any(D[t][j] for j in range(t + 1, n)):
            continue  # remainders got strictly smaller; re-pick pivot
        bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                    if D[i][j] % piv), None)
        if bad is not None:
            add_row(t, bad[0], 1)  # pull the offending row up, then redo
            continue
        t += 1

    result = SNFResult(IntMatrix(U), IntMatrix(U_inv), IntMatrix(D), IntMatrix(V))
    _verify_snf(A, result)
    return result


def _verify_snf(A: IntMatrix, r: SNFResult) -> None:
    """Check that D is a chain of divisors, U U_inv = I and U A V = D.

    U is square, so once U U_inv = I holds, U A V = D is A V = U_inv D, and
    for diagonal D that product only scales U_inv's columns: two dense
    products in all."""
    ds = r.divisors
    for i in range(r.D.nrows):
        for j in range(r.D.ncols):
            if i != j and r.D[i, j]:
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

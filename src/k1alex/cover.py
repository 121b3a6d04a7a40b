"""Integer Smith normal form and metabelian representations from cyclic covers.

Specializing the relation matrix of a meridian presentation at the
abelianization (every x_i -> 1, meridian -> t) gives a square matrix over
Z[t]/(t^N - 1) presenting the homology of the N-fold cyclic cover of the knot
complement.  Expanding t through its regular representation produces an
integer matrix whose cokernel torsion is the finite abelian group H; the
multiplication-by-t map descends to the deck automorphism kappa of H, and the
generator basis vectors map to the representation images rho(x_i).

Everything is exact: arbitrary-precision integers in the Smith normal form,
and every factorization U * A * V = D is re-verified before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .grouprings import FiniteAbelianGroup, GroupAut, MetaRep
from .presentation import MeridianPresentation, validate_rep


class SNFError(RuntimeError):
    """Internal inconsistency while diagonalizing (should not happen)."""


class MetabelianRepError(ValueError):
    """The cover data does not yield a finite, consistent representation."""


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

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)])

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
    if (r.U @ A) @ r.V != r.D:
        raise SNFError("U A V != D")
    if r.U @ r.U_inv != IntMatrix.identity(r.U.nrows):
        raise SNFError("U_inv is not the inverse of U")
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


def alexander_presentation(p: MeridianPresentation, cover_n: int) -> IntMatrix:
    """Integer relation matrix of the N-fold cyclic cover homology.

    Builds t * (dy_j/dx_i)^ab - (dz_j/dx_i)^ab over Z[t]/(t^N - 1), where the
    abelianization sends every x_i to 1, so (dw/dx_i)^ab is the exponent sum
    of x_i in w (Fox), then expands t by its regular representation.  Row
    (j, l) is the t^l multiple of relation j; column (i, k) is the generator
    e_i tensor t^k.
    """
    if cover_n < 1:
        raise ValueError("cover degree must be >= 1")
    n = p.rank
    y_ab = [[p.y[j].exponent_sum(i + 1) for i in range(n)] for j in range(n)]
    z_ab = [[p.z[j].exponent_sum(i + 1) for i in range(n)] for j in range(n)]
    size = n * cover_n
    rows = [[0] * size for _ in range(size)]
    for j in range(n):
        for l in range(cover_n):
            row = rows[j * cover_n + l]
            for i in range(n):
                row[i * cover_n + (l + 1) % cover_n] += y_ab[j][i]
                row[i * cover_n + l] -= z_ab[j][i]
    return IntMatrix(rows)


def trivial_rep(p: MeridianPresentation, cover_n: int = 1) -> MetaRep:
    """Representation through the trivial group, graded with period cover_n."""
    H = FiniteAbelianGroup(())
    kappa = GroupAut.identity(H)
    return MetaRep(H, kappa, tuple(() for _ in range(p.rank)), cover_n, free_rank=0)


def metabelian_rep(p: MeridianPresentation, cover_n: int) -> MetaRep:
    """Metabelian representation through Tor H_1 of the N-fold cyclic cover.

    H is the torsion of the cokernel of :func:`alexander_presentation`,
    kappa the action of multiplication by t on the torsion coordinates, and
    the images are the classes of the basis vectors e_i tensor t^0.  Any
    free rank of the cokernel is recorded and discarded; the constructed
    representation is validated against the presentation before returning.
    """
    rel = alexander_presentation(p, cover_n)
    size = rel.nrows
    # columns of rel^T are the relations: cokernel = Z^size / column span
    snf = smith_normal_form(rel.transpose())
    ds = snf.divisors + [0] * (size - len(snf.divisors))
    tor_idx = [i for i, d in enumerate(ds) if d > 1]
    free_rank = sum(1 for d in ds if d == 0)
    H = FiniteAbelianGroup([ds[i] for i in tor_idx])

    # phi: Z^size -> cokernel coordinates, v |-> U v
    U = snf.U
    images = []
    for i in range(p.rank):
        col = i * cover_n  # e_i tensor t^0
        vec = [U[r, col] for r in range(size)]
        images.append(tuple(vec[r] % ds[r] for r in tor_idx))

    # multiplication by t permutes columns (i, k) -> (i, k+1)
    P = IntMatrix.zeros(size, size)
    for i in range(p.rank):
        for k in range(cover_n):
            P.rows[i * cover_n + (k + 1) % cover_n][i * cover_n + k] = 1
    K_full = (U @ P) @ snf.U_inv
    for ci, c in enumerate(tor_idx):
        for r, d in enumerate(ds):
            if d == 0 and K_full[r, c] != 0:
                raise MetabelianRepError(
                    "t-action sends torsion into the free part: cover homology "
                    "is not a finite module at this degree")
            if d > 1 and (K_full[r, c] * ds[c]) % d != 0:
                raise MetabelianRepError("t-action fails to descend to torsion")
    kappa_matrix = [[K_full[r, c] % ds[r] for c in tor_idx] for r in tor_idx]
    kappa = GroupAut(H, kappa_matrix)
    if cover_n % kappa.order != 0:
        raise MetabelianRepError(
            f"deck action order {kappa.order} does not divide cover degree {cover_n}")

    rep = MetaRep(H, kappa, tuple(images), cover_n, free_rank=free_rank)
    violation = validate_rep(p, rep)
    if violation is not None:
        raise MetabelianRepError(f"constructed representation is inconsistent: {violation}")
    return rep

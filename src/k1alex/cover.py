"""Metabelian representations from the homology of cyclic covers.

Specializing the relation matrix of a meridian presentation at the
abelianization (every x_i -> 1, meridian -> t) gives a square matrix over
Z[t]/(t^N - 1) presenting the homology of the N-fold cyclic cover of the knot
complement.  Expanding t through its regular representation produces an
integer matrix whose cokernel torsion, read off its Smith normal form
(:mod:`k1alex.snf`), is the finite abelian group H; the multiplication-by-t
map descends to the deck automorphism kappa of H, and the generator basis
vectors map to the representation images rho(x_i).
"""

from __future__ import annotations

from .grouprings import FiniteAbelianGroup, GroupAut, MetaRep
from .presentation import MeridianPresentation, validate_rep
from .snf import IntMatrix, smith_normal_form


class MetabelianRepError(ValueError):
    """The cover data does not yield a finite, consistent representation."""


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

    # t sends basis vector j = (i, k) to nxt[j] = (i, k+1), so its column c in
    # cokernel coordinates is sum_j U[:, nxt[j]] U_inv[j][c]; only torsion c is read
    nxt = [i * cover_n + (k + 1) % cover_n for i in range(p.rank) for k in range(cover_n)]
    K = {c: [sum(row[nxt[j]] * snf.U_inv[j, c] for j in range(size)) for row in U.rows]
         for c in tor_idx}
    for c in tor_idx:
        for r, d in enumerate(ds):
            if d == 0 and K[c][r] != 0:
                raise MetabelianRepError(
                    "t-action sends torsion into the free part: cover homology "
                    "is not a finite module at this degree")
            if d > 1 and (K[c][r] * ds[c]) % d != 0:
                raise MetabelianRepError("t-action fails to descend to torsion")
    kappa = GroupAut(H, [[K[c][r] % ds[r] for c in tor_idx] for r in tor_idx])

    rep = MetaRep(H, kappa, tuple(images), cover_n, free_rank=free_rank)
    violation = validate_rep(p, rep)
    if violation is not None:
        raise MetabelianRepError(f"constructed representation is inconsistent: {violation}")
    return rep

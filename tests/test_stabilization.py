"""Genus stabilization: handle addition must not change the invariants.

Adding a trivial handle to a genus-g presentation yields a genus-(g+1)
presentation of the same group: two new generators x_{2g+1}, x_{2g+2} and
relation words

    y_{2g+1} = v x_{2g+2}    z_{2g+1} = w
    y_{2g+2} = 1             z_{2g+2} = x_{2g+1}

for any words v, w in the old generators (the last relation kills x_{2g+1},
the one before it solves for x_{2g+2}).  A representation transports
canonically: the old images stay, x_{2g+1} goes to 0, and the relation
forces x_{2g+2} to kappa^-1(rho(w)) - rho(v).  Under that identification the
projected logarithms and the polynomial invariant (up to unit) must
survive; the cover homology recomputed from the stabilized presentation
must also be isomorphic.  This exercises every genus > 1 code path: larger
Smith normal forms, 4 x 4 elimination, and block determinants of size 4N.
"""

from k1alex import (
    MetaRep,
    Word,
    builtin,
    k1_invariant,
    metabelian_rep,
    metafinite_polynomial,
    parse_presentation,
    poly_equiv,
    serialize_presentation,
    trivial_rep,
    validate_rep,
)

from helpers import STABILIZED_4_1, STABILIZED_5_2


def _transport_to_stabilized(stab, base_rep):
    """Extend a rank-2 representation along the trivial-handle relations."""
    g = base_rep.group
    base_rank = base_rep.rank

    def image_of(word):
        return base_rep.image_of_exponents(
            [word.exponent_sum(i + 1) for i in range(base_rank)])

    # y_{2g+1} = v x_{2g+2} with v in the old generators
    v_word = stab.y[base_rank]
    assert v_word.letters[-1] == (stab.rank, 1)
    v = Word(v_word.letters[:-1])
    w = stab.z[base_rank]
    last = g.add(base_rep.kappa.apply(image_of(w), base_rep.kappa.order - 1),
                 g.neg(image_of(v)))
    images = base_rep.images + (g.identity(), last)
    return MetaRep(g, base_rep.kappa, images, base_rep.cover_n)


def _compare(stab_text, base_name, cover_n, precision=10):
    stab = parse_presentation(stab_text, name=f"{base_name}_stab")
    base = builtin(base_name)
    rep_b = metabelian_rep(base, cover_n)
    rep_s = _transport_to_stabilized(stab, rep_b)
    assert validate_rep(stab, rep_s) is None

    # the cover homology recomputed from scratch is isomorphic
    recomputed = metabelian_rep(stab, cover_n)
    assert recomputed.group == rep_b.group
    assert recomputed.kappa.order == rep_b.kappa.order

    rs = k1_invariant(stab, rep_s, precision)
    rb = k1_invariant(base, rep_b, precision)
    assert rs.invertible == rb.invertible == "yes"
    common = set(rs.logs.degrees()) & set(rb.logs.degrees())
    assert common
    for k in common:
        assert rs.logs[k] == rb.logs[k]
    assert poly_equiv(metafinite_polynomial(stab, rep_s),
                      metafinite_polynomial(base, rep_b))


def test_stabilized_figure8_double_cover():
    _compare(STABILIZED_4_1, "4_1", 2)


def test_stabilized_figure8_triple_cover():
    _compare(STABILIZED_4_1, "4_1", 3)


def test_stabilized_52_triple_cover():
    _compare(STABILIZED_5_2, "5_2", 3)


def test_stabilized_trefoil_trivial_rep():
    text = ("genus 2\n"
            "y1 = x1 x2^-1 ; z1 = x1\n"
            "y2 = x2 ; z2 = x2 x1^-1\n"
            "y3 = x2 x4 ; z3 = x1^-1\n"
            "y4 = 1 ; z4 = x3\n")
    stab = parse_presentation(text, name="3_1_stab")
    assert parse_presentation(serialize_presentation(stab), name=stab.name) == stab
    rep = trivial_rep(stab)
    assert validate_rep(stab, rep) is None
    report = k1_invariant(stab, rep, 12)
    base = k1_invariant(builtin("3_1"), trivial_rep(builtin("3_1")), 12)
    assert report.invertible == "yes"
    # Witt parts agree on the common window: 1 - tau + tau^2
    assert report.witt == base.witt

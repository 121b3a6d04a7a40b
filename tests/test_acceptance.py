"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is exact equality of
rationals, coefficient maps, or canonical forms (poly_equiv where the value
is only defined up to unit monomials).

Four tests assert tabulated reference values that fail machine-checkable
consistency identities and therefore fail.  The figure-eight logarithm
tables and the triple-cover polynomial table violate the augmentation
identity: pushing every group element to 1 commutes with the whole
computation, forcing logarithm coefficient sums of -L_k/k (trace sequence L
of the knot's Alexander polynomial) and the polynomial's pushforward to be
the Alexander norm; the polynomial table also breaks deck-action closure,
which the determinant construction forces exactly.  The 5_2 coefficient
expression passes the augmentation check but its group-refined logs and
determinant disagree with two independent elimination routes.  The
*_derived companion tests pin the values validated by those identities plus
independent reimplementation oracles; the reference-table tests are kept
verbatim so the discrepancies stay visible.
"""

import random
from fractions import Fraction
from functools import lru_cache

from k1alex import (
    GroupAlgebraElem,
    LaurentPolyGA,
    NielsenMove,
    NovikovSeries,
    apply_nielsen,
    build_fox_matrix,
    builtin,
    conjugate_presentation,
    det_commutative,
    is_unit_laurent,
    k1_invariant,
    metabelian_rep,
    metafinite_polynomial,
    orbit_project,
    poly_equiv,
    transport_rep,
    trivial_rep,
    upsilon_elem,
    upsilon_matrix,
    validate_rep,
    witt_normalize,
)

from helpers import dict_series_log, figure8_trace, oracle_logs, rand_word


def check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


@lru_cache(maxsize=None)
def _pipeline(name, cover, precision=12):
    p = builtin(name)
    rep = trivial_rep(p, cover) if cover == 0 else metabelian_rep(p, cover)
    return p, rep, k1_invariant(p, rep, precision)


def _ga(group, mapping, den=1):
    return GroupAlgebraElem(group, {e: Fraction(c, den) for e, c in mapping.items()})


def _x_powers(rep, mapping, den=1):
    """Group algebra element written in powers of x = rho(x1)."""
    g = rep.group
    return _ga(g, {g.scale(rep.images[0], k): c for k, c in mapping.items()}, den)


def _xy_powers(rep, mapping, den=1):
    """Element written in monomials x^a y^b, x = rho(x1), y = rho(x2)."""
    g = rep.group
    out = {}
    for (a, b), c in mapping.items():
        e = g.add(g.scale(rep.images[0], a), g.scale(rep.images[1], b))
        out[e] = out.get(e, Fraction(0)) + Fraction(c, den)
    return GroupAlgebraElem(g, out)


# ---------------------------------------------------------------------------
# 1. trefoil class
# ---------------------------------------------------------------------------

def test_criterion_01_trefoil_class():
    p = builtin("3_1")
    report = k1_invariant(p, trivial_rep(p), 12)
    k = report.witt.kappa
    one = GroupAlgebraElem.one(k.group)
    expected = NovikovSeries(k, {0: one, 1: -one, 2: one}, report.witt.top)
    ok = (report.invertible == "yes" and report.degree == -1
          and report.witt == expected)
    check("criterion 1: trefoil Witt representative tau - 1 + tau^-1", ok)


# ---------------------------------------------------------------------------
# 2. trefoil metafinite polynomial
# ---------------------------------------------------------------------------

def test_criterion_02_trefoil_metafinite():
    p = builtin("3_1")
    rep = metabelian_rep(p, 6)
    assert rep.group.order == 1  # sixfold cover homology is torsion free
    poly = metafinite_polynomial(p, rep)
    one = GroupAlgebraElem.one(rep.group)
    target = LaurentPolyGA(rep.group, {0: one, 6: one.scale(-2), 12: one})
    check("criterion 2: trefoil sixfold polynomial ~ (1 - t^6)^2",
          poly_equiv(poly, target))


# ---------------------------------------------------------------------------
# 3. trefoil logarithm magnitudes
# ---------------------------------------------------------------------------

def test_criterion_03_trefoil_log_magnitudes():
    p = builtin("3_1")
    report = k1_invariant(p, trivial_rep(p), 26)
    signs = []
    ok = True
    for n in (1, 2, 3, 4):
        value = report.logs[6 * n].augmentation()
        ok = ok and abs(value) == Fraction(1, 3 * n)
        signs.append("+" if value > 0 else "-")
    check("criterion 3: |log coefficient at tau^(6n)| = 1/(3n), n = 1..4", ok,
          detail=f"signs observed: {' '.join(signs)} (series expansion gives -1/(3n))")


# ---------------------------------------------------------------------------
# 4. figure-eight cover data
# ---------------------------------------------------------------------------

def test_criterion_04_figure8_cover_data():
    p = builtin("4_1")
    rep2 = metabelian_rep(p, 2)
    ok2 = rep2.group.divisors == (5,) and all(
        rep2.kappa.apply(e) == rep2.group.neg(e) for e in rep2.group.elements())

    rep3 = metabelian_rep(p, 3)
    ok3 = rep3.group.divisors == (4, 4)
    # conjugacy check mod 4: express the action in the basis of the images
    g = rep3.group
    X, Y = rep3.images

    def coords(e):
        for a in range(4):
            for b in range(4):
                if g.add(g.scale(X, a), g.scale(Y, b)) == e:
                    return (a, b)
        return None

    kx, ky = coords(rep3.kappa.apply(X)), coords(rep3.kappa.apply(Y))
    ok3 = ok3 and kx == (2, 3) and ky == (3, 1)  # columns of [[2,-1],[-1,1]] mod 4
    check("criterion 4: cover data (Z/5, inversion) and ((Z/4)^2, order-3 action)",
          ok2 and ok3)


# ---------------------------------------------------------------------------
# 5. figure-eight N = 2 suite
# ---------------------------------------------------------------------------

def _figure8_double_delta_reference(rep, top):
    """tau^-1 - (x + 1 + x^4) + x tau, x = rho(x1)."""
    g = rep.group
    one = GroupAlgebraElem.one(g)
    mid = _x_powers(rep, {1: -1, 0: -1, 4: -1})
    x = GroupAlgebraElem.of(g, rep.images[0])
    return NovikovSeries(rep.kappa, {-1: one, 0: mid, 1: x}, top)


def test_criterion_05a_figure8_double_delta():
    p, rep, report = _pipeline("4_1", 2)
    ref = _figure8_double_delta_reference(rep, 12)
    _, deg, w = witt_normalize(ref)
    ref_logs = oracle_logs(w)
    same_logs = all(report.logs[k] == ref_logs[k] for k in (2, 4, 6, 8, 10))
    det_ref = det_commutative(upsilon_elem(ref.truncate(4), 2))
    same_poly = poly_equiv(det_ref, metafinite_polynomial(p, rep))
    check("criterion 5a: N=2 delta ~ tau^-1 - (x + 1 + x^4) + x tau "
          "(unit-monomial ambiguity; compared through logs and determinant)",
          report.degree == deg and same_logs and same_poly)


FIG8_N2_LOG_TABLE = {
    2: ({0: 3, 1: 2, 2: 1, 3: 1, 4: 3}, 2),
    4: ({0: 21, 1: 18, 2: 15, 3: 17, 4: 20}, 4),
    6: ({0: 171, 1: 163, 2: 157, 3: 160, 4: 169}, 6),
}


def test_criterion_05b_figure8_double_log_table():
    """Reference log table for the double cover, asserted verbatim.

    The table fails the augmentation identity: its coefficient sums are
    5, 91/4, 410/3 while any value produced by the twisted logarithm must
    push forward to -L_k/k = -7/2, -47/4, -161/3 (see the derived test).
    Expected to fail; kept as stated.
    """
    _, rep, report = _pipeline("4_1", 2)
    ok = True
    for k, (table, den) in FIG8_N2_LOG_TABLE.items():
        expected = orbit_project(_x_powers(rep, table, den), rep.kappa)
        ok = ok and report.logs[k] == expected
    check("criterion 5b: N=2 log table (reference values)", ok,
          detail="table fails the augmentation identity; derived values pass")


def test_criterion_05c_figure8_double_metafinite():
    p, rep, _ = _pipeline("4_1", 2)
    poly = metafinite_polynomial(p, rep)
    g = rep.group
    target = LaurentPolyGA(g, {
        -2: GroupAlgebraElem.one(g),
        0: _x_powers(rep, {0: -3, 1: -1, 2: -1, 3: -1, 4: -1}),
        2: GroupAlgebraElem.one(g)})
    check("criterion 5c: N=2 polynomial ~ t^-2 - 3 - x - x^2 - x^3 - x^4 + t^2",
          poly_equiv(poly, target))


def _closed_form_delta(rep, top):
    """Independent representative from the hand 2x2 Schur elimination:
    B^-1 tau^-1 - (kappa(B^-1) + B^-1 + A) + kappa(B^-1) tau,
    with A = rho(x1), B = rho(x2)."""
    g, kap = rep.group, rep.kappa
    A, B = rep.images
    Binv = g.neg(B)
    mid = _ga(g, {kap.apply(Binv): -1}) + _ga(g, {Binv: -1}) + _ga(g, {A: -1})
    return NovikovSeries(
        kap, {-1: GroupAlgebraElem.of(g, Binv), 0: mid,
              1: GroupAlgebraElem.of(g, kap.apply(Binv))}, top)


def _derived_log_check(name, cover, frozen, builder):
    """Shared dual-route verification of logarithm values.

    Route 1: the elimination pipeline.  Route 2: the closed-form
    representative fed to an independent dict-based twisted logarithm.
    Both must agree with each other, with the frozen values, and with the
    augmentation identity sum = -L_k/k.
    """
    p, rep, report = _pipeline(name, cover)
    g, kap = rep.group, rep.kappa
    ref = _closed_form_delta(rep, 12)
    _, _, w = witt_normalize(ref)
    oracle = dict_series_log(kap, {d: w.coefficient(d) for d in w.support()}, 12)
    ok = True
    for k, (table, den) in frozen.items():
        expected = orbit_project(builder(rep, table, den), kap)
        from_oracle = orbit_project(oracle.get(k, GroupAlgebraElem.zero(g)), kap)
        aug_ok = report.logs[k].augmentation() == Fraction(-figure8_trace(k), k)
        ok = ok and report.logs[k] == expected == from_oracle and aug_ok
    return ok


FIG8_N2_LOG_DERIVED = {
    2: ({0: -3, 1: -2, 2: -2}, 2),
    4: ({0: -11, 1: -18, 2: -18}, 4),
    6: ({0: -11, 1: Fraction(-64, 3), 2: Fraction(-64, 3)}, 1),
}


def test_derived_figure8_double_logs():
    ok = _derived_log_check("4_1", 2, FIG8_N2_LOG_DERIVED, _x_powers)
    check("derived: N=2 logs (dual-route, augmentation-validated)", ok)


# ---------------------------------------------------------------------------
# 6. figure-eight N = 3 suite
# ---------------------------------------------------------------------------

FIG8_N3_LOG_TABLE = {
    3: ({(0, 0): 3, (1, 0): 3, (2, 0): 2, (3, 0): 2,
         (0, 1): 1, (1, 1): 2, (2, 1): 3, (3, 1): 1,
         (0, 2): 2, (1, 2): 1, (2, 2): 2, (3, 2): 2,
         (0, 3): 2, (1, 3): 1, (2, 3): 3, (3, 3): 3}, 3),
    6: ({(0, 0): 81, (1, 0): 77, (2, 0): 71, (3, 0): 73,
         (0, 1): 68, (1, 1): 74, (2, 1): 77, (3, 1): 71,
         (0, 2): 74, (1, 2): 71, (2, 2): 72, (3, 2): 76,
         (0, 3): 77, (1, 3): 76, (2, 3): 75, (3, 3): 76}, 6),
}


def test_criterion_06a_figure8_triple_log_table():
    """Reference 16-term log tables for the triple cover, asserted verbatim.

    Their coefficient sums are 11 and 1189/6; the augmentation identity
    forces -6 and -161/3 (and the latter must also agree with the k = 6
    entry of the double-cover logarithm, which the reference tables
    themselves contradict).  Expected to fail; kept as stated.
    """
    _, rep, report = _pipeline("4_1", 3)
    ok = True
    for k, (table, den) in FIG8_N3_LOG_TABLE.items():
        expected = orbit_project(_xy_powers(rep, table, den), rep.kappa)
        ok = ok and report.logs[k] == expected
    check("criterion 6a: N=3 log table (reference values)", ok,
          detail="table fails the augmentation identity; derived values pass")


FIG8_N3_POLY_TABLE = {0: {(0, 0): 1},
                      3: {(0, 0): 4, (1, 1): 7, (2, 2): 3, (3, 3): 4},
                      6: {(1, 1): 1}}


def test_criterion_06b_figure8_triple_metafinite_table():
    """Reference polynomial 1 + 4t^3 + 7t^3 xy + 3t^3 x^2y^2 + 4t^3 x^3y^3
    + t^6 xy, asserted up to unit.

    Its augmentation is 1 + 18t^3 + t^6, while the determinant construction
    forces the Alexander norm 1 - 18t^3 + t^6; its support is also not closed
    under the deck action, which conjugation by the block shift forces
    exactly.  Expected to fail; kept as stated.
    """
    p, rep, _ = _pipeline("4_1", 3)
    poly = metafinite_polynomial(p, rep)
    target = LaurentPolyGA(rep.group,
                           {d: _xy_powers(rep, tbl) for d, tbl in
                            FIG8_N3_POLY_TABLE.items()})
    check("criterion 6b: N=3 polynomial (reference value)",
          poly_equiv(poly, target),
          detail="table fails augmentation and deck-closure; derived value passes")


FIG8_N3_LOG_DERIVED = {
    3: ({(0, 0): -1, (1, 0): -1, (1, 2): -1, (2, 0): -1,
         (3, 2): -1, (3, 3): -1}, 1),
    6: ({(0, 0): Fraction(-11, 3), (1, 0): -10, (1, 2): -10, (2, 0): -10,
         (3, 2): -10, (3, 3): -10}, 1),
}


def test_derived_figure8_triple_logs():
    ok = _derived_log_check("4_1", 3, FIG8_N3_LOG_DERIVED, _xy_powers)
    check("derived: N=3 logs (dual-route, augmentation-validated)", ok)


def test_derived_figure8_triple_metafinite():
    """The triple-cover polynomial is 1 - (2 + sum of all of H) t^3 + t^6,
    validated by the augmentation norm and exact deck-action closure."""
    p, rep, _ = _pipeline("4_1", 3)
    poly = metafinite_polynomial(p, rep)
    g = rep.group
    total = GroupAlgebraElem(g, {e: 1 for e in g.elements()})
    one = GroupAlgebraElem.one(g)
    target = LaurentPolyGA(g, {0: one, 3: -(one.scale(2) + total), 6: one})
    ok = poly_equiv(poly, target)
    aug = poly.augmentation()
    lo = min(aug)
    ok = ok and {d - lo: v for d, v in aug.items()} == {0: 1, 3: -18, 6: 1}
    twisted = LaurentPolyGA(g, {d: c.apply_aut(rep.kappa)
                                for d, c in poly.terms.items()})
    ok = ok and twisted == poly
    check("derived: N=3 polynomial ~ 1 - (2 + sum H) t^3 + t^6 "
          "(augmentation norm and deck closure hold)", ok)


# ---------------------------------------------------------------------------
# 7. 5_2 at N = 3
# ---------------------------------------------------------------------------

def test_criterion_07a_52_structure():
    _, rep, report = _pipeline("5_2", 3)
    g = rep.group
    ok = g.divisors == (5, 5)
    ok = ok and all(rep.kappa.apply(e, 3) == e for e in g.elements())
    ok = ok and report.invertible == "yes"
    ok = ok and report.delta.support() == [-1, 0, 1]
    check("criterion 7a: 5_2 structure (H = (Z/5)^2, deck action cubes to "
          "identity, delta supported on tau^-1..tau)", ok)


def _52_reference_expression(rep, top):
    """(y x^-1 + y) tau^-1 - (x^-1 y + x^-2 y - x y^-1/2 + 1 + x^-1 y^1/2)
    + (x^-1 y^1/2 + x^-2 y) tau, with y^1/2 = y^3 (since 2*3 = 1 mod 5)."""
    g = rep.group
    lo = _xy_powers(rep, {(-1, 1): 1, (0, 1): 1})
    mid = _xy_powers(rep, {(-1, 1): -1, (-2, 1): -1, (1, -3): 1,
                           (0, 0): -1, (-1, 3): -1})
    hi = _xy_powers(rep, {(-1, 3): 1, (-2, 1): 1})
    return NovikovSeries(rep.kappa, {-1: lo, 0: mid, 1: hi}, top)


def test_criterion_07b_52_reference_coefficients():
    """The printed 5-term reference expression for the 5_2 class, compared
    canonically (logs and determinant) against the pipeline.

    The expression agrees with the pipeline under the pushforward to Q
    (both give 2 tau^-1 - 3 + 2 tau), but its group-refined logarithm
    classes and its determinant disagree with both independent routes (the
    general elimination and the hand Schur complement of the derived test),
    so it does not represent the class of the relation matrix built from
    the stated presentation.  Expected to fail; kept as stated.
    """
    p, rep, report = _pipeline("5_2", 3)
    ref = _52_reference_expression(rep, 12)
    sizes = [len(ref.coefficient(d).coeffs) for d in (-1, 0, 1)]
    assert sizes == [2, 5, 2]  # the printed expression's own shape
    _, deg, w = witt_normalize(ref)
    ref_logs = oracle_logs(w)
    same_logs = all(report.logs[k] == ref_logs[k] for k in (3, 6, 9))
    det_ref = det_commutative(upsilon_elem(ref.truncate(4), 3))
    same_poly = poly_equiv(det_ref, metafinite_polynomial(p, rep))
    check("criterion 7b: 5_2 coefficients match the reference expression",
          deg == report.degree and same_logs and same_poly,
          detail="group-refined logs/determinant of the reference expression "
                 "disagree with both independent routes")


def test_derived_52_delta_coefficients():
    """Independent hand elimination: pivot the constant entry -1 at (1, 2);
    the exact Schur complement gives

      delta[tau^-1] = kappa^2(rho(x2 x1^-1)) + kappa^2(rho(x2 x1^-2))
      delta[tau^0]  = -rho(x2 x1^-2) - rho(x2 x1^-3) - rho(x1^-2)
      delta[tau^1]  = rho(x1^-1) kappa(rho(x1^-1)) + rho(x1^-1) kappa(rho(x1^-2))

    with coefficient support sizes (2, 3, 2)."""
    _, rep, report = _pipeline("5_2", 3)
    g, kap = rep.group, rep.kappa
    X, Y = rep.images

    def m(a, b):
        return g.add(g.scale(X, a), g.scale(Y, b))

    lo = _ga(g, {kap.apply(m(-1, 1), 2): 1, kap.apply(m(-2, 1), 2): 1})
    mid = _ga(g, {m(-2, 1): -1, m(-3, 1): -1, m(-2, 0): -1})
    hi = _ga(g, {g.add(m(-1, 0), kap.apply(m(-1, 0))): 1,
                 g.add(m(-1, 0), kap.apply(m(-2, 0))): 1})
    ok = (report.delta.coefficient(-1) == lo
          and report.delta.coefficient(0) == mid
          and report.delta.coefficient(1) == hi)
    ok = ok and [len(c.coeffs) for c in (lo, mid, hi)] == [2, 3, 2]
    # augmentation cross-check: pushed to Q the class is 2 tau^-1 - 3 + 2 tau,
    # whose log_3 coefficient is 3/8
    ref = _closed_52_log3_augmentation()
    ok = ok and report.logs[3].augmentation() == ref
    check("derived: 5_2 delta coefficients from the hand Schur complement", ok)


def _closed_52_log3_augmentation():
    # witt part of 2 tau^-1 - 3 + 2 tau is 1 - (3/2) t + t^2; log t^3 coeff:
    # mu = -(3/2) t + t^2; mu^2/2 -> -(3/2); mu^3/3 -> (-3/2)^3/3
    mu1, mu2 = Fraction(-3, 2), Fraction(1)
    c3 = Fraction(0)
    c3 += 0  # mu has no t^3 term
    c3 -= Fraction(1, 2) * (2 * mu1 * mu2)
    c3 += Fraction(1, 3) * (mu1 ** 3)
    return c3


# ---------------------------------------------------------------------------
# 8. property suites (>= 500 random cases each, exact assertions)
# ---------------------------------------------------------------------------

def test_criterion_08_property_suites():
    import test_cover as tc
    import test_grouprings as tg
    import test_novikov as tn
    import test_upsilon as tu
    import test_words as tw

    tw.test_fox_fundamental_identity_random()   # 1000 words, length <= 30, in Z[H]
    tw.test_fox_product_rule_random()           # 500 pairs
    tw.test_fox_chain_rule_random()             # 500 substitution instances
    tw.test_fox_image_matches_free_ring_oracle()  # 510 (word, rep) pairs
    tn.test_ring_axioms_random()                # twisted series ring axioms
    tn.test_inverse_random_suite()              # 500 leading-unit inversions
    tn.test_log_additivity_random_suite()       # 500 Witt pairs
    tu.test_upsilon_ring_homomorphism_suite()   # 500 skew polynomial pairs
    tu.test_det_multiplicativity_suite()        # 500 matrix pairs
    tc.test_snf_random_reconstruction_suite()   # 500 integer matrices
    tg.test_ring_axioms_random()                # 500 group algebra triples
    check("criterion 8: property suites (Fox identities, ring axioms, "
          "inversion, log additivity, untwisting homomorphism, determinant "
          "multiplicativity, SNF reconstruction)", True)


# ---------------------------------------------------------------------------
# 9. invariance suites
# ---------------------------------------------------------------------------

INVARIANCE_CASES = (("3_1", 2), ("4_1", 2), ("5_2", 3))


def test_criterion_09_invariance_suites():
    rng = random.Random(90)
    kinds = ("swap", "invert", "left-multiply", "right-multiply")
    prec = 8  # smallest admissible window; logs compared at every supported k
    ok = True
    for name, n in INVARIANCE_CASES:
        base_p = builtin(name)
        base_rep = metabelian_rep(base_p, n)
        base = k1_invariant(base_p, base_rep, prec)
        base_poly = metafinite_polynomial(base_p, base_rep)

        p, rep = base_p, base_rep
        for _ in range(20):  # random walk of Nielsen moves
            kind = rng.choice(kinds)
            i = rng.randint(1, 2)
            mv = (NielsenMove(kind, i) if kind == "invert"
                  else NielsenMove(kind, i, 3 - i))
            p, rep = apply_nielsen(p, mv), transport_rep(rep, mv)
            assert validate_rep(p, rep) is None
            report = k1_invariant(p, rep, prec)
            ok = ok and report.logs == base.logs
            ok = ok and poly_equiv(metafinite_polynomial(p, rep), base_poly)

        for _ in range(20):  # meridian conjugations, same representation
            h = rand_word(rng, base_p.rank, 4)
            q = conjugate_presentation(base_p, h)
            assert validate_rep(q, base_rep) is None
            report = k1_invariant(q, base_rep, prec)
            ok = ok and report.logs == base.logs
            ok = ok and poly_equiv(metafinite_polynomial(q, base_rep), base_poly)
        assert ok, f"invariance broken for {name} at N={n}"
    check("criterion 9: 20 Nielsen moves and 20 conjugations per knot leave "
          "logs and polynomial unchanged", ok)


# ---------------------------------------------------------------------------
# 10. fibered consistency
# ---------------------------------------------------------------------------

def test_criterion_10_fibered_consistency():
    ok = True
    for name in ("3_1", "4_1"):
        for n in (2, 3):
            _, rep, report = _pipeline(name, n)
            ok = ok and report.invertible == "yes"
            ok = ok and all(s.witt_type for s in report.pivot_trace)
            for d in report.diagonal:
                unit, deg, w = witt_normalize(d)
                ok = ok and deg == 0
                ok = ok and w.coefficient(0) == GroupAlgebraElem.one(w.group)

    # exactness bridge on every built-in case
    for name, n in (("3_1", 2), ("3_1", 3), ("3_1", 6), ("4_1", 2), ("4_1", 3),
                    ("5_2", 3)):
        p, rep, report = _pipeline(name, n)
        det = det_commutative(
            upsilon_matrix(build_fox_matrix(p, rep, 4), rep.cover_n))
        ok = ok and (report.invertible == "yes") == is_unit_laurent(det)
    check("criterion 10: Witt-unit pivots for the fibered knots and the "
          "elimination/determinant exactness bridge", ok)

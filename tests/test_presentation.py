"""Presentation data model, parser round-trips, and test moves."""

import random

import pytest

from k1alex import (
    GroupError,
    MeridianPresentation,
    NielsenMove,
    ParseError,
    apply_nielsen,
    builtin,
    builtin_names,
    conjugate_presentation,
    gen,
    metabelian_rep,
    parse_presentation,
    serialize_presentation,
    transport_rep,
    trivial_rep,
    validate_rep,
    word,
)
from k1alex.grouprings import FiniteAbelianGroup, GroupAut, MetaRep

from helpers import nielsen_inverse_sequence, rand_word, substitute_by_letters


def test_parse_trefoil_text_matches_builtin():
    text = "genus 1\ny1 = x1 x2^-1 ; z1 = x1\ny2 = x2 ; z2 = x2 x1^-1"
    assert parse_presentation(text) == MeridianPresentation(
        1, builtin("3_1").y, builtin("3_1").z)


def test_parse_figure_eight_text():
    text = "genus 1\ny1 = x1 x2 ; z1 = x1\ny2 = x2 x1 x2 ; z2 = x2"
    p = parse_presentation(text)
    assert p.y == builtin("4_1").y and p.z == builtin("4_1").z


def test_parse_rejects_out_of_range_generator():
    with pytest.raises(ParseError, match="out of range"):
        parse_presentation("genus 1\ny1 = x3 ; z1 = x1\ny2 = x2 ; z2 = x2")


@pytest.mark.parametrize("text,fragment", [
    ("", "genus"),
    ("genus 0\n", "positive"),
    ("genus 1\ny1 = x1 ; z2 = x1\ny2 = x2 ; z2 = x2", "disagree"),
    ("genus 1\ny1 = x1 ; z1 = x1", "missing relation"),
    ("genus 1\ny1 = x1 ; z1 = x1\ny1 = x2 ; z1 = x2", "duplicate"),
    ("genus 1\ny1 = q9 ; z1 = x1\ny2 = x2 ; z2 = x2", "expected"),
    ("genus 1\ny3 = x1 ; z3 = x1\ny2 = x2 ; z2 = x2", "out of range"),
])
def test_parse_error_cases(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_presentation(text)


def test_missing_relations_message_does_not_grow_with_genus():
    """A header far above the relations it lists is reported by count and
    first missing index, not by listing every missing index."""
    with pytest.raises(ParseError, match="missing relation") as info:
        parse_presentation("genus 1000000\ny1 = x1 ; z1 = x1")
    assert len(str(info.value)) < 200
    assert "1999999 of 2000000" in str(info.value) and "first 2" in str(info.value)


def test_parse_error_carries_position():
    try:
        parse_presentation("genus 1\ny1 = x1 ; z1 = x1\noops")
    except ParseError as e:
        assert e.line == 3
    else:
        pytest.fail("expected ParseError")


def test_serialize_round_trips_builtins():
    for name in builtin_names():
        p = builtin(name)
        assert parse_presentation(serialize_presentation(p), name=name) == p


def test_builtin_table_words():
    p = builtin("3_1")
    assert p.genus == 1
    assert p.y == (word((1, 1), (2, -1)), word((2, 1)))
    assert p.z == (word((1, 1)), word((2, 1), (1, -1)))
    p = builtin("4_1")
    assert p.y == (word((1, 1), (2, 1)), word((2, 1), (1, 1), (2, 1)))
    assert p.z == (word((1, 1)), word((2, 1)))
    p = builtin("5_2")
    assert p.y == (word((1, -2)), word((1, -1), (2, 1)))
    assert p.z == (word((2, 1), (1, -2)), word((2, 1)))
    with pytest.raises(KeyError):
        builtin("6_1")


def test_nielsen_invert_on_trefoil():
    p = apply_nielsen(builtin("3_1"), NielsenMove("invert", 1))
    # substituting x1 -> x1^-1 into y1 = x1 x2^-1
    assert p.y[0] == word((1, -1), (2, -1))
    assert p.z[0] == word((1, -1))


def test_nielsen_swap_is_involution():
    p = builtin("4_1")
    mv = NielsenMove("swap", 1, 2)
    assert apply_nielsen(apply_nielsen(p, mv), mv) == p


def test_nielsen_multiply_inverse_sequence():
    p = builtin("5_2")
    for kind in ("left-multiply", "right-multiply"):
        mv = NielsenMove(kind, 1, 2)
        q = apply_nielsen(p, mv)
        for step in nielsen_inverse_sequence(mv):
            q = apply_nielsen(q, step)
        assert q == p


def test_nielsen_move_on_a_long_conjugator():
    """3_1 with its meridian conjugated by x1^(10^4), then x1 -> x2^-1 x1:
    each syllable x1^(+-10^4) becomes one power of x2^-1 x1, and the moved
    presentation equals the move applied letter by letter."""
    p = conjugate_presentation(builtin("3_1"), gen(1, 10 ** 4))
    move = NielsenMove("left-multiply", 1, 2)
    q = apply_nielsen(p, move)
    sub = move.inverse_substitution(p.rank)
    assert q.y == tuple(substitute_by_letters(w, sub) for w in p.y)
    assert q.z == tuple(substitute_by_letters(w, sub) for w in p.z)
    assert max(len(w.letters) for w in q.y + q.z) > 10 ** 4


def test_nielsen_transport_keeps_rep_valid():
    rng = random.Random(11)
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    kinds = ("swap", "invert", "left-multiply", "right-multiply")
    for _ in range(25):
        kind = rng.choice(kinds)
        i = rng.randint(1, 2)
        j = 3 - i
        mv = NielsenMove(kind, i) if kind == "invert" else NielsenMove(kind, i, j)
        p2, rep2 = apply_nielsen(p, mv), transport_rep(rep, mv)
        assert validate_rep(p2, rep2) is None
        p, rep = p2, rep2


def test_conjugate_identity_is_noop():
    p = builtin("3_1")
    assert conjugate_presentation(p, word()) == p


def test_conjugate_by_x1_then_inverse_restores():
    p = builtin("3_1")
    h = gen(1)
    q = conjugate_presentation(conjugate_presentation(p, h), h.inverse())
    assert q == p
    moved = conjugate_presentation(p, h)
    assert moved.y[0] == gen(1) * p.y[0] * gen(1, -1)


def test_conjugation_preserves_rep_validity():
    rng = random.Random(12)
    p = builtin("5_2")
    rep = metabelian_rep(p, 3)
    for _ in range(25):
        h = rand_word(rng, p.rank, 4)
        assert validate_rep(conjugate_presentation(p, h), rep) is None


def test_validate_rep_accepts_cover_reps():
    for name, n in (("4_1", 2), ("4_1", 3), ("3_1", 2), ("5_2", 3)):
        p = builtin(name)
        assert validate_rep(p, metabelian_rep(p, n)) is None


def test_validate_rep_trivial_rep_always_passes():
    for name in builtin_names():
        p = builtin(name)
        assert validate_rep(p, trivial_rep(p)) is None


def test_validate_rep_exhaustive_over_z5_images():
    """Exhaustive oracle: for 4_1 at N=2 the compatible images of (x1, x2)
    are exactly the pairs (a, 3a) mod 5 -- brute-forced from the relations
    kappa(rho(y_i)) = rho(z_i) with kappa = -1."""
    p = builtin("4_1")
    H = FiniteAbelianGroup([5])
    kappa = GroupAut(H, [[-1]])
    good = []
    for a in range(5):
        for b in range(5):
            rep = MetaRep(H, kappa, ((a,), (b,)), 2)
            ok1 = (-(a + b)) % 5 == a % 5          # m x1 x2 m^-1 = x1
            ok2 = (-(a + 2 * b)) % 5 == b % 5      # m x2 x1 x2 m^-1 = x2
            if validate_rep(p, rep) is None:
                good.append((a, b))
                assert ok1 and ok2
            else:
                assert not (ok1 and ok2)
    assert good == [(a, (3 * a) % 5) for a in range(5)]


def test_validate_rep_reports_first_violation():
    p = builtin("4_1")
    rep = metabelian_rep(p, 2)
    bad_images = (rep.group.add(rep.images[0], (1,)), rep.images[1])
    bad = MetaRep(rep.group, rep.kappa, bad_images, 2)
    violation = validate_rep(p, bad)
    assert violation is not None and violation.index == 1


def test_equal_presentations_compare_and_hash_equal():
    for name in builtin_names():
        p = builtin(name)
        q = parse_presentation(serialize_presentation(p), name=p.name)
        assert q is not p and q == p and hash(q) == hash(p)
        assert len({p, q}) == 1
    p = builtin("4_1")
    assert MeridianPresentation(p.genus, p.y, p.z, "other") != p


@pytest.mark.parametrize("make, error, message", [
    (lambda: MeridianPresentation(0, (), ()), ParseError,
     "line 1, column 1: genus must be positive, got 0"),
    (lambda: MeridianPresentation(1, (gen(1),), (gen(1), gen(2))), ParseError,
     "line 1, column 1: need 2 relation pairs, got 1/2"),
    (lambda: MeridianPresentation(1, (gen(1), gen(0)), (gen(1), gen(2))), ParseError,
     "line 1, column 1: meridian letter inside y2"),
    (lambda: MeridianPresentation(1, (gen(1), gen(2)), (gen(3), gen(2))), ParseError,
     "line 1, column 1: generator x3 out of range in z1"),
    (lambda: NielsenMove("rotate", 1, 2), ValueError, "unknown Nielsen move kind 'rotate'"),
    (lambda: NielsenMove("swap", 2, 2), ValueError, "swap/multiply moves need distinct indices"),
    (lambda: NielsenMove("right-multiply", 3, 3), ValueError,
     "swap/multiply moves need distinct indices"),
], ids=["genus", "pairs", "meridian", "range", "kind", "swap", "multiply"])
def test_records_reject_invalid_fields(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_nielsen_moves_compare_and_hash_by_value():
    assert NielsenMove("invert", 1) == NielsenMove("invert", 1, 0)
    assert hash(NielsenMove("swap", 1, 2)) == hash(NielsenMove("swap", 1, 2))
    assert NielsenMove("swap", 1, 2) != NielsenMove("swap", 2, 1)
    assert repr(NielsenMove("swap", 1, 2)) == "NielsenMove(kind='swap', i=1, j=2)"


def test_validate_rep_rank_mismatch_raises():
    p = builtin("4_1")
    H = FiniteAbelianGroup([5])
    rep = MetaRep(H, GroupAut(H, [[-1]]), ((1,),), 2)
    with pytest.raises(GroupError):
        validate_rep(p, rep)

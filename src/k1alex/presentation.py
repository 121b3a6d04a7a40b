"""Meridian presentations of knot groups, their parser, and test moves.

A meridian presentation is the data (g, y, z) of the group

    < x_1, ..., x_{2g}, m  |  m y_i m^{-1} = z_i,  i = 1..2g >

where every y_i, z_i is a word in the x's only.  The built-in table carries
the trefoil, figure-eight, and 5_2 presentations used throughout the test
suite.

The text format is line oriented::

    genus 1
    y1 = x1 x2^-1 ; z1 = x1
    y2 = x2 ; z2 = x2 x1^-1

Nielsen moves (basis changes of the free group on the x's) and meridian
conjugations rewrite a presentation without changing the group; they exist so
invariance of the downstream invariants can be exercised directly.
"""

from __future__ import annotations

import re
from typing import Literal, Optional

from .grouprings import GroupError, MetaRep
from .words import IDENTITY, Record, Word, WordError, gen, substitute, word


class ParseError(ValueError):
    """Syntax or consistency error in a presentation file, with position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MeridianPresentation(Record):
    __slots__ = ("genus", "y", "z", "name")

    def __init__(self, genus: int, y: tuple[Word, ...], z: tuple[Word, ...], name: str = ""):
        self.genus, self.y, self.z, self.name = genus, y, z, name
        n = 2 * genus
        if genus < 1:
            raise ParseError(f"genus must be positive, got {genus}", 1)
        if len(y) != n or len(z) != n:
            raise ParseError(f"need {n} relation pairs, got {len(y)}/{len(z)}", 1)
        for side, words in (("y", y), ("z", z)):
            for i, w in enumerate(words, start=1):
                for g in w.generators():
                    if g == 0:
                        raise ParseError(f"meridian letter inside {side}{i}", 1)
                    if not 1 <= g <= n:
                        raise ParseError(f"generator x{g} out of range in {side}{i}", 1)

    @property
    def rank(self) -> int:
        return 2 * self.genus


_ATOM = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def _parse_word(text: str, lineno: int, col0: int, rank: int) -> Word:
    text = text.strip()
    if text == "1":
        return IDENTITY
    letters = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _ATOM.match(text, pos)
        if not m:
            raise ParseError(f"expected atom 'x<k>[^<e>]', found {text[pos:]!r}",
                             lineno, col0 + pos + 1)
        idx = int(m.group(1))
        if not 1 <= idx <= rank:
            raise ParseError(f"generator x{idx} out of range 1..{rank}",
                             lineno, col0 + pos + 1)
        exp = int(m.group(2)) if m.group(2) else 1
        letters.append((idx, exp))
        pos = m.end()
    return word(*letters)


_LINE = re.compile(r"^\s*y(\d+)\s*=\s*(.*?)\s*;\s*z(\d+)\s*=\s*(.*?)\s*$")


def parse_presentation(text: str, name: str = "") -> MeridianPresentation:
    """Parse the line-oriented presentation format.

    Raises :class:`ParseError` with line/column on malformed input, a rank
    mismatch, or a meridian letter inside a relation word.
    """
    lines = text.splitlines()
    genus = None
    header_line = 0
    entries: dict[int, tuple[Word, Word, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if genus is None:
            m = re.match(r"^genus\s+(\d+)$", line)
            if not m:
                raise ParseError("expected header 'genus <g>'", lineno)
            genus = int(m.group(1))
            if genus < 1:
                raise ParseError("genus must be positive", lineno)
            header_line = lineno
            continue
        m = _LINE.match(raw)
        if not m:
            raise ParseError("expected 'y<i> = <word> ; z<i> = <word>'", lineno)
        iy, ytext, iz, ztext = int(m.group(1)), m.group(2), int(m.group(3)), m.group(4)
        if iy != iz:
            raise ParseError(f"indices disagree: y{iy} vs z{iz}", lineno)
        if not 1 <= iy <= 2 * genus:
            raise ParseError(f"relation index {iy} out of range 1..{2 * genus}", lineno)
        if iy in entries:
            raise ParseError(f"duplicate relation index {iy}", lineno)
        yw = _parse_word(ytext, lineno, raw.index("=") + 1, 2 * genus)
        zw = _parse_word(ztext, lineno, raw.rindex("=") + 1, 2 * genus)
        entries[iy] = (yw, zw, lineno)
    if genus is None:
        raise ParseError("empty input: expected 'genus <g>' header", 1)
    if len(entries) < 2 * genus:  # next() stops within len(entries) + 1 steps
        first = next(i for i in range(1, 2 * genus + 1) if i not in entries)
        raise ParseError(f"missing relation(s) for {2 * genus - len(entries)} of "
                         f"{2 * genus} indices, first {first}", header_line or 1)
    ys = tuple(entries[i][0] for i in range(1, 2 * genus + 1))
    zs = tuple(entries[i][1] for i in range(1, 2 * genus + 1))
    return MeridianPresentation(genus, ys, zs, name=name)


def serialize_presentation(p: MeridianPresentation) -> str:
    out = [f"genus {p.genus}"]
    for i in range(p.rank):
        out.append(f"y{i + 1} = {_word_text(p.y[i])} ; z{i + 1} = {_word_text(p.z[i])}")
    return "\n".join(out) + "\n"


def _word_text(w: Word) -> str:
    if w.is_identity():
        return "1"
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in w.letters)


_BUILTINS = {
    "3_1": ("genus 1\n"
            "y1 = x1 x2^-1 ; z1 = x1\n"
            "y2 = x2 ; z2 = x2 x1^-1\n"),
    "4_1": ("genus 1\n"
            "y1 = x1 x2 ; z1 = x1\n"
            "y2 = x2 x1 x2 ; z2 = x2\n"),
    "5_2": ("genus 1\n"
            "y1 = x1^-2 ; z1 = x2 x1^-2\n"
            "y2 = x1^-1 x2 ; z2 = x2\n"),
}


def builtin(name: str) -> MeridianPresentation:
    """Presentation of a knot from the built-in table (3_1, 4_1, 5_2)."""
    try:
        text = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown knot {name!r}; available: {sorted(_BUILTINS)}") from None
    return parse_presentation(text, name=name)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


NielsenKind = Literal["swap", "invert", "left-multiply", "right-multiply"]


class NielsenMove(Record):
    """Elementary basis change of the free group on x_1..x_{2g}.

    swap(i, j):            x_i' = x_j,  x_j' = x_i
    invert(i):             x_i' = x_i^-1
    left-multiply(i, j):   x_i' = x_j x_i
    right-multiply(i, j):  x_i' = x_i x_j
    """

    __slots__ = ("kind", "i", "j")

    def __init__(self, kind: NielsenKind, i: int, j: int = 0):
        self.kind, self.i, self.j = kind, i, j
        if kind not in ("swap", "invert", "left-multiply", "right-multiply"):
            raise ValueError(f"unknown Nielsen move kind {kind!r}")
        if kind != "invert" and i == j:
            raise ValueError("swap/multiply moves need distinct indices")

    def inverse_substitution(self, rank: int) -> dict[int, Word]:
        """Old generators in terms of the new ones (for rewriting words)."""
        if not 1 <= self.i <= rank or (self.kind != "invert" and not 1 <= self.j <= rank):
            raise ValueError(f"move indices out of range 1..{rank}")
        if self.kind == "swap":
            return {self.i: gen(self.j), self.j: gen(self.i)}
        if self.kind == "invert":
            return {self.i: gen(self.i, -1)}
        if self.kind == "left-multiply":
            # x_i' = x_j x_i  =>  x_i = x_j'^-1 x_i'
            return {self.i: gen(self.j, -1) * gen(self.i)}
        # x_i' = x_i x_j  =>  x_i = x_i' x_j'^-1
        return {self.i: gen(self.i) * gen(self.j, -1)}

    def inverse_sequence(self) -> list["NielsenMove"]:
        """Moves undoing this one: itself for swap/invert; a multiply move is
        undone by invert(j), the same move, invert(j)."""
        if self.kind in ("swap", "invert"):
            return [self]
        return [NielsenMove("invert", self.j),
                NielsenMove(self.kind, self.i, self.j),
                NielsenMove("invert", self.j)]


def apply_nielsen(p: MeridianPresentation, move: NielsenMove) -> MeridianPresentation:
    """Rewrite a presentation in the Nielsen-transformed basis."""
    sub = move.inverse_substitution(p.rank)
    ys = tuple(substitute(w, sub) for w in p.y)
    zs = tuple(substitute(w, sub) for w in p.z)
    return MeridianPresentation(p.genus, ys, zs, name=p.name)


def transport_rep(rep: MetaRep, move: NielsenMove) -> MetaRep:
    """Carry representation images along a Nielsen move.

    The new generator x_i' is a word v_i in the old ones, so the transported
    representation sends x_i' to the image of v_i; since H is abelian this is
    a linear update of the image list.
    """
    g = rep.group
    images = list(rep.images)
    i, j = move.i - 1, move.j - 1
    if move.kind == "swap":
        images[i], images[j] = images[j], images[i]
    elif move.kind == "invert":
        images[i] = g.neg(images[i])
    else:  # left/right multiply agree in an abelian target
        images[i] = g.add(images[i], images[j])
    return MetaRep(rep.group, rep.kappa, tuple(images), rep.cover_n, rep.free_rank)


def conjugate_presentation(p: MeridianPresentation, h: Word) -> MeridianPresentation:
    """Presentation with respect to the conjugated meridian m' = h m h^-1.

    ``h`` must be a word in the x's.  The generators are unchanged; every
    relation word is replaced by its h-conjugate, which presents the same
    group with the new meridian.
    """
    if 0 in h.generators():
        raise WordError("conjugator must be a word in the x generators only")
    for g in h.generators():
        if not 1 <= g <= p.rank:
            raise WordError(f"conjugator uses x{g}, out of range 1..{p.rank}")
    hi = h.inverse()
    ys = tuple(h * w * hi for w in p.y)
    zs = tuple(h * w * hi for w in p.z)
    return MeridianPresentation(p.genus, ys, zs, name=p.name)


class RepViolation(Record):
    """First failing relation when checking a representation."""

    __slots__ = ("index", "expected", "got")

    def __init__(self, index: int, expected: tuple[int, ...], got: tuple[int, ...]):
        self.index, self.expected, self.got = index, expected, got

    def __str__(self) -> str:
        return (f"relation {self.index}: kappa(rho(y_{self.index})) = {self.got} "
                f"but rho(z_{self.index}) = {self.expected}")


def validate_rep(p: MeridianPresentation, rep: MetaRep) -> Optional[RepViolation]:
    """Check kappa(rho(y_i)) = rho(z_i) for all relations.

    Returns None when the representation is compatible with the presentation,
    otherwise the first violation.  Raises :class:`GroupError` on a rank
    mismatch.
    """
    if rep.rank != p.rank:
        raise GroupError(f"representation has {rep.rank} images, presentation rank {p.rank}")
    for idx in range(p.rank):
        ry = rep.image_of_exponents([p.y[idx].exponent_sum(k + 1) for k in range(p.rank)])
        rz = rep.image_of_exponents([p.z[idx].exponent_sum(k + 1) for k in range(p.rank)])
        if rep.kappa.apply(ry) != rz:
            return RepViolation(idx + 1, rz, rep.kappa.apply(ry))
    return None

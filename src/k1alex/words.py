"""Free group words and substitution; :class:`Record`, the base of the library's records.

Words live in the free group on generators x_1, ..., x_{2g} together with a
distinguished meridian letter m.  A word is stored run-length compressed, as a
tuple of (generator, signed exponent) pairs with no adjacent pair sharing a
generator and no zero exponent; the empty tuple is the identity.  Generators
are small positive integers, the meridian is the reserved index 0.

There is no free group ring here: Fox derivatives are only ever used after
the representation, so :func:`k1alex.k1core.fox_image` takes them straight
into Z[H], and the cover homology reads exponent sums off the words.
"""

from __future__ import annotations

from typing import Iterable, Mapping

MERIDIAN = 0


class WordError(ValueError):
    """Raised for malformed letters or out-of-range generators."""


def _compress(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for gen, exp in letters:
        if gen < 0:
            raise WordError(f"generator index must be >= 0, got {gen}")
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


class Record:
    """Base of the library's records: ``__slots__`` names the fields, which
    the subclass's ``__init__`` sets.  Records of one class compare, and
    hash, by their fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Word(Record):
    """A freely reduced word, run-length compressed."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()):
        self.letters = letters

    def __mul__(self, other: "Word") -> "Word":
        return Word(_compress(self.letters + other.letters))

    def __pow__(self, n: int) -> "Word":
        """w^n = u c^n u^-1 for w = u c u^-1 with c cyclically reduced, in
        time linear in the output; a one-syllable c = x^e gives x^(n e)."""
        letters = self.letters
        if not n or not letters:
            return Word()
        lo, hi = 0, len(letters)
        while hi - lo > 1 and letters[lo][0] == letters[hi - 1][0]:
            (g, a), b = letters[lo], letters[hi - 1][1]
            lo, hi = lo + 1, hi - 1
            if a + b:  # x^a v x^b = x^a (v x^(a+b)) x^-a
                core = letters[lo:hi] + ((g, a + b),)
                break
        else:
            core = letters[lo:hi]
        if len(core) == 1:
            power = ((core[0][0], core[0][1] * n),)
        else:
            power = (core if n > 0 else Word(core).inverse().letters) * abs(n)
        if not lo:  # w = c, and c^n is reduced
            return Word(power)
        u = Word(letters[:lo])
        return Word(_compress(u.letters + power + u.inverse().letters))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def generators(self) -> set[int]:
        return {g for g, _ in self.letters}

    def exponent_sum(self, gen: int) -> int:
        return sum(e for g, e in self.letters if g == gen)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for g, e in self.letters:
            name = "m" if g == MERIDIAN else f"x{g}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)


IDENTITY = Word()


def word(*letters: tuple[int, int]) -> Word:
    """Build a reduced word from (generator, exponent) pairs."""
    return Word(_compress(letters))


def gen(i: int, exp: int = 1) -> Word:
    return word((i, exp))


def reduce(letters: Iterable[tuple[int, int]], rank: int | None = None) -> Word:
    """Freely reduce a raw letter sequence.

    ``rank`` bounds the admissible x-indices; the meridian (index 0) is always
    allowed.  Reduction is idempotent since the output is stored reduced.
    """
    letters = list(letters)
    if rank is not None:
        for g, _ in letters:
            if g != MERIDIAN and not 1 <= g <= rank:
                raise WordError(f"generator x{g} out of range 1..{rank}")
    return Word(_compress(letters))


def substitute(w: Word, images: Mapping[int, Word]) -> Word:
    """Apply a substitution x_i -> images[i] syllable by syllable.

    Generators absent from ``images`` are kept fixed.  The images' letters
    are collected and reduced once.
    """
    out: list[tuple[int, int]] = []
    for g, e in w.letters:
        img = images.get(g)
        out.extend(((g, e),) if img is None else (img ** e).letters)
    return Word(_compress(out))

"""Free group words and the Fox free differential calculus.

Words live in the free group on generators x_1, ..., x_{2g} together with a
distinguished meridian letter m.  A word is stored run-length compressed, as a
tuple of (generator, signed exponent) pairs with no adjacent pair sharing a
generator and no zero exponent; the empty tuple is the identity.  Generators
are small positive integers, the meridian is the reserved index 0.

The Fox derivative d/dx_i is the Z-linear map on the group ring Z[F]
determined by

    d x_j / d x_i = delta_ij,     d(hk)/dx_i = dh/dx_i + h * dk/dx_i,

from which d(x_i^-1)/dx_i = -x_i^-1 follows.  Derivatives are returned as
:class:`FreeRingElem`, a finitely supported integer combination of words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word, run-length compressed."""

    letters: tuple[tuple[int, int], ...] = ()

    def __mul__(self, other: "Word") -> "Word":
        return Word(_compress(self.letters + other.letters))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def generators(self) -> set[int]:
        return {g for g, _ in self.letters}

    def exponent_sum(self, gen: int) -> int:
        return sum(e for g, e in self.letters if g == gen)

    def syllables(self) -> Iterator[tuple[int, int]]:
        """Yield single letters (gen, +-1) left to right."""
        for g, e in self.letters:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield g, step

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


class FreeRingElem:
    """Finitely supported integer combination of words (an element of Z[F])."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] | None = None):
        clean = {w: c for w, c in (terms or {}).items() if c}
        self.terms: dict[Word, int] = clean

    @classmethod
    def zero(cls) -> "FreeRingElem":
        return cls()

    @classmethod
    def of(cls, w: Word, coeff: int = 1) -> "FreeRingElem":
        return cls({w: coeff})

    def __add__(self, other: "FreeRingElem") -> "FreeRingElem":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return FreeRingElem(out)

    def __neg__(self) -> "FreeRingElem":
        return FreeRingElem({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FreeRingElem") -> "FreeRingElem":
        return self + (-other)

    def __mul__(self, other: "FreeRingElem") -> "FreeRingElem":
        out: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return FreeRingElem(out)

    def word_multiply(self, w: Word, *, left: bool = True) -> "FreeRingElem":
        if left:
            return FreeRingElem({w * t: c for t, c in self.terms.items()})
        return FreeRingElem({t * w: c for t, c in self.terms.items()})

    def coefficient_sum(self) -> int:
        """Image under the augmentation sending every word to 1."""
        return sum(self.terms.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeRingElem) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({w})" for w, c in self.terms.items())


def fox_derivative(w: Word, target: int) -> FreeRingElem:
    """Fox derivative of a word with respect to generator ``target``.

    The meridian (index 0) is treated as one more free generator, so
    derivatives of full relator words are available as well.
    """
    out: dict[Word, int] = {}
    prefix = IDENTITY
    for g, step in w.syllables():
        if g == target:
            if step > 0:
                out[prefix] = out.get(prefix, 0) + 1
            else:
                t = prefix * gen(g, -1)
                out[t] = out.get(t, 0) - 1
        prefix = prefix * gen(g, step)
    return FreeRingElem(out)


def substitute(w: Word, images: Mapping[int, Word]) -> Word:
    """Apply a substitution x_i -> images[i] letter by letter.

    Generators absent from ``images`` are kept fixed.  The result is reduced.
    """
    out = IDENTITY
    for g, e in w.letters:
        img = images.get(g)
        out = out * (gen(g, e) if img is None else img ** e)
    return out

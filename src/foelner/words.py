"""Exact word arithmetic and Cayley-ball enumeration for marked groups.

Two families are supported: free groups F_n (reduced letter sequences) and
free abelian groups Z^d (exponent vectors).  Letters are encoded as signed
integers: +i is the i-th generator, -i its inverse, with i in 1..rank.
Canonical enumeration order everywhere is shortlex with letter order
a1 < a1^-1 < a2 < a2^-1 < ...
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DescriptorMismatch, InvalidDescriptor, InvalidLetter, SearchSpaceTooLarge

FREE = "free"
ABELIAN = "abelian"
ENUMERATION_CAP = 200_000  # largest Cayley ball that is ever materialized
INTEGER_CAP = 1_000_000  # most integers a Z^d generator list or ball may store (d^2, or |ball| * d)
LETTER_CAP = 2_000_000  # most letters an F_n ball may store; ball(F_2, 10), the most for n >= 2, holds 1,121,932
TABLE_CAP = 100_000_000  # most operations the tables of translates of one run may cost (check_translation_cost)
TABLE_ENTRY_COST = 64  # one product and its lookup, counted in integer additions


@dataclass(frozen=True)
class GroupDescriptor:
    """Identity of a marked group: kind ('free' or 'abelian') and rank >= 1."""

    kind: str
    rank: int

    def __post_init__(self):
        if self.kind not in (FREE, ABELIAN):
            raise InvalidDescriptor(f"unknown group kind {self.kind!r}")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise InvalidDescriptor(f"rank must be a positive integer, got {self.rank!r}")

    @property
    def is_free(self) -> bool:
        return self.kind == FREE

    def spec(self) -> str:
        return f"{self.kind}:{self.rank}"

    @staticmethod
    def parse(spec: str) -> "GroupDescriptor":
        m = re.fullmatch(r"(free|abelian):(\d+)", spec.strip())
        if not m:
            raise InvalidDescriptor(f"cannot parse group spec {spec!r} (expected free:N or abelian:N)")
        return GroupDescriptor(m.group(1), int(m.group(2)))


def free_group(rank: int) -> GroupDescriptor:
    return GroupDescriptor(FREE, rank)


def free_abelian(rank: int) -> GroupDescriptor:
    return GroupDescriptor(ABELIAN, rank)


def _check_letters(descriptor: GroupDescriptor, letters: Iterable[int]) -> tuple[int, ...]:
    out = tuple(letters)
    for l in out:
        if l == 0 or abs(l) > descriptor.rank:
            raise InvalidLetter(f"letter {l} out of range for rank {descriptor.rank}")
    return out


def _reduce_free(letters: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A group element in normal form.

    Free groups: `data` is the fully reduced letter sequence.  Free abelian
    groups: `data` is the exponent vector (length = rank).  Equality and
    hashing are structural on the normal form.
    """

    descriptor: GroupDescriptor
    data: tuple[int, ...]

    @staticmethod
    def identity(descriptor: GroupDescriptor) -> "Word":
        if descriptor.is_free:
            return Word(descriptor, ())
        return Word(descriptor, (0,) * descriptor.rank)

    @staticmethod
    def from_letters(descriptor: GroupDescriptor, letters: Iterable[int]) -> "Word":
        """Build a word from raw letters, reducing / accumulating as needed."""
        ls = _check_letters(descriptor, letters)
        if descriptor.is_free:
            return Word(descriptor, _reduce_free(ls))
        vec = [0] * descriptor.rank
        for l in ls:
            vec[abs(l) - 1] += 1 if l > 0 else -1
        return Word(descriptor, tuple(vec))

    @staticmethod
    def from_vector(descriptor: GroupDescriptor, vec: Sequence[int]) -> "Word":
        if descriptor.is_free:
            raise InvalidLetter("exponent vectors only make sense for abelian descriptors")
        if len(vec) != descriptor.rank:
            raise InvalidLetter(f"vector length {len(vec)} != rank {descriptor.rank}")
        return Word(descriptor, tuple(int(c) for c in vec))

    @property
    def is_identity(self) -> bool:
        return all(c == 0 for c in self.data) if not self.descriptor.is_free else not self.data

    def length(self) -> int:
        """Word length: letter count for free groups, l1 norm for abelian ones."""
        if self.descriptor.is_free:
            return len(self.data)
        return sum(abs(c) for c in self.data)

    def inverse(self) -> "Word":
        if self.descriptor.is_free:
            return Word(self.descriptor, tuple(-l for l in reversed(self.data)))
        return Word(self.descriptor, tuple(-c for c in self.data))

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _product(free: bool, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Normal form of the product of the normal forms a and b."""
    if not free:
        return tuple(map(operator.add, a, b))
    # only the seam can cancel; both factors are already reduced
    i, n = 0, min(len(a), len(b))
    while i < n and a[-1 - i] == -b[i]:
        i += 1
    return a[: len(a) - i] + b[i:]


def multiply(u: Word, v: Word) -> Word:
    """Reduced product uv."""
    if u.descriptor != v.descriptor:
        raise DescriptorMismatch(f"{u.descriptor.spec()} vs {v.descriptor.spec()}")
    return Word(u.descriptor, _product(u.descriptor.is_free, u.data, v.data))


def letter_order_index(l: int) -> int:
    """Position of a letter in the canonical order a1 < a1^-1 < a2 < a2^-1 < ..."""
    return 2 * (abs(l) - 1) + (0 if l > 0 else 1)


def shortlex_key(w: Word) -> tuple:
    """Sort key for shortlex order.  An abelian word spells as its a1-run, then its a2-run, ...;
    the entries (0, -c), (1, c) and (2, 0) for a coordinate c > 0, < 0 and = 0 order
    those spellings at O(d) cost rather than O(|w|)."""
    if w.descriptor.is_free:
        return (len(w.data), tuple(letter_order_index(l) for l in w.data))
    return (w.length(), tuple((0, -c) if c > 0 else (1, c) if c < 0 else (2, 0) for c in w.data))


def letters_in_order(rank: int) -> tuple[int, ...]:
    """All letters of a rank-n free group in canonical order."""
    return tuple(l for i in range(1, rank + 1) for l in (i, -i))


def word_positions(words: Sequence[Word]) -> dict:
    """The position in `words` of each word's normal form, for translation_indices."""
    return {w.data: i for i, w in enumerate(words)}


def translation_indices(words: Sequence[Word], g: Word, right: bool = False, where: dict | None = None) -> np.ndarray:
    """idx[i] = position in `words` of g * words[i] (of words[i] * g when
    `right`), or -1 where that product is not in `words`; all of one group.
    A caller translating `words` by several g builds `where`, word_positions(words), once."""
    if words and words[0].descriptor != g.descriptor:
        raise DescriptorMismatch(f"{words[0].descriptor.spec()} vs {g.descriptor.spec()}")
    if where is None:
        where = word_positions(words)
    free, gd = g.descriptor.is_free, g.data
    products = (_product(free, w.data, gd) if right else _product(free, gd, w.data) for w in words)
    return np.fromiter((where.get(p, -1) for p in products), dtype=np.int64, count=len(words))


def check_translation_cost(descriptor: GroupDescriptor, words: Sequence[Word], radius: int) -> None:
    """Refuse, before any ball is built, to multiply each word of ball(radius) by each of `words`
    (translation_indices) past TABLE_CAP operations: TABLE_ENTRY_COST per product plus the
    integers it reads, those of w (d in Z^d) and, in F_n, up to `radius` of the ball word."""
    per_ball_word = len(words) * (TABLE_ENTRY_COST + (radius if descriptor.is_free else 0))
    cost = capped_ball_size(descriptor, radius) * (per_ball_word + sum(len(w.data) for w in words))
    if cost > TABLE_CAP:
        raise SearchSpaceTooLarge(f"the tables of translates cost {cost} operations > the cap of {TABLE_CAP}")


def letter_array(words: Sequence[Word]) -> np.ndarray:
    """N x (longest length + 1) array for N >= 1 free-group words: row i holds the
    letters of words[i], zero-padded, so every row ends in a 0 (the layout
    PrefixSet.row_mask reads)."""
    width = max(len(w.data) for w in words) + 1
    return np.array([w.data + (0,) * (width - len(w.data)) for w in words], dtype=np.int64)


def extend_free(descriptor: GroupDescriptor, level: Sequence[Word]) -> list[Word]:
    """Every reduced word w.l of F_n with w in `level`: shortlex-sorted when
    `level` is a shortlex-sorted list of words of one length."""
    order = letters_in_order(descriptor.rank)
    out: list[Word] = []
    for w in level:
        last = w.data[-1] if w.data else 0
        out += [Word(descriptor, w.data + (l,)) for l in order if l != -last]
    return out


def _free_spheres(descriptor: GroupDescriptor, radius: int) -> list[list[Word]]:
    """Spheres 0..radius, each shortlex-sorted."""
    spheres = [[Word.identity(descriptor)]]
    for _ in range(radius):
        spheres.append(extend_free(descriptor, spheres[-1]))
    return spheres


def _l1_supports(dim: int, start: int, budget: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The nonzero entries (position, value), at positions >= start, of every
    integer vector of length `dim` with l1 norm <= budget.  Each recursion
    level spends at least 1 of the budget, so the depth stays below
    min(dim, budget) + 2 however large `dim` is."""
    yield ()
    if budget == 0:
        return
    for p in range(start, dim):
        for m in range(1, budget + 1):
            for rest in _l1_supports(dim, p + 1, budget - m):
                yield ((p, m),) + rest
                yield ((p, -m),) + rest


def _abelian_elements(descriptor: GroupDescriptor, radius: int) -> list[Word]:
    out = []
    for support in _l1_supports(descriptor.rank, 0, radius):
        vec = [0] * descriptor.rank
        for p, c in support:
            vec[p] = c
        out.append(Word(descriptor, tuple(vec)))
    out.sort(key=shortlex_key)
    return out


# A run reuses at most three balls (identity-check draws frames on three
# radii); an unbounded cache would pin every ball a long-lived caller ever
# built, each of up to ENUMERATION_CAP words (about 45 MB at 199,081 words).
@lru_cache(maxsize=4)
def ball(descriptor: GroupDescriptor, radius: int) -> tuple[Word, ...]:
    """The Cayley ball for the standard generators: its words of length <= radius,
    shortlex-sorted and duplicate-free.

    Refuses, before building anything, when the ball has more than
    ENUMERATION_CAP elements, or stores more than INTEGER_CAP integers (Z^d) or
    LETTER_CAP letters (F_n).
    """
    if radius < 0:
        raise InvalidDescriptor(f"radius must be >= 0, got {radius}")
    size = capped_ball_size(descriptor, radius)
    if size > ENUMERATION_CAP:
        raise SearchSpaceTooLarge(f"ball({descriptor.spec()}, {radius}) exceeds the cap of {ENUMERATION_CAP} elements")
    if descriptor.is_free and free_ball_letters(descriptor.rank, radius) > LETTER_CAP:
        raise SearchSpaceTooLarge(f"ball({descriptor.spec()}, {radius}) stores more than {LETTER_CAP} letters")
    if not descriptor.is_free and size * descriptor.rank > INTEGER_CAP:
        raise SearchSpaceTooLarge(f"ball({descriptor.spec()}, {radius}) stores more than {INTEGER_CAP} integers")
    if descriptor.is_free:
        return tuple(w for sphere in _free_spheres(descriptor, radius) for w in sphere)
    return tuple(_abelian_elements(descriptor, radius))


def ball_size(descriptor: GroupDescriptor, radius: int) -> int:
    """|ball(radius)| in closed form; for Z^d it is sum_k 2^k C(d,k) C(r,k)."""
    if descriptor.is_free:
        return free_ball_size(descriptor.rank, radius)
    d = descriptor.rank
    return sum(2**k * math.comb(d, k) * math.comb(radius, k) for k in range(min(d, radius) + 1))


def capped_ball_size(descriptor: GroupDescriptor, radius: int) -> int:
    """min(|ball(radius)|, ENUMERATION_CAP + 1) for radius >= 0."""
    # every sphere of radius 1..radius holds at least 2 * rank words; that cheap
    # bound keeps the closed form away from huge ranks and radii
    if 1 + 2 * descriptor.rank * radius > ENUMERATION_CAP:
        return ENUMERATION_CAP + 1
    return min(ball_size(descriptor, radius), ENUMERATION_CAP + 1)


def free_ball_size(rank: int, radius: int) -> int:
    """Closed form 1 + 2n((2n-1)^r - 1)/(2n-2) for |ball(F_n, r)|."""
    if radius == 0:
        return 1
    n = rank
    if n == 1:
        return 2 * radius + 1
    return 1 + 2 * n * ((2 * n - 1) ** radius - 1) // (2 * n - 2)


def free_ball_letters(rank: int, radius: int) -> int:
    """Letters stored by ball(F_n, radius): sum_r r |sphere(r)|, radius (radius + 1) for F_1."""
    return sum(r * free_sphere_size(rank, r) for r in range(1, radius + 1))


def free_sphere_size(rank: int, radius: int) -> int:
    if radius == 0:
        return 1
    n = rank
    return 2 * n * (2 * n - 1) ** (radius - 1)


# ---------------------------------------------------------------------------
# Textual word syntax: generators a1..an, inverses A1..An, '.'-separated,
# 'e' for the identity; abelian elements as comma-separated ints in parens.

_TOKEN_RE = re.compile(r"([aA])(\d+)")


def format_word(w: Word) -> str:
    if not w.descriptor.is_free:
        return "(" + ",".join(str(c) for c in w.data) + ")"
    if w.is_identity:
        return "e"
    return ".".join((f"a{l}" if l > 0 else f"A{-l}") for l in w.data)


def parse_word(descriptor: GroupDescriptor, text: str) -> Word:
    text = text.strip()
    if not descriptor.is_free:
        m = re.fullmatch(r"\(([-\d,\s]*)\)", text)
        if not m:
            raise InvalidLetter(f"cannot parse abelian element {text!r} (expected e.g. '(2,-1)')")
        parts = [p.strip() for p in m.group(1).split(",")] if m.group(1).strip() else []
        return Word.from_vector(descriptor, [int(p) for p in parts])
    if text == "e":
        return Word.identity(descriptor)
    letters = []
    for tok in text.split("."):
        m = _TOKEN_RE.fullmatch(tok.strip())
        if not m:
            raise InvalidLetter(f"cannot parse letter {tok!r} in word {text!r}")
        idx = int(m.group(2))
        letters.append(idx if m.group(1) == "a" else -idx)
    return Word.from_letters(descriptor, letters)


def standard_generators(descriptor: GroupDescriptor) -> tuple[Word, ...]:
    """a1..an; refused beyond ENUMERATION_CAP words or, for Z^d, INTEGER_CAP stored integers (d^2)."""
    n = descriptor.rank
    if n > ENUMERATION_CAP or (not descriptor.is_free and n * n > INTEGER_CAP):
        raise SearchSpaceTooLarge(f"the standard generators of {descriptor.spec()} exceed the word or integer cap")
    if descriptor.is_free:
        return tuple(Word(descriptor, (i,)) for i in range(1, n + 1))
    gens = []
    for i in range(descriptor.rank):
        vec = [0] * descriptor.rank
        vec[i] = 1
        gens.append(Word(descriptor, tuple(vec)))
    return tuple(gens)


def parse_generators(descriptor: GroupDescriptor, text: str) -> tuple[Word, ...]:
    """Parse a comma-separated generator list, paren-aware for abelian tuples."""
    items: list[str] = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            items.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        items.append(cur)
    words = tuple(parse_word(descriptor, item) for item in items)
    if not words:
        raise InvalidLetter("empty generator list")
    return words

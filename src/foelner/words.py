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
from typing import Callable, Iterable, Sequence

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


def multiply(u: Word, v: Word) -> Word:
    """Reduced product uv."""
    if u.descriptor != v.descriptor:
        raise DescriptorMismatch(f"{u.descriptor.spec()} vs {v.descriptor.spec()}")
    a, b = u.data, v.data
    if not u.descriptor.is_free:
        return Word(u.descriptor, tuple(map(operator.add, a, b)))
    # only the seam can cancel; both factors are already reduced
    i, n = 0, min(len(a), len(b))
    while i < n and a[-1 - i] == -b[i]:
        i += 1
    return Word(u.descriptor, a[: len(a) - i] + b[i:])


def letters_in_order(rank: int) -> tuple[int, ...]:
    """All letters of a rank-n free group in canonical order."""
    return tuple(l for i in range(1, rank + 1) for l in (i, -i))


# ---------------------------------------------------------------------------
# Arrays of normal forms, the one form of a set of group elements.  Row i holds
# element i: its d exponents in Z^d (int64), or its F_n letters zero-padded to at
# least the longest length + 1, so every row ends in a 0 (the layout
# paradox.PrefixSet.row_mask reads), in the smallest integer type that holds
# +-(4n + 1): one byte a letter in F_1, whose balls are the widest arrays.


def _letter_type(rank: int) -> np.dtype:
    return np.min_scalar_type(-4 * rank - 1)


def element_array(descriptor: GroupDescriptor, words: Sequence[Word]) -> np.ndarray:
    """The rows of `words`, all of `descriptor` (a Z^d entry past int64 makes an object array)."""
    if not descriptor.is_free:
        return np.array([w.data for w in words]).reshape(len(words), descriptor.rank)
    out = np.zeros((len(words), max((len(w.data) for w in words), default=0) + 1), _letter_type(descriptor.rank))
    for row, w in zip(out, words):  # row by row: no padded copy of a long word is made
        row[: len(w.data)] = w.data
    return out


def words_of(descriptor: GroupDescriptor, a: np.ndarray) -> list[Word]:
    """The Word of each row of an array of `descriptor`."""
    if descriptor.is_free:  # a row at a time: the padding of a wide array never makes one big list
        return [Word(descriptor, tuple(filter(None, row.tolist()))) for row in a]
    return [Word(descriptor, tuple(row)) for row in a.tolist()]


def row_lengths(descriptor: GroupDescriptor, a: np.ndarray) -> np.ndarray:
    """The word length of each row: its letters in F_n, its l1 norm in Z^d."""
    return (a != 0).sum(axis=1) if descriptor.is_free else np.abs(a).sum(axis=1)


def shortlex_keys(descriptor: GroupDescriptor, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, codes >= 0): rows compare in shortlex order as their lengths, then their codes,
    compare lexicographically.  An F_n letter l codes as |4l - 1| (padding 1, then 3, 5, 7, ...
    for a1 < a1^-1 < a2 < ...).  A Z^d word spells as its a1-run, its a2-run, ...; at length L
    a coordinate c > 0, < 0, = 0 codes as L - c, 2L + c, 2L, which orders those spellings in
    O(d).  Codes meet only at equal lengths, so keys of different arrays compare too."""
    lengths = row_lengths(descriptor, a)
    if descriptor.is_free:
        codes = a * 4  # in place from here: an F_1 ball is a wide array
        codes -= 1
        return lengths, np.abs(codes, out=codes)
    n = lengths[:, None]
    return lengths, np.where(a > 0, n - a, np.where(a < 0, 2 * n + a, 2 * n))


def shortlex_order(descriptor: GroupDescriptor, a: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts the rows of `a` into shortlex order."""
    lengths, codes = shortlex_keys(descriptor, a)
    return np.lexsort((*codes.T[::-1], lengths))


def shortlex_sorted(descriptor: GroupDescriptor, words: Iterable[Word]) -> list[Word]:
    """`words`, all of `descriptor`, in shortlex order."""
    words = list(words)
    return [words[i] for i in shortlex_order(descriptor, element_array(descriptor, words))]


def _packed_keys(descriptor: GroupDescriptor, a: np.ndarray, code_type: np.dtype) -> np.ndarray:
    """A byte string per row, in shortlex order as bytes: the big-endian length and codes, these
    in `code_type`, an unsigned type that holds every code of `a`."""
    lengths, codes = shortlex_keys(descriptor, a)
    out = np.empty((len(a), 4 + a.shape[1] * code_type.itemsize), dtype=np.uint8)
    out[:, :4].view(">u4")[:, 0] = lengths
    out[:, 4:].view(code_type.newbyteorder(">"))[...] = codes
    return out.view(f"S{out.shape[1]}").ravel()


def _times(rows: np.ndarray, lengths: np.ndarray, letters: tuple[int, ...], right: bool) -> np.ndarray:
    """The F_n rows w.t (t.w unless `right`), |t| columns wider, for t the product of `letters`:
    each letter in turn cancels the last (first) letter of a row or is written after (before) it."""
    at, lengths = np.arange(len(rows)), lengths.copy()
    out = np.zeros((len(rows), rows.shape[1] + len(letters)), dtype=rows.dtype)
    out[:, : rows.shape[1]] = rows
    for x in letters if right else letters[::-1]:
        if right:
            cancels = out[at, np.maximum(lengths - 1, 0)] == -x  # the identity's column 0 holds no letter
            lengths -= cancels
            out[at, lengths] = np.where(cancels, 0, x)
            lengths += ~cancels
        else:  # the last column is still 0, so no shift loses a letter
            cancels = out[:, 0] == -x
            out[cancels, :-1] = out[cancels, 1:]
            out[~cancels, 1:] = out[~cancels, :-1]
            out[~cancels, 0] = x
    return out


def translation_indices(descriptor: GroupDescriptor, rows: np.ndarray, gs: Sequence[Word], right: bool = False) -> np.ndarray:
    """idx[j, i] = position in `rows`, a shortlex-sorted array of distinct elements of `descriptor`,
    of gs[j] * rows[i] (of rows[i] * gs[j] when `right`), or -1 where that product is not a row.
    The byte keys of `rows` are packed once for all of `gs`."""
    lengths = row_lengths(descriptor, rows)
    longest = int(lengths.max(initial=0))
    code_type = np.min_scalar_type(4 * descriptor.rank + 1 if descriptor.is_free else 2 * longest)
    keys = _packed_keys(descriptor, rows, code_type)
    idx = np.full((len(gs), len(rows)), -1, dtype=np.int64)
    for out, g in zip(idx, gs):
        if g.descriptor != descriptor:
            raise DescriptorMismatch(f"{descriptor.spec()} vs {g.descriptor.spec()}")
        if g.length() > 2 * longest:
            continue  # every product is longer than every row; g's integers need fit no dtype
        if descriptor.is_free:
            products = _times(rows, lengths, g.data, right)
        else:
            products = rows + np.array(g.data, dtype=np.int64)
        fit = np.flatnonzero(row_lengths(descriptor, products) <= longest)  # the others are no row
        products = products[fit, : rows.shape[1]]
        wanted = _packed_keys(descriptor, products, code_type)
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = keys[pos] == wanted
        out[fit[hit]] = pos[hit]
    return idx


def check_translation_cost(descriptor: GroupDescriptor, words: Sequence[Word], radius: int) -> None:
    """Refuse, before any ball is built, to multiply each word of ball(radius) by each of `words`
    (translation_indices) past TABLE_CAP operations: TABLE_ENTRY_COST per product plus the
    integers it reads, those of w (d in Z^d) and, in F_n, up to `radius` of the ball word."""
    per_ball_word = len(words) * (TABLE_ENTRY_COST + (radius if descriptor.is_free else 0))
    cost = capped_ball_size(descriptor, radius) * (per_ball_word + sum(len(w.data) for w in words))
    if cost > TABLE_CAP:
        raise SearchSpaceTooLarge(f"the tables of translates cost {cost} operations > the cap of {TABLE_CAP}")


def _free_words(rank: int, first: tuple[int, ...], more: Callable[[list], bool]) -> np.ndarray:
    """The reduced words first.u of F_n in shortlex order, a sphere at a time while
    more(spheres so far) holds, zero-padded to the longest length + 1."""
    letters = np.array(letters_in_order(rank), dtype=_letter_type(rank))
    spheres = [np.array([first], dtype=letters.dtype).reshape(1, len(first))]
    while more(spheres):
        last = spheres[-1][:, -1] if spheres[-1].shape[1] else np.zeros(1, dtype=letters.dtype)
        parent, j = np.nonzero(letters != -last[:, None])  # each row, then each letter in order
        spheres.append(np.column_stack([spheres[-1][parent], letters[j]]))
    out = np.zeros((sum(map(len, spheres)), spheres[-1].shape[1] + 1), dtype=letters.dtype)
    start = 0
    for s in spheres:
        out[start : start + len(s), : s.shape[1]] = s
        start += len(s)
    return out


def prefixed_words(descriptor: GroupDescriptor, first_letter: int, count: int) -> np.ndarray:
    """The first `count` >= 1 shortlex words of F_n beginning with `first_letter`."""
    return _free_words(descriptor.rank, (first_letter,), lambda spheres: sum(map(len, spheres)) < count)[:count]


def _abelian_ball(descriptor: GroupDescriptor, radius: int) -> np.ndarray:
    """Coordinate by coordinate, each vector of l1 norm u so far takes each next coordinate c with
    |c| <= radius - u; a level keeps its choices and their parents, read back at the end: O(|ball| d)."""
    d = descriptor.rank
    used = np.zeros(1, dtype=np.int64)
    levels = []
    for _ in range(d if radius else 0):  # radius 0 leaves every coordinate at 0, for any d
        room = radius - used
        count = 2 * room + 1
        parent = np.repeat(np.arange(len(used)), count)
        c = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count + room, count)  # -room..room
        used = used[parent] + np.abs(c)
        levels.append((parent, c))
    out = np.zeros((len(used), d), dtype=np.int64)
    at = np.arange(len(used))
    for p in range(len(levels) - 1, -1, -1):
        parent, c = levels[p]
        out[:, p] = c[at]
        at = parent[at]
    return out[shortlex_order(descriptor, out)]


# A run reuses at most three balls (identity-check draws frames on three
# radii); an unbounded cache would pin every ball a long-lived caller ever
# built, each of up to 8 MB (INTEGER_CAP int64 exponents; the widest F_n ball,
# F_1 at radius 1,413, holds 4 MB of one-byte letters and padding).
@lru_cache(maxsize=4)
def ball(descriptor: GroupDescriptor, radius: int) -> np.ndarray:
    """The Cayley ball for the standard generators: the read-only array of the normal forms of
    its words of length <= radius, shortlex-sorted and duplicate-free, so e is row 0 and
    ball(r) is the first ball_size(r) rows of ball(radius) for every r <= radius.

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
        out = _free_words(descriptor.rank, (), lambda spheres: len(spheres) <= radius)
    else:
        out = _abelian_ball(descriptor, radius)
    out.flags.writeable = False
    return out


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
    return tuple(words_of(descriptor, np.arange(1, n + 1)[:, None] if descriptor.is_free else np.eye(n, dtype=np.int64)))


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

"""Word arithmetic and ball enumeration."""

import itertools
import random

import numpy as np
import pytest

from foelner import words
from foelner.boundary import GeneratingSet
from foelner.connes import WitnessConfig, build_witness_frame
from foelner.errors import DescriptorMismatch, InvalidDescriptor, InvalidLetter, SearchSpaceTooLarge
from foelner.words import (
    GroupDescriptor,
    Word,
    ball,
    ball_size,
    ball_units,
    element_array,
    format_word,
    free_abelian,
    free_ball_size,
    free_group,
    multiply,
    parse_generators,
    parse_word,
    shortlex_keys,
    standard_generators,
    translation_indices,
    words_of,
)
from table_helpers import TABLE_CASES, generating_set, oracle_translation_indices

F2 = free_group(2)
Z2 = free_abelian(2)


# ---------------------------------------------------------------------------
# Independent oracle: plain stack reduction and brute-force BFS ball.


def oracle_reduce(letters):
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def oracle_ball_free(rank, radius):
    gens = [g for i in range(1, rank + 1) for g in (i, -i)]
    seen = {()}
    frontier = {()}
    for _ in range(radius):
        nxt = set()
        for w in frontier:
            for g in gens:
                r = oracle_reduce(w + (g,))
                if r not in seen:
                    nxt.add(r)
        seen |= nxt
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------


def test_reduce_examples():
    assert Word.from_letters(F2, [1, -1]) == Word.identity(F2)
    assert Word.from_letters(F2, [1, 2, -2, 1]) == Word(F2, (1, 1))
    assert Word.from_letters(F2, [-1, 1, 1]) == Word(F2, (1,))


def test_reduce_idempotent():
    for letters in itertools.product([1, -1, 2, -2], repeat=5):
        w = Word.from_letters(F2, letters)
        assert Word.from_letters(F2, w.data) == w


def test_reduce_rejects_out_of_range():
    with pytest.raises(InvalidLetter):
        Word.from_letters(F2, [3])
    with pytest.raises(InvalidLetter):
        Word.from_letters(F2, [0])


def test_multiply_examples():
    u = Word.from_letters(F2, [1, 2])
    v = Word.from_letters(F2, [-2, 1])
    assert multiply(u, v) == Word(F2, (1, 1))
    w = Word.from_letters(F2, [1, -2, 1])
    assert multiply(Word.identity(F2), w) == w
    assert multiply(Word.from_vector(Z2, (2, -1)), Word.from_vector(Z2, (-2, 3))) == Word.from_vector(Z2, (0, 2))


def test_multiply_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        multiply(Word.identity(F2), Word.identity(Z2))


@pytest.mark.parametrize("descriptor, gens, radius", TABLE_CASES)
def test_translation_indices_match_the_word_oracle(descriptor, gens, radius):
    # left and right translates of the ball by every word of X u X^-1, e included
    b = ball(descriptor, radius)
    words = words_of(descriptor, b)
    gs = generating_set(descriptor, gens).closure()
    for right in (False, True):
        got = translation_indices(descriptor, b, gs, right=right)
        assert got.shape == (len(gs), len(b))
        for g, row in zip(gs, got):
            assert row.tolist() == oracle_translation_indices(words, g, right).tolist()


def gapped_rows():
    """Shortlex-sorted row sets with gaps, as frames have them: seeded thirds of balls, and
    the rows of witness frames, longer than any admitted ball (k + 3 letters at k = 30)."""
    rng = np.random.default_rng(5)
    cases = []
    for descriptor, radius in ((F2, 4), (free_group(3), 3), (free_group(1), 9), (Z2, 6), (free_abelian(4), 3)):
        b = ball(descriptor, radius)
        cases.append((descriptor, b[np.sort(rng.choice(len(b), size=len(b) // 3, replace=False))]))
    for n, k, depth in ((2, 30, 6), (3, 5, 4)):
        cases.append((free_group(n), build_witness_frame(WitnessConfig(n, k, depth)).rows))
    return cases


@pytest.mark.parametrize("descriptor, rows", gapped_rows())
def test_translation_indices_on_rows_with_gaps_match_the_word_oracle(descriptor, rows):
    # by the generators, their inverses, e and some rows themselves, long ones among them
    words = words_of(descriptor, rows)
    gs = [*generating_set(descriptor, None).closure(), Word.identity(descriptor), *words[:: max(1, len(words) // 9)]]
    for right in (False, True):
        got = translation_indices(descriptor, rows, gs, right=right)
        for g, row in zip(gs, got, strict=True):
            assert row.tolist() == oracle_translation_indices(words, g, right).tolist()


def test_translation_by_integers_past_every_dtype():
    # a Z^d generator of 10^20 moves every row out of the ball, without any integer overflow
    huge = [Word(Z2, (10**20, 0)), Word(Z2, (-(10**20), 1)), Word(Z2, (3, 2**63))]
    b = ball(Z2, 3)
    for right in (False, True):
        assert translation_indices(Z2, b, huge, right=right).tolist() == [[-1] * len(b)] * len(huge)
    X = GeneratingSet.of(Z2, huge + [Word(Z2, (1, 0))])  # sorted by length first
    assert X.generators == (Word(Z2, (1, 0)), huge[2], huge[0], huge[1])


def test_translation_indices_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        translation_indices(F2, ball(F2, 1), [Word.identity(free_group(3))])
    with pytest.raises(DescriptorMismatch):
        translation_indices(Z2, ball(Z2, 1), [Word.identity(Z2), Word.identity(F2)], right=True)


def test_group_axioms_exhaustive_on_ball3():
    elems = words_of(F2, ball(F2, 3))
    e = Word.identity(F2)
    for u in elems:
        assert multiply(e, u) == u
        assert multiply(u, u.inverse()) == e
    # associativity over a full cube of ball(2) plus spot checks at radius 3
    b2 = words_of(F2, ball(F2, 2))
    for u in b2:
        for v in b2:
            for w in b2:
                assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
    for u, v, w in itertools.islice(itertools.product(elems, elems[::7], elems[::11]), 4000):
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_abelian_axioms():
    elems = words_of(Z2, ball(Z2, 2))
    e = Word.identity(Z2)
    for u in elems:
        assert multiply(u, u.inverse()) == e
        for v in elems:
            assert multiply(u, v) == multiply(v, u)


def test_length_subadditive():
    elems = words_of(F2, ball(F2, 3))
    for u in elems[::5]:
        for v in elems[::7]:
            assert multiply(u, v).length() <= u.length() + v.length()


def test_ball_sizes_against_oracle_and_closed_form():
    assert len(ball(F2, 2)) == 17
    assert len(ball(F2, 0)) == 1
    assert words_of(F2, ball(F2, 0)) == [Word.identity(F2)]
    assert len(ball(Z2, 1)) == 5
    for n in (2, 3):
        d = free_group(n)
        for r in range(0, 7):
            expected = oracle_ball_free(n, r)
            got = words_of(d, ball(d, r))
            assert len(got) == len(expected) == free_ball_size(n, r)
            assert {w.data for w in got} == expected


def oracle_ball_abelian(rank, radius):
    return {v for v in itertools.product(range(-radius, radius + 1), repeat=rank) if sum(map(abs, v)) <= radius}


def test_abelian_ball_against_oracle_and_closed_form():
    for d, r in ((1, 7), (2, 5), (3, 4), (4, 3), (5, 2)):
        desc = free_abelian(d)
        got = words_of(desc, ball(desc, r))
        assert {w.data for w in got} == oracle_ball_abelian(d, r)
        assert len(got) == ball_size(desc, r)
    assert len(ball(free_abelian(9), 6)) == 75517


def _built(*args):
    raise RuntimeError("the ball was built")


def test_ball_cap_refuses_before_building(monkeypatch):
    # balls whose rows and integers or letters pass the memory bound; ball(F_2, 11), of
    # 354,293 words, is under it and ball(F_2, 12), of 1,062,881, is past it
    ball.cache_clear()
    monkeypatch.setattr(words, "_free_words", _built)
    monkeypatch.setattr(words, "_abelian_ball", _built)
    for desc, r in ((free_abelian(30), 40), (free_abelian(10**9), 3), (free_group(2), 12), (free_group(2), 10**9)):
        with pytest.raises(SearchSpaceTooLarge, match="bounds of"):
            ball(desc, r)
    with pytest.raises(RuntimeError, match="built"):
        ball(free_group(2), 11)


def test_integer_cap_bounds_abelian_ranks():
    # Z^d's standard generators and their inverses hold 2 d^2 integers as words and as arrays:
    # d = 977 is under the memory bound, 978 is past it
    assert len(standard_generators(free_abelian(977))) == 977
    for desc, r in ((free_abelian(978), None), (free_abelian(10**9), 0), (free_abelian(100), 3), (free_group(10**9), None)):
        with pytest.raises(SearchSpaceTooLarge, match="bounds of"):
            standard_generators(desc) if r is None else ball(desc, r)


def test_ball_no_duplicates_and_sorted():
    for d, r in ((F2, 4), (Z2, 5)):
        b = ball(d, r)
        assert not b.flags.writeable
        words = words_of(d, b)
        assert len(set(words)) == len(words)
        keys = [spelled_shortlex_key(w) for w in words]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))  # strictly increasing
        assert words_of(d, ball(d, r - 1)) == words[: ball_size(d, r - 1)]  # ball(r - 1) is a prefix


def spelled_shortlex_key(w):
    # the key spelled letter by letter, an abelian word as its a1-run, then its
    # a2-run, ...: O(|w|) per word, the oracle for words.shortlex_keys
    if w.descriptor.is_free:
        letters = w.data
    else:
        letters = [i if c > 0 else -i for i, c in enumerate(w.data, start=1) for _ in range(abs(c))]
    return (w.length(), tuple(2 * (abs(l) - 1) + (l < 0) for l in letters))  # a1 < a1^-1 < a2 < ...


def array_keys(descriptor, words):
    """Each word's words.shortlex_keys entry as a comparable tuple (length, codes)."""
    lengths, codes = shortlex_keys(descriptor, element_array(descriptor, words))
    return [(n, tuple(c)) for n, c in zip(lengths.tolist(), codes.tolist())]


@pytest.mark.parametrize("d, radius", [(1, 12), (2, 6), (3, 4), (4, 3), (9, 2)])
def test_shortlex_key_orders_like_the_spelled_key(d, radius):
    desc = free_abelian(d)
    b = words_of(desc, ball(desc, radius))
    assert b == sorted(b, key=spelled_shortlex_key)
    rng = random.Random(d)
    sample = [Word(desc, tuple(rng.randint(-6, 6) for _ in range(d))) for _ in range(80)] + b[::7]
    keys = array_keys(desc, sample)  # one array, whose rows have many lengths
    for (u, ku), (v, kv) in itertools.combinations(zip(sample, keys), 2):
        assert (ku < kv) == (spelled_shortlex_key(u) < spelled_shortlex_key(v))
    free = words_of(F2, ball(F2, 3))
    for (u, ku), (v, kv) in itertools.combinations(zip(free, array_keys(F2, free)), 2):
        assert (ku < kv) == (spelled_shortlex_key(u) < spelled_shortlex_key(v))


def test_shortlex_key_of_an_abelian_word_has_one_entry_per_coordinate():
    lengths, codes = shortlex_keys(free_abelian(1), element_array(free_abelian(1), [Word(free_abelian(1), (10**6,))]))
    assert lengths.tolist() == [10**6] and codes.shape == (1, 1)


def test_free_ball_letters_and_the_letter_cap():
    # the budget charges a ball its rows and the 8-byte words its array stores: a Z^d ball
    # its integers, an F_n ball its letters and padding, 8 a word; F_40's take two bytes each
    for descriptor, radii in ((free_group(1), 12), (free_group(2), 6), (free_group(3), 6), (free_group(40), 3), (Z2, 6)):
        for r in range(radii):
            b, [units] = ball(descriptor, r), ball_units(descriptor, r)
            assert units["rows"] == len(b)
            assert units["integers"] == len(b) * -(-b.shape[1] * b.itemsize // 8)


def test_free_ball_letter_cap_refuses_before_building(monkeypatch):
    # ball(F_1, r) stores 2r + 1 rows of r + 1 one-byte letters, 8 to an integer: radius 3,030
    # is under the memory bound
    ball.cache_clear()
    monkeypatch.setattr(words, "_free_words", _built)
    for r in (3031, 99_999):
        with pytest.raises(SearchSpaceTooLarge, match="bounds of"):
            ball(free_group(1), r)
    with pytest.raises(RuntimeError, match="built"):
        ball(free_group(1), 3030)


def test_ball_serialization_stable():
    first = [format_word(w) for w in words_of(F2, ball(F2, 2))]
    ball.cache_clear()
    second = [format_word(w) for w in words_of(F2, ball(F2, 2))]
    assert first == second
    assert first[:5] == ["e", "a1", "A1", "a2", "A2"]


def test_word_syntax_roundtrip():
    for w in words_of(F2, ball(F2, 3)):
        assert parse_word(F2, format_word(w)) == w
    for w in words_of(Z2, ball(Z2, 2)):
        assert parse_word(Z2, format_word(w)) == w
    assert format_word(Word.from_letters(F2, [1, -2, 1])) == "a1.A2.a1"
    assert parse_word(F2, "e") == Word.identity(F2)
    assert format_word(Word.from_vector(Z2, (2, -1))) == "(2,-1)"
    assert parse_word(Z2, " ( 3 , -4 ) ") == Word.from_vector(Z2, (3, -4))
    assert parse_word(Z2, "(-0,1)") == parse_word(Z2, "(0, 1)") == Word.from_vector(Z2, (0, 1))
    assert format_word(parse_word(Z2, "(99999999999999999999,0)")) == "(99999999999999999999,0)"


def test_word_syntax_errors():
    with pytest.raises(InvalidLetter):
        parse_word(F2, "a1.b2")
    with pytest.raises(InvalidLetter):
        parse_word(F2, "a9")
    with pytest.raises(InvalidLetter):
        parse_word(Z2, "2,-1")
    for text in ("(1-2,0)", "(--1,0)", "(,)", "(1,,0)"):  # each entry one optionally signed integer
        with pytest.raises(InvalidLetter):
            parse_word(Z2, text)
    with pytest.raises(InvalidLetter, match="vector length 0 != rank 2"):
        parse_word(Z2, "()")


def test_parse_generators():
    gens = parse_generators(F2, "a1,a2")
    assert gens == standard_generators(F2)
    zg = parse_generators(Z2, "(1,0),(0,1)")
    assert zg == standard_generators(Z2)


def test_descriptor_parse():
    assert GroupDescriptor.parse("free:2") == F2
    assert GroupDescriptor.parse("abelian:2") == Z2
    with pytest.raises(InvalidDescriptor):
        GroupDescriptor.parse("braid:3")
    with pytest.raises(InvalidDescriptor):
        GroupDescriptor(kind="free", rank=0)

"""Word arithmetic and ball enumeration."""

import itertools
import random

import pytest

from foelner import words
from foelner.errors import DescriptorMismatch, InvalidDescriptor, InvalidLetter, SearchSpaceTooLarge
from foelner.words import (
    ENUMERATION_CAP,
    INTEGER_CAP,
    LETTER_CAP,
    GroupDescriptor,
    Word,
    ball,
    ball_size,
    format_word,
    free_abelian,
    free_ball_letters,
    free_ball_size,
    free_group,
    letter_order_index,
    multiply,
    parse_generators,
    parse_word,
    shortlex_key,
    standard_generators,
    translation_indices,
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
    for g in generating_set(descriptor, gens).closure():
        for right in (False, True):
            assert translation_indices(b, g, right=right).tolist() == oracle_translation_indices(b, g, right).tolist()


def test_translation_indices_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        translation_indices(ball(F2, 1), Word.identity(free_group(3)))
    with pytest.raises(DescriptorMismatch):
        translation_indices(ball(Z2, 1), Word.identity(F2), right=True)


def test_group_axioms_exhaustive_on_ball3():
    elems = ball(F2, 3)
    e = Word.identity(F2)
    for u in elems:
        assert multiply(e, u) == u
        assert multiply(u, u.inverse()) == e
    # associativity over a full cube of ball(2) plus spot checks at radius 3
    b2 = ball(F2, 2)
    for u in b2:
        for v in b2:
            for w in b2:
                assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
    for u, v, w in itertools.islice(itertools.product(elems, elems[::7], elems[::11]), 4000):
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_abelian_axioms():
    elems = ball(Z2, 2)
    e = Word.identity(Z2)
    for u in elems:
        assert multiply(u, u.inverse()) == e
        for v in elems:
            assert multiply(u, v) == multiply(v, u)


def test_length_subadditive():
    elems = ball(F2, 3)
    for u in elems[::5]:
        for v in elems[::7]:
            assert multiply(u, v).length() <= u.length() + v.length()


def test_ball_sizes_against_oracle_and_closed_form():
    assert len(ball(F2, 2)) == 17
    assert len(ball(F2, 0)) == 1
    assert ball(F2, 0) == (Word.identity(F2),)
    assert len(ball(Z2, 1)) == 5
    for n in (2, 3):
        d = free_group(n)
        for r in range(0, 7):
            expected = oracle_ball_free(n, r)
            got = ball(d, r)
            assert len(got) == len(expected) == free_ball_size(n, r)
            assert {w.data for w in got} == expected


def oracle_ball_abelian(rank, radius):
    return {v for v in itertools.product(range(-radius, radius + 1), repeat=rank) if sum(map(abs, v)) <= radius}


def test_abelian_ball_against_oracle_and_closed_form():
    for d, r in ((1, 7), (2, 5), (3, 4), (4, 3), (5, 2)):
        desc = free_abelian(d)
        got = ball(desc, r)
        assert {w.data for w in got} == oracle_ball_abelian(d, r)
        assert len(got) == ball_size(desc, r)
    assert len(ball(free_abelian(9), 6)) == 75517


def test_ball_cap_refuses_before_building():
    for desc, r in ((free_abelian(30), 40), (free_abelian(10**9), 3), (free_group(2), 11), (free_group(2), 10**9)):
        assert ball_size(desc, min(r, 40)) > ENUMERATION_CAP
        with pytest.raises(SearchSpaceTooLarge):
            ball(desc, r)


def test_integer_cap_bounds_abelian_ranks():
    assert len(standard_generators(free_abelian(1000))) == 1000  # 1000^2 = INTEGER_CAP integers
    for desc, r in ((free_abelian(1001), None), (free_abelian(10**9), 0), (free_abelian(100), 2), (free_group(10**9), None)):
        with pytest.raises(SearchSpaceTooLarge):
            standard_generators(desc) if r is None else ball(desc, r)
    # |ball(Z^100, 2)| = 20201 elements of 100 integers each
    assert ball_size(free_abelian(100), 2) * 100 > INTEGER_CAP >= ball_size(free_abelian(9), 6) * 9


def test_ball_no_duplicates_and_sorted():
    for d, r in ((F2, 4), (Z2, 5)):
        b = ball(d, r)
        assert len(set(b)) == len(b)
        keys = [shortlex_key(w) for w in b]
        assert keys == sorted(keys)
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))  # total order


def spelled_shortlex_key(w):
    # the key spelled letter by letter, an abelian word as its a1-run, then its
    # a2-run, ...: O(|w|) per word, the oracle for words.shortlex_key
    if w.descriptor.is_free:
        letters = w.data
    else:
        letters = [i if c > 0 else -i for i, c in enumerate(w.data, start=1) for _ in range(abs(c))]
    return (w.length(), tuple(letter_order_index(l) for l in letters))


@pytest.mark.parametrize("d, radius", [(1, 12), (2, 6), (3, 4), (4, 3), (9, 2)])
def test_shortlex_key_orders_like_the_spelled_key(d, radius):
    desc = free_abelian(d)
    b = list(ball(desc, radius))
    assert b == sorted(b, key=spelled_shortlex_key)
    rng = random.Random(d)
    sample = [Word(desc, tuple(rng.randint(-6, 6) for _ in range(d))) for _ in range(80)] + b[::7]
    for u, v in itertools.combinations(sample, 2):
        assert (shortlex_key(u) < shortlex_key(v)) == (spelled_shortlex_key(u) < spelled_shortlex_key(v))
    for w in ball(F2, 3):
        assert shortlex_key(w) == spelled_shortlex_key(w)


def test_shortlex_key_of_an_abelian_word_has_one_entry_per_coordinate():
    assert len(shortlex_key(Word(free_abelian(1), (10**6,)))[1]) == 1


def test_free_ball_letters_and_the_letter_cap():
    for n in (1, 2, 3):
        for r in range(6):
            assert free_ball_letters(n, r) == sum(len(w.data) for w in ball(free_group(n), r))
    # every F_n ball with n >= 2 under ENUMERATION_CAP is admitted; past rank 223
    # only radius 1, of 2n letters, stays under it
    worst = (0, 0, 0)
    for n in range(2, 224):
        r = 1
        while free_ball_size(n, r + 1) <= ENUMERATION_CAP:
            r += 1
        worst = max(worst, (free_ball_letters(n, r), n, r))
    assert free_ball_size(224, 2) > ENUMERATION_CAP
    assert worst == (1_121_932, 2, 10) and worst[0] <= LETTER_CAP
    assert free_ball_letters(1, 1413) <= LETTER_CAP < free_ball_letters(1, 1414)


def test_free_ball_letter_cap_refuses_before_building(monkeypatch):
    def build(descriptor, radius):
        raise RuntimeError(f"built ball({descriptor.spec()}, {radius})")

    monkeypatch.setattr(words, "_free_spheres", build)
    for r in (1414, 99_999):  # under ENUMERATION_CAP, past LETTER_CAP
        with pytest.raises(SearchSpaceTooLarge):
            ball(free_group(1), r)


def test_ball_serialization_stable():
    first = [format_word(w) for w in ball(F2, 2)]
    ball.cache_clear()
    second = [format_word(w) for w in ball(F2, 2)]
    assert first == second
    assert first[:5] == ["e", "a1", "A1", "a2", "A2"]


def test_word_syntax_roundtrip():
    for w in ball(F2, 3):
        assert parse_word(F2, format_word(w)) == w
    for w in ball(Z2, 2):
        assert parse_word(Z2, format_word(w)) == w
    assert format_word(Word.from_letters(F2, [1, -2, 1])) == "a1.A2.a1"
    assert parse_word(F2, "e") == Word.identity(F2)
    assert format_word(Word.from_vector(Z2, (2, -1))) == "(2,-1)"


def test_word_syntax_errors():
    with pytest.raises(InvalidLetter):
        parse_word(F2, "a1.b2")
    with pytest.raises(InvalidLetter):
        parse_word(F2, "a9")
    with pytest.raises(InvalidLetter):
        parse_word(Z2, "2,-1")


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

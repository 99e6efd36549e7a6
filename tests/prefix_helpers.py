"""Word-level reference for prefix-set membership, which the row masks of
foelner.paradox are checked against: a word w lies in t * S(l) when the
reduced product t^-1 w begins with l (in t * {e} when it is the identity)."""

from foelner.paradox import PrefixSet, SetIdentityReport
from foelner.words import Word, ball, format_word, free_group, multiply, words_of


def contains(s: PrefixSet, w: Word) -> bool:
    u = multiply(s._translate_word().inverse(), w)
    if s.base_letter is None:
        return u.is_identity
    return bool(u.data) and u.data[0] == s.base_letter


def reference_set_identities(radius: int) -> SetIdentityReport:
    """verify_set_identities, one word and one product at a time."""
    descriptor = free_group(2)
    a = Word(descriptor, (1,))
    b = Word(descriptor, (2,))
    s = PrefixSet(descriptor, -1)
    s_a = PrefixSet(descriptor, 1)
    a_s = s.translated(a)
    b_s = s.translated(b)
    binv_s = s.translated(b.inverse())

    check_ball = words_of(descriptor, ball(descriptor, radius - 1))
    disjoint_ok = True
    corrected_ok = True
    uncovered: list[Word] = []
    mismatch = False
    for w in check_ball:
        hits = sum((contains(s, w), contains(b_s, w), contains(binv_s, w)))
        if hits > 1:
            disjoint_ok = False
        if contains(s_a, w) + contains(a_s, w) != 1:
            corrected_ok = False
        literal = contains(s, w) or contains(a_s, w)
        if not literal:
            uncovered.append(w)
            if not contains(s_a, w):
                mismatch = True
        elif contains(s_a, w):
            mismatch = True  # covered although it begins with a
    return SetIdentityReport(
        radius=radius,
        checked_words=len(check_ball),
        disjoint_ok=disjoint_ok,
        corrected_cover_ok=corrected_ok,
        literal_cover_holds=not uncovered,
        uncovered_count=len(uncovered),
        uncovered_examples=tuple(format_word(w) for w in uncovered[:5]),
        uncovered_equals_first_letter_set=not mismatch,
    )

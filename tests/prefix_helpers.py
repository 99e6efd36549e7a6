"""Word-level reference for prefix-set membership, which the row masks of
foelner.paradox are checked against: a word w lies in t * S(l) when the
reduced product t^-1 w begins with l (in t * {e} when it is the identity).
Also the chain audit one set at a time, which chain_audit is checked against."""

import math

import numpy as np

from foelner.errors import PreconditionError
from foelner.l2ops import GroupAlgebraElement, commutator_ratio, nearest_unitary
from foelner.paradox import PrefixSet, SetIdentityReport
from foelner.words import Word, ball, format_word, free_group, letters_in_order, multiply, words_of


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


def c_value(frame, s: PrefixSet) -> float:
    """The mass (1/k) sum_i ||xi_i||^2_S of the frame inside S alone, as chain_masses weighs each set."""
    if frame.descriptor != s.descriptor:
        raise PreconditionError("frame and prefix set from different groups")
    inside = frame.C[s.row_mask(frame.rows)]
    return float(np.sum(inside.real**2 + inside.imag**2)) / frame.rank


def reference_chain_audit(frame) -> dict:
    """The report of chain_audit(frame), one set at a time: c_value of each PrefixSet, L_a and
    L_b each with a row gather of its own, and each bound through the polar factor's distance
    from nearest_unitary."""
    d = frame.descriptor
    a, b = Word(d, (1,)), Word(d, (2,))
    base = PrefixSet(d, -1)
    c_values = {s.label(): c_value(frame, s) for s in (PrefixSet(d, l) for l in (None, *letters_in_order(d.rank)))}
    partition_sum = float(sum(c_values.values()))
    for s in (base.translated(a), base.translated(b), base.translated(b.inverse())):
        c_values[s.label()] = c_value(frame, s)
    per_unitary, bounds, ratios = {}, [], []
    for g in (a, b):
        op = GroupAlgebraElement.left_translation(g)
        ev = commutator_ratio(op, frame)
        c_s, c_pull, c_push = (c_value(frame, s) for s in (base, base.translated(g.inverse()), base.translated(g)))
        _, dist = nearest_unitary(ev.compression)
        gap = ev.closed_form / math.sqrt(2.0)
        certified = 2.0 * math.sqrt(dist * dist + gap * gap)
        pull, push = abs(c_pull - c_s), abs(c_push - c_s)
        per_unitary[op.label()] = {"measured_pull": pull, "measured_push": push, "measured": max(pull, push),
                                   "certified": certified, "w_distance": dist, "compression_gap": gap}
        bounds.append(certified)
        ratios.append(ev.closed_form)
    b_a, b_b = bounds
    if abs(partition_sum - 1.0) > 1e-9:
        verdict = "inconclusive"
    elif not (0.5 - b_a <= 1.0 / 3.0 + b_b and 0.5 - b_b <= 1.0 / 3.0 + b_a):
        verdict = "contradiction"
    else:
        verdict = "consistent"
    displacement = {"measured": max(d["measured"] for d in per_unitary.values()), "certified": max(bounds),
                    "per_unitary": per_unitary}
    return {"c_values": c_values, "displacement": displacement, "verdict": verdict,
            "max_commutator_ratio": max(ratios)}

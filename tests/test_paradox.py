"""Prefix sets, restriction norms, displacement bounds, the inequality chain."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from foelner import l2ops, paradox
from foelner.connes import WitnessConfig, build_witness_frame, random_frame
from foelner.errors import InvalidLetter, PreconditionError
from foelner.l2ops import GroupAlgebraElement, commutator_ratio
from foelner.paradox import (
    DERIVED_THRESHOLD,
    PAPER_EPSILON,
    THRESHOLD_NOTE,
    PrefixSet,
    chain_audit,
    chain_masses,
    displacement_bound,
    make_paper_trace,
    verify_set_identities,
)
from foelner.words import Word, ball, free_abelian, free_group, words_of
from frame_helpers import count_calls, frame_of, frame_pool
from prefix_helpers import c_value, contains, reference_chain_audit, reference_set_identities

F2 = free_group(2)
E = Word.identity(F2)
A = Word(F2, (1,))
B = Word(F2, (2,))
A_INV = A.inverse()
L_a = GroupAlgebraElement.left_translation(A)
L_b = GroupAlgebraElement.left_translation(B)
L_e = GroupAlgebraElement.left_translation(E)


def delta_frame(*words, ambient=3):
    return frame_of(F2, ambient, [{w: 1.0} for w in words])


# ---------------------------------------------------------------------------
# Restriction norms (c values of one-column frames) and c values.


def test_restriction_norm_examples():
    s = PrefixSet(F2, -1)
    assert c_value(delta_frame(A_INV), s) == 1.0
    assert c_value(delta_frame(E), s) == 0.0
    v = frame_of(F2, 3, [{A_INV: 1 / math.sqrt(2), B: 1 / math.sqrt(2)}])
    assert abs(c_value(v, s) - 0.5) < 1e-15


def test_c_value_examples():
    f_e = delta_frame(E)
    s = PrefixSet(F2, -1)
    assert c_value(f_e, s) == 0.0
    a_s = s.translated(A)
    assert c_value(f_e, a_s) == 1.0  # e = a * a^-1 lies in the translate
    f2 = delta_frame(A_INV, B)
    assert abs(c_value(f2, s) - 0.5) < 1e-15


def test_c_partition_sums_to_one():
    frames = frame_pool(F2, 4, 4, seed=1, count=5)
    for frame in frames:
        sets = [PrefixSet(F2, l) for l in (None, 1, -1, 2, -2)]
        total = sum(c_value(frame, s) for s in sets)
        assert abs(total - 1.0) < 1e-12
        for s in sets:
            assert -1e-15 <= c_value(frame, s) <= 1.0 + 1e-15
        assert chain_masses(frame)[:5] == [c_value(frame, s) for s in sets]


def test_prefix_set_labels():
    s = PrefixSet(F2, -1)
    assert s.label() == "S(A1)"
    assert s.translated(B).label() == "a2*S(A1)"
    assert PrefixSet(F2, None).label() == "{e}"


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_prefix_set_refuses_letters_outside_the_rank(letter):
    with pytest.raises(InvalidLetter):
        PrefixSet(F2, letter)


@pytest.mark.parametrize("letter", [None, 1, -2])
def test_prefix_set_refuses_abelian_groups(letter):
    with pytest.raises(PreconditionError, match="free groups"):
        PrefixSet(free_abelian(2), letter)


def test_row_masks_agree_with_membership():
    # every row of ball(F2, 4): S(l) for each letter and {e}, translated by each
    # word of length <= 2 (which includes every translate chain_audit and
    # displacement_bound build) and by one longer than any row
    rows = words_of(F2, ball(F2, 4))
    frame = frame_of(F2, 5, [{w: len(rows) ** -0.5 for w in rows}])
    assert np.array_equal(frame.rows, ball(F2, 4))
    bases = [PrefixSet(F2, l) for l in (1, -1, 2, -2, None)]
    translates = words_of(F2, ball(F2, 2)) + [Word.from_letters(F2, [1, 2, 1, 2, -1])]
    checked = 0
    for base in bases:
        for t in translates:
            s = base.translated(t)
            assert s.row_mask(frame.rows).tolist() == [contains(s, w) for w in rows], s.label()
            checked += 1
    assert checked == 5 * 18


def test_frame_letters_pad_rows():
    frame = frame_of(F2, 4, [{E: 0.6, A_INV: 0.8}, {Word.from_letters(F2, [2, 1, 1]): 1.0}])
    assert frame.rows.tolist() == [[0, 0, 0, 0], [-1, 0, 0, 0], [2, 1, 1, 0]]
    assert not frame.rows.flags.writeable


# ---------------------------------------------------------------------------
# Set identities.


def test_set_identities_radius6():
    rep = verify_set_identities(6)
    assert rep.disjoint_ok
    assert rep.corrected_cover_ok
    assert not rep.literal_cover_holds
    assert rep.uncovered_equals_first_letter_set
    # uncovered = words beginning with a inside ball(5): half the non-identity
    # sphere mass: sum_{l=1..5} 4*3^(l-1)/4
    assert rep.uncovered_count == sum(3 ** (l - 1) for l in range(1, 6))


@pytest.mark.parametrize("radius", [2, 3, 4, 5, 6, 7])
def test_set_identities_all_radii(radius):
    rep = verify_set_identities(radius)
    assert rep.disjoint_ok and rep.corrected_cover_ok and not rep.literal_cover_holds


@pytest.mark.parametrize("radius", range(2, 11))
def test_set_identities_match_word_level_reference(radius):
    assert verify_set_identities(radius) == reference_set_identities(radius)


def test_set_identities_radius_contract():
    with pytest.raises(PreconditionError):
        verify_set_identities(1)


# ---------------------------------------------------------------------------
# Displacement bounds.


def bound(frame, op, s):
    g = op.word
    masses = (c_value(frame, t) for t in (s, s.translated(g.inverse()), s.translated(g)))
    return displacement_bound(commutator_ratio(op, frame), *masses)


def test_displacement_identity_unitary():
    frame = delta_frame(E, A, ambient=3)
    s = PrefixSet(F2, -1)
    d = bound(frame, L_e, s)
    assert d["measured"] == 0.0
    assert d["certified"] < 1e-9


def test_displacement_delta_e_example():
    # A = [[0]]: polar distance 1, compression gap 1, certified = 2*sqrt(2)
    frame = delta_frame(E, ambient=2)
    s = PrefixSet(F2, -1)
    d = bound(frame, L_a, s)
    assert abs(d["measured_push"] - 1.0) < 1e-15  # |c_{aS} - c_S| = 1
    assert d["measured_pull"] == 0.0
    assert abs(d["w_distance"] - 1.0) < 1e-12
    assert abs(d["compression_gap"] - 1.0) < 1e-12
    assert abs(d["certified"] - 2.0 * math.sqrt(2.0)) < 1e-12
    assert d["measured"] <= d["certified"]


def test_displacement_witness_frame():
    frame = build_witness_frame(WitnessConfig(2, 8, 6))
    s = PrefixSet(F2, -1)
    for op in (L_a, L_b):
        d = bound(frame, op, s)
        assert d["measured"] <= d["certified"] + 1e-12


def test_displacement_random_frames():
    for frame in frame_pool(F2, 5, 4, seed=7, count=10):
        s = PrefixSet(F2, -1)
        for op in (L_a, L_b):
            d = bound(frame, op, s)
            assert d["measured"] <= d["certified"] + 1e-12


# ---------------------------------------------------------------------------
# Chain audit and thresholds.


def test_threshold_constants_and_note():
    assert abs(DERIVED_THRESHOLD - math.sqrt(2) / 24) < 1e-15
    assert abs(DERIVED_THRESHOLD - 0.0589) < 1e-4
    assert PAPER_EPSILON == Fraction(1, 7)
    assert DERIVED_THRESHOLD < PAPER_EPSILON
    assert THRESHOLD_NOTE.endswith("closing constant into 0.058926 instead of 0.142857")


def test_paper_trace_pincer():
    t = make_paper_trace()
    assert t.pincer_lower > t.pincer_threshold  # 1/2 - 4/49 > 5/12
    assert t.pincer_upper < t.pincer_threshold  # 1/3 + 4/49 < 5/12
    assert t.chain_closes
    assert t.pincer_lower == 0.5 - 4 / 49
    assert t.pincer_upper == 1 / 3 + 4 / 49
    assert abs(t.honest_displacement_constant - 2 / 7) < 1e-15


def test_chain_audit_witness_consistent():
    frame = build_witness_frame(WitnessConfig(2, 8, 6))
    rep = chain_audit(frame)
    assert rep["verdict"] == "consistent"
    assert abs(sum(paradox.chain_masses(frame)[:5]) - 1.0) < 1e-9
    per_unitary = rep["displacement"]["per_unitary"]
    assert per_unitary["L[a1]"]["certified"] + per_unitary["L[a2]"]["certified"] >= 1 / 6


def test_chain_audit_evaluates_each_generator_once(monkeypatch):
    frame = build_witness_frame(WitnessConfig(2, 8, 6))
    counts = count_calls(monkeypatch, l2ops, "adjoint_product", "translation_indices")
    rep = chain_audit(frame)
    assert counts == {"adjoint_product": 2, "translation_indices": 1}  # one row gather serves both
    assert rep["max_commutator_ratio"] == max(commutator_ratio(op, frame).closed_form for op in (L_a, L_b))


@pytest.mark.parametrize("radius", [2, 3, 4, 5])
def test_chain_audit_matches_the_per_set_oracle_bit_for_bit(radius):
    # random frames of ranks 1-8 (those the ball can span), and at radius 5 witness frames of
    # F_2 and F_3 and the frame on e alone, whose rows hold one letter
    rng = np.random.default_rng(radius)
    ranks = [k for k in range(1, 9) if k <= len(ball(F2, radius - 1))]
    frames = [random_frame(F2, k, radius, rng) for k in ranks for _ in range(3)]
    if radius == 5:
        frames += [build_witness_frame(WitnessConfig(n, 8, 6)) for n in (2, 3)] + [delta_frame(E, ambient=2)]
    for frame in frames:
        report = json.dumps(chain_audit(frame), sort_keys=True)
        assert report == json.dumps(reference_chain_audit(frame), sort_keys=True)


def _fixed_bounds(monkeypatch, b_a, b_b):
    # displacement_bound with the certified bounds B_a, then B_b (chain_audit bounds L_a first),
    # and no measured displacement
    bounds = iter((b_a, b_b))

    def fake(ev, c_s, c_pull, c_push):
        return {"measured": 0.0, "certified": next(bounds)}

    monkeypatch.setattr(paradox, "displacement_bound", fake)


@pytest.mark.parametrize(
    "b_a, b_b, verdict",
    [
        (0.05 - 1e-9, 1 / 6 - 0.05, "contradiction"),
        (0.05 + 1e-9, 1 / 6 - 0.05, "consistent"),
        (1 / 6 - 0.05, 0.05 - 1e-9, "contradiction"),
        (1 / 6 - 0.05, 0.05 + 1e-9, "consistent"),
        (math.nan, 0.5, "contradiction"),  # a NaN bound fails both comparisons
    ],
)
def test_chain_audit_verdict_from_the_bounds(monkeypatch, b_a, b_b, verdict):
    # the chain closes exactly when B_a + B_b < 1/6
    _fixed_bounds(monkeypatch, b_a, b_b)
    frame = build_witness_frame(WitnessConfig(2, 8, 6))
    assert chain_audit(frame)["verdict"] == verdict


def test_chain_audit_inconclusive_when_the_partition_leaks(monkeypatch):
    # five partition sets of mass 0.18 each sum to 0.9, not 1
    monkeypatch.setattr(paradox, "chain_masses", lambda frame: [0.18] * 9)
    frame = build_witness_frame(WitnessConfig(2, 8, 6))
    assert abs(sum(paradox.chain_masses(frame)[:5]) - 0.9) < 1e-12
    assert chain_audit(frame)["verdict"] == "inconclusive"


def test_chain_audit_random_frames_never_contradict():
    for frame in frame_pool(F2, 6, 4, seed=13, count=10):
        assert chain_audit(frame)["verdict"] == "consistent"


def test_chain_audit_rejects_abelian():
    d = free_abelian(2)
    frame = frame_of(d, 2, [{Word.identity(d): 1.0}])
    with pytest.raises(PreconditionError):
        chain_audit(frame)


def test_derived_threshold_matches_chain_closure():
    # at eps = derived threshold (delta' -> 0) the bound sum hits exactly 1/6
    eps = DERIVED_THRESHOLD
    assert abs(2 * (math.sqrt(2) * eps) - 1 / 6) < 1e-15

import itertools

import pytest

from weylstab import (
    Branch,
    CaseTag,
    Transposition3,
    Witness,
    WitnessResult,
    all_words,
    classification_to_json,
    classify,
    psi_apply,
    rank_one_check,
    relabel_word,
    reverse,
    witness_points,
    witness_report,
)
from weylstab.transposition3 import _levels_lack_identity_tail
from weylstab.verify import pattern_key


def all_transpositions(n):
    for a, b in itertools.combinations(list(all_words(n, 3)), 2):
        yield Transposition3(n, a, b)


def test_constructor_canonicalizes():
    t = Transposition3(2, (2, 2, 2), (1, 1, 1))
    assert t.a == (1, 1, 1)
    assert t.b == (2, 2, 2)
    assert t == Transposition3(2, (1, 1, 1), (2, 2, 2))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Transposition3(2, (1, 1), (2, 2))
    with pytest.raises(ValueError):
        Transposition3(2, (1, 1, 3), (2, 2, 2))
    with pytest.raises(ValueError):
        Transposition3(2, (1, 1, 1), (1, 1, 1))


def test_permutation():
    t = Transposition3(2, (1, 1, 1), (2, 2, 2))
    u = t.permutation()
    assert u((1, 1, 1)) == (2, 2, 2)
    assert u((2, 2, 2)) == (1, 1, 1)
    assert len(u.moved) == 2


def test_classify_examples():
    stable_disjoint = classify(Transposition3(3, (1, 1, 2), (3, 3, 2)))
    assert stable_disjoint.stable
    assert stable_disjoint.branch == Branch.DISJOINT
    stable_diagonal = classify(Transposition3(3, (1, 2, 1), (1, 3, 1)))
    assert stable_diagonal.stable
    assert stable_diagonal.branch == Branch.DIAGONAL_EQUAL
    overlap = classify(Transposition3(2, (1, 1, 2), (1, 2, 2)))
    assert not overlap.stable
    assert overlap.case == CaseTag.OVERLAP_A2_B1
    all_equal = classify(Transposition3(2, (1, 1, 1), (2, 2, 2)))
    assert all_equal.case == CaseTag.ALL_EQUAL_A


def test_case_precedence():
    # a all-equal wins over any later hypothesis it also satisfies
    assert classify(Transposition3(2, (1, 1, 1), (2, 1, 1))).case == CaseTag.ALL_EQUAL_A
    # outer-equal on the a side wins over cross conditions
    assert classify(Transposition3(3, (1, 2, 1), (3, 2, 1))).case == CaseTag.OUTER_EQUAL_A
    # cross before overlap when both hold
    t = Transposition3(3, (1, 2, 3), (2, 3, 1))
    assert classify(t).case == CaseTag.CROSS_A1_B3


def test_exhaustive_counts_n2():
    counts = {}
    for t in all_transpositions(2):
        c = classify(t)
        tag = c.branch if c.stable else c.case
        counts[tag] = counts.get(tag, 0) + 1
    assert sum(counts.values()) == 28
    assert counts == {
        CaseTag.ALL_EQUAL_A: 7,
        CaseTag.ALL_EQUAL_B: 6,
        CaseTag.OUTER_EQUAL_A: 5,
        CaseTag.OUTER_EQUAL_B: 4,
        CaseTag.CROSS_A1_B3: 4,
        CaseTag.OVERLAP_A2_B1: 1,
        CaseTag.OVERLAP_B2_A1: 1,
    }


def test_exhaustive_counts_n3():
    counts = {}
    for t in all_transpositions(3):
        c = classify(t)
        tag = c.branch if c.stable else c.case
        counts[tag] = counts.get(tag, 0) + 1
    assert sum(counts.values()) == 351
    assert counts[Branch.DISJOINT] == 54
    assert counts[Branch.DIAGONAL_EQUAL] == 3
    assert counts[CaseTag.ALL_EQUAL_A] == 39
    assert counts[CaseTag.ALL_EQUAL_B] == 36
    assert counts[CaseTag.OUTER_EQUAL_A] == 66
    assert counts[CaseTag.OUTER_EQUAL_B] == 54
    assert counts[CaseTag.CROSS_A1_B3] == 54
    assert counts[CaseTag.CROSS_B1_A3] == 27
    assert counts[CaseTag.OVERLAP_A2_B1] == 9
    assert counts[CaseTag.OVERLAP_B2_A1] == 9


def test_diagonal_branch_needs_three_letters():
    assert all(
        classify(t).branch != Branch.DIAGONAL_EQUAL for t in all_transpositions(2)
    )


def test_reverse():
    t = Transposition3(3, (1, 1, 2), (3, 3, 2))
    assert (reverse(t).a, reverse(t).b) == ((2, 1, 1), (2, 3, 3))
    palindromic = Transposition3(3, (1, 2, 1), (1, 3, 1))
    assert reverse(palindromic) == palindromic
    for t in all_transpositions(2):
        assert reverse(reverse(t)) == t


def test_verdict_invariant_under_reverse():
    for n in (2, 3):
        for t in all_transpositions(n):
            assert classify(reverse(t)).stable == classify(t).stable


def test_classification_invariant_under_relabeling():
    # relabeling may swap which word is stored first, so the tag can move to
    # its sibling on the other side; the family pair is what stays put
    family = {
        CaseTag.ALL_EQUAL_A: "all-equal",
        CaseTag.ALL_EQUAL_B: "all-equal",
        CaseTag.OUTER_EQUAL_A: "outer-equal",
        CaseTag.OUTER_EQUAL_B: "outer-equal",
        CaseTag.CROSS_A1_B3: "cross",
        CaseTag.CROSS_B1_A3: "cross",
        CaseTag.OVERLAP_A2_B1: "overlap",
        CaseTag.OVERLAP_B2_A1: "overlap",
        None: None,
    }
    sigmas = list(itertools.permutations((1, 2, 3)))
    for t in all_transpositions(3):
        c = classify(t)
        for sigma in sigmas:
            ra, rb = relabel_word(t.a, sigma), relabel_word(t.b, sigma)
            s = Transposition3(3, ra, rb)
            cs = classify(s)
            assert cs.stable == c.stable
            assert cs.branch == c.branch
            assert family[cs.case] == family[c.case]
            if ra == s.a and rb == s.b:  # orientation preserved
                assert cs.case == c.case


def test_classifier_agrees_with_rank_one_equations_n2():
    for t in all_transpositions(2):
        assert classify(t).stable == rank_one_check(t.permutation())


def test_classification_json():
    t = Transposition3(3, (1, 1, 2), (3, 3, 2))
    assert classification_to_json(t, classify(t)) == {
        "a": [1, 1, 2],
        "b": [3, 3, 2],
        "n": 3,
        "verdict": "stable",
        "branch": "Disjoint",
    }
    u = Transposition3(2, (1, 1, 1), (2, 2, 2))
    assert classification_to_json(u, classify(u)) == {
        "a": [1, 1, 1],
        "b": [2, 2, 2],
        "n": 2,
        "verdict": "unstable",
        "case": "AllEqualA",
    }


def test_witness_points_usage_errors():
    stable = Transposition3(3, (1, 1, 2), (3, 3, 2))
    with pytest.raises(ValueError):
        witness_points(stable, 1)
    unstable = Transposition3(2, (1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        witness_points(unstable, 0)


def test_witness_examples():
    ws = witness_points(Transposition3(2, (1, 1, 1), (2, 2, 2)), 1)
    heads = [(w.k, w.input, w.expected, w.head) for w in ws]
    assert (1, (1, 1, 1, 2), None, 2) in heads
    u = Transposition3(2, (1, 1, 1), (2, 2, 2)).permutation()
    assert psi_apply(u, 1, (1, 1, 1, 2)) == (2, 1, 1, 1)

    cross = witness_points(Transposition3(3, (1, 2, 3), (2, 3, 1)), 1)
    assert [(w.k, w.input, w.expected) for w in cross] == [
        (2, (2, 3, 2, 3, 1), (1, 2, 3, 2, 3))
    ]

    overlap = witness_points(Transposition3(2, (1, 1, 2), (1, 2, 2)), 1)
    assert sorted(w.input for w in overlap) == [(1, 1, 2, 1), (1, 1, 2, 2)]
    assert {w.k for w in overlap} == {1}


def test_witness_levels_grow_with_r():
    t = Transposition3(2, (1, 2, 1), (2, 1, 2))
    levels = [max(w.k for w in witness_points(t, r)) for r in (1, 2, 3, 4)]
    assert levels == sorted(set(levels))
    assert levels[-1] > levels[0]


def test_all_witnesses_pass_exhaustively():
    for n in (2, 3):
        for t in all_transpositions(n):
            c = classify(t)
            if c.stable:
                continue
            u = t.permutation()
            for r in (1, 2):
                for w in witness_points(t, r):
                    actual = psi_apply(u, w.k, w.input)
                    if w.expected is not None:
                        assert actual == w.expected, (t.a, t.b, r, w)
                    else:
                        assert actual[0] == w.head, (t.a, t.b, r, w)


def test_witness_report_demonstrates_instability():
    # every transposition over two letters, and one representative of each
    # unstable letter pattern over six; the witnesses alone settle every
    # level, since nothing is materialized
    representatives = {}
    for t in all_transpositions(6):
        if not classify(t).stable:
            representatives.setdefault(pattern_key(t.a, t.b), t)
    assert len(representatives) == 73
    cases = [(t, r) for t in all_transpositions(2) if not classify(t).stable for r in (1, 2)]
    cases += [(t, r) for t in representatives.values() for r in range(1, 9)]
    for t, r in cases:
        report = witness_report(t, r)
        assert report.case == classify(t).case
        assert report.all_passed, (t.a, t.b, r)
        assert all(ok for _, ok in report.no_identity_tail)
        assert len(report.results) == len(witness_points(t, r))


def test_tail_check_without_a_violation_is_unresolved():
    def result(w, image):
        return WitnessResult(Witness(3, 1, w, image, None, "pinned"), image, True)

    # each image keeps the last letter and no two inputs share a head
    quiet = [result((1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 2)),
             result((2, 1, 1, 1, 1, 2), (1, 2, 1, 1, 1, 2))]
    assert _levels_lack_identity_tail(quiet) == ((3, False),)
    same_head = result((2, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1))
    assert _levels_lack_identity_tail(quiet + [same_head]) == ((3, True),)
    last_letter = result((1, 1, 1, 1, 2, 2), (1, 1, 1, 1, 2, 1))
    assert _levels_lack_identity_tail(quiet + [last_letter]) == ((3, True),)


def test_witness_report_on_b_side_cases():
    t = Transposition3(2, (1, 1, 2), (2, 2, 2))
    assert classify(t).case == CaseTag.ALL_EQUAL_B
    report = witness_report(t, 1)
    assert report.all_passed
    assert all(ok for _, ok in report.no_identity_tail)


def test_recomputed_corner_shapes():
    # letter patterns where the windows re-enter the support mid-flow
    for a, b in [
        ((1, 2, 1), (2, 1, 2)),
        ((1, 2, 1), (1, 1, 2)),
        ((1, 2, 1), (3, 2, 3)),
    ]:
        t = Transposition3(3, a, b)
        u = t.permutation()
        for r in (1, 2, 3):
            ws = witness_points(t, r)
            assert any(w.claim == "recomputed" for w in ws) or r == 1
            for w in ws:
                if w.expected is not None:
                    assert psi_apply(u, w.k, w.input) == w.expected, (a, b, r, w)

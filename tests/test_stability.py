import itertools
import random
from collections import Counter

import pytest

import weylstab.stability
from weylstab import (
    BudgetExceededError,
    StabilityVerdict,
    TuplePerm,
    all_words,
    definitional_prefix_check,
    exact_rank_for_stable,
    psi_levels,
    psi_materialize,
    rank_one_check,
    search_with_exact_rank,
    stability_search,
)

STABLE_A = TuplePerm.transposition(3, (1, 1, 2), (3, 3, 2))
STABLE_B = TuplePerm.transposition(3, (1, 2, 1), (1, 3, 1))
UNSTABLE = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
PADDED = TuplePerm.transposition(2, (1,), (2,)).tensor(TuplePerm.identity(2, 1))
RANK_TWO = TuplePerm.from_text("[(4,2) (4,5)] [(5,1) (5,3)]", 5)
RANK_THREE = TuplePerm.from_text("[(1,3,3) (2,2,1)] [(2,1,3) (2,2,3)]", 3)


def test_arity_one_is_trivially_stable():
    words = [(1,), (2,), (3,)]
    perms = [
        TuplePerm(3, 1, {w: image for w, image in zip(words, images) if w != image})
        for images in itertools.permutations(words)
    ]
    assert len(perms) == 6
    for sigma in perms:
        verdict = stability_search(sigma)
        assert verdict.stable
        assert verdict.certificate_h == 0
        assert verdict.rank_upper == 1
        assert verdict.rank_exact == 1
        assert verdict.method == "t1-trivial"


def test_rank_one_check_examples():
    assert rank_one_check(STABLE_A)
    assert rank_one_check(STABLE_B)
    assert not rank_one_check(UNSTABLE)
    with pytest.raises(ValueError):
        rank_one_check(TuplePerm.transposition(2, (1, 1), (2, 2)))


def test_search_certifies_stable_transpositions_at_two():
    verdict = stability_search(STABLE_A)
    assert verdict.stable
    assert verdict.certificate_h == 2
    assert verdict.rank_upper == 3
    assert verdict.method == "tail-criterion"
    assert stability_search(STABLE_B).certificate_h == 2


def test_search_is_inconclusive_on_unstable_input():
    verdict = stability_search(UNSTABLE, h_max=4)
    assert not verdict.stable
    assert verdict.h_max == 4
    assert verdict.certificate_h is None
    assert verdict.status == "inconclusive"
    with pytest.raises(ValueError):
        stability_search(UNSTABLE, h_max=-1)


def test_search_certifies_padded_arity_two():
    u = TuplePerm.transposition(2, (1,), (2,)).tensor(TuplePerm.identity(2, 1))
    verdict = stability_search(u)
    assert verdict.stable
    assert verdict.certificate_h == 0
    assert verdict.rank_upper == 1


def test_certificate_is_monotone():
    for u in (STABLE_A, STABLE_B):
        h = stability_search(u).certificate_h
        for later in (h + 1, h + 2):
            level = psi_materialize(u, later)
            assert level.tail_identity_split(u.arity - 1) is not None


def test_definitional_prefix_check():
    assert definitional_prefix_check(STABLE_B, 1, 1)
    assert not definitional_prefix_check(UNSTABLE, 1, 0)
    identity = TuplePerm.identity(2, 2)
    for k in (1, 2, 3):
        assert definitional_prefix_check(identity, k, 2)
    with pytest.raises(ValueError):
        definitional_prefix_check(STABLE_A, 0, 1)
    with pytest.raises(ValueError):
        definitional_prefix_check(STABLE_A, 1, -1)


def test_rank_one_extends_to_longer_windows():
    assert definitional_prefix_check(STABLE_A, 1, 3)


def test_exact_rank():
    for u, h, rank in (
        (STABLE_A, 2, 1),
        (STABLE_B, 2, 1),
        (PADDED, 0, 1),
        (RANK_TWO, 2, 2),
        (RANK_THREE, 4, 3),
    ):
        verdict = stability_search(u)
        assert verdict.certificate_h == h
        assert exact_rank_for_stable(u, verdict) == rank
    # the windows of the lemma: rank k passes, rank k - 1 fails
    for u, rank in ((RANK_TWO, 2), (RANK_THREE, 3)):
        assert definitional_prefix_check(u, rank, max(u.arity - 2, 0))
        assert not definitional_prefix_check(u, rank - 1, max(u.arity - 2, 0))
    # arity 1 has an empty window, so every certificate level gives rank 1
    for h in (0, 2):
        verdict = StabilityVerdict(True, "tail-criterion", certificate_h=h, rank_upper=h + 1)
        assert exact_rank_for_stable(TuplePerm.transposition(2, (1,), (2,)), verdict) == 1
    with pytest.raises(ValueError):
        exact_rank_for_stable(UNSTABLE, stability_search(UNSTABLE))
    forged = StabilityVerdict(True, "tail-criterion", certificate_h=1, rank_upper=2)
    with pytest.raises(RuntimeError):
        exact_rank_for_stable(UNSTABLE, forged)


def test_exact_rank_builds_no_level_above_the_window(monkeypatch):
    drawn = []

    def counting_levels(u, budget):
        for k, level in enumerate(psi_levels(u, budget)):
            drawn.append(k)
            yield level

    monkeypatch.setattr(weylstab.stability, "psi_levels", counting_levels)
    arity_four = TuplePerm.transposition(3, (1, 1, 1, 2), (1, 1, 1, 3))
    for u in (STABLE_A, STABLE_B, RANK_TWO, RANK_THREE, PADDED, arity_four):
        verdict = stability_search(u)
        assert verdict.stable
        drawn.clear()
        exact_rank_for_stable(u, verdict)
        assert max(drawn) <= verdict.certificate_h + max(u.arity - 2, 0)


def test_search_with_exact_rank():
    verdict = search_with_exact_rank(STABLE_A)
    assert verdict.stable
    assert verdict.rank_exact == 1
    assert verdict.rank_upper == 3
    unresolved = search_with_exact_rank(UNSTABLE)
    assert not unresolved.stable
    assert unresolved.rank_exact is None


def test_relabel_invariance():
    rng = random.Random(17)
    words = list(all_words(3, 3))
    sigmas = list(itertools.permutations((1, 2, 3)))
    for _ in range(8):
        a, b = rng.sample(words, 2)
        u = TuplePerm.transposition(3, a, b)
        expected_rank1 = rank_one_check(u)
        expected_h = stability_search(u).certificate_h
        for sigma in sigmas:
            v = u.relabel(sigma)
            assert rank_one_check(v) == expected_rank1
            assert stability_search(v).certificate_h == expected_h


def _random_product(rng, n, t):
    words = list(all_words(n, t))
    u = TuplePerm.identity(n, t)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(words, 2)
        u = u * TuplePerm.transposition(n, a, b)
    return u


def test_relabel_invariance_of_composite_bases():
    # verify decides one representative per letter pattern, which is exact
    # only if both flow deciders are blind to a relabelling of the alphabet
    rng = random.Random(41)
    certified = 0
    for _ in range(60):
        n, t = rng.randint(2, 3), rng.randint(2, 4)
        if rng.random() < 0.4:
            lower = rng.randint(1, t - 1)
            u = _random_product(rng, n, lower).tensor(TuplePerm.identity(n, t - lower))
        else:
            u = _random_product(rng, n, t)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        v = u.relabel(sigma)
        verdict = stability_search(u)
        certified += verdict.stable
        assert stability_search(v) == verdict
        if t == 3:
            assert rank_one_check(v) == rank_one_check(u)
    assert certified > 10


def _rank_one_two_step(u):
    """Level 1 is level 0 padded by one letter, level 2 is level 1 padded."""
    levels = [psi_materialize(u, k) for k in range(3)]
    return all(
        upper.tail_identity_split(1) == lower for lower, upper in zip(levels, levels[1:])
    )


def _rank_on_long_window(u, verdict):
    """First rank candidate whose equations hold up to level certificate_h + t."""
    top = verdict.certificate_h + u.arity
    return next(
        k for k in range(1, verdict.rank_upper + 1) if definitional_prefix_check(u, k, top - k)
    )


def test_short_window_matches_long_window():
    rng = random.Random(2026)
    ranks = Counter()
    for n, t in itertools.product((2, 3), (1, 2, 3, 4)):
        for _ in range(400):
            u = _random_product(rng, n, t)
            if t == 3:
                assert rank_one_check(u) == _rank_one_two_step(u), u
            verdict = stability_search(u)
            if verdict.stable:
                rank = exact_rank_for_stable(u, verdict)
                assert rank == _rank_on_long_window(u, verdict), u
                ranks[rank] += 1
    assert max(ranks) >= 2
    assert ranks[1] > 100


def test_verdict_json_shape():
    stable = search_with_exact_rank(STABLE_A).to_json_dict()
    assert list(stable) == [
        "status",
        "certificate_h",
        "rank_upper",
        "rank_exact",
        "method",
    ]
    assert stable["status"] == "stable"
    inconclusive = stability_search(UNSTABLE).to_json_dict()
    assert list(inconclusive) == ["status", "h_max", "method"]
    assert inconclusive["status"] == "inconclusive"


def test_budget_propagates():
    with pytest.raises(BudgetExceededError):
        stability_search(UNSTABLE, budget=5)
    with pytest.raises(BudgetExceededError):
        rank_one_check(UNSTABLE, budget=1)

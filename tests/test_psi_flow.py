import itertools
import random
from dataclasses import dataclass

import pytest

from weylstab import (
    BudgetExceededError,
    TuplePerm,
    all_words,
    psi_apply,
    psi_levels,
    psi_materialize,
)


@dataclass(frozen=True)
class PsiFactor:
    """One identity-padded copy of the base permutation or of its inverse."""

    pad_left: int
    use_inverse: bool
    pad_right: int


def psi_factors(k):
    """Factor list of level ``k``, leftmost factor applied first.

    The inverse sweep slides from the far right to the far left, then the
    direct sweep slides right again, stopping one short of the far right.
    """
    inverse_sweep = [PsiFactor(k - i, True, i) for i in range(k + 1)]
    direct_sweep = [PsiFactor(i, False, k - i) for i in range(1, k + 1)]
    return inverse_sweep + direct_sweep


def dense_table(p):
    """Every word of the domain mapped explicitly."""
    return {w: p(w) for w in all_words(p.n, p.arity)}


def dense_embed(table, n, arity, pad_left, pad_right):
    out = {}
    for prefix in all_words(n, pad_left):
        for w, image in table.items():
            for suffix in all_words(n, pad_right):
                out[prefix + w + suffix] = prefix + image + suffix
    for w in all_words(n, arity + pad_left + pad_right):
        out.setdefault(w, w)
    return out


def dense_psi(u, k):
    """Reference flow level built by composing dense tables."""
    base = dense_table(u)
    inv = {image: w for w, image in base.items()}
    total = {w: w for w in all_words(u.n, u.arity + k)}
    for f in psi_factors(k):
        step = dense_embed(
            inv if f.use_inverse else base, u.n, u.arity, f.pad_left, f.pad_right
        )
        total = {w: step[image] for w, image in total.items()}
    return total


def test_factor_shapes():
    shapes = lambda k: [
        (f.pad_left, f.use_inverse, f.pad_right) for f in psi_factors(k)
    ]
    assert shapes(0) == [(0, True, 0)]
    assert shapes(1) == [(1, True, 0), (0, True, 1), (1, False, 0)]
    assert shapes(2) == [
        (2, True, 0),
        (1, True, 1),
        (0, True, 2),
        (1, False, 1),
        (2, False, 0),
    ]
    assert len(shapes(4)) == 9


def test_level_zero_is_the_inverse():
    u = TuplePerm.from_cycles(3, [[(1, 2), (2, 3), (3, 1)]])
    for w in all_words(3, 2):
        assert psi_apply(u, 0, w) == u.inverse()(w)
    assert psi_materialize(u, 0) == u.inverse()


def test_hand_traced_values():
    u = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
    assert psi_apply(u, 1, (1, 1, 1, 2)) == (2, 1, 1, 1)
    assert psi_apply(u, 1, (1, 1, 1, 1)) == (1, 1, 1, 1)
    v = TuplePerm.transposition(3, (1, 2, 3), (2, 3, 1))
    assert psi_apply(v, 2, (2, 3, 2, 3, 1)) == (1, 2, 3, 2, 3)


def test_apply_validates_arity():
    u = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        psi_apply(u, 1, (1, 1, 1))
    with pytest.raises(ValueError):
        psi_apply(u, 0, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        psi_apply(u, 1, (1, 1, 1, 3))
    with pytest.raises(ValueError):
        psi_apply(u, -1, (1, 1))


def test_flow_of_identity_is_identity():
    i = TuplePerm.identity(2, 2)
    for k in range(4):
        assert psi_materialize(i, k).is_identity


def test_levels_are_permutations():
    u = TuplePerm.transposition(2, (1, 1, 2), (1, 2, 2))
    for k in range(3):
        images = {psi_apply(u, k, w) for w in all_words(2, 3 + k)}
        assert len(images) == 2 ** (3 + k)


def assert_flow_matches_dense(u, k_max):
    """Built levels, lazy evaluation and the dense product agree on 0..k_max."""
    for k, level in zip(range(k_max + 1), psi_levels(u)):
        reference = dense_psi(u, k)
        assert dict(level.moved) == {w: x for w, x in reference.items() if w != x}
        assert len(level.moved) == len(u.moved) * u.n**k
        assert psi_materialize(u, k) == level
        for w, image in reference.items():
            assert psi_apply(u, k, w) == image


def test_against_dense_reference():
    rng = random.Random(2026)
    cases = [(2, 2, 4), (2, 3, 4), (3, 3, 3), (2, 1, 4), (3, 1, 3), (2, 4, 4), (3, 4, 3)]
    for n, t, k_max in cases:
        words = list(all_words(n, t))
        for _ in range(5):
            a, b = rng.sample(words, 2)
            assert_flow_matches_dense(TuplePerm.transposition(n, a, b), k_max)


def test_materialize_agrees_with_apply_off_support():
    rng = random.Random(3)
    words = list(all_words(3, 3))
    for _ in range(5):
        a, b = rng.sample(words, 2)
        u = TuplePerm.transposition(3, a, b)
        k = rng.randrange(4)
        level = psi_materialize(u, k)
        for _ in range(50):
            w = tuple(rng.randrange(1, 4) for _ in range(3 + k))
            assert level(w) == psi_apply(u, k, w)


def test_materialize_has_no_fixed_points_stored():
    u = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
    level = psi_materialize(u, 2)
    for w, image in level.moved.items():
        assert w != image


def test_materialize_budget():
    u = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
    # exact support of level 2: one 2-cycle times 2**2 prefixes
    with pytest.raises(BudgetExceededError) as info:
        psi_materialize(u, 2, budget=7)
    assert info.value.estimate == 8
    assert len(psi_materialize(u, 2, budget=8).moved) == 8
    assert psi_materialize(u, 2, budget=None) is not None


def test_composite_base_support():
    # products of several cycles exercise non-transposition bases
    p = TuplePerm.transposition(2, (1, 1), (1, 2))
    q = TuplePerm.transposition(2, (1, 2), (2, 2))
    bases = [
        (p * q, 4),
        (TuplePerm.from_cycles(3, [[(1,), (2,), (3,)]]), 3),
        (TuplePerm.from_cycles(3, [[(1, 1, 2), (2, 3, 1), (3, 3, 3)]]), 3),
        (TuplePerm.from_cycles(2, [[(1, 1, 1), (1, 2, 2)], [(2, 1, 2), (2, 2, 1)]]), 4),
        (
            TuplePerm.from_cycles(
                2, [[(1, 1, 1, 2), (2, 1, 1, 1), (1, 2, 2, 2)], [(2, 2, 1, 1), (1, 1, 2, 2)]]
            ),
            4,
        ),
    ]
    rng = random.Random(8)
    for n, t, k_max in [(2, 3, 4), (3, 2, 3)]:
        words = list(all_words(n, t))
        for _ in range(3):
            points = rng.sample(words, 5)
            images = points[1:] + points[:1]
            bases.append((TuplePerm(n, t, dict(zip(points, images))), k_max))
    for u, k_max in bases:
        assert_flow_matches_dense(u, k_max)

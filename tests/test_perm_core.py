import itertools
import random

import pytest

from weylstab import (
    BudgetExceededError,
    ParseError,
    TuplePerm,
    all_words,
    check_word,
    format_word,
    lex_rank,
    lex_unrank,
    parse_cycles,
    parse_word,
    relabel_word,
)


def test_check_word():
    assert check_word((1, 2, 3), 3) == (1, 2, 3)
    assert check_word([2, 1], 2) == (2, 1)
    with pytest.raises(ValueError):
        check_word((0, 1), 2)
    with pytest.raises(ValueError):
        check_word((1, 3), 2)
    with pytest.raises(ValueError):
        check_word((1, "2"), 2)
    with pytest.raises(ValueError):
        check_word((True, 2, 1), 2)


def test_all_words():
    assert list(all_words(2, 1)) == [(1,), (2,)]
    assert list(all_words(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(all_words(3, 3))) == 27
    assert list(all_words(3, 0)) == [()]


def test_lex_rank_examples():
    assert lex_rank((1, 1, 1), 3) == 1
    assert lex_rank((2, 3, 1), 3) == 16
    assert lex_rank((3, 3, 3), 3) == 27
    assert lex_rank((2,), 5) == 2


def test_lex_rank_unrank_inverse():
    for n, m in [(2, 3), (3, 3), (4, 2), (5, 1)]:
        for index, w in enumerate(all_words(n, m), start=1):
            assert lex_rank(w, n) == index
            assert lex_unrank(index, n, m) == w
    with pytest.raises(ValueError):
        lex_unrank(0, 2, 2)
    with pytest.raises(ValueError):
        lex_unrank(5, 2, 2)


def test_relabel_word():
    assert relabel_word((1, 2, 3), (3, 1, 2)) == (3, 1, 2)
    assert relabel_word((2, 2), (1, 2)) == (2, 2)


def test_format_parse_word():
    assert format_word((1, 2, 3)) == "(1,2,3)"
    assert parse_word("(1,2,3)") == (1, 2, 3)
    assert parse_word("  (1,2)  ") == (1, 2)
    assert parse_word(format_word((4, 11))) == (4, 11)


def test_parse_word_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_word("(1,2")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_word("1,2)")
    with pytest.raises(ParseError):
        parse_word("(1,2) extra")
    with pytest.raises(ParseError):
        parse_word("()")


def test_parse_cycles():
    assert parse_cycles("[(1,1,2) (1,2,2)]") == [((1, 1, 2), (1, 2, 2))]
    assert parse_cycles("[(1,1) (1,2)] [(2,1) (2,2)]") == [
        ((1, 1), (1, 2)),
        ((2, 1), (2, 2)),
    ]
    assert parse_cycles("[]") == []
    assert parse_cycles("") == []
    with pytest.raises(ParseError):
        parse_cycles("[(1,1) (1,2)")
    with pytest.raises(ParseError):
        parse_cycles("(1,1)")


def test_constructor_validation():
    p = TuplePerm(2, 2, {(1, 1): (1, 2), (1, 2): (1, 1)})
    assert p.apply((1, 1)) == (1, 2)
    with pytest.raises(ValueError):
        TuplePerm(2, 2, {(1, 1): (1, 2)})  # values not a permutation of keys
    with pytest.raises(ValueError):
        TuplePerm(2, 2, {(1, 1): (1, 1)})  # explicit fixed point
    with pytest.raises(ValueError):
        TuplePerm(2, 2, {(1, 1, 1): (2, 2, 2), (2, 2, 2): (1, 1, 1)})
    with pytest.raises(ValueError):
        TuplePerm(2, 2, {(1, 3): (1, 1), (1, 1): (1, 3)})


def test_immutability():
    p = TuplePerm.transposition(2, (1, 1), (2, 2))
    with pytest.raises(AttributeError):
        p.n = 3
    with pytest.raises(TypeError):
        p.moved[(1, 1)] = (1, 1)


def test_identity():
    i = TuplePerm.identity(3, 2)
    assert i.is_identity
    assert i.apply((2, 3)) == (2, 3)
    assert len(i.moved) == 0


def test_from_cycles_validation():
    with pytest.raises(ValueError):
        TuplePerm.from_cycles(2, [[(1, 1)]])
    with pytest.raises(ValueError):
        TuplePerm.from_cycles(2, [[(1, 1), (1, 1)]])
    with pytest.raises(ValueError):
        TuplePerm.from_cycles(2, [[(1, 1), (1, 2)], [(1, 2), (2, 2)]])
    with pytest.raises(ValueError):
        TuplePerm.from_cycles(2, [[(1, 1), (1, 2, 2)]])
    with pytest.raises(ValueError):
        TuplePerm.from_cycles(2, [])  # arity unknown
    assert TuplePerm.from_cycles(2, [], arity=3).is_identity


def test_transposition():
    u = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
    assert u((1, 1, 1)) == (2, 2, 2)
    assert u((2, 2, 2)) == (1, 1, 1)
    assert u((1, 2, 1)) == (1, 2, 1)
    with pytest.raises(ValueError):
        TuplePerm.transposition(2, (1, 1), (1, 1))


def test_apply_validation():
    u = TuplePerm.transposition(2, (1, 1), (2, 2))
    with pytest.raises(ValueError):
        u((1, 1, 1))
    with pytest.raises(ValueError):
        u((1, 3))


def test_compose_reads_left_to_right():
    p = TuplePerm.transposition(2, (1, 1), (1, 2))
    q = TuplePerm.transposition(2, (1, 2), (2, 2))
    pq = p * q
    assert pq.cycles() == [((1, 1), (2, 2), (1, 2))]
    for w in all_words(2, 2):
        assert pq(w) == q(p(w))


def test_compose_properties():
    rng = random.Random(7)
    words = list(all_words(2, 3))
    perms = []
    for _ in range(6):
        a, b = rng.sample(words, 2)
        perms.append(TuplePerm.transposition(2, a, b))
    for p, q, r in itertools.product(perms, repeat=3):
        assert (p * q) * r == p * (q * r)
    i = TuplePerm.identity(2, 3)
    for p in perms:
        assert p * i == p
        assert i * p == p
        assert p * p.inverse() == i
    p, q = perms[0], perms[1]
    with pytest.raises(ValueError):
        p * TuplePerm.transposition(2, (1, 1), (2, 2))
    with pytest.raises(ValueError):
        p * TuplePerm.transposition(3, (1, 1, 1), (3, 3, 3))


def test_inverse():
    c = TuplePerm.from_cycles(2, [[(1, 1), (1, 2), (2, 1)]])
    inv = c.inverse()
    assert inv((1, 2)) == (1, 1)
    assert inv((1, 1)) == (2, 1)
    for w in all_words(2, 2):
        assert inv(c(w)) == w


def test_tensor():
    u = TuplePerm.transposition(2, (1,), (2,))
    v = TuplePerm.identity(2, 1)
    t = u.tensor(v)
    assert t.arity == 2
    assert t((1, 1)) == (2, 1)
    assert t((1, 2)) == (2, 2)
    assert t((2, 1)) == (1, 1)
    swap = TuplePerm.transposition(2, (1,), (2,))
    both = u.tensor(swap)
    assert both((1, 1)) == (2, 2)
    assert both((2, 1)) == (1, 2)


def test_tensor_matches_pointwise_product():
    rng = random.Random(11)
    words2 = list(all_words(2, 2))
    for _ in range(10):
        a, b = rng.sample(words2, 2)
        c, d = rng.sample(words2, 2)
        p = TuplePerm.transposition(2, a, b)
        q = TuplePerm.transposition(2, c, d)
        t = p.tensor(q)
        for w in all_words(2, 4):
            assert t(w) == p(w[:2]) + q(w[2:])


def test_budget_guard():
    u = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
    i4 = TuplePerm.identity(2, 4)
    with pytest.raises(BudgetExceededError) as info:
        u.tensor(i4, budget=10)
    assert info.value.estimate == 2 * 2**4
    assert info.value.budget == 10
    assert "exceeds the budget" in str(info.value)
    # the same call succeeds with room
    assert u.tensor(i4, budget=2 * 2**4).arity == 7


def test_tail_identity_split():
    u = TuplePerm.transposition(2, (1,), (2,))
    i2 = TuplePerm.identity(2, 2)
    spread = u.tensor(i2)
    assert spread.tail_identity_split(0) == spread
    assert spread.tail_identity_split(1) == u.tensor(TuplePerm.identity(2, 1))
    assert spread.tail_identity_split(2) == u
    moved = TuplePerm.transposition(2, (1, 1), (2, 2))
    assert moved.tail_identity_split(1) is None
    with pytest.raises(ValueError):
        spread.tail_identity_split(3)
    with pytest.raises(ValueError):
        spread.tail_identity_split(-1)


def test_tail_identity_split_needs_every_tail():
    # heads move consistently but only the tail 1 column is present
    partial = TuplePerm(2, 2, {(1, 1): (2, 1), (2, 1): (1, 1)})
    assert partial.tail_identity_split(1) is None
    # same head map on both tails does split
    full = TuplePerm(
        2, 2, {(1, 1): (2, 1), (2, 1): (1, 1), (1, 2): (2, 2), (2, 2): (1, 2)}
    )
    assert full.tail_identity_split(1) == TuplePerm.transposition(2, (1,), (2,))


def test_relabel():
    u = TuplePerm.transposition(3, (1, 2), (2, 3))
    sigma = (2, 3, 1)
    v = u.relabel(sigma)
    for w in all_words(3, 2):
        assert v(relabel_word(w, sigma)) == relabel_word(u(w), sigma)
    with pytest.raises(ValueError):
        u.relabel((1, 1, 2))


def test_cycles_are_canonical():
    c = TuplePerm.from_cycles(2, [[(2, 2), (1, 1), (1, 2)]])
    assert c.cycles() == [((1, 1), (1, 2), (2, 2))]
    two = TuplePerm.from_cycles(2, [[(2, 1), (2, 2)], [(1, 1), (1, 2)]])
    assert two.cycles() == [((1, 1), (1, 2)), ((2, 1), (2, 2))]


def test_text_round_trip():
    u = TuplePerm.transposition(2, (1, 1, 2), (1, 2, 2))
    assert u.to_text() == "[(1,1,2) (1,2,2)]"
    assert TuplePerm.from_text(u.to_text(), 2) == u
    i = TuplePerm.identity(2, 3)
    assert i.to_text() == "[]"
    assert TuplePerm.from_text("[]", 2, arity=3) == i
    multi = TuplePerm.from_cycles(2, [[(1, 1), (1, 2)], [(2, 1), (2, 2)]])
    assert TuplePerm.from_text(multi.to_text(), 2) == multi


def test_json_round_trip():
    u = TuplePerm.from_cycles(3, [[(1, 1), (2, 2), (3, 3)]])
    data = u.to_json_dict()
    assert data == {"n": 3, "arity": 2, "cycles": [[[1, 1], [2, 2], [3, 3]]]}
    assert TuplePerm.from_json_dict(data) == u


def test_equality_and_hash():
    a = TuplePerm.transposition(2, (1, 1), (2, 2))
    b = TuplePerm.from_cycles(2, [[(2, 2), (1, 1)]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != TuplePerm.transposition(2, (1, 1), (1, 2))
    assert a != TuplePerm.identity(2, 2)
    assert len({a, b}) == 1

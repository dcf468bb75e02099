"""The layered flow psi of a word permutation.

For a permutation u of arity-t words, level k of the flow acts on words of
arity t + k.  Level 0 is plainly the inverse of u.  For k >= 1 the level is a
left-to-right product of 2k + 1 identity-padded copies of u: first k + 1
inverse copies whose window slides from the far right to the far left, then
k direct copies sliding right again, stopping one short of where the inverse
sweep started.  Level 1, for instance, applies (1 (x) u^-1), then (u^-1 (x) 1),
then (1 (x) u).

Dropping the outermost pair of factors leaves level k - 1 padded by one
identity letter: with g = 1^k (x) u, psi_k = g^-1 . (psi_{k-1} (x) 1) . g.
So level k is a conjugate of the padded level below, and its support has
exactly |support(u)| * n**k words.

Two evaluation strategies are provided.  ``psi_apply`` pushes a single word
through the 2k + 1 factors in O(k * t) window lookups without building
anything.  ``psi_levels`` builds the levels in turn by the recursion, as sparse
``TuplePerm`` values, checking each exact support size against a budget
before storing it; ``psi_materialize`` returns one of them.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterator, Sequence

from .perm_core import (
    DEFAULT_SUPPORT_BUDGET,
    BudgetExceededError,
    TuplePerm,
    Word,
    check_word,
)

__all__ = ["psi_apply", "psi_levels", "psi_materialize"]


def psi_apply(u: TuplePerm, k: int, w: Sequence[int]) -> Word:
    """Image of one word under level ``k``, evaluated lazily.

    Slides a window of t letters over the word: first the inverse of u at
    offsets k, k-1, ..., 0, then u itself at offsets 1, ..., k.  Each step
    replaces the window when it is a moved word and leaves it otherwise.

    >>> from .perm_core import TuplePerm
    >>> u = TuplePerm.transposition(2, (1, 1, 1), (2, 2, 2))
    >>> psi_apply(u, 1, (1, 1, 1, 2))
    (2, 1, 1, 1)
    """
    if k < 0:
        raise ValueError("level must be non-negative")
    word = check_word(w, u.n)
    if len(word) != u.arity + k:
        raise ValueError(f"level {k} of an arity-{u.arity} base acts on arity-{u.arity + k} words")
    forward = dict(u.moved)  # a plain dict looks up faster than the read-only view
    backward = {image: v for v, image in forward.items()}
    t = u.arity
    for table, offsets in ((backward, range(k, -1, -1)), (forward, range(1, k + 1))):
        for offset in offsets:
            image = table.get(word[offset : offset + t])
            if image is not None:
                word = word[:offset] + image + word[offset + t :]
    return word


def _check_budget(u: TuplePerm, k: int, budget: int | None) -> None:
    estimate = len(u.moved) * u.n**k
    if budget is not None and estimate > budget:
        raise BudgetExceededError(estimate, budget)


def psi_levels(
    u: TuplePerm, budget: int | None = DEFAULT_SUPPORT_BUDGET
) -> Iterator[TuplePerm]:
    """Yield levels 0, 1, 2, ... of the flow, raising at the first over ``budget``.

    Each moved point y of psi_{k-1} (x) 1 gives the moved point g(y) of level
    k with image g(psi_{k-1}(y)), where g applies u to the last t letters.
    """
    n, t = u.n, u.arity
    forward = dict(u.moved)  # a plain dict looks up faster than the read-only view
    letters = [(c,) for c in range(1, n + 1)]
    _check_budget(u, 0, budget)
    level = u.inverse()
    for k in count(1):
        yield level
        _check_budget(u, k, budget)
        moved: dict[Word, Word] = {}
        for w, image in level.moved.items():
            head, tail = w[:k], w[k:]
            image_head, image_tail = image[:k], image[k:]
            for c in letters:
                x, y = tail + c, image_tail + c
                moved[head + forward.get(x, x)] = image_head + forward.get(y, y)
        level = TuplePerm(n, t + k, moved, validate=False)


def psi_materialize(
    u: TuplePerm, k: int, budget: int | None = DEFAULT_SUPPORT_BUDGET
) -> TuplePerm:
    """Level ``k`` as a sparse permutation, taken from :func:`psi_levels`.

    Raises before building anything when level ``k`` alone exceeds
    ``budget``; the levels below it are no larger, so none of them can.
    """
    if k < 0:
        raise ValueError("level must be non-negative")
    _check_budget(u, k, budget)
    return next(islice(psi_levels(u, budget), k, None))

"""Finitely-supported permutations of fixed-arity words over the alphabet {1..n}.

A *word* is a tuple of 1-based letters drawn from {1..n}; its length is its
arity.  A permutation of the set of all arity-m words is stored sparsely, as
the mapping of its moved points only.  Everything outside the stored mapping
is fixed, so products of identity-padded copies of a small permutation stay
tractable even when the full domain n**m is huge.

Composition reads left to right throughout: ``p * q`` (same as
``p.compose(q)``) applies ``p`` first and ``q`` second.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Word",
    "BudgetExceededError",
    "DEFAULT_SUPPORT_BUDGET",
    "ParseError",
    "TuplePerm",
    "all_words",
    "check_word",
    "format_word",
    "lex_rank",
    "lex_unrank",
    "parse_cycles",
    "parse_word",
    "relabel_word",
]

Word = tuple[int, ...]

# Shared ceiling on how many moved points any one materialization may store.
DEFAULT_SUPPORT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """A materialization would exceed the allowed number of support entries."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(
            f"estimated support of {estimate} entries exceeds the budget of {budget}"
        )
        self.estimate = estimate
        self.budget = budget


class ParseError(ValueError):
    """A text form could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def check_word(w: Sequence[int], n: int) -> Word:
    """Return ``w`` as a word tuple, checking every letter lies in {1..n}."""
    word = tuple(w)
    if not word:
        raise ValueError("a word needs at least one letter")
    for letter in word:
        if not isinstance(letter, int) or isinstance(letter, bool) or not 1 <= letter <= n:
            raise ValueError(f"letter {letter!r} is outside 1..{n}")
    return word


def all_words(n: int, m: int) -> Iterator[Word]:
    """Yield every arity-m word over {1..n} in lexicographic order."""
    return itertools.product(range(1, n + 1), repeat=m)


def lex_rank(w: Sequence[int], n: int) -> int:
    """1-based position of ``w`` in the lexicographic order of [n]^m.

    The leftmost letter is most significant.

    >>> lex_rank((1, 1, 1), 2)
    1
    >>> lex_rank((2, 2, 2), 2)
    8
    >>> lex_rank((2, 3, 1), 3)
    16
    """
    word = check_word(w, n)
    rank = 0
    for letter in word:
        rank = rank * n + (letter - 1)
    return rank + 1


def lex_unrank(index: int, n: int, m: int) -> Word:
    """Inverse of :func:`lex_rank` for arity-m words over {1..n}.

    >>> lex_unrank(16, 3, 3)
    (2, 3, 1)
    """
    if m < 1:
        raise ValueError("arity must be at least 1")
    if not 1 <= index <= n**m:
        raise ValueError(f"index {index} is outside 1..{n**m}")
    x = index - 1
    letters = []
    for _ in range(m):
        letters.append(x % n + 1)
        x //= n
    return tuple(reversed(letters))


def relabel_word(w: Word, sigma: Sequence[int]) -> Word:
    """Apply the letter permutation ``sigma`` (1-based images) to each letter."""
    return tuple(sigma[letter - 1] for letter in w)


def format_word(w: Word) -> str:
    """Render a word as ``(1,2,3)``."""
    return "(" + ",".join(str(letter) for letter in w) + ")"


def _parse_word_at(text: str, pos: int) -> tuple[Word, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ParseError("expected '('", pos)
    pos += 1
    letters = []
    while True:
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected a letter", pos)
        letters.append(int(text[start:pos]))
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        if pos < len(text) and text[pos] == ")":
            return tuple(letters), pos + 1
        raise ParseError("expected ',' or ')'", pos)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def parse_word(text: str) -> Word:
    """Parse the text form of a word.

    >>> parse_word("(1,2,3)")
    (1, 2, 3)
    """
    pos = _skip_ws(text, 0)
    word, pos = _parse_word_at(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("unexpected trailing text", pos)
    return word


def parse_cycles(text: str) -> list[tuple[Word, ...]]:
    """Parse a whitespace-separated sequence of bracketed cycles.

    Each cycle lists its words in orbit order: ``[(1,1,2) (1,2,2)]`` sends
    (1,1,2) to (1,2,2) and back.

    >>> parse_cycles("[(1,1,2) (1,2,2)]")
    [((1, 1, 2), (1, 2, 2))]
    """
    cycles: list[tuple[Word, ...]] = []
    pos = _skip_ws(text, 0)
    while pos < len(text):
        if text[pos] != "[":
            raise ParseError("expected '['", pos)
        pos = _skip_ws(text, pos + 1)
        words: list[Word] = []
        while pos < len(text) and text[pos] != "]":
            word, pos = _parse_word_at(text, pos)
            words.append(word)
            pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise ParseError("unterminated cycle, expected ']'", pos)
        if words:  # "[]" denotes the identity and contributes no cycle
            cycles.append(tuple(words))
        pos = _skip_ws(text, pos + 1)
    return cycles


class TuplePerm:
    """A permutation of the arity-m words over {1..n}, stored by moved points.

    The stored mapping never contains fixed points, its key set equals its
    value set, and instances are immutable after construction, so they are
    safe to share between threads.

    >>> p = TuplePerm.from_cycles(2, [((1, 1), (1, 2))])
    >>> p.apply((1, 1))
    (1, 2)
    >>> p.apply((2, 1))
    (2, 1)
    """

    __slots__ = ("n", "arity", "moved")

    def __init__(
        self,
        n: int,
        arity: int,
        moved: Mapping[Word, Word],
        validate: bool = True,
    ):
        if n < 1:
            raise ValueError("alphabet size must be at least 1")
        if arity < 1:
            raise ValueError("arity must be at least 1")
        mapping = dict(moved)
        if validate:
            for w, image in mapping.items():
                if len(w) != arity or len(image) != arity:
                    raise ValueError("moved points must all have the stated arity")
                check_word(w, n)
                check_word(image, n)
                if w == image:
                    raise ValueError(f"fixed point {w} must not be stored")
            if set(mapping.keys()) != set(mapping.values()):
                raise ValueError("moved points must form a bijection")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "moved", MappingProxyType(mapping))

    def __setattr__(self, name, value):
        raise AttributeError("TuplePerm is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int, arity: int) -> "TuplePerm":
        return cls(n, arity, {}, validate=False)

    @classmethod
    def from_cycles(
        cls,
        n: int,
        cycles: Iterable[Sequence[Sequence[int]]],
        arity: int | None = None,
    ) -> "TuplePerm":
        """Build a permutation from pairwise-disjoint cycles of words.

        ``arity`` is inferred from the first word unless given explicitly;
        it must be supplied to build an identity from an empty cycle list.
        """
        moved: dict[Word, Word] = {}
        for cycle in cycles:
            words = [tuple(w) for w in cycle]
            if len(words) < 2:
                raise ValueError("a cycle needs at least two words")
            if arity is None:
                arity = len(words[0])
            for w in words:
                check_word(w, n)
                if len(w) != arity:
                    raise ValueError("all cycle words must share one arity")
                # every word of an already-built cycle is a key, so this
                # membership test is the whole disjointness check
                if w in moved:
                    raise ValueError(f"word {w} appears in more than one cycle")
            if len(set(words)) != len(words):
                raise ValueError("cycle words must be pairwise distinct")
            for w, image in zip(words, words[1:] + words[:1]):
                moved[w] = image
        if arity is None:
            raise ValueError("arity is required to build an identity")
        return cls(n, arity, moved, validate=False)

    @classmethod
    def transposition(cls, n: int, a: Sequence[int], b: Sequence[int]) -> "TuplePerm":
        """The 2-cycle swapping words ``a`` and ``b``."""
        if tuple(a) == tuple(b):
            raise ValueError("words must differ")
        return cls.from_cycles(n, [(tuple(a), tuple(b))])

    # -- basic queries ------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.moved

    def support(self):
        """The set of moved words."""
        return self.moved.keys()

    def apply(self, w: Sequence[int]) -> Word:
        """Image of the word ``w``."""
        word = check_word(w, self.n)
        if len(word) != self.arity:
            raise ValueError(f"expected an arity-{self.arity} word, got {word}")
        return self.moved.get(word, word)

    __call__ = apply

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "TuplePerm") -> "TuplePerm":
        """Left-to-right product: apply ``self`` first, then ``other``."""
        if self.n != other.n or self.arity != other.arity:
            raise ValueError("can only compose permutations of the same domain")
        moved: dict[Word, Word] = {}
        mine, theirs = self.moved, other.moved
        for w, image in mine.items():
            final = theirs.get(image, image)
            if final != w:
                moved[w] = final
        for w, image in theirs.items():
            if w not in mine:
                moved[w] = image
        return TuplePerm(self.n, self.arity, moved, validate=False)

    __mul__ = compose

    def inverse(self) -> "TuplePerm":
        moved = {image: w for w, image in self.moved.items()}
        return TuplePerm(self.n, self.arity, moved, validate=False)

    def tensor(
        self, other: "TuplePerm", budget: int | None = DEFAULT_SUPPORT_BUDGET
    ) -> "TuplePerm":
        """Concatenation product: ``(u.tensor(v))(ab) = u(a) + v(b)``.

        The support is the set of words moved in either block, so its size is
        checked against ``budget`` before anything is stored.
        """
        if self.n != other.n:
            raise ValueError("can only tensor permutations over the same alphabet")
        n = self.n
        s, r = self.arity, other.arity
        estimate = len(self.moved) * n**r + len(other.moved) * n**s
        if budget is not None and estimate > budget:
            raise BudgetExceededError(estimate, budget)
        moved: dict[Word, Word] = {}
        theirs = other.moved
        if self.moved:
            for alpha, image_a in self.moved.items():
                for beta in all_words(n, r):
                    moved[alpha + beta] = image_a + theirs.get(beta, beta)
        if theirs:
            mine = self.moved
            for alpha in all_words(n, s):
                if alpha in mine:
                    continue
                for beta, image_b in theirs.items():
                    moved[alpha + beta] = alpha + image_b
        return TuplePerm(n, s + r, moved, validate=False)

    def tail_identity_split(self, j: int) -> "TuplePerm | None":
        """Strip ``j`` trailing identity letters, or report that none exist.

        Returns ``w`` with ``self == w.tensor(identity)`` over the last ``j``
        letters when such a factorization exists, and ``None`` otherwise.
        Absence is an answer, not an error.
        """
        if not 0 <= j < self.arity:
            raise ValueError(f"tail length must be in 0..{self.arity - 1}")
        if j == 0:
            return self
        head_len = self.arity - j
        head_map: dict[Word, Word] = {}
        tail_counts: dict[Word, int] = {}
        for w, image in self.moved.items():
            if image[head_len:] != w[head_len:]:
                return None
            head, image_head = w[:head_len], image[:head_len]
            known = head_map.get(head)
            if known is None:
                head_map[head] = image_head
                tail_counts[head] = 1
            elif known != image_head:
                return None
            else:
                tail_counts[head] += 1
        full = self.n**j
        for count in tail_counts.values():
            if count != full:
                return None
        return TuplePerm(self.n, head_len, head_map, validate=False)

    def relabel(self, sigma: Sequence[int]) -> "TuplePerm":
        """Conjugate by a letter permutation given as 1-based images."""
        if sorted(sigma) != list(range(1, self.n + 1)):
            raise ValueError(f"need a permutation of 1..{self.n}")
        moved = {
            relabel_word(w, sigma): relabel_word(image, sigma)
            for w, image in self.moved.items()
        }
        return TuplePerm(self.n, self.arity, moved, validate=False)

    # -- serialization ------------------------------------------------------

    def cycles(self) -> list[tuple[Word, ...]]:
        """Disjoint cycles, each rotated to start at its least word."""
        seen: set[Word] = set()
        out: list[tuple[Word, ...]] = []
        for start in sorted(self.moved):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            w = self.moved[start]
            while w != start:
                cycle.append(w)
                seen.add(w)
                w = self.moved[w]
            out.append(tuple(cycle))
        return out

    def to_text(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "[]"
        return " ".join(
            "[" + " ".join(format_word(w) for w in cycle) + "]" for cycle in cycles
        )

    @classmethod
    def from_text(cls, text: str, n: int, arity: int | None = None) -> "TuplePerm":
        return cls.from_cycles(n, parse_cycles(text), arity=arity)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "arity": self.arity,
            "cycles": [[list(w) for w in cycle] for cycle in self.cycles()],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TuplePerm":
        return cls.from_cycles(data["n"], data["cycles"], arity=data["arity"])

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TuplePerm):
            return NotImplemented
        return (
            self.n == other.n
            and self.arity == other.arity
            and self.moved == other.moved
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arity, frozenset(self.moved.items())))

    def __repr__(self) -> str:
        return f"<TuplePerm n={self.n} arity={self.arity} {self.to_text()}>"

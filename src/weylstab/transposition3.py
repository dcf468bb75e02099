"""Closed-form stability classification for transpositions of three-letter words.

A transposition swaps two distinct arity-3 words a = (a1,a2,a3) and
b = (b1,b2,b3).  It is stable exactly when it has rank 1, which happens in
precisely two shapes:

* ``Disjoint``: {a1,b1} and {a3,b3} share no letter, {a1,a2} != {b2,b3},
  and {b1,b2} != {a2,a3};
* ``DiagonalEqual``: a1 = a3 = b1 = b3 with a1 != a2, a2 != b2, b2 != b1.

Everything else is unstable, and each unstable shape carries an explicit
family of witness points: inputs whose images under the flow at a computable
level k (k = 3r - 2 or 2r for every admissible repetition count r) show that
the level cannot end in an identity letter, at arbitrarily high levels.

A transposition is an unordered pair, so conditions stated with the roles of
a and b exchanged describe the same permutation; b-side cases reuse the
a-side witness formulas with the two words swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .perm_core import TuplePerm, Word, check_word
from .psi_flow import psi_apply

__all__ = [
    "Branch",
    "CaseTag",
    "Classification",
    "Transposition3",
    "Witness",
    "WitnessReport",
    "WitnessResult",
    "classification_to_json",
    "classify",
    "reverse",
    "witness_points",
    "witness_report",
]


class Branch(str, Enum):
    """The two stable shapes."""

    DISJOINT = "Disjoint"
    DIAGONAL_EQUAL = "DiagonalEqual"


class CaseTag(str, Enum):
    """Unstable shapes, listed in the precedence order used by the classifier."""

    ALL_EQUAL_A = "AllEqualA"
    ALL_EQUAL_B = "AllEqualB"
    OUTER_EQUAL_A = "OuterEqualA"
    OUTER_EQUAL_B = "OuterEqualB"
    CROSS_A1_B3 = "CrossA1B3"
    CROSS_B1_A3 = "CrossB1A3"
    OVERLAP_A2_B1 = "OverlapA2B1"
    OVERLAP_B2_A1 = "OverlapB2A1"


# b-side tags whose witnesses come from the a-side formulas with words swapped
_SWAPPED_TAGS = frozenset(
    {CaseTag.ALL_EQUAL_B, CaseTag.OUTER_EQUAL_B, CaseTag.CROSS_B1_A3, CaseTag.OVERLAP_B2_A1}
)


@dataclass(frozen=True)
class Transposition3:
    """An unordered pair of distinct three-letter words, stored with a < b."""

    n: int
    a: Word
    b: Word

    def __post_init__(self):
        a = check_word(self.a, self.n)
        b = check_word(self.b, self.n)
        if len(a) != 3 or len(b) != 3:
            raise ValueError("both words must have arity 3")
        if a == b:
            raise ValueError("words must differ")
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def permutation(self) -> TuplePerm:
        return TuplePerm.transposition(self.n, self.a, self.b)


@dataclass(frozen=True)
class Classification:
    stable: bool
    branch: Branch | None = None
    case: CaseTag | None = None

    @property
    def verdict(self) -> str:
        return "stable" if self.stable else "unstable"


def classify(t: Transposition3) -> Classification:
    """Decide stability of a transposition from its letters alone."""
    a1, a2, a3 = t.a
    b1, b2, b3 = t.b
    if not {a1, b1} & {a3, b3}:
        if {a1, a2} != {b2, b3} and {b1, b2} != {a2, a3}:
            return Classification(True, branch=Branch.DISJOINT)
    elif a1 == a3 == b1 == b3 and a1 != a2 and a2 != b2 and b2 != b1:
        return Classification(True, branch=Branch.DIAGONAL_EQUAL)
    if a1 == a2 == a3:
        case = CaseTag.ALL_EQUAL_A
    elif b1 == b2 == b3:
        case = CaseTag.ALL_EQUAL_B
    elif a1 == a3:
        case = CaseTag.OUTER_EQUAL_A
    elif b1 == b3:
        case = CaseTag.OUTER_EQUAL_B
    elif a1 == b3:
        case = CaseTag.CROSS_A1_B3
    elif b1 == a3:
        case = CaseTag.CROSS_B1_A3
    elif a2 == b1 and a3 == b2:
        case = CaseTag.OVERLAP_A2_B1
    elif b2 == a1 and b3 == a2:
        case = CaseTag.OVERLAP_B2_A1
    else:
        raise AssertionError(f"unclassifiable transposition {t}")
    return Classification(False, case=case)


def classification_to_json(t: Transposition3, c: Classification) -> dict:
    out: dict = {"a": list(t.a), "b": list(t.b), "n": t.n, "verdict": c.verdict}
    if c.stable:
        out["branch"] = c.branch.value
    else:
        out["case"] = c.case.value
    return out


def reverse(t: Transposition3) -> Transposition3:
    """Reverse both words coordinatewise (the order of a and b renormalizes)."""
    return Transposition3(t.n, t.a[::-1], t.b[::-1])


@dataclass(frozen=True)
class Witness:
    """One proof point at flow level ``k`` (repetition count ``r``).

    ``expected`` is the closed-form image when the formula pins the whole
    word; ``head`` pins only the first output letter.  ``claim`` is "pinned"
    when the closed form is used verbatim and "recomputed" when the printed
    form underdetermines the word, in which case the flow itself is the
    reference.  Every witness additionally claims that its level admits no
    trailing identity letter.
    """

    k: int
    r: int
    input: Word
    expected: Word | None
    head: int | None
    claim: str


def _all_equal_family(a: Word, b: Word, r: int) -> tuple[int, list[Witness]]:
    """Witnesses for a = (c,c,c); levels k = 3r - 2."""
    c = a[0]
    b1, b2, b3 = b

    def build(r_eff: int, points) -> tuple[int, list[Witness]]:
        k = 3 * r_eff - 2
        return k, [
            Witness(k, r_eff, w, expected, head, claim)
            for (w, expected, head, claim) in points
        ]

    if c != b1:
        # the all-c word is fixed; deviating in the last letter relocates b1
        # to the front with an unpinned tail
        length = 3 * r + 1
        return build(
            r,
            [
                ((c,) * length, (c,) * length, None, "pinned"),
                ((c,) * (length - 1) + (b1,), None, b1, "recomputed"),
            ],
        )
    if b2 == c:
        # b = (c,c,b3): the all-c word lands on (b1,b2,b3,...,b3)
        length = 3 * r + 1
        return build(
            r,
            [((c,) * length, (b1, b2) + (b3,) * (length - 2), None, "pinned")],
        )
    if b3 == c:
        # b = (c,b2,c): needs an even repetition count
        r_eff = 2 * r
        length = 3 * r_eff + 1
        return build(
            r_eff,
            [
                ((c,) * length, (b1, b2) + (c,) * (length - 2), None, "pinned"),
                ((c,) * (length - 1) + (b2,), (c,) * (length - 1) + (b2,), None, "pinned"),
            ],
        )
    # b = (c,y,z) with y,z != c: needs an even repetition count
    r_eff = 2 * r
    length = 3 * r_eff + 1
    return build(
        r_eff,
        [((c,) * length, (b1,) + (b2, b3) * ((length - 1) // 2), None, "pinned")],
    )


def _outer_equal_family(a: Word, b: Word, r: int) -> tuple[int, list[Witness]]:
    """Witnesses for a1 = a3 != a2; levels k = 2r."""
    a1, a2, a3 = a
    if b in ((a2, a1, a2), (a1, a1, a2)):
        # For these two letter patterns the sliding windows of the flow
        # re-enter the support and the generic images below break down.  The
        # word a followed by k copies of a1 settles both: recomputation shows
        # it relocates its last letter at every level.
        k = 2 * r
        w = a + (a1,) * k
        if b == (a2, a1, a2):
            expected = (a2,) * (k + 1) + (a1, a2)
        else:
            expected = (a1,) * (k + 2) + (a2,)
        return k, [Witness(k, r, w, expected, None, "recomputed")]
    if a1 == b[0]:
        r_eff = r
        k = 2 * r_eff
        w = a + (a2, a3) * r_eff
        expected = b + (b[1], b[2]) * r_eff
        return k, [Witness(k, r_eff, w, expected, None, "pinned")]
    # needs an odd repetition count
    r_eff = 2 * r - 1
    k = 2 * r_eff
    fixed = a + (a2, a3) * r_eff
    deviated = a + (a2, a3) * (r_eff - 1) + (a2, a2)
    if b == (b[0], a2, b[0]):
        # shared middle letter with b1 = b3: the deviated image picks up an
        # extra copy of b1 near the tail; recomputation fixes the shape, which
        # collapses to the generic one when r_eff = 1
        moved = (b[0],) + (a2, a3) * (r_eff - 1) + (a2, b[0], a2, a2)
        claim = "recomputed"
    else:
        moved = b + (a2, a3) * (r_eff - 1) + (a2, a2)
        claim = "pinned"
    return k, [
        Witness(k, r_eff, fixed, fixed, None, "pinned"),
        Witness(k, r_eff, deviated, moved, None, claim),
    ]


def _cross_family(a: Word, b: Word, r: int) -> tuple[int, list[Witness]]:
    """Witnesses for a1 = b3 (outer letters otherwise distinct); k = 2r."""
    k = 2 * r
    w = (b[0], b[1]) * r + b
    # the printed image underdetermines the length; the repeating (a2,a3)
    # block fills the word, making it r + 1 copies
    expected = (a[0],) + (a[1], a[2]) * (r + 1)
    return k, [Witness(k, r, w, expected, None, "recomputed")]


def _overlap_family(a: Word, b: Word, r: int) -> tuple[int, list[Witness]]:
    """Witnesses for a2 = b1, a3 = b2 (outer alphabets disjoint); k = 3r - 2."""
    a1 = a[0]
    b1, b2, b3 = b
    k = 3 * r - 2
    first = (a1,) * (3 * r - 3) + (a1, a[1], a[2], b1)
    first_expected = (b1, b2) + (b3,) * (3 * r - 2) + (b1,)
    second = (a1,) * (3 * r - 3) + (a1, a[1], a[2], b3)
    second_expected = (a1,) * (3 * r - 2) + b
    return k, [
        Witness(k, r, first, first_expected, None, "pinned"),
        Witness(k, r, second, second_expected, None, "pinned"),
    ]


def witness_points(t: Transposition3, r: int) -> list[Witness]:
    """Proof points for an unstable transposition at repetition count ``r``.

    Families whose closed form only holds for even (or odd) repetition counts
    map ``r`` to the r-th valid count, so the produced levels still grow
    without bound as r does.  Stable input is a usage error.
    """
    if r < 1:
        raise ValueError("repetition count must be at least 1")
    c = classify(t)
    if c.stable:
        raise ValueError("witness points exist only for unstable transpositions")
    a, b = t.a, t.b
    if c.case in _SWAPPED_TAGS:
        a, b = b, a
    if c.case in (CaseTag.ALL_EQUAL_A, CaseTag.ALL_EQUAL_B):
        _, witnesses = _all_equal_family(a, b, r)
    elif c.case in (CaseTag.OUTER_EQUAL_A, CaseTag.OUTER_EQUAL_B):
        _, witnesses = _outer_equal_family(a, b, r)
    elif c.case in (CaseTag.CROSS_A1_B3, CaseTag.CROSS_B1_A3):
        _, witnesses = _cross_family(a, b, r)
    else:
        _, witnesses = _overlap_family(a, b, r)
    return witnesses


@dataclass(frozen=True)
class WitnessResult:
    witness: Witness
    actual: Word
    passed: bool


@dataclass(frozen=True)
class WitnessReport:
    case: CaseTag
    results: tuple[WitnessResult, ...]
    # level -> True when that level provably has no trailing identity letter
    no_identity_tail: tuple[tuple[int, bool], ...]

    @property
    def all_passed(self) -> bool:
        return all(res.passed for res in self.results) and all(
            ok for _, ok in self.no_identity_tail
        )


def _levels_lack_identity_tail(results: list[WitnessResult]) -> tuple[tuple[int, bool], ...]:
    """Decide, per witness level, whether a trailing identity letter is impossible.

    If some level k had psi_k(u) = w (x) identity, every image would keep its
    last letter, and the image of a word would be determined on the first
    arity-1 letters by those letters alone.  A witness whose image changes the
    last letter, or two witnesses sharing an input head with different image
    heads, therefore settles the question without materializing the level.  A
    level where no witness shows a violation stays unresolved (False): like
    the certificate search, the check is one-sided.
    """
    out = []
    for k in sorted({res.witness.k for res in results}):
        at_level = [res for res in results if res.witness.k == k]
        violated = any(res.actual[-1] != res.witness.input[-1] for res in at_level)
        if not violated:
            heads: dict[Word, Word] = {}
            for res in at_level:
                image_head = heads.setdefault(res.witness.input[:-1], res.actual[:-1])
                if image_head != res.actual[:-1]:
                    violated = True
                    break
        out.append((k, violated))
    return tuple(out)


def witness_report(t: Transposition3, r: int) -> WitnessReport:
    """Evaluate every witness through the flow and check the tail claims."""
    c = classify(t)
    witnesses = witness_points(t, r)
    u = t.permutation()
    results = []
    for witness in witnesses:
        actual = psi_apply(u, witness.k, witness.input)
        passed = witness.expected is not None and actual == witness.expected
        if witness.expected is None:
            passed = witness.head is not None and actual[0] == witness.head
        results.append(WitnessResult(witness, actual, passed))
    return WitnessReport(c.case, tuple(results), _levels_lack_identity_tail(results))

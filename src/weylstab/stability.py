"""Stability certificates for word permutations under the psi flow.

A permutation u of arity-t words is *stable* when some level k >= 1 satisfies
psi_{k+l}(u) = psi_{k-1}(u) (x) identity**(l+1) for every l >= 0; the least
such k is its rank.  Arity-1 permutations are always stable of rank 1.

Infinitely many equations reduce to finitely many by one lemma.

Commuting-window lemma (1^j stands for identity**j).  Level k comes from
the level below as psi_k = g^-1 . (psi_{k-1} (x) 1) . g, where
g = 1^k (x) u acts on positions k+1..k+t.

(i) The rank-k equations hold for every l >= 0 as soon as they hold for
l = 0..t-2.  Proof: suppose psi_{k+l-1} = psi_{k-1} (x) 1^l for some
l >= t-1.  Padding by one letter, psi_{k-1} (x) 1^(l+1) acts on positions
1..t+k-1 only, while g = 1^(k+l) (x) u acts on positions k+l+1..k+l+t, and
k+l+1 > t+k-1.  Permutations on disjoint positions commute, so
psi_{k+l} = g^-1 . (psi_{k-1} (x) 1^(l+1)) . g = psi_{k-1} (x) 1^(l+1).
Induction on l from l = t-1 finishes the proof.  At t = 1 there is nothing
to check, so every arity-1 permutation has rank 1.

(ii) If level h splits off t-1 trailing identity letters,
psi_h = W (x) 1^(t-1), then u is stable of rank at most h+1, and every level
above h splits too.  Proof: W acts on positions 1..h+1, and the g that builds
level h+j acts on positions h+j+1 and beyond, so for j >= 1 they are
disjoint.  By induction on j, psi_{h+j} = W (x) 1^(t-1+j) = psi_h (x) 1^j
for every j >= 1, which are the rank-(h+1) equations.

The search below scans levels upward for such a split (the *certificate*);
running out of levels is *inconclusive*, never a proof of instability.  The
rank deciders test the equations of (i) on the window l = 0..t-2, which by
the lemma decides them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator

from .perm_core import DEFAULT_SUPPORT_BUDGET, TuplePerm
from .psi_flow import psi_levels

__all__ = [
    "DEFAULT_H_MAX",
    "StabilityVerdict",
    "definitional_prefix_check",
    "exact_rank_for_stable",
    "rank_one_check",
    "search_with_exact_rank",
    "stability_search",
]

DEFAULT_H_MAX = 4


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability search.

    ``stable`` means certified stable; the converse direction is one-sided, so
    an unstable verdict is never issued.  ``method`` records which criterion
    fired: "tail-criterion", "rank1-equations", or "t1-trivial".
    """

    stable: bool
    method: str
    certificate_h: int | None = None
    rank_upper: int | None = None
    rank_exact: int | None = None
    h_max: int | None = None

    @property
    def status(self) -> str:
        return "stable" if self.stable else "inconclusive"

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.certificate_h is not None:
            out["certificate_h"] = self.certificate_h
        if self.rank_upper is not None:
            out["rank_upper"] = self.rank_upper
        if self.rank_exact is not None:
            out["rank_exact"] = self.rank_exact
        if self.h_max is not None:
            out["h_max"] = self.h_max
        out["method"] = self.method
        return out


def rank_one_check(u: TuplePerm, budget: int | None = DEFAULT_SUPPORT_BUDGET) -> bool:
    """Exact rank-1 test for arity-3 permutations.

    u has rank 1 if and only if level 1 equals level 0 with one identity
    letter appended and level 2 equals level 0 with two: by the
    commuting-window lemma these two equations imply all the others.
    """
    if u.arity != 3:
        raise ValueError("the rank-1 equations are stated for arity-3 permutations")
    return _prefix_holds(psi_levels(u, budget), 1, 1)


def stability_search(
    u: TuplePerm,
    h_max: int = DEFAULT_H_MAX,
    budget: int | None = DEFAULT_SUPPORT_BUDGET,
) -> StabilityVerdict:
    """Scan levels 0..h_max for a trailing-identity certificate.

    An arity-1 permutation certifies immediately.  A certificate at level h
    bounds the rank by h + 1; exhausting the scan yields an inconclusive
    verdict, which carries no claim of instability.
    """
    if h_max < 0:
        raise ValueError("h_max must be non-negative")
    t = u.arity
    if t == 1:
        return StabilityVerdict(
            True, "t1-trivial", certificate_h=0, rank_upper=1, rank_exact=1
        )
    for h, level in enumerate(islice(psi_levels(u, budget), h_max + 1)):
        if level.tail_identity_split(t - 1) is not None:
            return StabilityVerdict(
                True, "tail-criterion", certificate_h=h, rank_upper=h + 1
            )
    return StabilityVerdict(False, "tail-criterion", h_max=h_max)


def definitional_prefix_check(
    u: TuplePerm,
    k: int,
    l_max: int,
    budget: int | None = DEFAULT_SUPPORT_BUDGET,
) -> bool:
    """Check psi_{k+l}(u) = psi_{k-1}(u) (x) identity**(l+1) for l = 0..l_max.

    This windows the defining property of rank k.  A failure refutes rank k;
    a pass with ``l_max >= t - 2`` proves rank at most k, by the
    commuting-window lemma.
    """
    if k < 1:
        raise ValueError("rank candidates start at 1")
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    return _prefix_holds(psi_levels(u, budget), k, l_max)


def _prefix_holds(levels: Iterator[TuplePerm], k: int, l_max: int) -> bool:
    """The rank-k equations for l = 0..l_max, drawing levels 0, 1, ... until one fails.

    X = Y (x) identity**j is tested as ``X.tail_identity_split(j) == Y``: a
    successful split is unique, so the two forms agree.
    """
    base = next(islice(levels, k - 1, None))
    return all(
        level.tail_identity_split(j) == base
        for j, level in enumerate(islice(levels, l_max + 1), 1)
    )


def exact_rank_for_stable(
    u: TuplePerm,
    verdict: StabilityVerdict,
    budget: int | None = DEFAULT_SUPPORT_BUDGET,
) -> int:
    """Exact rank of a permutation certified stable at level h = certificate_h.

    Tests k = 1..h on the window l = 0..t-2, which decides rank k exactly,
    and otherwise returns h + 1, which the certificate proves (both by the
    commuting-window lemma).  Only levels 0..h + max(t-2, 0) are built.
    """
    if not verdict.stable or verdict.certificate_h is None or verdict.rank_upper is None:
        raise ValueError("exact rank needs a certified stable verdict")
    h, t = verdict.certificate_h, u.arity
    levels = list(islice(psi_levels(u, budget), h + max(t - 2, 0) + 1))
    for k in range(1, h + 1):
        if _prefix_holds(iter(levels), k, t - 2):
            return k
    if levels[h].tail_identity_split(t - 1) is None:
        raise RuntimeError("certified verdict admitted no rank candidate")
    return h + 1


def search_with_exact_rank(
    u: TuplePerm,
    h_max: int = DEFAULT_H_MAX,
    budget: int | None = DEFAULT_SUPPORT_BUDGET,
) -> StabilityVerdict:
    """Stability search that also fills in ``rank_exact`` when certified."""
    verdict = stability_search(u, h_max, budget)
    if verdict.stable and verdict.rank_exact is None:
        return replace(verdict, rank_exact=exact_rank_for_stable(u, verdict, budget))
    return verdict

"""Exhaustive agreement check between the classifier and the flow criteria.

Every transposition of arity-3 words over {1..n} is run through three
independent deciders: the letter-pattern classifier, the rank-1 equations,
and the trailing-identity search.  The search is one-sided, so an
inconclusive outcome counts as agreeing with an unstable classification.
Any genuine three-way disagreement is recorded as a mismatch.

The two flow deciders only see the letter pattern of (a b): the flow
commutes with relabelling the alphabet, and (a b) = (b a).  So one call
decides each canonical pattern once, on a representative over the letters
1..m (see :func:`pattern_key`), and looks every transposition up in a dict
that lives for that call only.  There are 16, 65, 102, 111 and 112 patterns
for n = 2..5 and every n >= 6, against 28, 351, 2016, 7750 and 58653
transpositions for n = 2..5 and 7.  ``classify`` still runs on every
transposition.  With parallelism, the parent classifies and keys every
transposition and sends only the distinct patterns to the worker processes,
one shard per worker, so the report never depends on the worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .perm_core import DEFAULT_SUPPORT_BUDGET, TuplePerm, Word, all_words
from .stability import DEFAULT_H_MAX, rank_one_check, stability_search
from .transposition3 import Branch, CaseTag, Transposition3, classify

__all__ = [
    "InstanceResult",
    "VerificationReport",
    "emit_report",
    "enumerate_transpositions",
    "pattern_key",
    "verify_theorem",
]


@dataclass(frozen=True)
class InstanceResult:
    a: Word
    b: Word
    verdict: str
    tag: str
    rank1: bool
    search_h: int | None

    @property
    def consistent(self) -> bool:
        stable = self.verdict == "stable"
        return stable == self.rank1 == (self.search_h is not None)


@dataclass(frozen=True)
class VerificationReport:
    n: int
    h_max: int
    budget: int | None
    total: int
    stable_count: int
    branch_counts: dict[str, int]
    case_counts: dict[str, int]
    rows: tuple[InstanceResult, ...]
    mismatches: tuple[InstanceResult, ...]
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "stable_count": self.stable_count,
            "branch_counts": self.branch_counts,
            "case_counts": self.case_counts,
            "mismatches": [
                {
                    "a": list(row.a),
                    "b": list(row.b),
                    "classifier": row.verdict,
                    "rank1": row.rank1,
                    "search_h": row.search_h,
                }
                for row in self.mismatches
            ],
            "h_max": self.h_max,
            "search_semantics": "one_sided",
        }


def enumerate_transpositions(n: int):
    """All transpositions of arity-3 words over {1..n}, in lexicographic order."""
    if n < 2:
        raise ValueError("need at least two letters")
    words = list(all_words(n, 3))
    for a, b in itertools.combinations(words, 2):
        yield Transposition3(n, a, b)


def _first_appearance(word: Word) -> tuple[int, ...]:
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(c, len(labels) + 1) for c in word)


def pattern_key(a: Word, b: Word) -> tuple[int, ...]:
    """Canonical letter pattern of the transposition (a b), as six letters.

    The letters of a + b are renamed 1, 2, ... in order of first appearance,
    and the smaller of the forms for (a, b) and (b, a) is kept.  Its first and
    last three letters are the words of a transposition equal to (a b) up to
    a bijection of the alphabet.

    >>> pattern_key((3, 3, 2), (1, 1, 2))
    (1, 1, 2, 3, 3, 2)
    """
    return min(_first_appearance(a + b), _first_appearance(b + a))


def _decide_patterns(
    args: tuple[int, int, int | None, list[tuple[int, ...]]],
) -> list[tuple[bool, int | None]]:
    """Rank-1 outcome and certificate level of each pattern's representative."""
    n, h_max, budget, keys = args
    decided = []
    for key in keys:
        u = TuplePerm.transposition(n, key[:3], key[3:])
        rank1 = rank_one_check(u, budget)
        decided.append((rank1, stability_search(u, h_max, budget).certificate_h))
    return decided


def _worker_count(parallelism: int, shards: int) -> int:
    """Processes worth starting: no more than asked for, cores, or shards."""
    return max(1, min(parallelism, os.cpu_count() or 1, shards))


def verify_theorem(
    n: int,
    h_max: int = DEFAULT_H_MAX,
    budget: int | None = DEFAULT_SUPPORT_BUDGET,
    parallelism: int = 1,
) -> VerificationReport:
    """Run the three deciders over every transposition and tally agreement.

    The flow deciders run once per canonical pattern.  ``parallelism`` caps
    the worker processes that decide the patterns; it is clamped to the
    cores and to the number of patterns, and a single worker runs in
    process.  Rows stay in enumeration order, so the report does not depend
    on the worker count.
    """
    started = time.perf_counter()
    instances = []
    for t in enumerate_transpositions(n):
        c = classify(t)
        tag = c.branch.value if c.stable else c.case.value
        instances.append((t.a, t.b, c.verdict, tag, pattern_key(t.a, t.b)))
    patterns = list(dict.fromkeys(key for *_, key in instances))
    workers = _worker_count(parallelism, len(patterns))
    shards = [patterns[i::workers] for i in range(workers)]
    jobs = [(n, h_max, budget, shard) for shard in shards]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_decide_patterns, jobs))
    else:
        parts = [_decide_patterns(job) for job in jobs]
    flow: dict[tuple[int, ...], tuple[bool, int | None]] = {}
    for shard, part in zip(shards, parts):
        flow.update(zip(shard, part))
    rows = [
        InstanceResult(a, b, verdict, tag, *flow[key])
        for a, b, verdict, tag, key in instances
    ]
    branch_counts = {branch.value: 0 for branch in Branch}
    case_counts = {case.value: 0 for case in CaseTag}
    for row in rows:
        if row.verdict == "stable":
            branch_counts[row.tag] += 1
        else:
            case_counts[row.tag] += 1
    mismatches = tuple(row for row in rows if not row.consistent)
    return VerificationReport(
        n=n,
        h_max=h_max,
        budget=budget,
        total=len(rows),
        stable_count=sum(branch_counts.values()),
        branch_counts=branch_counts,
        case_counts=case_counts,
        rows=tuple(rows),
        mismatches=mismatches,
        elapsed=time.perf_counter() - started,
    )


def emit_report(report: VerificationReport, format: str = "json") -> bytes:
    """Serialize a report deterministically; timing never enters the bytes."""
    if format == "json":
        return (json.dumps(report.to_json_dict(), separators=(",", ":")) + "\n").encode()
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, delimiter=";", lineterminator="\n")
        writer.writerow(["a", "b", "verdict", "branch_or_case", "rank1", "search_h"])
        for row in report.rows:
            writer.writerow(
                [
                    ",".join(str(x) for x in row.a),
                    ",".join(str(x) for x in row.b),
                    row.verdict,
                    row.tag,
                    "true" if row.rank1 else "false",
                    "none" if row.search_h is None else str(row.search_h),
                ]
            )
        return out.getvalue().encode()
    raise ValueError(f"unknown report format {format!r}")

import json
import os

import pytest

import weylstab.verify
from weylstab import (
    DEFAULT_H_MAX,
    DEFAULT_SUPPORT_BUDGET,
    Branch,
    CaseTag,
    InstanceResult,
    VerificationReport,
    classify,
    emit_report,
    enumerate_transpositions,
    rank_one_check,
    stability_search,
    verify_theorem,
)
from weylstab.verify import _worker_count, pattern_key


def test_enumerate_transpositions():
    pairs2 = list(enumerate_transpositions(2))
    assert len(pairs2) == 28
    assert pairs2[0].a == (1, 1, 1)
    assert pairs2[0].b == (1, 1, 2)
    assert len({(t.a, t.b) for t in pairs2}) == 28
    assert len(list(enumerate_transpositions(3))) == 351
    with pytest.raises(ValueError):
        list(enumerate_transpositions(1))


def test_verify_n2():
    report = verify_theorem(2)
    assert report.n == 2
    assert report.total == 28
    assert report.stable_count == 0
    assert report.mismatches == ()
    assert all(count == 0 for count in report.branch_counts.values())
    assert report.case_counts["AllEqualA"] == 7
    assert report.case_counts["CrossB1A3"] == 0
    assert len(report.rows) == 28
    assert all(row.consistent for row in report.rows)


def test_verify_n3():
    report = verify_theorem(3)
    assert report.total == 351
    assert report.stable_count == 57
    assert report.branch_counts == {"Disjoint": 54, "DiagonalEqual": 3}
    assert report.mismatches == ()
    stable_rows = [row for row in report.rows if row.verdict == "stable"]
    assert len(stable_rows) == 57
    assert all(row.rank1 and row.search_h == 2 for row in stable_rows)


def test_instance_result_consistency():
    good = InstanceResult((1, 1, 1), (2, 2, 2), "unstable", "AllEqualA", False, None)
    assert good.consistent
    assert not InstanceResult(
        (1, 1, 1), (2, 2, 2), "unstable", "AllEqualA", True, None
    ).consistent
    assert not InstanceResult(
        (1, 1, 2), (3, 3, 2), "stable", "Disjoint", True, None
    ).consistent


def test_report_json_shape():
    report = verify_theorem(2)
    data = report.to_json_dict()
    assert list(data) == [
        "n",
        "total",
        "stable_count",
        "branch_counts",
        "case_counts",
        "mismatches",
        "h_max",
        "search_semantics",
    ]
    assert data["search_semantics"] == "one_sided"
    assert data["mismatches"] == []
    assert data["h_max"] == 4


def test_emit_json_round_trip():
    report = verify_theorem(2)
    payload = emit_report(report, "json")
    assert payload.endswith(b"\n")
    assert json.loads(payload) == report.to_json_dict()


def test_emit_csv():
    report = verify_theorem(2)
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == "a;b;verdict;branch_or_case;rank1;search_h"
    assert len(lines) == 29
    assert "1,1,2;1,2,2;unstable;OverlapA2B1;false;none" in lines
    stable_line = "1,1,2;3,3,2;stable;Disjoint;true;2"
    assert stable_line in emit_report(verify_theorem(3), "csv").decode().splitlines()


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report(verify_theorem(2), "yaml")


def test_reports_are_deterministic():
    first = emit_report(verify_theorem(2), "json")
    second = emit_report(verify_theorem(2), "json")
    assert first == second
    assert emit_report(verify_theorem(2), "csv") == emit_report(verify_theorem(2), "csv")


def test_parallel_run_matches_serial():
    serial = verify_theorem(3, parallelism=1)
    parallel = verify_theorem(3, parallelism=3)
    assert emit_report(serial, "json") == emit_report(parallel, "json")
    assert emit_report(serial, "csv") == emit_report(parallel, "csv")


def test_verify_n5():
    report = verify_theorem(5)
    assert report.total == 7750
    assert report.stable_count == 2970
    assert report.mismatches == ()


def test_pattern_key():
    assert pattern_key((1, 1, 2), (3, 3, 2)) == (1, 1, 2, 3, 3, 2)
    assert pattern_key((3, 3, 2), (1, 1, 2)) == (1, 1, 2, 3, 3, 2)
    assert pattern_key((2, 4, 1), (4, 4, 4)) == (1, 1, 1, 2, 1, 3)

    def flip(w):
        return tuple(4 - c for c in w)

    for t in enumerate_transpositions(3):
        key = pattern_key(t.a, t.b)
        assert key == pattern_key(t.b, t.a)
        assert key == pattern_key(flip(t.a), flip(t.b))
        assert key[:3] != key[3:]
    counts = [
        len({pattern_key(t.a, t.b) for t in enumerate_transpositions(n)})
        for n in (2, 3, 4, 5, 6)
    ]
    assert counts == [16, 65, 102, 111, 112]


def _unmemoized_report(n):
    """Every decider on every transposition, tallied as verify_theorem does."""
    rows = []
    for t in enumerate_transpositions(n):
        c = classify(t)
        u = t.permutation()
        rows.append(
            InstanceResult(
                t.a,
                t.b,
                c.verdict,
                c.branch.value if c.stable else c.case.value,
                rank_one_check(u),
                stability_search(u).certificate_h,
            )
        )
    branch_counts = {branch.value: 0 for branch in Branch}
    case_counts = {case.value: 0 for case in CaseTag}
    for row in rows:
        counts = branch_counts if row.verdict == "stable" else case_counts
        counts[row.tag] += 1
    return VerificationReport(
        n=n,
        h_max=DEFAULT_H_MAX,
        budget=DEFAULT_SUPPORT_BUDGET,
        total=len(rows),
        stable_count=sum(branch_counts.values()),
        branch_counts=branch_counts,
        case_counts=case_counts,
        rows=tuple(rows),
        mismatches=tuple(row for row in rows if not row.consistent),
        elapsed=0.0,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_memoized_report_matches_unmemoized(n):
    reference = _unmemoized_report(n)
    for parallelism in (1, 2):
        report = verify_theorem(n, parallelism=parallelism)
        for fmt in ("json", "csv"):
            assert emit_report(report, fmt) == emit_report(reference, fmt)


def test_flow_deciders_run_once_per_pattern(monkeypatch):
    calls = {"classify": 0, "rank_one_check": 0, "stability_search": 0}

    def counted(name):
        original = getattr(weylstab.verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(weylstab.verify, name, wrapper)

    for name in calls:
        counted(name)
    for repeat in (1, 2):
        verify_theorem(4)
        # a second call decides every pattern again: nothing outlives a call
        assert calls == {
            "classify": 2016 * repeat,
            "rank_one_check": 102 * repeat,
            "stability_search": 102 * repeat,
        }


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_count(1, 102) == 1
    assert _worker_count(3, 102) == 3
    assert _worker_count(64, 102) == 4
    assert _worker_count(3, 2) == 2
    assert _worker_count(0, 102) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8, 102) == 1

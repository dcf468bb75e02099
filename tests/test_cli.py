import json
import subprocess
import sys

import pytest

from weylstab import emit_report, verify_theorem
from weylstab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "3", "--a", "(1,1,2)", "--b", "(3,3,2)")
    assert code == 0
    assert out == "verdict: stable\nbranch: Disjoint\n"
    assert err == ""


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--n", "2", "--a", "(1,1,1)", "--b", "(2,2,2)", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "a": [1, 1, 1],
        "b": [2, 2, 2],
        "n": 2,
        "verdict": "unstable",
        "case": "AllEqualA",
    }


def test_classify_rejects_equal_words(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "2", "--a", "(1,1,1)", "--b", "(1,1,1)")
    assert code == 2
    assert out == ""
    assert "words must differ" in err


def test_classify_rejects_malformed_word(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "2", "--a", "(1,1", "--b", "(2,2,2)")
    assert code == 2
    assert out == ""
    assert "position" in err


def test_psi_text(capsys):
    code, out, _ = run_cli(
        capsys, "psi", "--n", "2", "--u", "[(1,1,1) (2,2,2)]", "--k", "1", "--point", "(1,1,1,2)"
    )
    assert code == 0
    assert out == "(2,1,1,1)\n"


def test_psi_level_zero_is_inverse(capsys):
    code, out, _ = run_cli(
        capsys, "psi", "--n", "2", "--u", "[(1,1,1) (2,2,2)]", "--k", "0", "--point", "(1,1,1)"
    )
    assert code == 0
    assert out == "(2,2,2)\n"


def test_psi_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "psi", "--n", "3", "--u", "[(1,2,3) (2,3,1)]", "--k", "2",
        "--point", "(2,3,2,3,1)", "--format", "json",
    )
    assert code == 0
    assert out == "[1,2,3,2,3]\n"


def test_psi_arity_mismatch(capsys):
    code, out, err = run_cli(
        capsys, "psi", "--n", "2", "--u", "[(1,1,1) (2,2,2)]", "--k", "1", "--point", "(1,1)"
    )
    assert code == 2
    assert out == ""
    assert "arity" in err


def test_stability_text(capsys):
    code, out, _ = run_cli(capsys, "stability", "--n", "3", "--u", "[(1,1,2) (3,3,2)]")
    assert code == 0
    assert "status: stable" in out
    assert "certificate_h: 2" in out
    assert "rank_exact: 1" in out


def test_stability_json(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--n", "2", "--u", "[(1,1,1) (2,2,2)]", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "status": "inconclusive",
        "h_max": 4,
        "method": "tail-criterion",
    }


def test_witness_pass(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--n", "2", "--a", "(1,1,2)", "--b", "(1,2,2)", "--r", "2"
    )
    assert code == 0
    assert "case: OverlapA2B1" in out
    assert "result: pass" in out
    assert "FAIL" not in out


def test_witness_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness", "--n", "2", "--a", "(1,1,1)", "--b", "(2,2,2)", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "AllEqualA"
    assert data["all_passed"] is True
    assert all(w["passed"] for w in data["witnesses"])
    assert all(ok for _, ok in data["no_identity_tail"])


def test_witness_on_stable_input(capsys):
    code, out, err = run_cli(capsys, "witness", "--n", "3", "--a", "(1,1,2)", "--b", "(3,3,2)")
    assert code == 2
    assert out == ""
    assert "unstable" in err


def test_witness_takes_no_budget(capsys, monkeypatch):
    # witnesses build no level, so there is no budget to give
    with pytest.raises(SystemExit) as info:
        main(["witness", "--n", "2", "--a", "(1,1,1)", "--b", "(2,2,2)", "--budget", "5"])
    assert info.value.code == 2
    monkeypatch.setenv("WEYLSTAB_BUDGET", "1")
    code, out, _ = run_cli(capsys, "witness", "--n", "5", "--a", "(1,1,1)", "--b", "(2,2,2)",
                           "--r", "40", "--format", "json")
    assert code == 0
    assert json.loads(out)["no_identity_tail"] == [[118, True]]


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 28
    assert data["stable_count"] == 0
    assert data["mismatches"] == []


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a;b;verdict;branch_or_case;rank1;search_h"
    assert len(lines) == 29


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    assert "total: 28" in out
    assert "mismatches: 0" in out


def test_budget_flag_exhaustion(capsys):
    code, out, err = run_cli(
        capsys, "stability", "--n", "2", "--u", "[(1,1,2) (1,2,2)]", "--budget", "5"
    )
    assert code == 3
    assert out == ""
    assert "exceeds the budget" in err


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("WEYLSTAB_BUDGET", "5")
    code, out, err = run_cli(capsys, "stability", "--n", "2", "--u", "[(1,1,2) (1,2,2)]")
    assert code == 3
    assert out == ""
    # an explicit flag beats the environment
    code, out, _ = run_cli(
        capsys, "stability", "--n", "2", "--u", "[(1,1,2) (1,2,2)]", "--budget", "1000000"
    )
    assert code == 0
    assert "status: inconclusive" in out


def test_budget_env_malformed(capsys, monkeypatch):
    monkeypatch.setenv("WEYLSTAB_BUDGET", "lots")
    code, out, err = run_cli(capsys, "stability", "--n", "2", "--u", "[(1,1,2) (1,2,2)]")
    assert code == 2
    assert out == ""
    assert "WEYLSTAB_BUDGET" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--n", "2", "--a", "(1,1,1)"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["classify", "--n", "2", "--a", "(1,1,1)", "--b", "(2,2,2)", "--format", "csv"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "--n", "0"])
    assert info.value.code == 2


def test_parser_defaults():
    args = build_parser().parse_args(["verify", "--n", "2"])
    assert args.h_max == 4
    assert args.budget is None
    assert args.format == "text"
    assert args.parallelism == 1


def test_process_level_streams():
    command = "import sys; from weylstab.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", command, "classify", "--n", "2", "--a", "(1,1,1)", "--b", "(2,2,2)"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stdout == "verdict: unstable\ncase: AllEqualA\n"
    bad = subprocess.run(
        [sys.executable, "-c", command, "classify", "--n", "2", "--a", "(1,1,1)", "--b", "(1,1,1)"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert "words must differ" in bad.stderr


def test_module_entry_point():
    done = subprocess.run(
        [sys.executable, "-m", "weylstab", "verify", "--n", "2", "--format", "csv"],
        capture_output=True,
    )
    assert done.returncode == 0
    assert done.stdout == emit_report(verify_theorem(2), "csv")

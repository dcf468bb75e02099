"""Command-line front end.

Five subcommands cover the package surface: ``classify`` runs the
letter-pattern classifier on a transposition, ``psi`` evaluates one point
through the flow, ``stability`` runs the trailing-identity search on a
permutation, ``verify`` checks the classifier against the flow criteria
over a whole alphabet, and ``witness`` recomputes the instability
witnesses for an unstable transposition.

Exit codes: 0 on success, 1 when ``verify`` reports mismatches or
``witness`` finds a failing witness or an unresolved level, 2 on malformed
input, 3 when ``stability`` or ``verify`` would build a level over the
support budget (``--budget``, else ``$WEYLSTAB_BUDGET``).  ``psi`` and
``witness`` build no level and take no budget.  Results go to stdout,
diagnostics to stderr; nothing is written to stdout on exit 2 or 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .perm_core import (
    DEFAULT_SUPPORT_BUDGET,
    BudgetExceededError,
    TuplePerm,
    format_word,
    parse_word,
)
from .psi_flow import psi_apply
from .stability import DEFAULT_H_MAX, search_with_exact_rank
from .transposition3 import (
    Transposition3,
    classification_to_json,
    classify,
    witness_report,
)
from .verify import VerificationReport, emit_report, verify_theorem

__all__ = ["main", "run"]

BUDGET_ENV_VAR = "WEYLSTAB_BUDGET"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return value


def _resolve_budget(flag_value: int | None) -> int:
    # precedence: explicit flag, then environment, then the default
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_SUPPORT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {raw!r}")
    return value


def _add_format(parser: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
    parser.add_argument("--format", choices=choices, default="text")


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help=f"support budget for materialization (default {DEFAULT_SUPPORT_BUDGET}, "
        f"or ${BUDGET_ENV_VAR})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylstab",
        description="Stable tuple permutations: classify, evaluate, search, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a transposition of arity-3 words")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--a", required=True, help='first word, e.g. "(1,1,2)"')
    p.add_argument("--b", required=True, help='second word, e.g. "(3,3,2)"')
    _add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("psi", help="evaluate one point through the flow")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--u", required=True, help='permutation literal, e.g. "[(1,1,1) (2,2,2)]"')
    p.add_argument("--k", type=_nonnegative_int, required=True, help="flow level")
    p.add_argument("--point", required=True, help="input word of arity t + k")
    _add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_psi)

    p = sub.add_parser("stability", help="run the trailing-identity search")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--u", required=True, help='permutation literal, e.g. "[(1,1,2) (1,2,2)]"')
    p.add_argument("--h-max", type=_nonnegative_int, default=DEFAULT_H_MAX)
    _add_budget(p)
    _add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_stability)

    p = sub.add_parser("verify", help="check the classifier against the flow criteria")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--h-max", type=_nonnegative_int, default=DEFAULT_H_MAX)
    _add_budget(p)
    p.add_argument(
        "--parallelism",
        type=_positive_int,
        default=1,
        help="worker processes, clamped to the cores (default: 1, in process)",
    )
    _add_format(p, ("text", "json", "csv"))
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("witness", help="recompute instability witnesses")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--r", type=_positive_int, default=1, help="witness level index")
    _add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_witness)

    return parser


def _cmd_classify(args: argparse.Namespace) -> int:
    t = Transposition3(args.n, parse_word(args.a), parse_word(args.b))
    c = classify(t)
    if args.format == "json":
        print(json.dumps(classification_to_json(t, c), separators=(",", ":")))
        return 0
    print(f"verdict: {c.verdict}")
    if c.stable:
        print(f"branch: {c.branch.value}")
    else:
        print(f"case: {c.case.value}")
    return 0


def _cmd_psi(args: argparse.Namespace) -> int:
    u = TuplePerm.from_text(args.u, args.n)
    image = psi_apply(u, args.k, parse_word(args.point))
    if args.format == "json":
        print(json.dumps(list(image), separators=(",", ":")))
    else:
        print(format_word(image))
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    u = TuplePerm.from_text(args.u, args.n)
    verdict = search_with_exact_rank(u, args.h_max, _resolve_budget(args.budget))
    payload = verdict.to_json_dict()
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    for key, value in payload.items():
        print(f"{key}: {value}")
    return 0


def _report_text(report: VerificationReport) -> str:
    lines = [
        f"n: {report.n}",
        f"total: {report.total}",
        f"stable: {report.stable_count}",
    ]
    for name, counts in ("branches", report.branch_counts), ("cases", report.case_counts):
        body = " ".join(f"{tag}={count}" for tag, count in counts.items() if count)
        lines.append(f"{name}: {body or 'none'}")
    lines.append(f"mismatches: {len(report.mismatches)}")
    for row in report.mismatches:
        lines.append(
            f"  {format_word(row.a)} {format_word(row.b)}: classifier={row.verdict} "
            f"rank1={row.rank1} search_h={row.search_h}"
        )
    lines.append(f"elapsed: {report.elapsed:.2f}s")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_theorem(
        args.n,
        h_max=args.h_max,
        budget=_resolve_budget(args.budget),
        parallelism=args.parallelism,
    )
    if args.format == "text":
        sys.stdout.write(_report_text(report))
    else:
        sys.stdout.buffer.write(emit_report(report, args.format))
        sys.stdout.buffer.flush()
    return 1 if report.mismatches else 0


def _witness_json(t: Transposition3, r: int, report) -> dict:
    witnesses = []
    for result in report.results:
        w = result.witness
        witnesses.append(
            {
                "k": w.k,
                "r": w.r,
                "input": list(w.input),
                "expected": None if w.expected is None else list(w.expected),
                "head": w.head,
                "claim": w.claim,
                "actual": list(result.actual),
                "passed": result.passed,
            }
        )
    return {
        "n": t.n,
        "a": list(t.a),
        "b": list(t.b),
        "r": r,
        "case": report.case.value,
        "witnesses": witnesses,
        "no_identity_tail": [[k, ok] for k, ok in report.no_identity_tail],
        "all_passed": report.all_passed,
    }


def _cmd_witness(args: argparse.Namespace) -> int:
    t = Transposition3(args.n, parse_word(args.a), parse_word(args.b))
    report = witness_report(t, args.r)
    tails_ok = all(ok for _, ok in report.no_identity_tail)
    if args.format == "json":
        print(json.dumps(_witness_json(t, args.r, report), separators=(",", ":")))
    else:
        print(f"case: {report.case.value}")
        for result in report.results:
            w = result.witness
            target = f"head {w.head}" if w.expected is None else format_word(w.expected)
            status = "pass" if result.passed else "FAIL"
            print(
                f"k={w.k} {format_word(w.input)} -> {format_word(result.actual)} "
                f"expected {target} [{w.claim}] {status}"
            )
        for k, ok in report.no_identity_tail:
            print(f"tail k={k}: {'no trailing identity letter' if ok else 'UNRESOLVED'}")
        print(f"result: {'pass' if report.all_passed and tails_ok else 'FAIL'}")
    return 0 if report.all_passed and tails_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())

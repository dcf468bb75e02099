"""Seeded inputs, operations and output checks for each benchmark workload.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come from the seed alone, and the
package only ever sees the generated inputs.  Each workload provides

* ``setup(ws, seed)``: build the inputs (timed as ``setup_s``);
* ``items(ws, inputs)``: the operation stream, in the order the loop runs it;
* ``op(ws, item, call)``: one user-level call into the package; ``call``
  opens a tracer span in traced runs and calls straight through otherwise;
* ``check(ws, item, out)``: the output gate, run between operations
  outside their timing, returning an error string or None;
* ``observe(tally, item, out)`` and ``properties(tally)``: count the input
  properties of the operations run, in memory that does not grow with the
  number of operations;
* ``for_cli(item)`` and ``cli(ws, pairs)``: which items the fresh-interpreter
  CLI calls may use, and the argv and output checker of each call, given the
  first such (item, output) pairs of the timed loop.

``ws`` is the imported ``weylstab`` package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from collections import Counter

# Seed-commit digests of ``emit_report(verify_theorem(4), fmt)``.  The report
# bytes are deterministic, so any change to them is a behaviour change.
VERIFY_N4 = {
    "total": 2016,
    "stable": 576,
    "json_sha256": "2825eaf465038660",
    "csv_sha256": "d3d7a88f548352ea",
}

# stability-mixed: the deepest level a query may build is h_max + arity (the
# exact-rank scan), with (level + 1) * |supp u| * n**level candidate points.
# h_max is the largest value up to H_MAX (the package's default) that keeps
# that count below LEVEL_CAP, so one query stays well under a second while
# n = 5 levels still appear.
LEVEL_CAP = 100_000
H_MAX = 4
# (n, arity) pairs of the stream.  Composites (2-3 disjoint cycles of length
# 2-3) are drawn for every pair; (2, 2) has four words and only 17
# permutations, and at (4, 4) and (5, 4) the capped h_max leaves levels too
# shallow to decide anything, so those are left out.  Transpositions are drawn
# where they certify often enough to exercise the exact-rank scan, without
# repeating a pattern up to letter relabelling and swapping the two words
# until a stratum has run out of them (reported as ``repeated_patterns``).
# Arity-3 transpositions have only 102 patterns at n = 4 and 111 at n = 5, so
# one stratum alternates between the two alphabets to last a whole run.
STABILITY_PAIRS = [(n, t) for n in range(2, 6) for t in range(2, 5)
                   if (n, t) not in {(2, 2), (4, 4), (5, 4)}]
TRANSPOSITION_STRATA = [((3,), 4), ((4, 5), 3)]
STABILITY_BATCH = 400  # bases built in setup; the loop draws the rest as it goes
STRATUM_ATTEMPTS = 1000

# witness-deep: repetition counts whose witness levels all exceed k = 50 (the
# smallest level formula is k = 2r).
WITNESS_R = (26, 40)
WITNESS_N = 5
WITNESS_POOL = 4780  # unstable transpositions of [5]^3


def _words(n, m):
    return list(itertools.product(range(1, n + 1), repeat=m))


def _format_word(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def _format_cycles(cycles):
    return " ".join("[" + " ".join(_format_word(w) for w in c) + "]" for c in cycles)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _summary(values):
    """Min, median and max of a non-empty list."""
    ordered = sorted(values)
    return {"min": ordered[0], "median": ordered[len(ordered) // 2], "max": ordered[-1]}


# ---------------------------------------------------------------- verify


class Verify:
    """``verify_theorem(4)`` plus JSON and CSV emission, over all 2016 transpositions."""

    n = 4
    transpositions = 2016

    def __init__(self, parallel: bool):
        self.parallel = parallel

    def workers(self) -> int:
        return min(2, os.cpu_count() or 1) if self.parallel else 1

    def setup(self, ws, seed):
        # the inputs are the whole alphabet; the seed changes nothing here
        return {"n": self.n, "workers": self.workers()}

    def items(self, ws, inputs):
        return itertools.repeat(inputs)

    def op(self, ws, item, call):
        report = call("verify.verify_theorem", ws.verify_theorem, item["n"],
                      parallelism=item["workers"])
        as_json = call("verify.emit_json", ws.emit_report, report, "json")
        as_csv = call("verify.emit_csv", ws.emit_report, report, "csv")
        return {
            "total": report.total,
            "stable": report.stable_count,
            "mismatches": len(report.mismatches),
            "json_sha256": _digest(as_json),
            "csv_sha256": _digest(as_csv),
            "bytes": len(as_json) + len(as_csv),
        }

    def check(self, ws, item, out):
        if out["mismatches"]:
            return f"{out['mismatches']} mismatches"
        for key, want in VERIFY_N4.items():
            if out[key] != want:
                return f"{key} is {out[key]!r}, expected {want!r}"
        return None

    def for_cli(self, item):
        return True

    def cli(self, ws, pairs):
        workers = str(self.workers())
        expected = ws.emit_report(ws.verify_theorem(2), "csv").decode()
        argv = ["verify", "--n", "2", "--parallelism", workers, "--format", "csv"]
        return [(argv, lambda stdout: stdout == expected)]

    def observe(self, tally, item, out):
        tally["calls"] += 1

    def properties(self, tally):
        return {
            "n": self.n,
            "transpositions_per_call": self.transpositions,
            "stable_share": VERIFY_N4["stable"] / VERIFY_N4["total"],
            "calls": tally["calls"],
        }


# ---------------------------------------------------------------- stability


def _transposition_key(a, b, n):
    """Canonical form of {a, b} under relabelling letters and swapping a, b."""
    best = None
    for sigma in itertools.permutations(range(1, n + 1)):
        pair = tuple(sorted((tuple(sigma[x - 1] for x in a), tuple(sigma[x - 1] for x in b))))
        if best is None or pair < best:
            best = pair
    return best


def _h_max(n, t, support):
    for h in range(H_MAX, -1, -1):
        level = h + t
        if (level + 1) * support * n**level <= LEVEL_CAP:
            return h
    return -1


def stability_stream(seed):
    """Endless seeded stream of ``(n, arity, shape, cycles, h_max, cycle)`` bases.

    Each round visits every (n, arity, shape) stratum once in a seeded order,
    so the mix of alphabets and shapes is the same at every point of a run,
    however fast the package is.  A transposition stratum draws no pattern
    twice until ``STRATUM_ATTEMPTS`` draws in a row find only seen ones; it
    then starts its ``cycle`` + 1 over all patterns.
    """
    rng = random.Random(f"stability-mixed/{seed}")
    strata = [((n,), t, "composite") for n, t in STABILITY_PAIRS]
    strata += [(ns, t, "transposition") for ns, t in TRANSPOSITION_STRATA]
    seen: dict[tuple, set] = {}
    cycle: Counter = Counter()
    visits: Counter = Counter()
    words = {(n, t): _words(n, t) for n, t in STABILITY_PAIRS}
    while True:
        rng.shuffle(strata)
        for stratum in strata:
            ns, t, shape = stratum
            n = ns[visits[stratum] % len(ns)]
            visits[stratum] += 1
            pool = words[(n, t)]
            kind = (n, t, shape)
            drawn = seen.setdefault(kind, set())
            for attempt in itertools.count():
                if attempt == STRATUM_ATTEMPTS:
                    drawn.clear()
                    cycle[kind] += 1
                if shape == "transposition":
                    a, b = rng.sample(pool, 2)
                    cycles = [(a, b)]
                    key = _transposition_key(a, b, n)
                else:
                    lengths = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
                    if sum(lengths) > len(pool):
                        continue
                    picked = rng.sample(pool, sum(lengths))
                    cycles, start = [], 0
                    for length in lengths:
                        cycles.append(tuple(picked[start : start + length]))
                        start += length
                    # thousands of composites per stratum: repeats are rare
                    # enough that remembering them is not worth the memory
                    key = None
                h_max = _h_max(n, t, sum(len(c) for c in cycles))
                if h_max >= 1 and key not in drawn:
                    break
            if key is not None:
                drawn.add(key)
            yield (n, t, shape, tuple(cycles), h_max, cycle[kind])


def _certificate_holds(psi_apply, u, h):
    """Level h keeps the last arity-1 letters and maps heads by heads alone.

    Every word of the level goes through the lazy evaluator, which is the
    trailing-identity split the certificate claims, checked without
    ``psi_materialize``.
    """
    head_len = h + 1
    heads = {}
    for w in itertools.product(range(1, u.n + 1), repeat=u.arity + h):
        image = psi_apply(u, h, w)
        if image[head_len:] != w[head_len:]:
            return False
        if heads.setdefault(w[:head_len], image[:head_len]) != image[:head_len]:
            return False
    return True


class Stability:
    """Seeded stream of ``search_with_exact_rank`` calls on mixed bases."""

    def setup(self, ws, seed):
        stream = stability_stream(seed)
        batch = [self._item(ws, base) for base in itertools.islice(stream, STABILITY_BATCH)]
        return {"batch": batch, "stream": stream}

    @staticmethod
    def _item(ws, base):
        return {"base": base, "u": ws.TuplePerm.from_cycles(base[0], base[3])}

    def items(self, ws, inputs):
        yield from inputs["batch"]
        for base in inputs["stream"]:
            yield self._item(ws, base)

    def op(self, ws, item, call):
        h_max = item["base"][4]
        return call("stability.search_with_exact_rank", ws.search_with_exact_rank,
                    item["u"], h_max)

    def check(self, ws, item, verdict):
        n, t, shape, cycles, h_max, cycle = item["base"]
        if not verdict.stable:
            if verdict.h_max != h_max or verdict.certificate_h is not None:
                return f"inconclusive verdict {verdict} does not match h_max={h_max}"
            return None
        h = verdict.certificate_h
        if h is None or not 0 <= h <= h_max or verdict.rank_upper != h + 1:
            return f"certified verdict {verdict} is malformed"
        if verdict.rank_exact is None or not 1 <= verdict.rank_exact <= verdict.rank_upper:
            return f"rank_exact {verdict.rank_exact} outside 1..{verdict.rank_upper}"
        if not _certificate_holds(ws.psi_flow.psi_apply, item["u"], h):
            return f"level {h} of {_format_cycles(cycles)} has no trailing identity"
        return None

    def for_cli(self, item):
        # the cold call measures start-up, so it takes bases whose own query
        # costs a few milliseconds at any seed: composites over two letters
        n, t, shape = item["base"][:3]
        return n == 2 and shape == "composite"

    def cli(self, ws, pairs):
        out = []
        for item, verdict in pairs:
            n, t, shape, cycles, h_max, cycle = item["base"]
            argv = ["stability", "--n", str(n), "--u", _format_cycles(cycles),
                    "--h-max", str(h_max), "--format", "json"]
            expected = verdict.to_json_dict()
            out.append((argv, lambda stdout, want=expected: json.loads(stdout) == want))
        return out

    def observe(self, tally, item, verdict):
        n, t, shape, cycles, h_max, cycle = item["base"]
        tally["queries"] += 1
        tally[f"n{n}.t{t}"] += 1
        tally[f"shape.{shape}"] += 1
        tally[f"h_max.{h_max}"] += 1
        tally["repeated_patterns"] += cycle > 0
        if verdict.stable:
            tally["certified"] += 1
            tally[f"certificate_h.{verdict.certificate_h}"] += 1
            tally[f"exact_rank_level.{verdict.certificate_h + t}"] += 1

    def properties(self, tally):
        queries = tally["queries"]

        def group(prefix):
            return {k[len(prefix):]: v for k, v in sorted(tally.items()) if k.startswith(prefix)}

        return {
            "queries": queries,
            "certified_share": tally["certified"] / queries,
            "inconclusive_share": 1 - tally["certified"] / queries,
            "n_by_arity": {k: v for k, v in sorted(tally.items()) if k[0] == "n" and ".t" in k},
            "shape_share": {k: v / queries for k, v in group("shape.").items()},
            "h_max": group("h_max."),
            "repeated_patterns": tally["repeated_patterns"],
            "certificate_h": group("certificate_h."),
            "exact_rank_level": group("exact_rank_level."),
        }


# ---------------------------------------------------------------- witness


def _stable_by_closed_form(a, b):
    """The two stable shapes of an arity-3 transposition, with a < b."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    if not {a1, b1} & {a3, b3}:
        return {a1, a2} != {b2, b3} and {b1, b2} != {a2, a3}
    return a1 == a3 == b1 == b3 and a1 != a2 and a2 != b2 and b2 != b1


def witness_pool(n):
    words = _words(n, 3)
    return [(a, b) for a, b in itertools.combinations(words, 2)
            if not _stable_by_closed_form(a, b)]


class Witness:
    """Seeded stream of ``witness_report`` calls on the unstable [5]^3 transpositions."""

    def setup(self, ws, seed):
        rng = random.Random(f"witness-deep/{seed}")
        pool = [ws.Transposition3(WITNESS_N, a, b) for a, b in witness_pool(WITNESS_N)]
        if len(pool) != WITNESS_POOL:
            raise ValueError(f"{len(pool)} unstable transpositions, expected {WITNESS_POOL}")
        return {"pool": pool, "rng": rng, "batch": self._pass(pool, rng)}

    @staticmethod
    def _pass(pool, rng):
        order = list(pool)
        rng.shuffle(order)
        return [(t, rng.randint(*WITNESS_R)) for t in order]

    def items(self, ws, inputs):
        yield from inputs["batch"]
        while True:
            yield from self._pass(inputs["pool"], inputs["rng"])

    def op(self, ws, item, call):
        t, r = item
        return call("transposition3.witness_report", ws.witness_report, t, r)

    def check(self, ws, item, report):
        if not report.all_passed:
            t, r = item
            return f"witnesses of {t.a} {t.b} at r={r} do not all pass"
        return None

    def for_cli(self, item):
        return True

    def cli(self, ws, pairs):
        out = []
        for (t, r), report in pairs:
            argv = ["witness", "--n", str(t.n), "--a", _format_word(t.a),
                    "--b", _format_word(t.b), "--r", str(r), "--format", "json"]
            expected = {
                "case": report.case.value,
                "all_passed": report.all_passed,
                "no_identity_tail": [[k, ok] for k, ok in report.no_identity_tail],
                "witnesses": [(res.witness.k, list(res.witness.input), list(res.actual),
                               res.passed) for res in report.results],
            }

            def matches(stdout, want=expected):
                got = json.loads(stdout)
                return want == {
                    "case": got["case"],
                    "all_passed": got["all_passed"],
                    "no_identity_tail": got["no_identity_tail"],
                    "witnesses": [(w["k"], w["input"], w["actual"], w["passed"])
                                  for w in got["witnesses"]],
                }

            out.append((argv, matches))
        return out

    def observe(self, tally, item, report):
        t, r = item
        k = max(res.witness.k for res in report.results)
        tally["queries"] += 1
        tally[f"r.{r}"] += 1
        tally[f"max_k.{k}"] += 1
        tally["k_above_50"] += k > 50
        tally[f"case.{report.case.value}"] += 1
        tally.setdefault("distinct", set()).add((t.a, t.b))

    def properties(self, tally):
        queries = tally["queries"]

        def spread(prefix):
            values = Counter({int(k[len(prefix):]): v for k, v in tally.items()
                              if k.startswith(prefix)})
            return _summary(list(values.elements()))

        return {
            "queries": queries,
            "distinct_transpositions": len(tally.get("distinct", ())),
            "r": spread("r."),
            "max_k": spread("max_k."),
            "share_k_above_50": tally["k_above_50"] / queries,
            "case_share": {k[5:]: v / queries for k, v in sorted(tally.items())
                           if k.startswith("case.")},
        }


WORKLOADS = {
    "verify-n4": Verify(parallel=False),
    "verify-n4-par": Verify(parallel=True),
    "stability-mixed": Stability(),
    "witness-deep": Witness(),
}

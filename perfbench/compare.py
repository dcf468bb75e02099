"""Summarise and compare benchmark runs recorded in ``runs.jsonl`` files.

    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py diff PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py baseline RUNS.jsonl > perfbench/baseline.json

``spread`` prints, per workload and end-to-end metric, the median and the
quartile spread (q3 - q1) / median of the untraced runs, next to the bound in
``BENCHMARK.json``.

``diff`` labels every end-to-end metric x workload pair of two commits, runs
paired by seed (or by order when the seeds differ):

* better: the change wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ by more than the parent's q3 - q1;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unresolved: the spread of either side exceeds the bound, unless every run
  of the change reads better than every run of the parent;
* unchanged: otherwise.

``baseline`` writes the medians and quartiles of every metric, the traced
per-layer medians, the input properties and the layer map as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load(path):
    runs = defaultdict(list)  # (workload, trace) -> [record]
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            detail = record["detail"]
            runs[(detail["workload"], detail["trace"])].append(record)
    return runs


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_spread(path):
    runs = load(path)
    steady = True
    for workload in sorted({w for w, t in runs if t == 0}):
        records = runs[(workload, 0)]
        failed = sum(r["result"]["failed"] for r in records)
        print(f"{workload}: {len(records)} runs, {failed} failed operations, "
              f"all correct: {all(r['result']['correct'] for r in records)}")
        for m in SPEC["end_to_end"]:
            xs = values(records, m["name"])
            if not xs:
                continue
            s = spread(xs)
            judged = m["name"] != "setup_s"
            verdict = "steady" if s < m["bound"] / 3 else (
                "within bound" if s <= m["bound"] else "TOO WIDE")
            if judged and s >= m["bound"] / 3:
                steady = False
            print(f"  {m['name']:<14} median {statistics.median(xs):>12.4f} {m['unit']:<5} "
                  f"spread {s:6.3f}  bound {m['bound']:.2f}  "
                  f"{verdict if judged else '(not judged)'}")
    return 0 if steady else 1


def _better(m, a, b):
    """True when value ``b`` is better than ``a`` for metric ``m``."""
    return b < a if m["better"] == "lower" else b > a


def label(m, parent, change):
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(_better(m, p, c) for p, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > q3 - q1:
        return "better"
    worse_by = (pm - cm) / pm if m["better"] == "higher" else (cm - pm) / pm
    if worse_by > m["bound"]:
        return "worse"
    if max(spread(parent), spread(change)) > m["bound"]:
        everywhere = all(_better(m, p, c) for p in parent for c in change)
        return "better" if everywhere else "unresolved"
    return "unchanged"


def _by_seed(records):
    return {r["detail"]["seed"]: r for r in records}


def cmd_diff(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12}  label")
    worst = 0
    for workload in sorted({w for w, t in parent if t == 0}):
        p_runs, c_runs = parent[(workload, 0)], change.get((workload, 0), [])
        if not c_runs:
            print(f"{workload:<16} (no runs of the change)")
            worst = 1
            continue
        p_seed, c_seed = _by_seed(p_runs), _by_seed(c_runs)
        common = sorted(set(p_seed) & set(c_seed))
        if len(common) >= 2:
            p_runs = [p_seed[s] for s in common]
            c_runs = [c_seed[s] for s in common]
        for m in SPEC["end_to_end"]:
            pv, cv = values(p_runs, m["name"]), values(c_runs, m["name"])
            if not pv or not cv:
                continue
            verdict = label(m, pv, cv)
            worst = max(worst, verdict in ("worse", "unresolved"))
            print(f"{workload:<16} {m['name']:<14} {statistics.median(pv):>12.4f} "
                  f"{statistics.median(cv):>12.4f}  {verdict}")
    return worst


def cmd_baseline(path):
    sys.path.insert(0, str(HERE))
    from layers import LAYER_MAP

    runs = load(path)
    out = {"workloads": {}, "layer_map": LAYER_MAP}
    for workload in sorted({w for w, _ in runs}):
        entry = {}
        plain = runs.get((workload, 0), [])
        if plain:
            entry["runs"] = len(plain)
            entry["seeds"] = [r["detail"]["seed"] for r in plain]
            entry["end_to_end"] = {}
            for m in SPEC["end_to_end"]:
                xs = values(plain, m["name"])
                q1, q2, q3 = quartiles(xs)
                entry["end_to_end"][m["name"]] = {
                    "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                    "median": q2, "q1": q1, "q3": q3}
            entry["tail_percentile"] = sorted({r["detail"]["tail_percentile"] for r in plain})
            entry["properties"] = plain[0]["detail"]["properties"]
        traced = runs.get((workload, 1), [])
        if traced:
            entry["per_layer"] = {
                m["name"]: {"unit": m["unit"], "median": statistics.median(values(traced, m["name"]))}
                for m in SPEC["per_layer"]}
            entry["absent_names"] = traced[-1]["detail"].get("absent_names", [])
        out["workloads"][workload] = entry
    print(json.dumps(out, indent=1))
    return 0


def main(argv):
    commands = {"spread": (cmd_spread, 1), "diff": (cmd_diff, 2), "baseline": (cmd_baseline, 1)}
    if not argv or argv[0] not in commands or len(argv) - 1 != commands[argv[0]][1]:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    fn, _ = commands[argv[0]]
    return fn(*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer metrics derived from the spans of one traced pass.

Names follow ``<module>.<quantity>``; a ``.computed`` suffix marks a work
count computed from the call arguments by formula rather than observed.
``LAYER_MAP`` records, per metric, the end-to-end metric and workloads it
should move; it is copied into ``baseline.json``.
"""

from __future__ import annotations

from collections import defaultdict

CALLERS = {
    "stability.rank_one_check": "rank1",
    "stability.stability_search": "search",
    "stability.definitional_prefix_check": "exact_rank",
    "stability.exact_rank_for_stable": "exact_rank",
}
CALLER_NAMES = ("rank1", "search", "exact_rank", "witness_tail")
LEVEL_BUCKETS = tuple(f"k{k}" for k in range(8)) + ("k8plus",)
APPLY_BUCKETS = (("k0_10", 10), ("k11_50", 50), ("k51_100", 100), ("k101_200", 200),
                 ("k201plus", None))

_V = "ops_per_s on verify-n4, verify-n4-par"
_S = "query_p50_ms, query_tail_ms on stability-mixed"
_W = "query_p50_ms on witness-deep"
LAYER_MAP = {
    "psi_flow.materialize_calls[.caller|.k]": f"{_V}; {_S}; 0 on witness-deep",
    "psi_flow.materialize_self_ms[.caller|.k]": f"{_V}; {_S}",
    "psi_flow.materialize_candidates.computed": f"{_V}; {_S}",
    "psi_flow.materialize_moved_ratio": f"{_V}; {_S}",
    "psi_flow.level_distinct_ratio": "ops_per_s on verify-n4; query_tail_ms on stability-mixed",
    "psi_flow.level_peak_entries": "peak_rss_mb",
    "psi_flow.apply_calls": f"{_W}, nothing elsewhere",
    "psi_flow.apply_us_by_k.*": f"{_W}, nothing elsewhere",
    "psi_flow.apply_window_lookups.computed": f"{_W}, nothing elsewhere",
    "perm_core.tensor_self_ms": f"{_V}; query_tail_ms on stability-mixed",
    "perm_core.tensor_entries": f"{_V}; query_tail_ms on stability-mixed",
    "perm_core.tail_split_self_ms": f"{_V}; query_tail_ms on stability-mixed",
    "perm_core.eq_self_ms": f"{_V}; query_tail_ms on stability-mixed",
    "stability.rank1_self_ms": _V,
    "stability.search_self_ms": _V,
    "stability.exact_rank_self_ms": "query_tail_ms on stability-mixed",
    "stability.prefix_check_calls": "query_tail_ms on stability-mixed",
    "stability.certified_ratio": "input property: certified over searched",
    "transposition3.classify_self_us": f"{_V} (small share)",
    "transposition3.witness_points_self_ms": _W,
    "transposition3.witness_report_self_ms": _W,
    "transposition3.tail_materializations": _W,
    "verify.self_ms": "ops_per_s on verify-n4",
    "verify.emit_json_ms": "ops_per_s on verify-n4",
    "verify.emit_csv_ms": "ops_per_s on verify-n4",
    "verify.report_bytes": "ops_per_s on verify-n4",
    "verify.par_child_cpu_s": "ops_per_s on verify-n4-par",
    "verify.par_utilisation": "ops_per_s on verify-n4-par",
    "verify.chunk_reenumerated.computed": "ops_per_s on verify-n4-par",
    "cli.import_ms": "cli.cold_ms on every workload",
    "cli.cold_ms": "none: a cold weylstab call; too noisy on the reference host to bound",
    "trace.overhead_ratio": "none: traced pass time over untraced pass time",
    "trace.absent_names": "none: traced names missing from the package",
}


def _level_bucket(k):
    return f"k{k}" if k < 8 else "k8plus"


def _apply_bucket(k):
    for name, top in APPLY_BUCKETS:
        if top is None or k <= top:
            return name


def per_layer(tracer) -> dict[str, float]:
    """Aggregate the tracer's spans into the per-layer metric values."""
    spans = tracer.spans
    own = tracer.self_times()
    self_s = defaultdict(float)
    calls = defaultdict(int)
    m = defaultdict(float)
    for c in CALLER_NAMES:
        m[f"psi_flow.materialize_calls.{c}"] = 0
        m[f"psi_flow.materialize_self_ms.{c}"] = 0.0
    for b in LEVEL_BUCKETS:
        m[f"psi_flow.materialize_calls.{b}"] = 0
        m[f"psi_flow.materialize_self_ms.{b}"] = 0.0
    apply_time = defaultdict(float)
    apply_count = defaultdict(int)
    levels = set()
    candidates = moved = peak = windows = 0
    tensor_entries = searched = certified = 0
    for (name, start, end, parent, detail), mine in zip(spans, own):
        self_s[name] += mine
        calls[name] += 1
        if name == "psi_flow.psi_materialize":
            caller = spans[parent][0] if parent >= 0 else ""
            label = CALLERS.get(caller, "witness_tail" if caller.startswith("transposition3")
                                else "other")
            m[f"psi_flow.materialize_calls.{label}"] += 1
            m[f"psi_flow.materialize_self_ms.{label}"] += mine * 1e3
            if detail is not None:
                k, support, n, entries, key = detail
                bucket = _level_bucket(k)
                m[f"psi_flow.materialize_calls.{bucket}"] += 1
                m[f"psi_flow.materialize_self_ms.{bucket}"] += mine * 1e3
                # one candidate per window offset (k + 1 of them, 1 at level 0),
                # support word and filling of the k free letters
                candidates += (k + 1) * support * n**k
                moved += entries
                peak = max(peak, entries)
                levels.add(key)
        elif name == "psi_flow.psi_apply" and detail is not None:
            bucket = _apply_bucket(detail)
            apply_time[bucket] += end - start
            apply_count[bucket] += 1
            windows += 2 * detail + 1
        elif name == "perm_core.TuplePerm.tensor" and detail is not None:
            tensor_entries += detail
        elif name == "stability.stability_search" and detail is not None:
            searched += 1
            certified += detail
    m.pop("psi_flow.materialize_calls.other", None)
    m.pop("psi_flow.materialize_self_ms.other", None)
    materialize = calls["psi_flow.psi_materialize"]
    m["psi_flow.materialize_calls"] = materialize
    m["psi_flow.materialize_self_ms"] = self_s["psi_flow.psi_materialize"] * 1e3
    m["psi_flow.materialize_candidates.computed"] = candidates
    m["psi_flow.materialize_moved_ratio"] = moved / candidates if candidates else 0.0
    m["psi_flow.level_distinct_ratio"] = len(levels) / materialize if materialize else 0.0
    m["psi_flow.level_peak_entries"] = peak
    m["psi_flow.apply_calls"] = calls["psi_flow.psi_apply"]
    for name, _ in APPLY_BUCKETS:
        count = apply_count[name]
        m[f"psi_flow.apply_us_by_k.{name}"] = apply_time[name] / count * 1e6 if count else 0.0
    m["psi_flow.apply_window_lookups.computed"] = windows
    m["perm_core.tensor_self_ms"] = self_s["perm_core.TuplePerm.tensor"] * 1e3
    m["perm_core.tensor_entries"] = tensor_entries
    m["perm_core.tail_split_self_ms"] = self_s["perm_core.TuplePerm.tail_identity_split"] * 1e3
    m["perm_core.eq_self_ms"] = self_s["perm_core.TuplePerm.__eq__"] * 1e3
    m["stability.rank1_self_ms"] = self_s["stability.rank_one_check"] * 1e3
    m["stability.search_self_ms"] = self_s["stability.stability_search"] * 1e3
    m["stability.exact_rank_self_ms"] = (
        self_s["stability.exact_rank_for_stable"] + self_s["stability.definitional_prefix_check"]
    ) * 1e3
    m["stability.prefix_check_calls"] = calls["stability.definitional_prefix_check"]
    m["stability.certified_ratio"] = certified / searched if searched else 0.0
    m["transposition3.classify_self_us"] = self_s["transposition3.classify"] * 1e6
    m["transposition3.witness_points_self_ms"] = self_s["transposition3.witness_points"] * 1e3
    m["transposition3.witness_report_self_ms"] = self_s["transposition3.witness_report"] * 1e3
    m["transposition3.tail_materializations"] = m["psi_flow.materialize_calls.witness_tail"]
    m["verify.self_ms"] = self_s["verify.verify_theorem"] * 1e3
    m["verify.emit_json_ms"] = self_s["verify.emit_json"] * 1e3
    m["verify.emit_csv_ms"] = self_s["verify.emit_csv"] * 1e3
    m["trace.absent_names"] = len(tracer.absent)
    return dict(m)

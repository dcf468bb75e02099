"""weylstab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``weylstab`` from ``src/`` of
that checkout and nowhere else, and exits 2 without a result when ``src/`` is
missing.  The workloads are defined in ``perfbench/workloads.py`` and listed,
with the reason for each, in ``BENCHMARK.json``.

An untraced run (``--trace 0``) does, in this order:

1. build the inputs from the seed in this process;
2. the timed closed loop: one caller runs whole operations until the next
   one would take their summed time past ``--seconds`` (at least one
   operation).  Each output is checked between operations, outside their
   timing, and a host-speed probe (``probe.py``) runs every quarter second,
   inside the verify calls too;
3. the setup probes: ``SETUP_PROBES`` fresh interpreters that each import
   the package and build the inputs; ``setup_s`` is their median;
4. the cold CLI calls: ``CLI_CALLS`` fresh ``weylstab`` interpreters whose
   output is compared with the library's.  Their median is only reported
   (per layer as ``cli.cold_ms`` in traced runs, in the detail line here):
   fresh-process times on the reference host spread 0.15-0.24 over ten runs
   even when scaled, too close to the largest bound for an end-to-end metric.

Every time is scaled to the reference host speed by the probes around it
(``probe.py``).  The unscaled figures are in the detail line.
``ops_per_s`` counts transpositions on the verify workloads and calls
elsewhere; the query latencies of a verify workload are those of one whole
verify call with its emission.

A traced run (``--trace 1``) runs the loop untraced for half of ``--seconds``
and then once more over the same inputs with the tracer installed, makes the
cold CLI calls, and reports the per-layer metrics.  The verify workloads run
one whole call in each pass.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
detail object with sample counts, the chosen tail percentile, the input
property shares and any gate failures.  Both are also appended to
``perfbench/out/runs.jsonl`` for ``compare.py``, and traced runs write their
spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
CLI_CALLS = 21
IMPORT_PROBES = 5
# The tail is read at the highest of these with ten samples beyond it.  The
# list stops at p99: in a 30 000-call run the 0.1% tail is set by single
# interpreter pauses and moves by a quarter between runs of the same code.
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 60
MAX_ERRORS = 20
CHILD_PROBE_SPREAD = 3
SPAN = struct.Struct("ddd")  # operation start, end, seconds net of probes

sys.path.insert(0, str(HERE))
from probe import ProbeHook, Probes  # noqa: E402
from workloads import WORKLOADS, Verify  # noqa: E402


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_package():
    if not (SRC / "weylstab" / "__init__.py").is_file():
        raise SetupError(f"no weylstab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import weylstab
    import weylstab.cli  # noqa: F401  (imported by the CLI calls too)

    if Path(weylstab.__file__).resolve().parent != (SRC / "weylstab").resolve():
        raise SetupError(f"weylstab imported from {weylstab.__file__}, not {SRC}")
    return weylstab


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("WEYLSTAB_BUDGET", None)  # the library calls use the default budget
    return env


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it, else the maximum.

    Returns the percentile's label, its value and the number of samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1], n - rank
    return "max", ordered[-1], 0


def timed_loop(ws, workload, items, seconds, probes, hook=None, call=None, record=True,
               keep=False):
    """Closed loop until the next operation would take the busy time past ``seconds``.

    Returns a ``Loop``: per-operation ``(raw seconds, scaled seconds)``, the
    items run when ``keep`` is set and, when ``record`` is set, the first
    ``CLI_CALLS`` successful (item, output) pairs, the property tally and the
    failed operations.  Gates and probes run between operations, outside
    their timing.
    """
    loop = Loop()
    busy = 0.0
    call = call or direct
    # per-operation times go to a file, so that the loop's own memory does
    # not grow with the number of operations and enter peak_rss_mb
    spool = OUT / f"timings-{os.getpid()}.bin"
    try:
        with open(spool, "wb") as spans:
            probes.take()
            for item in items:
                if hook:
                    hook.inside = 0.0
                t0 = time.perf_counter()
                try:
                    out = workload.op(ws, item, call)
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = exc
                t1 = time.perf_counter()
                dt = t1 - t0 - (hook.inside + hook.collect() if hook else 0.0)
                probes.due()
                spans.write(SPAN.pack(t0, t1, dt))
                busy += dt
                if keep:
                    loop.kept.append(item)
                if record:
                    loop.record(ws, workload, item, out)
                if busy + dt > seconds:
                    break
            probes.take()
        loop.rss = peak_rss_mb(hook.workers if hook else 1)
        data = spool.read_bytes()
    finally:
        spool.unlink(missing_ok=True)
    loop.timings = [(dt, dt * probes.speed(t0, t1)) for t0, t1, dt in SPAN.iter_unpack(data)]
    return loop


class Loop:
    """What one pass of the timed loop leaves for the report."""

    def __init__(self):
        self.timings: list[tuple[float, float]] = []
        self.kept: list = []
        self.first: list = []
        self.tally = Counter()
        self.failed = 0
        self.errors: list[str] = []  # the first MAX_ERRORS messages
        self.rss = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def record(self, ws, workload, item, out) -> None:
        if isinstance(out, Exception):
            self.fail(f"{type(out).__name__}: {out}")
            return
        try:
            problem = workload.check(ws, item, out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.fail(problem)
        workload.observe(self.tally, item, out)
        if len(self.first) < CLI_CALLS and workload.for_cli(item):
            self.first.append((item, out))


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def child_samples(argvs, probes):
    """Run each argv in a fresh interpreter, with a probe between any two.

    A child's time is scaled by the ``CHILD_PROBE_SPREAD`` probes on each
    side of it: the speed phases last seconds, and one 10 ms probe reads
    within 10% of its neighbours.  Returns ``(raw seconds, scale, completed
    process)`` per argv.
    """
    spans = []
    probes.take()
    for argv in argvs:
        t0 = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        probes.take()
        spans.append((t0, t1, done))
    for _ in range(CHILD_PROBE_SPREAD - 1):
        probes.take()
    return [(t1 - t0, probes.speed(t0, t1, CHILD_PROBE_SPREAD), done)
            for t0, t1, done in spans]


def setup_probe(workload_name, seed):
    """Child side of a setup probe: import the package, build the inputs, print seconds."""
    started = time.perf_counter()
    ws = import_package()
    WORKLOADS[workload_name].setup(ws, seed)
    print(time.perf_counter() - started)


def setup_samples(workload_name, seed, probes):
    """``(raw, scaled)`` in-child setup seconds of ``SETUP_PROBES`` fresh interpreters."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _, scale, done in child_samples([argv] * SETUP_PROBES, probes):
        if done.returncode != 0:
            raise SetupError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        seconds = float(done.stdout.strip().splitlines()[-1])
        samples.append((seconds, seconds * scale))
    return samples


def cli_samples(calls, probes, loop):
    """Run the ``(argv, matches)`` pairs round robin in fresh interpreters.

    Returns ``(raw, scaled)`` seconds per call; a call that exits non-zero or
    prints another result than the library is a failure of ``loop``.
    """
    prefix = [sys.executable, "-c", "from weylstab.cli import run; run()"]
    chosen = [calls[i % len(calls)] for i in range(CLI_CALLS)]
    samples = []
    for (argv, matches), (seconds, scale, done) in zip(
            chosen, child_samples([prefix + argv for argv, _ in chosen], probes)):
        samples.append((seconds, seconds * scale))
        try:
            ok = done.returncode == 0 and matches(done.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            done.stderr += f"\nunreadable output: {exc}"
        if not ok:
            loop.fail(f"cli {' '.join(argv)}: exit {done.returncode} "
                      f"{done.stderr.strip()[-300:]}")
    return samples


def _median(samples, index):
    return statistics.median(sample[index] for sample in samples)


def import_ms():
    """Median fresh-interpreter import of weylstab.cli minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for code, into in (("pass", bare), ("import weylstab.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                           timeout=CHILD_TIMEOUT_S, check=True)
            into.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(workers):
    """Own peak RSS plus, for a worker pool, each worker at the largest child's peak.

    It is read right after the timed loop, before any other child process
    has run, so the children counted are the pool's workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024


def run(args, spec):
    ws = import_package()
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(ws, args.seed)
    items = workload.items(ws, inputs)
    verify = isinstance(workload, Verify)
    workers = workload.workers() if verify else 1
    per_op = workload.transpositions if verify else 1
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "python": sys.version.split()[0], "nproc": os.cpu_count()}
    metrics: dict[str, float] = {}
    OUT.mkdir(exist_ok=True)

    probes = Probes()
    hook = ProbeHook(probes, workers, OUT) if verify else None
    if hook and not hook.install(ws):
        hook = None
    cpu_before = children_cpu()
    wall = time.perf_counter()
    try:
        loop = timed_loop(ws, workload, items, args.seconds / 2 if args.trace else args.seconds,
                          probes, hook, keep=bool(args.trace))
    finally:
        if hook:
            hook.uninstall()
    wall = time.perf_counter() - wall
    child_cpu = children_cpu() - cpu_before
    ops = len(loop.timings)
    attempted = ops

    if not loop.first:
        raise SetupError("no operation succeeded, so no CLI call can be checked")
    cli = cli_samples(workload.cli(ws, loop.first), probes, loop)
    attempted += CLI_CALLS
    if args.trace:
        from layers import per_layer
        from tracer import Tracer

        # the same items again, traced; their outputs were checked above
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_loop(ws, workload, loop.kept, math.inf, probes,
                                call=tracer.call, record=False)
        finally:
            tracer.uninstall()
        metrics.update(per_layer(tracer))
        metrics["trace.overhead_ratio"] = (
            sum(s for _, s in traced.timings) / sum(s for _, s in loop.timings))
        metrics["verify.report_bytes"] = loop.first[0][1]["bytes"] if verify else 0
        metrics["verify.par_child_cpu_s"] = child_cpu if workers > 1 else 0.0
        metrics["verify.par_utilisation"] = (
            child_cpu / (wall * workers) if workers > 1 else 0.0)
        # each pool worker re-enumerates the transpositions before its chunk
        metrics["verify.chunk_reenumerated.computed"] = (
            ops * sum(i * per_op // workers for i in range(workers)) if workers > 1 else 0)
        metrics["cli.import_ms"] = import_ms()
        metrics["cli.cold_ms"] = _median(cli, 1) * 1e3
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
        detail["absent_names"] = tracer.absent
        detail["spans"] = len(tracer.spans)
    else:
        setup = setup_samples(args.workload, args.seed, probes)
        raw = [r for r, _ in loop.timings]
        scaled = [s for _, s in loop.timings]
        label, tail_value, beyond = tail(scaled)
        metrics.update({
            "setup_s": _median(setup, 1),
            "ops_per_s": ops * per_op / sum(scaled),
            "query_p50_ms": statistics.median(scaled) * 1e3,
            "query_tail_ms": tail_value * 1e3,
            "peak_rss_mb": loop.rss,
        })
        detail.update({
            "samples": ops, "tail_percentile": label, "tail_samples_beyond": beyond,
            "ops_per_s_counts": "transpositions" if verify else "calls",
            "unscaled": {
                "setup_s": _median(setup, 0),
                "ops_per_s": ops * per_op / sum(raw),
                "query_p50_ms": statistics.median(raw) * 1e3,
                "query_tail_ms": tail(raw)[1] * 1e3,
            },
            "cli_cold_ms": {"raw": _median(cli, 0) * 1e3, "scaled": _median(cli, 1) * 1e3},
            "setup_samples_s": setup, "cli_samples_s": cli,
            "probes": {"count": len(probes.durations),
                       "median_ms": statistics.median(probes.durations) * 1e3,
                       "inside_verify": hook is not None},
        })

    detail["properties"] = workload.properties(loop.tally) if loop.tally else {}
    failed = min(loop.failed, attempted)
    detail["failed_ratio"] = failed / attempted
    detail["errors"] = loop.errors

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics not produced: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(OUT / "runs.jsonl", "a") as log:
        log.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise SetupError(f"{spec_path} is missing")
        run(args, json.loads(spec_path.read_text()))
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        traceback.print_exc()
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

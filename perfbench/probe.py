"""Host-speed probe that the timed loops interleave with the work they measure.

The 2-core hosts this benchmark runs on change speed by 20-50% for seconds
at a time, with CPU time tracking wall time, so the slowdown is not queueing
that a CPU clock could exclude.  A run therefore interleaves a short, fixed
pure-Python workload (dict lookups and updates keyed by small tuples, the
same kind of work the flow does) every ``EVERY_S`` seconds, and scales each
measured time by ``REFERENCE_S`` over the probe durations around it.  The
reported times read as "on a host where the probe takes REFERENCE_S".  The
raw times are kept in the run's detail line.  Fresh-interpreter times follow
the phases less closely than the loop's (their quartile spread over ten runs
stays near 0.15), but the probes still halve it.

On the reference host (2 vCPUs, Python 3.11) a probe takes 7.5-12 ms, 8 ms
in the fast phases.  None of the constants below may change between the commits
being compared.
"""

from __future__ import annotations

import bisect
import os
import time
from pathlib import Path

REFERENCE_S = 0.008
EVERY_S = 0.25
ITERATIONS = 40_000


def probe() -> float:
    """Run the fixed workload once; return its duration in seconds."""
    started = time.perf_counter()
    table: dict[tuple[int, int, int], int] = {}
    for i in range(ITERATIONS):
        key = (i % 5, i % 7, i % 3)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - started


class Probes:
    """Probe log of one process: ``(start, duration)`` pairs in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def take(self) -> float:
        start = time.perf_counter()
        duration = probe()
        self.starts.append(start)
        self.durations.append(duration)
        self._last = start
        return duration

    def due(self) -> float:
        """Probe if ``EVERY_S`` has passed since the last probe; return the time spent."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.take()
        return 0.0

    def speed(self, start: float, end: float, spread: int = 1) -> float:
        """REFERENCE_S over the mean probe from the ``spread``-th last one
        before ``start`` to the ``spread``-th one after ``end``."""
        lo = max(bisect.bisect_right(self.starts, start) - spread, 0)
        hi = min(bisect.bisect_left(self.starts, end) + spread, len(self.starts))
        window = self.durations[lo:hi] or self.durations
        return REFERENCE_S / (sum(window) / len(window))


class ProbeHook:
    """Probes from inside ``verify_theorem`` by wrapping ``weylstab.verify.classify``.

    One verify call lasts seconds, longer than the host's speed phases, so
    the probes have to run inside it.  ``classify`` runs once per
    transposition.  A forked pool worker inherits the wrapper and appends its
    probes to ``probes-<parent pid>-<worker pid>.log`` in ``spool``, which
    ``collect`` merges into the parent's log.  Without the name, or with
    workers that do not inherit it, only the probes around each call remain.
    """

    def __init__(self, probes: Probes, workers: int, spool: Path):
        self.probes = probes
        self.workers = workers
        self.spool = spool
        self.inside = 0.0  # probe seconds spent in this process since reset
        self.parent = os.getpid()
        self.module = None
        self.original = None

    def install(self, ws) -> bool:
        module = getattr(ws, "verify", None)
        original = getattr(module, "classify", None)
        if original is None:
            return False
        hook, parent, spool = self, self.parent, self.spool
        worker = {}

        def classify(*args, **kwargs):
            pid = os.getpid()
            if pid == parent:
                hook.inside += hook.probes.due()
            else:
                own = worker.get(pid)
                if own is None:
                    own = worker[pid] = Probes()
                if own.due():
                    with open(spool / f"probes-{parent}-{pid}.log", "a") as log:
                        log.write(f"{own.starts[-1]!r} {own.durations[-1]!r}\n")
            return original(*args, **kwargs)

        self.module, self.original = module, original
        module.classify = classify
        return True

    def uninstall(self) -> None:
        if self.module is not None:
            self.module.classify = self.original

    def collect(self) -> float:
        """Merge worker probes into the log; return the mean probe seconds per worker."""
        totals = []
        for path in self.spool.glob(f"probes-{self.parent}-*.log"):
            rows = [line.split() for line in path.read_text().splitlines() if line]
            path.unlink()
            for start, duration in rows:
                at = bisect.bisect(self.probes.starts, float(start))
                self.probes.starts.insert(at, float(start))
                self.probes.durations.insert(at, float(duration))
            totals.append(sum(float(d) for _, d in rows))
        return sum(totals) / len(totals) if totals else 0.0

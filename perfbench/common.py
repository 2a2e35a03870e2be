"""Shared pieces of the benchmark: statistics, spans, memory, the result line.

Nothing here imports the library under test, so a checkout that lacks
``src/`` fails in :mod:`run` before any measurement starts.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import resource
import statistics
import time
from contextlib import contextmanager

clock = time.perf_counter

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10

#: the reference host speed: the calibration loop takes this long on it
REF_MS = 1.0
#: calls of the calibration loop per probe; the probe keeps the fastest
PROBE_CALLS = 3

_TAG = re.compile(r"<(/?)([A-Za-z_][\w.-]*)([^>]*)>")
_MARKUP = "".join(f"<r{i % 7} a='{i}'>x{i}y</r{i % 7}>" for i in range(600))


def _reference_loop() -> int:
    """Fixed interpreter-bound work (regex scan, dict counting, sort).

    It uses the standard library only, so no change to the program
    under test changes its cost; only the host's speed does.
    """
    counts: dict[str, int] = {}
    out = []
    for m in _TAG.finditer(_MARKUP):
        name = m.group(2)
        counts[name] = counts.get(name, 0) + 1
        out.append((m.start(), name, len(m.group(3))))
    out.sort(key=lambda t: (t[1], -t[0]))
    return len(out) + sum(counts.values())


#: the processors this process may run on, read before any pinning
CPUS = sorted(os.sched_getaffinity(0))


def cpus() -> list[int]:
    """The processors this process may run on, in order."""
    return list(CPUS)


def pin(cpu_set) -> None:
    """Restrict the calling thread (and what it forks later) to ``cpu_set``."""
    os.sched_setaffinity(0, set(cpu_set))


class Calibration:
    """Host speed through a run, from probes of a fixed reference loop.

    The shared host this benchmark was built on runs the same code up
    to 2.6 times slower over stretches of seconds to minutes, and each
    of its processors changes speed on its own.  A probe times the
    reference loop on every processor in turn, and :meth:`scaled_s`
    converts a wall interval to the time it would take on the
    reference host, where the loop takes ``REF_MS``, using the probes
    of the processors the timed work ran on.  One instance belongs to
    one thread; probes are recorded in time order.
    """

    def __init__(self) -> None:
        self.cpus = cpus()
        self.times: list[float] = []
        #: per probe, the loop's time on each processor (seconds)
        self.refs: list[dict[int, float]] = []

    def probe(self) -> None:
        """Time the reference loop on each processor, in thread CPU time.

        CPU time leaves out waits for the interpreter lock and for a
        processor, which the probe would otherwise mistake for a slow
        host; a slow host still shows, as the loop's instructions take
        longer to execute.  The thread's affinity is restored after.
        """
        home = os.sched_getaffinity(0)
        row = {}
        try:
            for cpu in self.cpus:
                if len(self.cpus) > 1:
                    pin({cpu})
                best = float("inf")
                for _ in range(PROBE_CALLS):
                    t0 = time.thread_time()
                    _reference_loop()
                    best = min(best, time.thread_time() - t0)
                row[cpu] = best
        finally:
            pin(home)
        self.times.append(clock())
        self.refs.append(row)

    def _factor(self, i: int, on) -> float:
        """Speed factor of the stretch that ends at probe ``i``.

        Between two probes it is the mean of both; before the first
        probe (``i == 0``) or after the last (``i == len``) the one
        probe alone.  ``on`` names the processors averaged over.
        """
        n = len(self.refs)
        probes = (self.refs[max(i - 1, 0)], self.refs[min(i, n - 1)])
        ref = statistics.fmean(p[c] for p in probes for c in on)
        return REF_MS / 1e3 / ref

    def scaled_s(self, t0: float, t1: float, on=None) -> float:
        """Seconds ``[t0, t1]`` would take at the reference host speed.

        ``on`` is the set of processors the work ran on; by default
        all of them.
        """
        if not self.refs:
            raise RuntimeError("no calibration probe was taken")
        on = tuple(on) if on is not None else tuple(self.cpus)
        i = bisect.bisect_right(self.times, t0)
        total = 0.0
        at = t0
        while at < t1:
            end = min(self.times[i], t1) if i < len(self.times) else t1
            total += (end - at) * self._factor(i, on)
            at = end
            i += 1
        return total

    def scaled_ms(self, t0: float, t1: float, on=None) -> float:
        return ms(self.scaled_s(t0, t1, on))

    def summary(self) -> dict:
        """Per processor: median, fastest and slowest probe (ms)."""
        return {str(c): [ms(f(p[c] for p in self.refs)) for f in (median, min, max)]
                for c in self.cpus} | {"probes": len(self.refs)}


def ms(seconds: float) -> float:
    return seconds * 1e3


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, n)``.  That value is the sample with
    exactly ``TAIL_BEYOND`` samples above it, the order statistic at
    percentile ``100 * (n - TAIL_BEYOND) / n``.  With too few samples no
    such percentile exists: the minimum is returned with percentile 0.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's reaped children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Spans:
    """In-memory span recorder: ``(name, start, end, parent, pass id)``.

    Spans are kept in a list and written out once, when the benchmark
    ends.  A span's parent is the innermost span open when it started.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._open: list[int] = []
        self.pass_id = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        row = [name, clock(), 0.0, parent, self.pass_id]
        idx = len(self.rows)
        self.rows.append(row)
        self._open.append(idx)
        try:
            yield row
        finally:
            row[2] = clock()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one parent run one after another, so their
        durations add without overlap.
        """
        out = [row[2] - row[1] for row in self.rows]
        for row in self.rows:
            if row[3] >= 0:
                out[row[3]] -= row[2] - row[1]
        return out

    def by_pass(self) -> dict[int, dict[str, float]]:
        """Summed self time per span name, per pass (seconds)."""
        selfs = self.self_times()
        out: dict[int, dict[str, float]] = {}
        for row, s in zip(self.rows, selfs):
            bucket = out.setdefault(row[4], {})
            bucket[row[0]] = bucket.get(row[0], 0.0) + s
        return out

    def dump(self, path: str) -> None:
        origin = self.rows[0][1] if self.rows else 0.0
        payload = {
            "columns": ["name", "start_ms", "end_ms", "parent", "pass"],
            "spans": [
                [r[0], round(ms(r[1] - origin), 4), round(ms(r[2] - origin), 4),
                 r[3], r[4]]
                for r in self.rows
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class Tally:
    """Attempted/failed operation counts with the first few failure notes.

    ``wrong`` counts the failures that are wrong answers (an output that
    differs from its oracle), as opposed to errors and refusals.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, note: str, wrong: bool = False, attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.notes) < 10:
            self.notes.append(note)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes += other.notes[:10 - len(self.notes)]


def out_dir(root: str) -> str:
    path = os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path


def emit(metrics: dict[str, tuple[float, str]], tally: Tally,
         record: dict, record_path: str) -> None:
    """Print the report, write the record file, print the result line last."""
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    for note in tally.notes:
        print(f"FAILED: {note}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["wrong"] = tally.wrong
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"# record: {record_path}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)

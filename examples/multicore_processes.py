#!/usr/bin/env python3
"""Real process-level parallelism with the ProcessBackend.

Run::

    python examples/multicore_processes.py

Everything else in this repository measures *simulated* speedups from
work counters (see README: "How speedups are measured here").  This
example exercises the genuinely parallel execution path: a
`ProcessBackend` farms chunk work out to worker processes, each lexing
and running its own byte range, with results joined in the parent.

Each run builds a fresh pool of worker processes and tears it down;
every chunk's result is pickled in its worker and unpickled in the
parent.  Those costs (Python processes are far heavier than the
paper's Pthreads) come on top of the chunk work, so the wall-clock
improves with workers only when there are cores to spare for them.
On a 2-core host the speedup printed here can be below 1×; on a
single-core host it is.  Either way the matches are byte-identical to
the sequential run.
"""

from __future__ import annotations

import os
import time

from repro import GapEngine, SequentialEngine
from repro.datasets import NASA
from repro.parallel import ProcessBackend

QUERIES = ["/ds/d/tb/ts/tl/tit", "//ds/d/tit", "/ds/d[tit and al]/r/s/o/au/ln"]


def main() -> None:
    cores = os.cpu_count() or 1
    xml = NASA.generate(scale=60, seed=0)
    print(f"host has {cores} core(s); corpus {len(xml) / 1024:.0f} KiB\n")

    t0 = time.perf_counter()
    seq = SequentialEngine(QUERIES).run(xml)
    t_seq = time.perf_counter() - t0
    print(f"sequential:          {t_seq * 1000:7.0f} ms  ({seq.total_matches} matches)")

    for workers in (1, 2, max(2, cores)):
        backend = ProcessBackend(max_workers=workers)
        engine = GapEngine(QUERIES, grammar=NASA.grammar, backend=backend)
        t0 = time.perf_counter()
        res = engine.run(xml, n_chunks=max(workers * 2, 4))
        t_par = time.perf_counter() - t0
        assert res.offsets_by_id == seq.offsets_by_id
        print(
            f"{workers} worker process(es): {t_par * 1000:7.0f} ms  "
            f"(wall-clock ratio {t_seq / t_par:4.2f}x, results identical)"
        )

    print(
        "\nnote: each run pays a fresh pool and pickles every chunk result\n"
        "back to this process, so on few cores the ratio can stay below 1x;\n"
        "the simulated-cluster benchmarks (pytest benchmarks/) are the\n"
        "paper-shape reproduction; this script validates the real parallel path."
    )


if __name__ == "__main__":
    main()

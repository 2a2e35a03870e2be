"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload lineitem-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes the separate traced run that gives the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable
report precedes it, and a record with sample counts, tail percentiles
and per-pass work counts is written under ``perfbench/out/``.  Times
are scaled to a reference host speed measured through the run by
calibration probes (``common.Calibration``); the records keep the
unscaled medians too.  See ``perfbench/README.md`` for the workloads
and metric definitions.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("lineitem-batch", "xmark-spec", "service-mix")

END_TO_END = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "seq_p50_ms": "ms",
    "mb_per_s": "MB/s",
    "ops_per_s": "1/s",
    "append_p50_ms": "ms",
    "append_tail_ms": "ms",
    "ingest_p50_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: every per-layer metric, printed on every workload; a layer that the
#: workload does not drive reads 0
PER_LAYER = {
    "chunking.split_ms": "ms",
    "chunking.chunks": "count",
    "lexer.lex_ms": "ms",
    "lexer.tokens": "count",
    "lexer.mb_per_s": "MB/s",
    "stream.plain_append_p50_ms": "ms",
    "stream.seal_append_p50_ms": "ms",
    "stream.seals": "count",
    "subseq.plan_ms": "ms",
    "subseq.memo_hits": "count",
    "subseq.memo_misses": "count",
    "subseq.hit_ratio": "ratio",
    "subseq.repeat_share": "ratio",
    "subseq.memo_on_over_off": "ratio",
    "kernel.chunk_ms": "ms",
    "kernel.chunk_max_ms": "ms",
    "kernel.starting_paths": "count",
    "kernel.tree_tokens": "count",
    "mapping.join_ms": "ms",
    "mapping.reprocess_ms": "ms",
    "mapping.misspeculations": "count",
    "mapping.reprocessed_tokens": "count",
    "filtering.filter_ms": "ms",
    "filtering.matches": "count",
    "backend.overhead_ms": "ms",
    "compile.queries_ms": "ms",
    "compile.automaton_ms": "ms",
    "compile.table_ms": "ms",
    "compile.dense_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.batch_assembly_p50_ms": "ms",
    "service.execute_p50_ms": "ms",
    "service.respond_p50_ms": "ms",
    "service.http_ms": "ms",
    "service.requests_per_batch": "ratio",
    "service.engine_cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "engine.gap_over_seq": "ratio",
    "sim.speedup_2core": "ratio",
    "engine.serial_ms": "ms",
    "engine.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from common import emit, out_dir

    trace = bool(args.trace)
    if args.workload == "service-mix":
        import service

        values, tally, record = service.run(args.seed, args.seconds, ROOT, trace)
    else:
        import batch

        spec = batch.SPECS[args.workload]
        runner = batch.run_traced if trace else batch.run_untraced
        values, tally, record = runner(spec, args.seed, args.seconds, ROOT)

    wanted = PER_LAYER if trace else END_TO_END
    missing = sorted(set(wanted) - set(values) if not trace else ())
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit in wanted.items()}
    record_path = os.path.join(
        out_dir(ROOT), f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    emit(metrics, tally, record, record_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

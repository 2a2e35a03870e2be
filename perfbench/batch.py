"""The two batch workloads: ``lineitem-batch`` and ``xmark-spec``.

One caller runs a closed loop over a pool of seeded documents.  Each
round of the loop

1. sets the engines up from cold compile caches (timed: ``setup_s``);
2. runs one document through ``GapEngine`` on the process backend
   (2 workers, 8 chunks);
3. runs the same document through ``SequentialEngine``, which is both
   the paper's speedup baseline and the oracle every GAP result must
   equal;
4. feeds the next 32 appends of 4 KiB to a ``StreamSession`` with
   64 KiB sealing (about two seals per round); a finished stream's
   union of deltas must equal the oracle;
5. ingests one smaller document of the same kind into a fresh
   ``DocumentRegistry`` (whole-document split and pre-lex).

Every operation is timed on its own, between two calibration probes,
and its time is scaled to the reference host speed (see
:class:`common.Calibration`).  Interleaving the operations spreads
each metric's samples over the whole window, so a stretch of slow
host time weighs on all metrics alike instead of on whichever phase
it hit.  The benchmark runs on one processor; only the process
backend's pool gets both (see :func:`run_wide`).

The traced run (``--trace 1``) drives one pass per document serially
and in-process through the layers' public calls, with a span around
each call (see :func:`traced_pass`); it also times the untraced engines
on the same documents so ratios share one run.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from common import (Calibration, Spans, Tally, children_peak_rss_mb, clock,
                    cpus, median, ms, out_dir, pin, tail, vm_hwm_mb)

from repro import GapEngine, SequentialEngine
from repro.core.engine import element_at
from repro.core.gap_transducer import GapPolicy
from repro.core.inference import infer_feasible_paths
from repro.core.kernel import tables_for_policy
from repro.core.speculative import GrammarLearner
from repro.datasets import LINEITEM, XMARK
from repro.grammar.dtd_parser import parse_dtd
from repro.grammar.syntax_tree import build_syntax_tree
from repro.parallel.backend import get_backend
from repro.parallel.simcluster import SimulatedCluster
from repro.service.registry import DocumentRegistry
from repro.stream import StreamSession
from repro.transducer.counters import WorkCounters
from repro.transducer.machine import run_sequential
from repro.transducer.mapping import join_results
from repro.transducer.pipeline import ParallelPipeline
from repro.transducer.policies import ELIMINATE_ALWAYS
from repro.xmlstream.chunking import split_chunks
from repro.xmlstream.lexer import lex, lex_range
from repro.xpath.automaton import build_automaton
from repro.xpath.compile_tables import clear_compile_cache, compile_tables
from repro.xpath.filtering import apply_filters
from repro.xpath.rewrite import compile_queries
from repro.xpath.subseq import clear_memo_tables, memo_for_tables

N_CHUNKS = 8
WORKERS = 2
APPEND_BYTES = 4096
SEAL_BYTES = 1 << 16
#: appends per round: 128 KiB, about two seals, so a window holds more
#: than 20 seals and the append tail (10 samples beyond it) is a seal
APPENDS_PER_ROUND = 32
#: cold repetitions of each compile layer in the traced run
COMPILE_REPS = 11
#: documents ingested in turn, each a quarter of the pool's scale
INGEST_DOCS = 2
#: seals the traced run's write phase makes
TRACE_SEALS = 20
#: traced passes whose work counts are reported (their mean per pass);
#: the traced run makes at least this many whatever the window
COUNT_PASSES = 4

#: XMark with all three continents present.  Each continent is optional
#: in the DTD, so stock documents fall into three size clusters (one,
#: two or three continents); fixing the structure keeps every document
#: of a pool in one size class.
XMARK3 = dataclasses.replace(
    XMARK, repeat_overrides={**XMARK.repeat_overrides, "eu": (1, 1), "as2": (1, 1)})

#: seed of the document the speculative grammar is learned from; fixed,
#: so every run speculates from one grammar and run-to-run differences
#: come from the queried documents.  That stock XMark document has only
#: two of the three continents (no ``eu``), so chunks of the queried
#: documents that start inside ``eu`` misspeculate.
LEARN_SEED = 999


@dataclass(frozen=True)
class BatchSpec:
    name: str
    dataset: object
    scale: float
    queries: tuple[str, ...]
    #: DTD text for non-speculative mode; ``None`` learns a grammar and
    #: speculates
    grammar: str | None
    pool: int
    #: dataset and scale of the document the speculative grammar is
    #: learned from
    learn_dataset: object = None
    learn_scale: float = 0.0
    #: DTD text for the stream write path, which takes grammar text
    #: only; without one every sealed chunk enumerates all entry paths
    #: (about a second per 64 KiB seal on XMark), so the speculative
    #: workload streams with the dataset's DTD
    stream_grammar: str | None = None


LINEITEM_BATCH = BatchSpec(
    name="lineitem-batch", dataset=LINEITEM, scale=40,
    queries=("/table/T/TX", "//T[SM]/CM"), grammar=LINEITEM.dtd,
    pool=4, stream_grammar=LINEITEM.dtd,
)

XMARK_SPEC = BatchSpec(
    name="xmark-spec", dataset=XMARK3, scale=56,
    queries=tuple(XMARK.queries[q] for q in ("XM1", "XM2", "XM3")),
    grammar=None, pool=8, learn_dataset=XMARK, learn_scale=10,
    stream_grammar=XMARK.dtd,
)

SPECS = {s.name: s for s in (LINEITEM_BATCH, XMARK_SPEC)}

#: the benchmark's own work runs on one processor, so the calibration
#: probes of that processor time it; only the process backend's pool,
#: forked inside a GAP call, gets every processor (see :func:`run_wide`)
ALL = cpus()
HOME = ALL[:1]


def run_wide(engine, doc: str):
    """``engine.run(doc)`` with every processor open to the pool it forks."""
    pin(ALL)
    try:
        return engine.run(doc)
    finally:
        pin(HOME)


@dataclass
class Inputs:
    docs: list[str]
    learn_doc: str | None
    ingest_docs: list[str]
    #: tokens of each ingest document (the ingest oracle)
    ingest_tokens: list[int]


def make_inputs(spec: BatchSpec, seed: int) -> Inputs:
    prolog = spec.grammar is not None
    docs = [spec.dataset.generate(scale=spec.scale, seed=seed * 1000 + k,
                                  include_prolog=prolog)
            for k in range(spec.pool)]
    learn_doc = None
    if spec.grammar is None:
        learn_doc = spec.learn_dataset.generate(scale=spec.learn_scale,
                                                seed=LEARN_SEED, include_prolog=False)
    ingest_docs = [spec.dataset.generate(scale=spec.scale / 4,
                                         seed=seed * 1000 + 500 + k,
                                         include_prolog=prolog)
                   for k in range(INGEST_DOCS)]
    return Inputs(docs, learn_doc, ingest_docs,
                  [sum(1 for _ in lex(d)) for d in ingest_docs])


def build_engines(spec: BatchSpec, learn_doc: str | None, backend, memo=True):
    """Construct a ready GAP engine (table and dense tables compiled)."""
    gap = GapEngine(list(spec.queries), grammar=spec.grammar, n_chunks=N_CHUNKS,
                    backend=backend, memo=memo)
    if learn_doc is not None:
        gap.learn(learn_doc)
    policy = GapPolicy(gap.automaton, gap.table, eliminate=gap.eliminate,
                       switch_to_stack=gap.switch_to_stack)
    tables = tables_for_policy(gap.automaton, policy, gap.anchor_sids)
    return gap, policy, tables


def timed_setup(spec: BatchSpec, learn_doc: str | None, backend):
    """Engine construction to ready, from cold compile caches."""
    clear_compile_cache()
    clear_memo_tables()
    t0 = clock()
    gap, _policy, _tables = build_engines(spec, learn_doc, backend)
    seq = SequentialEngine(list(spec.queries))
    return (t0, clock()), gap, seq


def nonempty(matches: dict) -> dict:
    return {q: list(v) for q, v in matches.items() if v}


class Oracle:
    """Sequential matches per pool document, computed on first need."""

    def __init__(self, spec: BatchSpec, docs: list[str]) -> None:
        self.spec = spec
        self.docs = docs
        self.matches: dict[int, dict] = {}

    def get(self, k: int) -> dict:
        if k not in self.matches:
            seq = SequentialEngine(list(self.spec.queries))
            self.matches[k] = nonempty(seq.run(self.docs[k]).matches)
        return self.matches[k]


# -- write paths (stream appends and ingest) ---------------------------------


class WritePath:
    """Stream appends over the pool documents in turn, and ingests.

    Each pool document becomes one stream; a round feeds its next
    ``APPENDS_PER_ROUND`` appends, and a document fed to its end is
    finalized and its deltas checked against the oracle.  Each
    operation is recorded as its wall interval ``(start, end)``.
    """

    def __init__(self, spec: BatchSpec, inputs: Inputs, oracle: Oracle,
                 tally: Tally) -> None:
        self.spec = spec
        self.inputs = inputs
        self.oracle = oracle
        self.tally = tally
        self.plain: list[tuple[float, float]] = []
        self.seal: list[tuple[float, float]] = []
        self.ingest_spans: list[tuple[float, float]] = []
        self.doc = -1
        self.pos = 0
        self.session = None
        self.streamed: dict[str, list[int]] = {}
        self.appends = 0
        self.ingests = 0

    def _collect(self, deltas) -> None:
        for delta in deltas:
            for q, offs in delta.matches.items():
                self.streamed.setdefault(q, []).extend(offs)

    def _close(self) -> None:
        self._collect(self.session.finalize())
        if self.streamed != self.oracle.get(self.doc):
            self.tally.fail(f"stream of document {self.doc}: deltas differ "
                            "from the oracle", wrong=True, attempted=self.appends)
        else:
            self.tally.attempted += self.appends
        self.session = None

    def append_round(self) -> None:
        for _ in range(APPENDS_PER_ROUND):
            if self.session is None:
                self.doc = (self.doc + 1) % len(self.inputs.docs)
                self.pos = 0
                self.appends = 0
                self.streamed = {}
                self.session = StreamSession(
                    list(self.spec.queries), grammar=self.spec.stream_grammar,
                    chunk_bytes=SEAL_BYTES, track_matches=False)
            text = self.inputs.docs[self.doc]
            before = self.session.chunks_sealed
            t0 = clock()
            deltas = self.session.feed(text[self.pos:self.pos + APPEND_BYTES])
            t1 = clock()
            (self.seal if self.session.chunks_sealed > before
             else self.plain).append((t0, t1))
            self._collect(deltas)
            self.pos += APPEND_BYTES
            self.appends += 1
            if self.pos >= len(text):
                self._close()

    def finish(self) -> None:
        """Feed the open stream to its end (untimed) so it can be checked."""
        if self.session is None:
            return
        text = self.inputs.docs[self.doc]
        while self.pos < len(text):
            self._collect(self.session.feed(text[self.pos:self.pos + APPEND_BYTES]))
            self.pos += APPEND_BYTES
            self.appends += 1
        self._close()

    def ingest(self) -> None:
        k = self.ingests % len(self.inputs.ingest_docs)
        self.ingests += 1
        doc = self.inputs.ingest_docs[k]
        registry = DocumentRegistry(max_documents=1)
        t0 = clock()
        rec = registry.register(doc, grammar=self.spec.grammar, n_chunks=N_CHUNKS)
        self.ingest_spans.append((t0, clock()))
        edges = [c.begin for c in rec.chunks] + [rec.chunks[-1].end]
        n_tok = sum(len(t) for t in rec.chunk_tokens)
        if (edges[0] != 0 or edges[-1] != len(doc)
                or n_tok != self.inputs.ingest_tokens[k]):
            self.tally.fail(f"ingest of document {k}: split or token count "
                            "differs", wrong=True)
        else:
            self.tally.ok()


# -- untraced run ------------------------------------------------------------


def run_untraced(spec: BatchSpec, seed: int, seconds: float, root: str) -> tuple:
    inputs = make_inputs(spec, seed)
    backend = get_backend("process", max_workers=WORKERS)
    tally = Tally()
    oracle = Oracle(spec, inputs.docs)
    writes = WritePath(spec, inputs, oracle, tally)
    cal = Calibration()
    setups: list[tuple[float, float]] = []
    gaps: list[tuple[float, float]] = []
    seqs: list[tuple[float, float]] = []
    gap_bytes = 0
    i = 0
    pin(HOME)
    cal.probe()
    start = clock()
    deadline = start + seconds
    while clock() < deadline:
        k = i % len(inputs.docs)
        doc = inputs.docs[k]
        i += 1
        span, gap, seq = timed_setup(spec, inputs.learn_doc, backend)
        setups.append(span)
        cal.probe()
        t0 = clock()
        result = run_wide(gap, doc)
        gaps.append((t0, clock()))
        cal.probe()
        t0 = clock()
        expected = seq.run(doc)
        seqs.append((t0, clock()))
        cal.probe()
        gap_bytes += len(doc)
        oracle.matches[k] = nonempty(expected.matches)
        tally.ok()  # the sequential run
        if nonempty(result.matches) != oracle.matches[k]:
            tally.fail(f"GAP matches differ from the oracle on document {k}",
                       wrong=True)
        else:
            tally.ok()
        writes.append_round()
        cal.probe()
        writes.ingest()
        cal.probe()
    end = clock()
    writes.finish()
    backend.close()
    rss = vm_hwm_mb() + children_peak_rss_mb()

    def scaled(spans: list[tuple[float, float]], on=HOME) -> list[float]:
        return [cal.scaled_ms(a, b, on) for a, b in spans]

    gap_ms, seq_ms = scaled(gaps, ALL), scaled(seqs)
    plain_ms, seal_ms = scaled(writes.plain), scaled(writes.seal)
    ingest_ms = scaled(writes.ingest_spans)
    setup_ms = scaled(setups)
    appends = plain_ms + seal_ms
    ops = len(gap_ms) + len(seq_ms) + len(appends) + len(ingest_ms)
    q_tail = tail(gap_ms)
    a_tail = tail(appends)
    metrics = {
        "query_p50_ms": median(gap_ms),
        "query_tail_ms": q_tail[0],
        "seq_p50_ms": median(seq_ms),
        "mb_per_s": gap_bytes / 1e6 / (sum(gap_ms) / 1e3),
        # GAP calls ran on every processor, the rest on the home one
        "ops_per_s": ops / (cal.scaled_s(start, end, HOME) + sum(
            cal.scaled_s(a, b, ALL) - cal.scaled_s(a, b, HOME) for a, b in gaps)),
        "append_p50_ms": median(appends),
        "append_tail_ms": a_tail[0],
        "ingest_p50_ms": median(ingest_ms),
        "ok_frac": 1.0 - tally.failed / max(1, tally.attempted),
        "setup_s": median(setup_ms) / 1e3,
        "peak_rss_mb": rss,
    }
    raw = {"query_p50_ms": median([ms(b - a) for a, b in gaps]),
           "seq_p50_ms": median([ms(b - a) for a, b in seqs]),
           "append_p50_ms": median([ms(b - a) for a, b in writes.plain + writes.seal]),
           "ingest_p50_ms": median([ms(b - a) for a, b in writes.ingest_spans])}
    record = {
        "workload": spec.name, "seed": seed, "trace": 0,
        "documents": [len(d) for d in inputs.docs],
        "ingest_documents": [len(d) for d in inputs.ingest_docs],
        "rounds": i, "window_s": end - start,
        "calibration_ms": cal.summary(),
        "unscaled_ms": raw,
        "query_tail": {"percentile": q_tail[1], "samples": q_tail[2]},
        "append_tail": {"percentile": a_tail[1], "samples": a_tail[2]},
        "seals": len(seal_ms),
        "samples_ms": {"gap": gap_ms, "seq": seq_ms, "ingest": ingest_ms,
                       "seal_append": seal_ms, "setup": setup_ms},
        "peak_rss_includes": "benchmark process VmHWM (engines, documents, "
                             "sequential engine) + largest pool worker's "
                             "peak RSS",
    }
    return metrics, tally, record


# -- traced run ----------------------------------------------------------------


def compile_timings(spec: BatchSpec, learn_doc: str | None,
                    cal: Calibration) -> dict[str, float]:
    """Median cold time of each compile layer, called directly."""
    rows: dict[str, list[float]] = {"queries": [], "automaton": [], "table": [],
                                    "dense": []}
    for _ in range(COMPILE_REPS):
        cal.probe()
        t0 = clock()
        _compiled, registry = compile_queries(list(spec.queries))
        t1 = clock()
        automaton = build_automaton(registry.automaton_inputs())
        t2 = clock()
        if spec.grammar is not None:
            tree = build_syntax_tree(parse_dtd(spec.grammar))
            table = infer_feasible_paths(automaton, tree, complete=True)
        else:
            learner = GrammarLearner()
            learner.observe(learn_doc)
            table = learner.table(automaton)
        t3 = clock()
        compile_tables(automaton, table, registry.anchor_sids())
        t4 = clock()
        cal.probe()
        for key, a, b in zip(rows, (t0, t1, t2, t3), (t1, t2, t3, t4)):
            rows[key].append(cal.scaled_ms(a, b, HOME))
    return {k: median(v) for k, v in rows.items()}


def _skip_leading_end(tokens, begin: int):
    it = iter(tokens)
    first = next(it, None)
    if first is not None and not (first.is_end and first.offset == begin):
        yield first
    yield from it


def traced_pass(spans: Spans, gap, policy, tables, pipe, text: str) -> tuple:
    """One serial pass through the layers' public calls, one span each.

    Memo plans are cached per token list, so planning here first makes
    ``run_chunk`` reuse the plan: the ``plan`` span holds planning and
    the ``kernel`` span holds execution.  Planning happens only where
    the kernel itself would plan (single-path fast loop allowed).
    """
    automaton = gap.automaton
    memo = memo_for_tables(tables)
    runner = pipe.chunk_runner()
    plans = policy.switch_to_stack and policy.eliminate != ELIMINATE_ALWAYS
    hits0, misses0 = memo.hits, memo.misses
    covered = 0
    n_tokens = 0
    chunk_ms: list[float] = []
    totals = WorkCounters()
    reprocess_ms = 0.0

    def reprocess(begin, end, state, stack, skip_end):
        nonlocal reprocess_ms
        with spans.span("reprocess") as row:
            sub = WorkCounters()
            toks = lex_range(text, begin, end)
            if skip_end:
                toks = _skip_leading_end(toks, begin)
            res = run_sequential(automaton, toks, gap.anchor_sids,
                                 state=state, stack=stack, counters=sub)
        reprocess_ms += row[2] - row[1]
        return res.state, res.stack, res.events, sub.stack_tokens

    with spans.span("pass") as pass_row:
        with spans.span("split"):
            chunks = split_chunks(text, N_CHUNKS)
        results = []
        for c in chunks:
            with spans.span("chunk") as chunk_row:
                with spans.span("lex"):
                    toks = list(lex_range(text, c.begin, c.end))
                if plans:
                    with spans.span("plan"):
                        plan = memo.plan_for(toks)
                    covered += _covered(plan)
                start = frozenset((automaton.initial,)) if c.index == 0 else None
                with spans.span("kernel"):
                    r = runner.run_chunk(toks, c.index, c.begin, c.end,
                                         start_states=start)
            chunk_ms.append(ms(chunk_row[2] - chunk_row[1]))
            n_tokens += len(toks)
            results.append(r)
        for r in results:
            totals.merge(r.counters)
        with spans.span("join") as join_row:
            _state, _stack, events = join_results(
                (automaton.initial, [], []), results, reprocess, totals,
                strict=not policy.speculative)
        with spans.span("filter") as filter_row:
            offsets = apply_filters(gap.compiled, events, gap.anchor_sids,
                                    lambda off: element_at(text, off)[1])
    matches = {q: offsets.get(i, []) for i, q in enumerate(gap.queries)}
    counts = {
        "tokens": n_tokens,
        "chunks": len(chunks),
        "starting_paths": totals.starting_paths,
        "tree_tokens": totals.tree_tokens,
        "misspeculations": totals.misspeculations,
        "reprocessed_tokens": totals.reprocessed_tokens,
        "matches": sum(len(v) for v in matches.values()),
        "memo_hits": memo.hits - hits0,
        "memo_misses": memo.misses - misses0,
        "planned_tokens": covered,
    }
    times = {
        "pass_ms": ms(pass_row[2] - pass_row[1]),
        "chunk_max_ms": max(chunk_ms),
        "join_total_ms": ms(join_row[2] - join_row[1]),
        "filter_total_ms": ms(filter_row[2] - filter_row[1]),
        "reprocess_ms": ms(reprocess_ms),
    }
    return matches, counts, times


def _covered(plan) -> int:
    """Tokens inside the plan's spans (nested spans counted once)."""
    if plan is None:
        return 0
    covered = 0
    reach = 0
    for j in plan.starts:
        end = j + plan.spans[j][1]
        if end > reach:
            covered += end - max(j, reach)
            reach = end
    return covered


def run_traced(spec: BatchSpec, seed: int, seconds: float, root: str) -> tuple:
    inputs = make_inputs(spec, seed)
    docs, learn_doc = inputs.docs, inputs.learn_doc
    pin(HOME)
    cal = Calibration()
    compile_ms = compile_timings(spec, learn_doc, cal)
    backend = get_backend("process", max_workers=WORKERS)
    gap_proc, policy, tables = build_engines(spec, learn_doc, backend)
    gap_serial, _, _ = build_engines(spec, learn_doc, None)
    gap_off, _, _ = build_engines(spec, learn_doc, None, memo=False)
    seq = SequentialEngine(list(spec.queries))
    pipe = ParallelPipeline(gap_serial.automaton, policy, gap_serial.anchor_sids,
                            memo=True)

    tally = Tally()
    spans = Spans()
    rows: dict[str, list[float]] = {}
    #: the untraced calls of one iteration, as wall intervals
    calls: dict[str, tuple[float, float]] = {}
    #: per pass id, the mean host speed factor over the traced pass
    pass_factor: dict[int, float] = {}
    pass_counts: list[dict] = []
    sim_speedup = 0.0
    oracle = Oracle(spec, docs)

    def add(key: str, value: float) -> None:
        rows.setdefault(key, []).append(value)

    def check(label: str, k: int, matches: dict) -> None:
        if nonempty(matches) != oracle.get(k):
            tally.fail(f"{label} matches differ from the oracle on document {k}",
                       wrong=True)
        else:
            tally.ok()

    i = 0
    deadline = clock() + seconds
    while i < COUNT_PASSES or clock() < deadline:
        k = i % len(docs)
        doc = docs[k]
        cal.probe()
        t0 = clock()
        expected = seq.run(doc)
        calls["seq_ms"] = (t0, clock())
        oracle.matches[k] = nonempty(expected.matches)
        tally.ok()
        for label, engine in (("proc_ms", gap_proc), ("serial_ms", gap_serial),
                              ("off_ms", gap_off)):
            clear_memo_tables()
            cal.probe()
            t0 = clock()
            result = run_wide(engine, doc) if label == "proc_ms" else engine.run(doc)
            calls[label] = (t0, clock())
            check(label, k, result.matches)
            if label == "proc_ms" and i == 0:
                sim_speedup = SimulatedCluster(WORKERS).speedup(
                    result.stats.chunk_counters, expected.stats.counters,
                    result.stats.counters)
        clear_memo_tables()
        spans.pass_id = i
        cal.probe()
        p0 = clock()
        matches, counts, times = traced_pass(spans, gap_serial, policy, tables,
                                             pipe, doc)
        p1 = clock()
        cal.probe()
        check("traced", k, matches)
        if i < COUNT_PASSES:
            pass_counts.append(counts)
        # the traced pass's timings at its mean host speed factor
        pass_factor[i] = cal.scaled_s(p0, p1, HOME) / (p1 - p0)
        for key, value in times.items():
            add(key, value * pass_factor[i])
        for key, (a, b) in calls.items():
            add(key, cal.scaled_ms(a, b, ALL if key == "proc_ms" else HOME))
        i += 1

    # the write paths after the window, as many rounds as the untraced
    # run makes in one (the per-layer split of append latencies)
    writes = WritePath(spec, inputs, oracle, tally)
    while len(writes.seal) < TRACE_SEALS:
        cal.probe()
        writes.append_round()
        writes.ingest()
    cal.probe()
    writes.finish()
    backend.close()

    selfs = {p: {name: s * pass_factor[p] for name, s in b.items()}
             for p, b in spans.by_pass().items()}
    per_pass = [selfs[p] for p in sorted(selfs)]

    def self_ms(name: str) -> float:
        return median([ms(b.get(name, 0.0)) for b in per_pass])

    critical = [ms(b.get("split", 0.0)) + cmax + jt + ft
                for b, cmax, jt, ft in zip(per_pass, rows["chunk_max_ms"],
                                           rows["join_total_ms"],
                                           rows["filter_total_ms"])]
    lex_ms = self_ms("lex")
    # work counts: the mean per pass over the first COUNT_PASSES pool
    # documents, the same documents in every run of one seed
    c = {key: sum(p[key] for p in pass_counts) / len(pass_counts)
         for key in pass_counts[0]}
    unattributed = median([b.get("pass", 0.0) / (t / 1e3)
                           for b, t in zip(per_pass, rows["pass_ms"])])
    metrics = {
        "chunking.split_ms": self_ms("split"),
        "chunking.chunks": c["chunks"],
        "lexer.lex_ms": lex_ms,
        "lexer.tokens": c["tokens"],
        "lexer.mb_per_s": median([len(docs[p % len(docs)]) / 1e6 / b["lex"]
                                  for p, b in zip(sorted(selfs), per_pass)]),
        "stream.plain_append_p50_ms": median([cal.scaled_ms(a, b, HOME)
                                              for a, b in writes.plain]),
        "stream.seal_append_p50_ms": median([cal.scaled_ms(a, b, HOME)
                                             for a, b in writes.seal]),
        "stream.seals": len(writes.seal),
        "subseq.plan_ms": self_ms("plan"),
        "subseq.memo_hits": c["memo_hits"],
        "subseq.memo_misses": c["memo_misses"],
        "subseq.hit_ratio": c["memo_hits"] / max(1, c["memo_hits"] + c["memo_misses"]),
        "subseq.repeat_share": c["planned_tokens"] / max(1, c["tokens"]),
        "subseq.memo_on_over_off": median(rows["serial_ms"]) / median(rows["off_ms"]),
        "kernel.chunk_ms": self_ms("kernel"),
        "kernel.chunk_max_ms": median(rows["chunk_max_ms"]),
        "kernel.starting_paths": c["starting_paths"],
        "kernel.tree_tokens": c["tree_tokens"],
        "mapping.join_ms": self_ms("join"),
        "mapping.reprocess_ms": median(rows["reprocess_ms"]),
        "mapping.misspeculations": c["misspeculations"],
        "mapping.reprocessed_tokens": c["reprocessed_tokens"],
        "filtering.filter_ms": self_ms("filter"),
        "filtering.matches": c["matches"],
        "backend.overhead_ms": median(rows["proc_ms"]) - median(critical),
        "compile.queries_ms": compile_ms["queries"],
        "compile.automaton_ms": compile_ms["automaton"],
        "compile.table_ms": compile_ms["table"],
        "compile.dense_ms": compile_ms["dense"],
        "engine.gap_over_seq": median(rows["seq_ms"]) / median(rows["proc_ms"]),
        "engine.serial_ms": median(rows["serial_ms"]),
        "engine.unattributed_frac": unattributed,
        "trace.overhead_frac": median(rows["pass_ms"]) / median(rows["serial_ms"]) - 1.0,
        "sim.speedup_2core": sim_speedup,
    }
    spans_path = os.path.join(out_dir(root), f"spans-{spec.name}-seed{seed}.json")
    spans.dump(spans_path)
    record = {
        "workload": spec.name, "seed": seed, "trace": 1,
        "documents": [len(d) for d in docs], "passes": i,
        "counts_per_pass": c,
        "spans": spans_path,
        "medians_ms": {k: median(v) for k, v in rows.items()},
    }
    return metrics, tally, record

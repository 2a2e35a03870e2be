"""Unit tests for match events and depth rebasing."""

from __future__ import annotations

import pickle
import pickletools

import pytest

from repro import GapEngine
from repro.core.kernel import DenseRunner
from repro.datasets import XMARK
from repro.stream import StreamSession
from repro.transducer import ChunkRunner
from repro.transducer.counters import WorkCounters
from repro.transducer.machine import run_sequential
from repro.transducer.mapping import SegmentEntry
from repro.xmlstream.chunking import split_chunks
from repro.xmlstream.lexer import lex, lex_range
from repro.xpath import EventKind, MatchEvent, close, hit


class TestMatchEvent:
    def test_constructors(self):
        h = hit(3, 100, 5)
        assert (h.kind, h.sid, h.offset, h.depth) == (EventKind.HIT, 3, 100, 5)
        c = close(3, 120, 5)
        assert c.kind == EventKind.CLOSE

    def test_rebased(self):
        h = hit(1, 10, -2)
        assert h.rebased(5) == hit(1, 10, 3)
        assert h.rebased(0) is h  # no-op avoids allocation

    def test_hashable_and_ordered_fields(self):
        assert len({hit(1, 2, 3), hit(1, 2, 3), close(1, 2, 3)}) == 2

    def test_negative_chunk_local_depths_allowed(self):
        # a chunk that closes elements opened before it produces
        # negative local depths; rebasing restores absolute values
        h = hit(0, 50, -3)
        assert h.rebased(10).depth == 7


class TestDepthRebasingThroughJoin:
    """End-to-end: chunk-local depths equal sequential absolute depths."""

    def test_parallel_depths_match_sequential(self):
        from repro import GapEngine, SequentialEngine
        from tests.conftest import FEED_DTD, FEED_XML

        queries = ["//id", "/feed/entry"]
        seq = SequentialEngine(queries)
        gap = GapEngine(queries, grammar=FEED_DTD)

        # compare the raw event streams, depths included
        from repro.transducer.pipeline import run_sequential_pipeline
        from repro.transducer.policies import BaselinePolicy
        from repro.transducer.pipeline import ParallelPipeline
        from repro.core.gap_transducer import GapPolicy

        seq_run = run_sequential_pipeline(FEED_XML, seq.automaton, seq.anchor_sids)
        policy = GapPolicy(gap.automaton, gap.table)
        pipe = ParallelPipeline(gap.automaton, policy, gap.anchor_sids)
        for n_chunks in (2, 3, 5, 8):
            par_run = pipe.run(FEED_XML, n_chunks)
            assert par_run.events == seq_run.events, n_chunks


def _assert_real_events(events, label):
    # a raw int kind would pass every equality check yet change the
    # repr and the journal output
    assert events, label
    for ev in events:
        assert type(ev) is MatchEvent, (label, ev)
        assert type(ev.kind) is EventKind, (label, ev)


def _entry_events(results):
    return [ev for r in results for c in r.cohorts for s in c.segments
            for e in s.entries.values() for ev in e.events]


_XMARK_QUERIES = [XMARK.queries[q] for q in ("XM1", "XM2", "XM3")]
_N_CHUNKS = 8


@pytest.fixture(scope="module")
def xmark_chunk_runs():
    """Per kernel: (engine, chunk runner, document, chunk results) of a
    speculative XMark run, chunk by chunk in process.

    The grammar is learned from another XMark document that lacks part
    of this one's structure, so the chunks misspeculate: they carry
    restart cohorts and segments with several entries.
    """
    learn = XMARK.generate(scale=1, seed=999, include_prolog=False)
    doc = XMARK.generate(scale=1, seed=1, include_prolog=False)
    runs = {}
    for kernel in ("dense", "object"):
        engine = GapEngine(_XMARK_QUERIES, kernel=kernel, n_chunks=_N_CHUNKS)
        engine.learn(learn)
        runner = engine._pipeline().chunk_runner()
        initial = frozenset((engine.automaton.initial,))
        results = [
            runner.run_chunk(list(lex_range(doc, c.begin, c.end)), c.index,
                             c.begin, c.end,
                             start_states=initial if c.index == 0 else None)
            for c in split_chunks(doc, _N_CHUNKS)
        ]
        runs[kernel] = (engine, runner, doc, results)
    return runs


class TestMatchEventContract:
    @pytest.mark.parametrize("kernel, runner_type",
                             [("dense", DenseRunner), ("object", ChunkRunner)])
    def test_chunk_kernels_build_real_events(self, xmark_chunk_runs, kernel,
                                             runner_type):
        _engine, runner, _doc, results = xmark_chunk_runs[kernel]
        assert type(runner) is runner_type
        _assert_real_events(_entry_events(results), kernel)

    def test_run_sequential_builds_real_events(self):
        engine = GapEngine(_XMARK_QUERIES)
        doc = XMARK.generate(scale=0.5, seed=2, include_prolog=False)
        res = run_sequential(engine.automaton, lex(doc), engine.anchor_sids)
        _assert_real_events(res.events, "run_sequential")

    @pytest.mark.parametrize("kernel", ["dense", "object"])
    def test_join_rebases_into_real_events(self, xmark_chunk_runs, kernel):
        engine, _runner, doc, results = xmark_chunk_runs[kernel]
        pipe = engine._pipeline()
        totals = WorkCounters()
        _state, _stack, events = pipe.join(
            (engine.automaton.initial, [], []), results,
            lambda b, e: list(lex_range(doc, b, e)), totals, strict=False)
        assert totals.misspeculations > 0
        _assert_real_events(events, kernel)
        # chunks after the first start below the root, so the join
        # rebased their chunk-local depths by a non-zero base
        local = {(ev.sid, ev.offset): ev.depth for ev in _entry_events(results[1:])}
        assert any(local.get((ev.sid, ev.offset), ev.depth) != ev.depth
                   for ev in events)
        rebased = hit(1, 2, 3).rebased(4)
        assert rebased == hit(1, 2, 7)
        _assert_real_events([rebased, close(1, 2, 3).rebased(-1)], "rebased")

    def test_stream_filter_restore_builds_real_events(self):
        doc = "<r>" + "<a><b/><c>x</c></a>" * 4 + "<a><b/>" + "<c>z</c>" * 20
        session = StreamSession(["//a[b]/c"], chunk_bytes=16)
        session.feed(doc)
        assert session._filter.pending > 0
        resumed = StreamSession(["//a[b]/c"], chunk_bytes=16)
        resumed.restore(session.snapshot())
        assert resumed._filter._pending == session._filter._pending
        _assert_real_events(resumed._filter._pending, "DeltaFilter.restore")

    def test_repr_is_pinned(self):
        assert (repr(hit(1, 2, 3))
                == "MatchEvent(kind=<EventKind.HIT: 0>, sid=1, offset=2, depth=3)")

    def test_events_are_immutable(self):
        ev = hit(1, 2, 3)
        with pytest.raises(AttributeError):
            ev.depth = 4
        with pytest.raises(AttributeError):
            ev.extra = 1

    def test_hash_and_eq_follow_the_fields(self):
        a, b = hit(1, 2, 3), MatchEvent(EventKind.HIT, 1, 2, 3)
        assert a == b and hash(a) == hash(b)
        assert a != close(1, 2, 3) and a != hit(1, 2, 4)
        assert MatchEvent(EventKind.CLOSE, 0, 5).depth == 0
        # documented edges of the tuple base: equal to its field tuple,
        # and ordered as tuples
        assert a == (EventKind.HIT, 1, 2, 3)
        assert hash(a) == hash((EventKind.HIT, 1, 2, 3))
        assert hit(1, 2, 3) < close(1, 2, 3) < close(2, 0, 0)


def _constructor_ops(blob: bytes) -> int:
    """Objects a pickle builds through a callable (REDUCE/NEWOBJ)."""
    return sum(1 for op, _arg, _pos in pickletools.genops(blob)
               if op.name in ("REDUCE", "NEWOBJ", "NEWOBJ_EX"))


class TestChunkResultWireForm:
    """Chunk results cross the process backend's boundary as pickles."""

    @pytest.mark.parametrize("kernel", ["dense", "object"])
    def test_round_trip(self, xmark_chunk_runs, kernel):
        _engine, _runner, _doc, results = xmark_chunk_runs[kernel]
        assert any(r.restarts() for r in results)
        assert any(len(s.entries) > 1
                   for r in results for c in r.cohorts for s in c.segments)
        backs = [pickle.loads(pickle.dumps(r)) for r in results]
        assert backs == results
        for e in (e for r in backs for c in r.cohorts for s in c.segments
                  for e in s.entries.values()):
            assert type(e) is SegmentEntry and type(e.events) is list
        _assert_real_events(_entry_events(backs), kernel)

    @pytest.mark.parametrize("kernel", ["dense", "object"])
    def test_events_travel_without_a_constructor_each(self, xmark_chunk_runs,
                                                      kernel):
        _engine, _runner, _doc, results = xmark_chunk_runs[kernel]
        n_events = len(_entry_events(results))
        n_objects = sum(1 + len(r.cohorts)
                        + sum(1 + len(s.entries) for c in r.cohorts for s in c.segments)
                        for r in results)
        ops = _constructor_ops(pickle.dumps(results))
        # a constructor call per entry and container, never per event
        assert ops <= 2 * n_objects < n_events

    def test_entry_cost_is_independent_of_its_events(self):
        # each EventKind member is built once per pickle, then memoised
        small = SegmentEntry([hit(0, 1, 2), close(0, 3, 2)], 3, (4,))
        large = SegmentEntry([hit(k % 3, k, k % 5) if k % 2 else close(0, k, 1)
                              for k in range(500)], 3, (4, 5))
        assert _constructor_ops(pickle.dumps(small)) == _constructor_ops(pickle.dumps(large))
        assert pickle.loads(pickle.dumps(large)) == large

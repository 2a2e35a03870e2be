"""Tests for speculative mode: learning, misspeculation, reprocessing."""

from __future__ import annotations

import pytest

from repro import GapEngine, SequentialEngine
from repro.core import GrammarLearner, empty_speculative_table
from repro.xmlstream import lex
from repro.xpath import build_automaton, parse_xpath


class TestGrammarLearner:
    def test_empty_learner_gives_empty_table(self):
        learner = GrammarLearner()
        automaton = build_automaton([(0, parse_xpath("//x"))])
        table = learner.table(automaton)
        assert not table.complete
        assert len(table) == 0

    def test_observation_accumulates(self):
        learner = GrammarLearner()
        learner.observe("<a><b>1</b></a>")
        learner.observe("<a><c>2</c></a>")
        assert learner.documents_observed == 2
        assert sorted(c.tag for c in learner.tree.root.children) == ["b", "c"]

    def test_observe_prefix_closes_open_elements(self):
        learner = GrammarLearner()
        doc = "<a>" + "<b>x</b>" * 50 + "<c>tail</c></a>"
        learner.observe_prefix(doc, 0.3)
        tags = {c.tag for c in learner.tree.root.children}
        assert "b" in tags
        assert "c" not in tags  # the tail was never observed

    def test_observe_prefix_validates_fraction(self):
        with pytest.raises(ValueError):
            GrammarLearner().observe_prefix("<a/>", 0.0)

    def test_empty_table_degrades_everything(self):
        table = empty_speculative_table()
        assert table.lookup_start("anything") is None
        assert table.lookup_end("anything") is None
        assert table.lookup_text() is None


class TestMisspeculationRecovery:
    """Construct workloads where the learned grammar is provably wrong
    and validate the reprocessing machinery end to end."""

    RECURSIVE = "<a><b><a><b><a><c>deep</c></a></b><c>mid</c></a></b><c>top</c></a>"

    def test_shallow_prior_deep_input(self):
        # prior input only 1 level deep; query doc recurses 3 levels
        engine = GapEngine(["//c", "/a/b/a/c"])
        engine.learn("<a><b><a><c>x</c></a></b><c>y</c></a>")
        expected = SequentialEngine(["//c", "/a/b/a/c"]).run(self.RECURSIVE)
        for n_chunks in range(2, 9):
            res = engine.run(self.RECURSIVE, n_chunks=n_chunks)
            assert res.offsets_by_id == expected.offsets_by_id, n_chunks

    def test_misspeculation_is_detected_and_costed(self):
        # the prior document has <w> where the real one has deep <v>
        # nesting: chunk starts inside structures the table places wrongly
        prior = "<r><w>1</w><w>2</w></r>"
        real = "<r>" + "<v><w><v><w>3</w></v></w></v>" * 6 + "</r>"
        engine = GapEngine(["//w"])
        engine.learn(prior)
        expected = SequentialEngine(["//w"]).run(real)
        res = engine.run(real, n_chunks=6)
        assert res.offsets_by_id == expected.offsets_by_id
        stats = res.stats
        # v is unknown to the table: the transducer degraded or
        # misspeculated but never returned wrong results
        assert stats.counters.degraded_lookups > 0 or stats.counters.misspeculations > 0

    def test_wrong_structure_prior_forces_reprocessing(self):
        # prior: <k> appears only under <x>.  real: <k> under <y> as well;
        # starting a chunk at such a <k> eliminates the true path.
        prior = "<r><x><k>1</k></x></r>"
        real = "<r>" + "<y><k>q</k></y><x><k>p</k></x>" * 8 + "</r>"
        engine = GapEngine(["/r/x/k", "/r/y/k"])
        engine.learn(prior)
        expected = SequentialEngine(["/r/x/k", "/r/y/k"]).run(real)
        res = engine.run(real, n_chunks=8)
        assert res.offsets_by_id == expected.offsets_by_id

    @pytest.mark.parametrize("n_chunks", [8, 16])
    def test_json_wrong_structure_prior_forces_reprocessing(self, n_chunks):
        # token-mode twin of the case above: the prior knows "k" only
        # under "x"; the real document nests it under "y" as well
        import json

        from repro.jsonstream import tokenize_json

        queries = ["/json/r/x/k", "/json/r/y/k", "//k"]
        engine = GapEngine(queries)
        engine.learn_tokens(tokenize_json('{"r":[{"x":{"k":1}}]}'))
        real = json.dumps({"r": [{"y": {"k": "q"}, "x": {"k": "p"}}] * 30})
        tokens = tokenize_json(real)
        expected = SequentialEngine(queries).run_tokens(tokens)
        res = engine.run_tokens(tokens, n_chunks=n_chunks)
        assert res.stats.counters.misspeculations > 0
        assert res.offsets_by_id == expected.offsets_by_id

    def test_accuracy_and_cost_metrics_bounded(self):
        prior = "<r><x><k>1</k></x></r>"
        real = "<r>" + "<y><k>q</k></y>" * 10 + "</r>"
        engine = GapEngine(["/r/y/k"])
        engine.learn(prior)
        res = engine.run(real, n_chunks=5)
        assert 0.0 <= res.stats.speculation_accuracy <= 1.0
        assert 0.0 <= res.stats.reprocessing_cost <= 1.0


class TestSpecNeverWrong:
    """Whatever garbage is learned, results must match the sequential run."""

    REAL = (
        "<m><p><q>1</q></p><p><r><q>2</q></r></p>"
        "<s><q>3</q><p><q>4</q></p></s><q>5</q></m>"
    )
    QUERIES = ["//q", "/m/p/q", "/m//p//q", "/m/*/q"]

    @pytest.mark.parametrize(
        "prior",
        [
            "<m><p>x</p></m>",  # knows p only as a leaf
            "<m><q>top</q></m>",  # knows q only at depth 2
            "<m><s><p><r>deep</r></p></s></m>",  # different nesting
        ],
    )
    @pytest.mark.parametrize("n_chunks", [3, 6])
    def test_correct_under_any_prior(self, prior, n_chunks):
        engine = GapEngine(self.QUERIES)
        engine.learn(prior)
        expected = SequentialEngine(self.QUERIES).run(self.REAL)
        res = engine.run(self.REAL, n_chunks=n_chunks)
        assert res.offsets_by_id == expected.offsets_by_id


class TestOnlineLearning:
    def test_run_with_learn_improves_next_run(self):
        doc = "<r>" + "<e><id>1</id><t>x</t></e>" * 30 + "</r>"
        engine = GapEngine(["/r/e/id"])
        expected = SequentialEngine(["/r/e/id"]).run(doc)

        first = engine.run(doc, n_chunks=6, learn=True)
        assert first.offsets_by_id == expected.offsets_by_id
        # the first run degraded (nothing learned yet)
        assert first.stats.counters.degraded_lookups > 0

        second = engine.run(doc, n_chunks=6)
        assert second.offsets_by_id == expected.offsets_by_id
        # the second run exploits what the first one extracted
        assert second.stats.counters.degraded_lookups == 0
        assert second.stats.avg_starting_paths < first.stats.avg_starting_paths

    def test_learn_flag_rejected_in_nonspec_mode(self):
        from tests.conftest import FEED_DTD, FEED_XML

        engine = GapEngine(["//id"], grammar=FEED_DTD)
        with pytest.raises(Exception):
            engine.run(FEED_XML, learn=True)

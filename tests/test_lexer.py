"""Unit tests for the streaming XML lexer."""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest

from repro.jsonstream import IncrementalJSONTokenizer, tokenize_json
from repro.store.codec import (decode_chunk_tokens, decode_tokens,
                               encode_chunk_tokens, encode_tokens)
from repro.stream import StreamSession
from repro.xmlstream import (
    IncrementalLexer,
    LexError,
    Token,
    TokenKind,
    end_tag,
    iter_tag_offsets,
    lex,
    lex_range,
    start_tag,
    text_token,
)


def kinds(tokens):
    return [(t.kind, t.name) for t in tokens]


class TestBasicLexing:
    def test_single_element(self):
        toks = list(lex("<a>hi</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "hi"),
            (TokenKind.END, "a"),
        ]

    def test_offsets_are_byte_positions(self):
        toks = list(lex("<a>hi</a>"))
        assert [t.offset for t in toks] == [0, 3, 5]

    def test_nested_elements(self):
        toks = list(lex("<a><b><c/></b></a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.START, "b"),
            (TokenKind.START, "c"),
            (TokenKind.END, "c"),
            (TokenKind.END, "b"),
            (TokenKind.END, "a"),
        ]

    def test_empty_element_emits_start_and_end_at_same_offset(self):
        toks = list(lex("<a><b/></a>"))
        b_toks = [t for t in toks if t.name == "b"]
        assert len(b_toks) == 2
        assert b_toks[0].offset == b_toks[1].offset == 3

    def test_whitespace_only_text_is_skipped(self):
        toks = list(lex("<a>\n  <b>x</b>\n</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.START, "b"),
            (TokenKind.TEXT, "x"),
            (TokenKind.END, "b"),
            (TokenKind.END, "a"),
        ]

    def test_attributes_are_skipped(self):
        toks = list(lex('<a id="1" href="x>y"><b a=\'2\'/></a>'))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.START, "b"),
            (TokenKind.END, "b"),
            (TokenKind.END, "a"),
        ]

    def test_empty_element_with_attributes(self):
        toks = list(lex('<a x="1"/>'))
        assert kinds(toks) == [(TokenKind.START, "a"), (TokenKind.END, "a")]


class TestProlog:
    def test_xml_declaration_and_doctype(self):
        text = '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>'
        toks = list(lex(text))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "x"),
            (TokenKind.END, "a"),
        ]

    def test_comments_skipped(self):
        toks = list(lex("<a><!-- <b>not real</b> -->x</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "x"),
            (TokenKind.END, "a"),
        ]

    def test_cdata_skipped(self):
        toks = list(lex("<a><![CDATA[<b>raw</b>]]>y</a>"))
        names = [t.name for t in toks if t.kind == TokenKind.START]
        assert names == ["a"]

    def test_processing_instruction_skipped(self):
        toks = list(lex("<a><?php echo '<b>'; ?>z</a>"))
        assert kinds(toks) == [
            (TokenKind.START, "a"),
            (TokenKind.TEXT, "z"),
            (TokenKind.END, "a"),
        ]


class TestErrors:
    def test_unterminated_start_tag(self):
        with pytest.raises(LexError):
            list(lex("<a"))

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            list(lex("<a><!-- oops</a>"))

    def test_unterminated_end_tag(self):
        with pytest.raises(LexError):
            list(lex("<a>x</a"))

    def test_empty_tag_name(self):
        with pytest.raises(LexError):
            list(lex("<>x</>"))

    def test_unterminated_attribute(self):
        with pytest.raises(LexError):
            list(lex('<a x="1><b/></a>'))

    def test_error_carries_offset(self):
        with pytest.raises(LexError) as exc:
            list(lex("<a>text<"))
        assert exc.value.offset == 7


class TestLexRange:
    DOC = "<a><b>one</b><c>two</c><d/></a>"

    def test_full_range_equals_lex(self):
        assert list(lex(self.DOC)) == list(lex_range(self.DOC, 0, len(self.DOC)))

    def test_chunked_streams_partition_token_stream(self):
        # every split at a tag boundary must partition the stream exactly
        offsets = list(iter_tag_offsets(self.DOC))
        full = list(lex(self.DOC))
        for boundary in offsets[1:]:
            left = list(lex_range(self.DOC, 0, boundary))
            right = list(lex_range(self.DOC, boundary, len(self.DOC)))
            assert left + right == full, f"split at {boundary}"

    def test_token_beginning_before_end_is_complete(self):
        # chunk boundary in the middle of a tag's span: tag belongs to
        # the chunk where it begins and is lexed in full
        doc = "<aaa>x</aaa>"
        toks = list(lex_range(doc, 0, 2))  # ends inside <aaa>
        assert kinds(toks) == [(TokenKind.START, "aaa")]


class TestIterTagOffsets:
    def test_yields_tag_positions_only(self):
        doc = "<a><!-- < --><b>x</b></a>"
        offsets = list(iter_tag_offsets(doc))
        assert offsets == [0, 13, 17, 21]
        assert all(doc[o] == "<" for o in offsets)

    def test_skips_doctype_and_pi(self):
        doc = "<?xml?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>"
        offsets = list(iter_tag_offsets(doc))
        assert [doc[o : o + 2] for o in offsets] == ["<a", "</"]


class TestTokenHelpers:
    def test_constructors(self):
        assert start_tag("x", 5) == Token(TokenKind.START, "x", 5)
        assert end_tag("x").is_end
        assert text_token("hi").is_text

    def test_predicates_are_exclusive(self):
        t = start_tag("x")
        assert t.is_start and not t.is_end and not t.is_text


# -- the token contract every producer keeps ----------------------------

_XML_DOC = '<?xml version="1.0"?><r><a x="1">hi</a><b/><!-- c --><a>yo</a></r>'
_JSON_DOC = '{"a": [1, "two", true], "b": {"c": null, "d": "x"}, "a2": {}}'


def _feed_all(tokenizer, doc, step=5):
    out = []
    for i in range(0, len(doc), step):
        out.extend(tokenizer.feed(doc[i : i + step]))
    out.extend(tokenizer.close())
    return out


@pytest.fixture(scope="module")
def producer_outputs():
    """Tokens from every producer, keyed by producer name."""
    xml = list(lex_range(_XML_DOC, 0, len(_XML_DOC)))
    json_tokens = tokenize_json(_JSON_DOC)
    # a chunk size larger than the feed keeps every token unsealed, so
    # the snapshot carries them all
    session = StreamSession(["//a"], chunk_bytes=1 << 20)
    session.feed(_XML_DOC[:-4])
    resumed = StreamSession(["//a"], chunk_bytes=1 << 20)
    resumed.restore(session.snapshot())
    return {
        "lex_range": xml,
        "IncrementalLexer": _feed_all(IncrementalLexer(), _XML_DOC),
        "tokenize_json": json_tokens,
        "IncrementalJSONTokenizer": _feed_all(IncrementalJSONTokenizer(), _JSON_DOC),
        "codec.decode_tokens": decode_tokens(encode_tokens(json_tokens)),
        "codec.decode_chunk_tokens": [
            t for run in decode_chunk_tokens(encode_chunk_tokens([xml[:3], xml[3:]]))
            for t in run
        ],
        "StreamSession.restore": resumed._tokens,
    }


class TestTokenContract:
    @pytest.mark.parametrize("producer", [
        "lex_range", "IncrementalLexer", "tokenize_json",
        "IncrementalJSONTokenizer", "codec.decode_tokens",
        "codec.decode_chunk_tokens", "StreamSession.restore",
    ])
    def test_every_producer_builds_real_tokens(self, producer, producer_outputs):
        # a raw int kind would pass every equality check yet change the
        # repr and the journal output
        tokens = producer_outputs[producer]
        assert tokens
        for t in tokens:
            assert type(t) is Token, (producer, t)
            assert type(t.kind) is TokenKind, (producer, t)
            assert type(t.name) is str and type(t.offset) is int

    def test_repr_is_pinned(self):
        assert (repr(Token(TokenKind.START, "a", 3))
                == "Token(kind=<TokenKind.START: 0>, name='a', offset=3)")

    def test_tokens_are_immutable(self):
        t = start_tag("a", 3)
        with pytest.raises(AttributeError):
            t.name = "b"
        with pytest.raises(AttributeError):
            t.extra = 1

    def test_hash_and_eq_follow_the_fields(self):
        a, b = start_tag("a", 3), Token(TokenKind.START, "a", 3)
        assert a == b and hash(a) == hash(b)
        assert a != end_tag("a", 3) and a != start_tag("a", 4)
        assert len({a, b, end_tag("a", 3)}) == 2
        # documented edge of the tuple base: equal to its field tuple
        assert a == (TokenKind.START, "a", 3)

    def test_pickle_round_trip(self):
        tokens = list(lex(_XML_DOC))
        back = pickle.loads(pickle.dumps(tokens))
        assert back == tokens
        assert all(type(t) is Token and type(t.kind) is TokenKind for t in back)


class TestNameInterning:
    def test_one_call_shares_one_string_per_name(self):
        doc = "<r>" + "<item><name>x</name></item>" * 3 + "<item/></r>"
        by_name = {}
        for t in lex_range(doc, 0, len(doc)):
            if not t.is_text:
                by_name.setdefault(t.name, []).append(t.name)
        assert sorted(by_name) == ["item", "name", "r"]
        for names in by_name.values():
            assert all(n is names[0] for n in names)

    def test_nothing_outlives_the_call(self):
        # 20k distinct tag names: a table kept past the call would hold
        # every one of them
        doc = "<r>" + "".join(f"<t{i}></t{i}>" for i in range(20_000)) + "</r>"
        list(lex("<w><v/></w>"))  # warm lazy module state, not these names
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tokens = list(lex_range(doc, 0, len(doc)))
            assert len(tokens) == 40_002
            assert tokens[1].name is tokens[2].name
            del tokens
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 20k retained names would be > 1 MB
        assert after - before < 64 * 1024, after - before

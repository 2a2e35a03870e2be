"""Incremental lexer — tokenise XML arriving in pieces.

The paper motivates on-the-fly querying with stream processing:
"process the queries on-the-fly without constructing any tree
structure ... with a constant memory requirement" (Section 2.1).  The
batch lexer needs the whole document string; this class accepts the
document in arbitrary pieces (network reads, file blocks) and yields
tokens as soon as they are complete, holding back only the unfinished
tail — so memory stays bounded by the largest single token, not the
document.

Offsets remain *global* (as if the pieces were concatenated), so
matches reported over a stream are directly comparable with batch
runs — a property the tests pin by equivalence with
:func:`repro.xmlstream.lexer.lex`.

Usage::

    lexer = IncrementalLexer()
    for piece in pieces:
        for token in lexer.feed(piece):
            ...
    for token in lexer.close():   # flush the tail, verify completeness
        ...
"""

from __future__ import annotations

from collections.abc import Callable

from .lexer import LexError, _name_end, _skip_attributes
from .tokens import Token, TokenKind

__all__ = ["IncrementalLexer"]

_new = tuple.__new__
_START, _END, _TEXT = TokenKind.START, TokenKind.END, TokenKind.TEXT


class IncrementalLexer:
    """Streaming tokeniser; see module docstring."""

    def __init__(self) -> None:
        self._buf = ""
        self._base = 0  # global offset of _buf[0]
        self._closed = False

    @property
    def buffered(self) -> int:
        """Bytes currently held back (bounded by the largest token)."""
        return len(self._buf)

    def feed(self, piece: str) -> list[Token]:
        """Consume a piece; return every token completed by it."""
        if self._closed:
            raise ValueError("feed() after close()")
        buf = self._buf + piece
        out: list[Token] = []
        # tag names interned for this call only (see lexer.lex_range)
        intern = {}.setdefault
        i = 0
        n = len(buf)
        while i < n:
            if buf[i] != "<":
                j = buf.find("<", i)
                if j == -1:
                    break  # text may continue in the next piece
                content = buf[i:j]
                if content.strip():
                    out.append(_new(Token, (_TEXT, content, self._base + i)))
                i = j
                continue
            advance = self._lex_tag(buf, i, out, intern)
            if advance is None:
                break  # construct incomplete: hold from i
            i = advance
        self._buf = buf[i:]
        self._base += i
        return out

    def close(self) -> list[Token]:
        """Flush trailing text; raise if a construct is left unfinished."""
        self._closed = True
        buf, self._buf = self._buf, ""
        if not buf:
            return []
        if buf.lstrip().startswith("<") or "<" in buf:
            raise LexError("stream ended inside a markup construct", self._base)
        if buf.strip():
            return [_new(Token, (_TEXT, buf, self._base))]
        return []

    # ------------------------------------------------------------------

    def _lex_tag(self, buf: str, i: int, out: list[Token],
                 intern: Callable[[str, str], str]) -> int | None:
        """Lex one ``<...`` construct at ``i``; None if incomplete."""
        n = len(buf)
        if i + 1 >= n:
            return None
        nxt = buf[i + 1]
        base = self._base
        if nxt == "/":
            close = buf.find(">", i + 2)
            if close == -1:
                return None
            name = buf[i + 2 : _name_end(buf, i + 2)]
            if not name:
                raise LexError("empty end-tag name", base + i)
            out.append(_new(Token, (_END, intern(name, name), base + i)))
            return close + 1
        if nxt == "!":
            return self._lex_decl(buf, i)
        if nxt == "?":
            close = buf.find("?>", i + 2)
            if close == -1:
                return None
            return close + 2
        # start tag: needs its terminating '>' in the buffer
        j = _name_end(buf, i + 1)
        name = buf[i + 1 : j]
        if j >= n:
            return None  # the name itself may continue
        if not name:
            raise LexError("empty start-tag name", base + i)
        try:
            k = _skip_attributes(buf, j)
        except LexError:
            return None  # an attribute value is split across pieces
        if k >= n:
            return None
        name = intern(name, name)
        out.append(_new(Token, (_START, name, base + i)))
        if buf[k] == "/":
            if k + 1 >= n:
                # '/' at the very end: '/>' may straddle the boundary —
                # roll back the START we just appended and wait
                out.pop()
                return None
            out.append(_new(Token, (_END, name, base + i)))
            return k + 2
        return k + 1

    def _lex_decl(self, buf: str, i: int) -> int | None:
        """``<!...`` constructs: comments, CDATA, DOCTYPE; None if split."""
        if buf.startswith("<!--", i) or "<!--".startswith(buf[i : i + 4]):
            if not buf.startswith("<!--", i):
                return None  # the '<!--' itself is split
            close = buf.find("-->", i + 4)
            return None if close == -1 else close + 3
        if buf.startswith("<![CDATA[", i) or "<![CDATA[".startswith(buf[i : i + 9]):
            if not buf.startswith("<![CDATA[", i):
                return None
            close = buf.find("]]>", i + 9)
            return None if close == -1 else close + 3
        # DOCTYPE / other declaration with possible internal subset
        depth = 0
        j = i + 2
        n = len(buf)
        while j < n:
            ch = buf[j]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                return j + 1
            j += 1
        return None

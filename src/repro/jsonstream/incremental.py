"""Incremental JSON tokeniser — the streaming twin of :func:`tokenize_json`.

The XML side has :class:`repro.xmlstream.incremental.IncrementalLexer`;
this module gives the JSON substrate the same contract: accept the
document in arbitrary pieces (network reads, file blocks), emit each
token as soon as its bytes are complete, and hold back only the
unfinished tail — memory stays bounded by the largest single scalar
token plus the structural frame stack, never the document.

The produced stream is token-for-token identical to the batch
:func:`~repro.jsonstream.tokenizer.tokenize_json` on the concatenation
of the pieces (offsets, decoded string values, array flattening, the
virtual root wrapper — everything), a property the tests pin with a
byte-split battery.  Malformed input raises the same
:class:`~repro.jsonstream.tokenizer.JSONError`, though possibly on a
later ``feed()`` than the batch scanner's single pass (a split can
delay the evidence).

Unlike the recursive batch scanner, this class keeps its parse state
explicit — a mode string, a frame stack and a pending-wrapper slot —
so :meth:`state` can snapshot it into plain JSON-safe values and
:meth:`restore` can rebuild it, which is what lets the streaming
subsystem checkpoint a live tail mid-document.

Usage::

    tok = IncrementalJSONTokenizer()
    for piece in pieces:
        for token in tok.feed(piece):
            ...
    for token in tok.close():   # finalise trailing number, emit root END
        ...
"""

from __future__ import annotations

from collections.abc import Callable

from ..xmlstream.tokens import Token, TokenKind
from .tokenizer import _NAME_RE, _NUMBER_RE, _WS, DEFAULT_ROOT, JSONError

__all__ = ["IncrementalJSONTokenizer"]

_new = tuple.__new__
_START, _END, _TEXT = TokenKind.START, TokenKind.END, TokenKind.TEXT

# Characters that can possibly extend a number token.  A maximal run of
# these is collected first, then matched against the batch scanner's
# number regex, so number/junk boundaries land exactly where the batch
# scanner puts them.
_NUMBER_CHARS = frozenset("-+.eE0123456789")

_KEYWORDS = {"t": "true", "f": "false", "n": "null"}

_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b",
            "f": "\f", "n": "\n", "r": "\r", "t": "\t"}

# An unfinished scalar/key is re-scanned from its first byte on the
# next feed; these are the modes whose buffer tail starts on a token.
_SCALAR_MODES = ("scalar_string", "scalar_run", "key_string")


class IncrementalJSONTokenizer:
    """Streaming JSON tokeniser; see module docstring."""

    def __init__(self, root_name: str = DEFAULT_ROOT) -> None:
        self.root_name = root_name
        self._buf = ""
        self._base = 0          # global offset of _buf[0]
        self._length = 0        # total bytes fed
        self._closed = False
        self._mode = "init"
        # frame stack: ("obj", end_name_or_None) | ("arr", item_name).
        # An object frame remembers the wrapper END to emit at "}"; an
        # array frame only names its items (arrays flatten, no tokens).
        self._stack: list[tuple[str, str | None]] = []
        self._pending: tuple[str, int] | None = None  # wrapper for next value
        self._wrap: str | None = None                 # wrapper END for scalar
        self._key: tuple[str, int] | None = None      # parsed key awaiting ':'

    @property
    def buffered(self) -> int:
        """Bytes currently held back (bounded by the largest token)."""
        return len(self._buf)

    @property
    def depth(self) -> int:
        """Open containers (frame-stack depth) — bounded by nesting."""
        return len(self._stack)

    # ------------------------------------------------------------------

    def feed(self, piece: str) -> list[Token]:
        """Consume a piece; return every token completed by it."""
        if self._closed:
            raise ValueError("feed() after close()")
        self._length += len(piece)
        buf = self._buf + piece
        out: list[Token] = []
        i = self._scan(buf, out, final=False)
        self._buf = buf[i:]
        self._base += i
        return out

    def close(self) -> list[Token]:
        """Finalise: complete any trailing number, emit the root END."""
        if self._closed:
            raise ValueError("close() called twice")
        self._closed = True
        out: list[Token] = []
        i = self._scan(self._buf, out, final=True)
        self._buf = self._buf[i:]
        self._base += i
        if self._mode != "end":
            if self._mode == "scalar_string" or self._mode == "key_string":
                raise JSONError("unterminated string", self._length)
            raise JSONError("unexpected end of input", self._length)
        out.append(_new(Token, (_END, self.root_name, self._length)))
        return out

    # -- state snapshot (checkpoint support) ---------------------------

    def state(self) -> dict:
        """The complete parse state as JSON-safe plain values."""
        return {
            "root": self.root_name,
            "buf": self._buf,
            "base": self._base,
            "length": self._length,
            "closed": self._closed,
            "mode": self._mode,
            "stack": [list(frame) for frame in self._stack],
            "pending": list(self._pending) if self._pending else None,
            "wrap": self._wrap,
            "key": list(self._key) if self._key else None,
        }

    @classmethod
    def restore(cls, state: dict) -> "IncrementalJSONTokenizer":
        """Rebuild a tokenizer from a :meth:`state` snapshot."""
        tok = cls(state["root"])
        tok._buf = state["buf"]
        tok._base = state["base"]
        tok._length = state["length"]
        tok._closed = state["closed"]
        tok._mode = state["mode"]
        tok._stack = [(kind, name) for kind, name in state["stack"]]
        tok._pending = tuple(state["pending"]) if state["pending"] else None
        tok._wrap = state["wrap"]
        tok._key = tuple(state["key"]) if state["key"] else None
        return tok

    # ------------------------------------------------------------------

    def _scan(self, buf: str, out: list[Token], final: bool) -> int:
        """Consume as much of ``buf`` as possible; return the stop index.

        The loop dispatches on ``self._mode``; a handler that cannot
        complete (token straddles the buffer end) leaves ``i`` on the
        token's first byte so the next feed re-scans it.
        """
        i = 0
        n = len(buf)
        # member keys interned for this call only: every START/END of
        # one key in the call shares one string
        intern = {}.setdefault
        while True:
            mode = self._mode
            if mode in _SCALAR_MODES:
                j = self._scan_token(buf, i, out, final, intern)
                if j is None:
                    return i
                i = j
                continue
            # every other mode starts by skipping whitespace to a char
            while i < n and buf[i] in _WS:
                i += 1
            if i >= n:
                return i
            ch = buf[i]
            at = self._base + i
            if mode == "init":
                out.append(_new(Token, (_START, self.root_name, at)))
                self._mode = "value"
                self._pending = None
            elif mode == "value":
                i = self._begin_value(buf, i, out)
            elif mode in ("arr_first", "arr_item"):
                if ch == "]" and mode == "arr_first":
                    self._stack.pop()  # arrays flatten: no tokens
                    self._after_value()
                    i += 1
                else:
                    name = self._stack[-1][1]
                    self._pending = (name, at)
                    self._mode = "value"
            elif mode in ("obj_first", "obj_key"):
                if ch == "}" and mode == "obj_first":
                    self._close_object(at + 1, out)
                    i += 1
                elif ch == '"':
                    self._mode = "key_string"
                else:
                    raise JSONError("expected a string key", at)
            elif mode == "obj_colon":
                if ch != ":":
                    raise JSONError("expected ':' after key", at)
                self._pending = self._key
                self._key = None
                self._mode = "value"
                i += 1
            elif mode == "obj_sep":
                if ch == ",":
                    self._mode = "obj_key"
                elif ch == "}":
                    self._close_object(at + 1, out)
                else:
                    raise JSONError("expected ',' or '}' in object", at)
                i += 1
            elif mode == "arr_sep":
                if ch == ",":
                    self._mode = "arr_item"
                elif ch == "]":
                    self._stack.pop()
                    self._after_value()
                else:
                    raise JSONError("expected ',' or ']' in array", at)
                i += 1
            else:  # "end": only trailing whitespace is legal
                raise JSONError("trailing characters after the document", at)

    def _begin_value(self, buf: str, i: int, out: list[Token]) -> int:
        """Dispatch on a value's first byte (``i`` is on a non-ws char)."""
        ch = buf[i]
        at = self._base + i
        pending, self._pending = self._pending, None
        if ch == "[":
            # arrays flatten: one wrapper per item, none for the array
            name = pending[0] if pending else self.root_name
            self._stack.append(("arr", name))
            self._mode = "arr_first"
            return i + 1
        if pending is not None:
            out.append(_new(Token, (_START, pending[0], pending[1])))
        self._wrap = pending[0] if pending else None
        if ch == "{":
            self._stack.append(("obj", self._wrap))
            self._mode = "obj_first"
            return i + 1
        if ch == '"':
            self._mode = "scalar_string"
        elif ch in _NUMBER_CHARS or ch in _KEYWORDS:
            self._mode = "scalar_run"
        else:
            raise JSONError(f"unexpected character {ch!r}", at)
        return i  # scalar modes re-dispatch from the token's first byte

    def _scan_token(self, buf: str, i: int, out: list[Token], final: bool,
                    intern: Callable[[str, str], str]) -> int | None:
        """Scan the held scalar/key starting at ``i``; None = incomplete."""
        if self._mode == "scalar_run":
            return self._scan_run(buf, i, out, final)
        res = self._scan_string(buf, i)
        if res is None:
            return None  # incomplete; close() reports unterminated strings
        decoded, j = res
        at = self._base + i
        if self._mode == "key_string":
            if not _NAME_RE.match(decoded):
                raise JSONError(
                    f"member key {decoded!r} is not usable as an element name",
                    at,
                )
            self._key = (intern(decoded, decoded), at)
            self._mode = "obj_colon"
            return j
        if decoded.strip():
            out.append(_new(Token, (_TEXT, decoded, at + 1)))
        self._finish_scalar(self._base + j, out)
        return j

    def _scan_run(self, buf: str, i: int, out: list[Token],
                  final: bool) -> int | None:
        """A number or keyword: collect the maximal run, then decide."""
        at = self._base + i
        word = _KEYWORDS.get(buf[i])
        if word is not None:
            end = i + len(word)
            if end > len(buf):
                if final or buf[i:] != word[: len(buf) - i]:
                    raise JSONError(f"unexpected character {buf[i]!r}", at)
                return None  # a keyword prefix may complete next feed
            if buf[i:end] != word:
                raise JSONError(f"unexpected character {buf[i]!r}", at)
            if word != "null":  # null maps to an empty element: no TEXT
                out.append(_new(Token, (_TEXT, word, at)))
            self._finish_scalar(self._base + end, out)
            return end
        j = i
        n = len(buf)
        while j < n and buf[j] in _NUMBER_CHARS:
            j += 1
        if j == n and not final:
            return None  # more digits may follow
        m = _NUMBER_RE.match(buf, i)
        if m is None or m.start() != i:
            raise JSONError(f"unexpected character {buf[i]!r}", at)
        out.append(_new(Token, (_TEXT, m.group(), at)))
        # any leftover run bytes (e.g. "1.2.3") re-enter as a separator
        # position, failing exactly where the batch scanner fails
        self._finish_scalar(self._base + m.end(), out)
        return m.end()

    def _scan_string(self, buf: str, i: int) -> tuple[str, int] | None:
        """Decode the string starting at ``buf[i]`` (a quote); None if
        the closing quote has not arrived yet."""
        i += 1
        parts: list[str] = []
        start = i
        n = len(buf)
        while i < n:
            ch = buf[i]
            if ch == '"':
                parts.append(buf[start:i])
                return "".join(parts), i + 1
            if ch == "\\":
                parts.append(buf[start:i])
                if i + 1 >= n:
                    return None
                esc = buf[i + 1]
                if esc in _ESCAPES:
                    parts.append(_ESCAPES[esc])
                    i += 2
                elif esc == "u":
                    if i + 6 > n:
                        return None
                    try:
                        parts.append(chr(int(buf[i + 2 : i + 6], 16)))
                    except ValueError:
                        raise JSONError(
                            "invalid \\u escape", self._base + i) from None
                    i += 6
                else:
                    raise JSONError(f"invalid escape \\{esc}", self._base + i)
                start = i
            else:
                i += 1
        return None

    # ------------------------------------------------------------------

    def _finish_scalar(self, pos: int, out: list[Token]) -> None:
        if self._wrap is not None:
            out.append(_new(Token, (_END, self._wrap, pos)))
            self._wrap = None
        self._after_value()

    def _close_object(self, pos: int, out: list[Token]) -> None:
        name = self._stack.pop()[1]
        if name is not None:
            out.append(_new(Token, (_END, name, pos)))
        self._after_value()

    def _after_value(self) -> None:
        if not self._stack:
            self._mode = "end"
        elif self._stack[-1][0] == "obj":
            self._mode = "obj_sep"
        else:
            self._mode = "arr_sep"

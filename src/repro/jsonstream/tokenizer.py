"""JSON → token stream: querying JSON with the same transducers.

The paper's scope is *semi-structured data*: "Semi-structured data,
like XML and JSON, is widely used ..." (Section 1), with JSON Schema
called out as the grammar mechanism (reference [15]).  This module
maps JSON documents onto the exact token vocabulary the pushdown
transducers consume, so every engine — sequential, PP-Transducer,
GAP, speculative GAP with learned grammars — queries JSON unchanged:

* an object member ``"k": value`` becomes ``START(k) … END(k)``;
* an array member ``"k": [v1, v2]`` flattens to one ``START(k)/END(k)``
  pair *per item* (the standard JSON↔XML correspondence: repetition is
  expressed by the member repeating, matching DTD ``k*``).  Nested
  arrays flatten under the same name;
* scalars become TEXT; the whole document is wrapped in a virtual root
  element (default name ``json``), since JSON has no document element.

Offsets are byte positions into the JSON text: a member's START sits
on its key's opening quote, an array item's START on the item's first
character — unique among STARTs and document-ordered, so match
identity and the filter phase's interval logic carry over.  END tokens
use the position *one past* the value.  Offsets are non-decreasing;
the only ties are a wrapper START with its own scalar TEXT (bare
scalar array items / roots), which the token-mode pipeline's boundary
placement accounts for.

So that XPath queries can name members, keys must be query-compatible
names (``[A-Za-z_][\\w.-]*``); a document with other keys raises
:class:`JSONError` (mapping arbitrary keys is an escaping policy, out
of scope).
"""

from __future__ import annotations

import re

from ..xmlstream.tokens import Token, TokenKind

__all__ = ["JSONError", "tokenize_json", "json_value_at", "DEFAULT_ROOT"]

DEFAULT_ROOT = "json"

_NAME_RE = re.compile(r"[A-Za-z_][\w.\-]*\Z")
_WS = " \t\r\n"
_NUMBER_RE = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?")

_new = tuple.__new__
_START, _END, _TEXT = TokenKind.START, TokenKind.END, TokenKind.TEXT


class JSONError(ValueError):
    """Raised on malformed JSON or keys unusable as element names."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def tokenize_json(text: str, root_name: str = DEFAULT_ROOT) -> list[Token]:
    """Tokenise a JSON document (see module docstring for the mapping)."""
    scanner = _Scanner(text)
    out: list[Token] = [_new(Token, (_START, root_name, scanner.skip_ws()))]
    scanner.value(root_name, out, emit_wrapper=False)
    end = scanner.skip_ws_to_end()
    out.append(_new(Token, (_END, root_name, end)))
    return out


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        # member keys interned for this scanner only: every START/END
        # of one key shares one string
        self.intern = {}.setdefault

    def error(self, message: str) -> JSONError:
        return JSONError(message, self.pos)

    def skip_ws(self) -> int:
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i] in _WS:
            i += 1
        self.pos = i
        if i >= n:
            raise self.error("unexpected end of input")
        return i

    def skip_ws_to_end(self) -> int:
        """After the root value: only whitespace may remain."""
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i] in _WS:
            i += 1
        if i != n:
            self.pos = i
            raise self.error("trailing characters after the document")
        return i

    # ------------------------------------------------------------------

    def value(self, name: str, out: list[Token], emit_wrapper: bool, wrapper_at: int = -1) -> None:
        """Scan one value; optionally wrapped in START/END ``name`` tokens.

        ``wrapper_at`` is the offset for the START token (the key's
        quote for members, the item start for array items).
        """
        i = self.skip_ws()
        ch = self.text[i]
        if ch == "[":
            # arrays flatten: one wrapper per item, no wrapper for the
            # array itself
            self.pos = i + 1
            j = self.skip_ws()
            if self.text[j] == "]":
                self.pos = j + 1
                return
            while True:
                item_at = self.skip_ws()
                self.value(name, out, emit_wrapper=True, wrapper_at=item_at)
                j = self.skip_ws()
                if self.text[j] == ",":
                    self.pos = j + 1
                    continue
                if self.text[j] == "]":
                    self.pos = j + 1
                    return
                raise self.error("expected ',' or ']' in array")

        if emit_wrapper:
            out.append(_new(Token, (_START, name, wrapper_at if wrapper_at >= 0 else i)))

        if ch == "{":
            self.pos = i + 1
            self._object(out)
        elif ch == '"':
            start = i
            content = self._string()
            if content.strip():
                out.append(_new(Token, (_TEXT, content, start + 1)))
        elif self.text.startswith("true", i):
            self.pos = i + 4
            out.append(_new(Token, (_TEXT, "true", i)))
        elif self.text.startswith("false", i):
            self.pos = i + 5
            out.append(_new(Token, (_TEXT, "false", i)))
        elif self.text.startswith("null", i):
            self.pos = i + 4
        else:
            m = _NUMBER_RE.match(self.text, i)
            if m is None:
                raise self.error(f"unexpected character {ch!r}")
            self.pos = m.end()
            out.append(_new(Token, (_TEXT, m.group(), i)))

        if emit_wrapper:
            out.append(_new(Token, (_END, name, self.pos)))

    def _object(self, out: list[Token]) -> None:
        j = self.skip_ws()
        if self.text[j] == "}":
            self.pos = j + 1
            return
        while True:
            key_at = self.skip_ws()
            if self.text[key_at] != '"':
                raise self.error("expected a string key")
            key = self._string()
            if not _NAME_RE.match(key):
                raise JSONError(
                    f"member key {key!r} is not usable as an element name", key_at
                )
            key = self.intern(key, key)
            j = self.skip_ws()
            if self.text[j] != ":":
                raise self.error("expected ':' after key")
            self.pos = j + 1
            self.value(key, out, emit_wrapper=True, wrapper_at=key_at)
            j = self.skip_ws()
            if self.text[j] == ",":
                self.pos = j + 1
                continue
            if self.text[j] == "}":
                self.pos = j + 1
                return
            raise self.error("expected ',' or '}' in object")

    def _string(self) -> str:
        """Scan a JSON string starting at ``self.pos`` (on the quote)."""
        text = self.text
        i = self.pos
        assert text[i] == '"'
        i += 1
        parts: list[str] = []
        start = i
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == '"':
                parts.append(text[start:i])
                self.pos = i + 1
                return "".join(parts)
            if ch == "\\":
                parts.append(text[start:i])
                if i + 1 >= n:
                    break
                esc = text[i + 1]
                simple = {'"': '"', "\\": "\\", "/": "/", "b": "\b",
                          "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
                if esc in simple:
                    parts.append(simple[esc])
                    i += 2
                elif esc == "u":
                    if i + 6 > n:
                        break
                    try:
                        parts.append(chr(int(text[i + 2 : i + 6], 16)))
                    except ValueError:
                        self.pos = i
                        raise self.error("invalid \\u escape") from None
                    i += 6
                else:
                    self.pos = i
                    raise self.error(f"invalid escape \\{esc}")
                start = i
            else:
                i += 1
        self.pos = i
        raise self.error("unterminated string")


def json_value_at(text: str, offset: int, max_len: int = 200) -> str:
    """Decode the raw JSON value at a match offset.

    ``offset`` is a match position as reported by the engines: either a
    member's key quote or an array item's first character.  Returns the
    value's source text (truncated to ``max_len``).
    """
    scanner = _Scanner(text)
    scanner.pos = offset
    i = scanner.skip_ws()
    if text[i] == '"':
        # could be a key (followed by ':') or a string item
        scanner._string()
        j = scanner.pos
        while j < len(text) and text[j] in _WS:
            j += 1
        if j < len(text) and text[j] == ":":
            scanner.pos = j + 1
            start = scanner.skip_ws()
            sink: list[Token] = []
            scanner.value("_", sink, emit_wrapper=False)
            return text[start : scanner.pos][:max_len]
        return text[i : scanner.pos][:max_len]
    sink = []
    scanner.pos = i
    scanner.value("_", sink, emit_wrapper=False)
    return text[i : scanner.pos][:max_len]

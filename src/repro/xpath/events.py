"""Match events — the output-tape alphabet Δ of the transducers.

Every transducer variant (sequential, PP-Transducer, GAP, speculative
GAP) writes the same event vocabulary to its output tape:

* ``HIT(sid, offset, depth)`` — sub-query ``sid`` matched the element
  whose start tag is at ``offset``, nested at element ``depth``;
* ``CLOSE(sid, offset, depth)`` — the element previously opened as an
  *anchor* match of ``sid`` just closed; ``offset`` is the end tag's
  offset.

HIT events of anchor sub-queries open an interval that the matching
CLOSE event terminates; the filter phase pairs them back up (per sid,
with a stack — element spans of one sub-query always nest properly or
are disjoint).  Events are totally ordered by their token offset, which
is global across chunks, so the join phase simply concatenates the
per-chunk output tapes.

Depths make predicate joins *structural*: a child-axis predicate path
of length L relates a hit at depth d to the anchor instance at exactly
depth d−L on its ancestor chain, so self-nesting anchor elements are
resolved correctly.  A worker processing a chunk cannot know absolute
depths (they depend on the unknown incoming stack), so it records
depths relative to the chunk start — possibly negative after underflow
pops — and the join phase, which carries the concrete stack, rebases
each chunk's events by the incoming stack height
(:func:`MatchEvent.rebased`).

Representation.  An event is a :class:`typing.NamedTuple`: immutable
and hashable.  :func:`hit`, :func:`close` and :meth:`MatchEvent.rebased`
skip its Python-level ``__new__`` and build each event with
``tuple.__new__(MatchEvent, (kind, sid, offset, depth))``, one C call.
The kernels and the sequential runner build events through
:func:`hit`/:func:`close`, and the join's rebase builds them the same
way.  Chunk results cross the process boundary as pickles, where an
event on its own would cost its class's Python-level pickle protocol;
the segment entries that hold events ship them as one flat tuple of
fields instead (see :class:`repro.transducer.mapping.SegmentEntry`).
Field reads go through the tuple's field getters, which CPython 3.11
does not specialise as it does ``__slots__`` reads, so the loops that
read every event unpack it instead (see ``docs/PERFORMANCE.md``).  One
consequence of the tuple base: an event compares equal to the plain
tuple of its fields, and events are ordered as tuples.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["EventKind", "MatchEvent", "hit", "close"]


class EventKind(enum.IntEnum):
    HIT = 0
    CLOSE = 1


_HIT = EventKind.HIT
_CLOSE = EventKind.CLOSE
_new = tuple.__new__


class MatchEvent(NamedTuple):
    """One entry on a transducer's output tape."""

    kind: EventKind
    sid: int
    offset: int
    depth: int = 0

    def rebased(self, base: int) -> "MatchEvent":
        """This event with ``base`` added to its (chunk-local) depth."""
        if base == 0:
            return self
        kind, sid, offset, depth = self
        return _new(MatchEvent, (kind, sid, offset, depth + base))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        word = "hit" if self.kind == EventKind.HIT else "close"
        return f"{word}(sub={self.sid}, @{self.offset}, d={self.depth})"


def hit(sid: int, offset: int, depth: int = 0) -> MatchEvent:
    return _new(MatchEvent, (_HIT, sid, offset, depth))


def close(sid: int, offset: int, depth: int = 0) -> MatchEvent:
    return _new(MatchEvent, (_CLOSE, sid, offset, depth))

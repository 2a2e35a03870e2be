"""Filter phase — apply predicate logic to the joined event stream.

The paper's pipeline runs an "additional filtering phase ... to enhance
the expressiveness of the transducers (e.g., to handle predicates in
XPath queries)" after the join (Section 2.3).  This module is that
phase.  It is sequential but cheap: one sweep over the event list per
query set, with per-anchor interval forests built once.

Inputs:

* the :class:`~repro.xpath.rewrite.CompiledQuery` structures (with
  global sub-query ids from a shared registry),
* the document-ordered list of
  :class:`~repro.xpath.events.MatchEvent` produced by any transducer,
  with absolute element depths (the join phase rebases chunk-local
  depths).

Output: per query, the sorted offsets of its final matches.

Join semantics (see :mod:`repro.xpath.rewrite` for how terms are
produced):

* a ``SAME`` term holds for an anchor interval iff the term's sub-query
  hits the interval's exact start offset — the rewritten path ends *at*
  the anchor element, so offset equality pins identity;
* an ``INSIDE`` term binds each hit to anchor instances on its ancestor
  chain using containment **and element depth**: a child-axis-only
  predicate path of length L relates the hit to the unique enclosing
  anchor exactly L levels up (``exact``); a path with descendant axes
  relates it to every enclosing anchor at least ``min_delta`` levels up
  (sound and exact for single-step descendant predicates, which are
  monotone; longer mixed chains may over-approximate on data where the
  same element name is both an anchor and an intermediate step — none
  of the benchmark queries do this);
* a candidate match of the main sub-query is accepted iff, for every
  anchor of its alternative, some depth-compatible enclosing anchor
  instance satisfies the anchor's boolean expression.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .events import EventKind, MatchEvent
from .rewrite import (
    AnchorSpec,
    AndExpr,
    BoolExpr,
    CompiledQuery,
    ConstExpr,
    JoinMode,
    NotExpr,
    OrExpr,
    Term,
)

__all__ = ["FilterError", "IntervalForest", "apply_filters", "collect_events"]


class FilterError(ValueError):
    """Raised when the event stream is inconsistent (unbalanced anchors)."""


@dataclass(slots=True)
class IntervalForest:
    """The element spans of one anchor sub-query, with nesting links.

    ``starts``/``ends``/``depths`` are parallel arrays sorted by start
    offset; ``parents[i]`` is the index of the nearest enclosing
    interval of interval ``i`` (or ``-1``).  Because element spans of a
    tree nest properly, the rightmost interval starting before an
    offset, chased through ``parents`` until containment, is the
    nearest enclosing interval — an O(log n + nesting) query; ancestor
    anchors beyond it are reached by continuing up the parent chain.
    """

    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)

    @classmethod
    def from_events(cls, events: Iterable[tuple[EventKind, int, int]]) -> "IntervalForest":
        """Pair HIT/CLOSE events (in document order) into spans.

        Events are ``(kind, offset, depth)`` triples.
        """
        forest = cls()
        stack: list[int] = []
        order: list[tuple[int, int, int, int]] = []  # start, end, depth, parent
        for kind, offset, depth in events:
            if kind == EventKind.HIT:
                parent_idx = stack[-1] if stack else -1
                idx = len(order)
                order.append((offset, -1, depth, parent_idx))
                stack.append(idx)
            else:
                if not stack:
                    raise FilterError(f"anchor CLOSE at {offset} without a matching open")
                idx = stack.pop()
                start, _, depth, parent_idx = order[idx]
                order[idx] = (start, offset, depth, parent_idx)
        if stack:
            raise FilterError("anchor interval left open at end of stream")
        # HIT events arrive in increasing start order: already sorted
        for start, end, depth, parent_idx in order:
            forest.starts.append(start)
            forest.ends.append(end)
            forest.depths.append(depth)
            forest.parents.append(parent_idx)
        return forest

    def __len__(self) -> int:
        return len(self.starts)

    def nearest_enclosing(self, offset: int, allow_equal: bool) -> int:
        """Index of the nearest interval containing ``offset``; -1 if none.

        ``allow_equal`` accepts an interval whose start equals
        ``offset`` (the anchor *is* the candidate element).
        """
        hi = bisect_right(self.starts, offset) if allow_equal else bisect_left(self.starts, offset)
        idx = hi - 1
        while idx >= 0:
            if self.ends[idx] > offset or (allow_equal and self.starts[idx] == offset):
                return idx
            idx = self.parents[idx]
        return -1

    def enclosing_chain(self, offset: int, allow_equal: bool) -> Iterable[int]:
        """Indices of all intervals containing ``offset``, innermost first."""
        idx = self.nearest_enclosing(offset, allow_equal)
        while idx >= 0:
            yield idx
            idx = self.parents[idx]


def collect_events(
    events: Iterable[MatchEvent],
) -> tuple[dict[int, list[tuple[int, int]]], dict[int, "IntervalForest"]]:
    """Bucket an ordered event stream per sub-query.

    Returns ``(hits, forests)``: per sid the ``(offset, depth)`` hits
    (in document order) and, for sids with CLOSE events (anchors), the
    interval forests.  Anchor sids appear in *both* — an anchor's HIT
    offsets also serve SAME joins and anchors that double as main
    queries.
    """
    hits: dict[int, list[tuple[int, int]]] = {}
    anchor_events: dict[int, list[tuple[EventKind, int, int]]] = {}
    HIT, CLOSE = EventKind.HIT, EventKind.CLOSE
    # unpacking reads an event's fields faster than its NamedTuple getters
    for kind, sid, offset, depth in events:
        if kind == HIT:
            per_sid = hits.get(sid)
            if per_sid is None:
                per_sid = hits[sid] = []
            per_sid.append((offset, depth))
            opened = anchor_events.get(sid)
            if opened is not None:
                opened.append((HIT, offset, depth))
        else:
            opened = anchor_events.get(sid)
            if opened is None:
                # late discovery: replay the hits seen so far as opens
                opened = anchor_events[sid] = [
                    (HIT, o, d) for o, d in hits.get(sid, [])
                ]
            opened.append((CLOSE, offset, depth))
    forests = {sid: IntervalForest.from_events(evs) for sid, evs in anchor_events.items()}
    return hits, forests


def apply_filters(
    queries: list[CompiledQuery],
    events: Iterable[MatchEvent],
    anchor_sids: frozenset[int] = frozenset(),
    decoder: Callable[[int], str] | None = None,
) -> dict[int, list[int]]:
    """Run the filter phase; return query_id → sorted match offsets.

    ``anchor_sids`` lets callers pre-declare anchors so that an anchor
    with zero CLOSE events (element never matched) still gets an empty
    forest instead of being mistaken for a plain sub-query.

    ``decoder`` maps a match offset to the element's text content; it
    is required (and lazily invoked, memoised per offset) only when a
    query carries value predicates (``[a = 'x']``).
    """
    hits, forests = collect_events(events)
    for sid in anchor_sids:
        forests.setdefault(sid, IntervalForest())
    decode = _memoised(decoder)

    results: dict[int, list[int]] = {}
    for cq in queries:
        matched: set[int] = set()
        for alt in cq.alternatives:
            candidates = hits.get(alt.main_sid, [])
            if not alt.anchors:
                matched.update(o for o, _d in candidates)
                continue
            verdicts = [
                (spec, _anchor_verdicts(spec.expr, forests.get(spec.anchor_sid), hits, decode))
                for spec in alt.anchors
            ]
            for offset, depth in candidates:
                ok = True
                for spec, per_interval in verdicts:
                    forest = forests.get(spec.anchor_sid)
                    if forest is None or not _candidate_ok(
                        spec, forest, per_interval, offset, depth
                    ):
                        ok = False
                        break
                if ok:
                    matched.add(offset)
        results[cq.query_id] = sorted(matched)
    return results


def _candidate_ok(
    spec: AnchorSpec,
    forest: IntervalForest,
    per_interval: list[bool],
    offset: int,
    depth: int,
) -> bool:
    """Does a depth-compatible, satisfied anchor instance enclose the
    candidate?"""
    if not len(forest):
        return False
    allow_equal = spec.main_min_delta == 0
    if spec.main_exact:
        target = depth - spec.main_min_delta
        for idx in forest.enclosing_chain(offset, allow_equal):
            d = forest.depths[idx]
            if d == target:
                return per_interval[idx]
            if d < target:
                return False  # depths strictly decrease up the chain
        return False
    limit = depth - spec.main_min_delta
    for idx in forest.enclosing_chain(offset, allow_equal):
        if forest.depths[idx] <= limit and per_interval[idx]:
            return True
    return False


def _memoised(decoder: Callable[[int], str] | None):
    if decoder is None:
        def missing(offset: int) -> str:
            raise FilterError(
                "this query uses value predicates, but the engine supplied "
                "no text decoder for match offsets"
            )
        return missing
    cache: dict[int, str] = {}

    def decode(offset: int) -> str:
        got = cache.get(offset)
        if got is None:
            got = cache[offset] = decoder(offset)
        return got

    return decode


def _anchor_verdicts(
    expr: BoolExpr,
    forest: IntervalForest | None,
    hits: dict[int, list[tuple[int, int]]],
    decode: Callable[[int], str],
) -> list[bool]:
    """Evaluate ``expr`` for every interval of ``forest``."""
    if forest is None or not len(forest):
        return []
    n = len(forest)

    def eval_expr(e: BoolExpr) -> list[bool]:
        if isinstance(e, ConstExpr):
            return [e.value] * n
        if isinstance(e, Term):
            offsets = hits.get(e.sid, [])
            if e.literal is not None:
                want = e.literal
                if e.negate:
                    offsets = [(o, d) for o, d in offsets if decode(o) != want]
                else:
                    offsets = [(o, d) for o, d in offsets if decode(o) == want]
            return _term_verdicts(e, forest, offsets)
        if isinstance(e, AndExpr):
            cols = [eval_expr(p) for p in e.parts]
            return [all(col[i] for col in cols) for i in range(n)]
        if isinstance(e, OrExpr):
            cols = [eval_expr(p) for p in e.parts]
            return [any(col[i] for col in cols) for i in range(n)]
        if isinstance(e, NotExpr):
            inner = eval_expr(e.part)
            return [not v for v in inner]
        raise TypeError(f"unknown filter expression {e!r}")  # pragma: no cover

    return eval_expr(expr)


def _term_verdicts(
    term: Term, forest: IntervalForest, offsets: list[tuple[int, int]]
) -> list[bool]:
    out = [False] * len(forest)
    if term.mode == JoinMode.SAME:
        starts = forest.starts
        for o, _d in offsets:
            lo = bisect_left(starts, o)
            hi = bisect_right(starts, o)
            for idx in range(lo, hi):
                out[idx] = True
        return out

    # INSIDE: bind each hit to depth-compatible enclosing anchors
    if term.exact:
        for o, d in offsets:
            target = d - term.min_delta
            for idx in forest.enclosing_chain(o, allow_equal=False):
                dd = forest.depths[idx]
                if dd == target:
                    out[idx] = True
                    break
                if dd < target:
                    break
    else:
        limit_delta = term.min_delta
        for o, d in offsets:
            limit = d - limit_delta
            for idx in forest.enclosing_chain(o, allow_equal=False):
                if forest.depths[idx] <= limit:
                    out[idx] = True
    return out

"""The ``service-mix`` workload: ``repro serve`` under a closed-loop mix.

The daemon runs as a subprocess on a loopback port with its shipped
defaults and no artifact store.  Two client threads, one
``QueryClient`` each, each wait for every reply before sending the
next request.  The clients share one seeded order of operation types
and take each operation together (see :class:`Lockstep`).  Operations
come in shuffled blocks of 20:

* 16 queries against pre-registered documents (four XMark documents of
  about 115 KB with their inline DTD, one tweet-shaped JSON document
  with its schema).  A query sends one of its document's 16 requests
  of 1-3 XPaths.  Every reply is checked against a sequential run of
  the same XPaths on the same text.  The first requests of each pool
  are also run through an in-process ``SequentialEngine``, half before
  the window and half after it, and compared with the daemon's replies
  (a second oracle, and the timing of the sequential baseline);
* 3 append operations, each eight consecutive 4 KiB appends to the
  client's own DBLP stream (64 KiB sealing, so about one append in
  sixteen seals and evaluates); at the end the stream is closed on a
  record boundary and finalized, and the union of its deltas must
  equal a batch run over the appended bytes;
* 1 ingest operation: four ingests of a fresh XMark document, each
  followed by deleting the client's oldest ingested document.

The daemon is pinned to one processor and the clients to another;
every time is scaled by the daemon processor's calibration probes
(see :class:`common.Calibration`).  Per-layer numbers come from
``/varz`` snapshots taken before and after the window and from the
clients' own timings.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import threading
import time

from batch import XMARK3
from common import (Calibration, Tally, clock, cpus, median, ms, out_dir, pin,
                    tail, vm_hwm_mb)

from repro import SequentialEngine
from repro.datasets import DBLP, XMARK, generate_query_set
from repro.jsonstream import tokenize_json
from repro.service.client import QueryClient, ServiceError
from repro.xmlstream.lexer import lex
from repro.xmlstream.tokens import TokenKind

NAME = "service-mix"
CLIENTS = 2
#: requests per document.  Five documents give 80 distinct requests
#: against the service's 32 warm engines, so about 40% of requests
#: find a warm engine and the others compile one.
POOL = 16
#: seed of the per-document XPaths and request pools (the same in every run)
POOL_SEED = 0
N_XMARK = 4
#: about 120 KB with all three continents (see ``batch.XMARK3``)
XMARK_SCALE = 13
APPEND_BYTES = 4096
#: DBLP stream text per client (about 1.9 MB), 2.5 times what a
#: 30-second window appended when measured; a client whose text runs
#: out sends a query instead
STREAM_SCALE = 400
SETUP_REPS = 5
#: each client's operations come in blocks of 20, shuffled: 16
#: queries, 3 append operations and 1 ingest operation (80/15/5), so
#: every run has the same shares and only their order varies
BLOCK = ("query",) * 16 + ("append",) * 3 + ("ingest",)
#: an append operation sends this many consecutive 4 KiB appends, and an
#: ingest operation this many ingests (each followed by a delete), one
#: request each.  Operations keep the 80/15/5 shares; the bursts give
#: the append and ingest medians enough samples in one window, and put
#: more than ten seals in it, so the append tail lies among seals.
APPEND_BURST = 8
INGEST_BURST = 4
#: requests per document re-run through an in-process SequentialEngine
#: (the first of each pool): the oracle sample and the ``seq_p50_ms``
#: timing, the same requests in every run
SEQ_PER_DOC = 10
#: pause between those runs, so the sample spans several seconds of
#: host time rather than one stretch of it.  (Re-running inside the
#: window instead would leave the daemon idle while a client computes,
#: which moves the other client's append latencies.)
SEQ_PAUSE_S = 0.1
#: while the clients run, the main thread probes the host's speed this
#: often (a probe holds the interpreter lock for about 3 ms per
#: processor, so the clients' replies rarely wait behind one)
PROBE_EVERY_S = 0.5

#: the daemon runs on one processor (its threads share one interpreter
#: lock, so it uses about one anyway) and the clients on another, so
#: the calibration probes of the daemon's processor time its requests
SERVER = cpus()[-1:]
HOME = cpus()[:1]

STREAM_QUERIES = [DBLP.queries[q] for q in ("DP1", "DP2", "DP3", "DP4")]

TWEET_SCHEMA = json.dumps({
    "type": "object",
    "properties": {"statuses": {"type": "array", "items": {
        "type": "object",
        "properties": {
            "id": {"type": "integer"},
            "text": {"type": "string"},
            "lang": {"type": "string"},
            "user": {"type": "object", "properties": {
                "screen_name": {"type": "string"},
                "followers": {"type": "integer"},
                "verified": {"type": "boolean"},
            }},
            "entities": {"type": "object", "properties": {
                "hashtags": {"type": "array", "items": {"type": "string"}},
                "urls": {"type": "array", "items": {"type": "string"}},
                "mentions": {"type": "array", "items": {"type": "string"}},
            }},
            "retweets": {"type": "integer"},
        },
    }}},
})

TWEET_QUERIES = [
    "/json/statuses/id", "/json/statuses/text", "/json/statuses/lang",
    "/json/statuses/user/screen_name", "/json/statuses/user/followers",
    "//hashtags", "//urls", "//mentions", "//screen_name",
    "/json/statuses[entities/urls]/id", "//user[verified]/screen_name",
    "/json/statuses[retweets]/user/screen_name",
    "/json/statuses/entities/hashtags", "/json/statuses/*/screen_name",
    "/json/statuses[entities/mentions or entities/hashtags]/id",
    "//entities/urls",
]


def tweets(seed: int, n: int) -> str:
    rng = random.Random(seed)
    statuses = []
    for i in range(n):
        tweet = {"id": seed * 100_000 + i, "text": f"post {i} {rng.randrange(10**6)}",
                 "lang": rng.choice(("en", "de", "ja", "pt")),
                 "user": {"screen_name": f"user{rng.randrange(500)}",
                          "followers": rng.randrange(10**5)}}
        if rng.random() < 0.2:
            tweet["user"]["verified"] = True
        entities = {}
        for key, p in (("hashtags", 0.6), ("urls", 0.3), ("mentions", 0.4)):
            if rng.random() < p:
                entities[key] = [f"{key[0]}{rng.randrange(50)}"
                                 for _ in range(rng.randint(1, 3))]
        if entities:
            tweet["entities"] = entities
        if rng.random() < 0.5:
            tweet["retweets"] = rng.randrange(1000)
        statuses.append(tweet)
    return json.dumps({"statuses": statuses})


def xmark_doc(seed: int) -> str:
    return XMARK3.generate(scale=XMARK_SCALE, seed=seed)


def record_cut(text: str, pos: int) -> int:
    """The first top-level record start (or the root's end tag) at or after ``pos``.

    Cutting there and appending the root's end tag leaves a complete
    document made of whole records.
    """
    depth = 0
    for tok in lex(text):
        if tok.kind == TokenKind.START:
            depth += 1
            if depth == 2 and tok.offset >= pos:
                return tok.offset
        elif tok.kind == TokenKind.END:
            depth -= 1
            if depth == 0:
                return tok.offset
    raise ValueError("stream text has no root end tag")


class Inputs:
    """Everything generated before the daemon starts.

    The workload seed picks the documents' content and each client's
    order of operations.  The XPaths and request pools of each document
    slot are the same in every run, so a run's mix of query costs does
    not depend on the seed.
    """

    def __init__(self, seed: int) -> None:
        pools = random.Random(POOL_SEED)
        candidates = generate_query_set(XMARK, 40, seed=POOL_SEED)
        fixed = [XMARK.queries[q] for q in ("XM1", "XM2", "XM3")]
        self.docs: list[dict] = []
        for k in range(N_XMARK):
            text = xmark_doc(seed * 1000 + k)
            pool = fixed + pools.sample([q for q in candidates if q not in fixed], 13)
            self.docs.append({"name": f"xmark-{k}", "text": text, "grammar": None,
                              "pool": pool, "kind": "xml"})
        self.docs.append({"name": "tweets", "text": tweets(seed, 700),
                          "grammar": TWEET_SCHEMA, "pool": list(TWEET_QUERIES),
                          "kind": "json"})
        for doc in self.docs:
            doc["requests"] = [pools.sample(doc["pool"], pools.randint(1, 3))
                               for _ in range(POOL)]
        self.churn_base = [xmark_doc(seed * 1000 + 500 + c) for c in range(CLIENTS)]
        self.streams = []
        for c in range(CLIENTS):
            text = DBLP.generate(scale=STREAM_SCALE, seed=seed * 1000 + 700 + c,
                                 include_prolog=False)
            self.streams.append(text)
        # the oracle: one sequential pass per document with its whole pool
        # (a query's matches do not depend on the queries run beside it)
        self.oracle: list[dict] = []
        for doc in self.docs:
            engine = SequentialEngine(doc["pool"])
            if doc["kind"] == "json":
                result = engine.run_tokens(tokenize_json(doc["text"]))
            else:
                result = engine.run(doc["text"])
            self.oracle.append(result.matches)

    def churn_doc(self, client: int, k: int) -> str:
        """A fresh document: the client's base with one text node changed."""
        return self.churn_base[client].replace("<name>", f"<name>v{k} ", 1)


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, root: str, log_path: str) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self._log = open(log_path, "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            # the benchmark starts its client threads only after the
            # daemons are spawned, so running code between fork and exec
            # is safe here
            text=True, preexec_fn=lambda: pin(SERVER))
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://[^:/]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not report its port: {line!r}")
            self.port = int(match.group(1))
            self.client = QueryClient("127.0.0.1", self.port)
            self.client.wait_healthy(attempts=200, interval=0.05)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                QueryClient("127.0.0.1", getattr(self, "port", 0), timeout=10).shutdown()
            except (OSError, ServiceError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def start_service(root: str, inputs: Inputs, log_path: str) -> tuple:
    """Spawn, register documents, open streams: the timed set-up."""
    daemon = Daemon(root, log_path)
    try:
        cl = daemon.client
        doc_ids = [cl.register(content=d["text"], name=d["name"],
                               grammar=d["grammar"])["doc_id"]
                   for d in inputs.docs]
        churn = [[cl.register(content=inputs.churn_doc(c, 0),
                              name=f"churn-{c}-0")["doc_id"]]
                 for c in range(CLIENTS)]
        stream_ids = [cl.stream_create(f"dblp-{c}", STREAM_QUERIES,
                                       grammar=DBLP.dtd)["stream_id"]
                      for c in range(CLIENTS)]
    except BaseException:
        daemon.stop()
        raise
    return daemon, doc_ids, churn, stream_ids


class ClientState:
    """One client's tally and timings; operations as wall intervals."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.query: list[tuple[float, float]] = []
        self.query_bytes = 0
        self.plain: list[tuple[float, float]] = []
        self.seal: list[tuple[float, float]] = []
        self.ingest: list[tuple[float, float]] = []
        self.ops = 0
        self.done: list[tuple[int, list[str], dict]] = []
        self.pos = 0


class Lockstep:
    """One seeded order of operation types, shared by the clients.

    Before each operation the clients meet at a barrier and take the
    same type: queries run beside queries, appends beside appends and
    ingests beside ingests.  A write then never waits for the daemon to
    finish a read.  Under a free interleaving it did, for a share of
    the writes that grew as the host slowed (the daemon's batching wait
    is a fixed wall time while query execution slows with the host), so
    the append median moved by 30% between runs; aligned, every write
    meets the same kind of load.  The window's end is decided once, at
    the barrier, so all clients stop after the same operation.
    """

    def __init__(self, seed: int, deadline: float, parties: int) -> None:
        self.rng = random.Random(seed * 100 + 99)
        self.deadline = deadline
        self.order: list[str] = []
        self.op: str | None = None
        self.barrier = threading.Barrier(parties, action=self._advance,
                                         timeout=120)

    def _advance(self) -> None:
        if clock() >= self.deadline:
            self.op = None
            return
        if not self.order:
            self.order = list(BLOCK)
            self.rng.shuffle(self.order)
        self.op = self.order.pop()

    def next_op(self) -> str | None:
        """The next operation type, or ``None`` once the window is over."""
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            return None
        return self.op

    def leave(self) -> None:
        """Release the other clients (a client that stops breaks the barrier)."""
        self.barrier.abort()


def client_loop(ci: int, seed: int, port: int, step: Lockstep, inputs: Inputs,
                doc_ids: list[str], churn: list[str], stream_id: str,
                st: ClientState) -> None:
    try:
        _client_ops(ci, seed, port, step, inputs, doc_ids, churn, stream_id, st)
    finally:
        step.leave()


def _client_ops(ci: int, seed: int, port: int, step: Lockstep, inputs: Inputs,
                doc_ids: list[str], churn: list[str], stream_id: str,
                st: ClientState) -> None:
    rng = random.Random(seed * 100 + ci)
    cl = QueryClient("127.0.0.1", port, timeout=60)
    text = inputs.streams[ci]
    fresh = 1
    while (op := step.next_op()) is not None:
        if op == "append" and st.pos + APPEND_BYTES * APPEND_BURST >= len(text):
            op = "query"
        try:
            if op == "query":
                k = rng.randrange(len(doc_ids))
                doc = inputs.docs[k]
                queries = rng.choice(doc["requests"])
                t0 = clock()
                resp = cl.query(doc_ids[k], queries)
                st.query.append((t0, clock()))
                st.query_bytes += len(doc["text"])
                st.ops += 1
                want = {q: inputs.oracle[k][q] for q in queries}
                if resp["matches"] != want:
                    st.tally.fail(f"query {queries} on {doc['name']}: "
                                  "matches differ from the oracle", wrong=True)
                else:
                    st.tally.ok()
                    st.done.append((k, queries, resp["matches"]))
            elif op == "append":
                for _ in range(APPEND_BURST):
                    piece = text[st.pos:st.pos + APPEND_BYTES]
                    t0 = clock()
                    ack = cl.stream_append(stream_id, piece, offset=st.pos)
                    (st.seal if ack["sealed"] else st.plain).append((t0, clock()))
                    st.pos += len(piece)
                    st.ops += 1
                    if ack["offset"] != st.pos or ack["duplicate"]:
                        st.tally.fail(f"append ack at {ack['offset']}, "
                                      f"expected {st.pos}", wrong=True)
                    else:
                        st.tally.ok()
            else:
                for _ in range(INGEST_BURST):
                    body = inputs.churn_doc(ci, fresh)
                    t0 = clock()
                    rec = cl.register(content=body, name=f"churn-{ci}-{fresh}")
                    st.ingest.append((t0, clock()))
                    fresh += 1
                    churn.append(rec["doc_id"])
                    gone = cl.delete(churn.pop(0))
                    st.ops += 1
                    if (rec["bytes"] != len(body) or rec["kind"] != "xml"
                            or gone.get("status") != "removed"):
                        st.tally.fail("ingest/delete acknowledgement malformed",
                                      wrong=True)
                    else:
                        st.tally.ok()
        except (ServiceError, OSError, ValueError, KeyError) as exc:
            st.tally.fail(f"{type(exc).__name__}: {exc}")


def sequential_runs(inputs: Inputs, half: int, cal: Calibration) -> list[tuple]:
    """Time one half of the sampled requests through a SequentialEngine.

    The sample is the first ``SEQ_PER_DOC`` requests of each pool.  One
    half runs before the window and the other after it, so the timing
    spans two stretches of host time.
    """
    sample = [(k, queries) for k, doc in enumerate(inputs.docs)
              for queries in doc["requests"][:SEQ_PER_DOC]]
    out = []
    for k, queries in sample[half::2]:
        doc = inputs.docs[k]
        engine = SequentialEngine(queries)
        time.sleep(SEQ_PAUSE_S)
        cal.probe()
        t0 = clock()
        if doc["kind"] == "json":
            result = engine.run_tokens(tokenize_json(doc["text"]))
        else:
            result = engine.run(doc["text"])
        t1 = clock()
        cal.probe()
        out.append((k, queries, cal.scaled_ms(t0, t1, HOME), result.matches))
    return out


def check_sequential(inputs: Inputs, runs: list[tuple], states: list[ClientState],
                     tally: Tally) -> None:
    """Compare each sampled sequential run with the daemon's reply to it.

    The reply is the last one the window received for that request (or
    the oracle's answer, if the window never sent it).
    """
    answers = {(k, tuple(q)): m for st in states for k, q, m in st.done}
    for k, queries, _ms, matches in runs:
        answered = answers.get((k, tuple(queries)),
                               {q: inputs.oracle[k][q] for q in queries})
        if matches != answered:
            # the request was already counted as attempted in the window
            tally.fail(f"sampled response for {queries} on "
                       f"{inputs.docs[k]['name']} differs from a sequential run",
                       wrong=True, attempted=0)


def finish_stream(cl: QueryClient, stream_id: str, text: str, pos: int,
                  tally: Tally) -> int:
    """Close the stream on a record boundary, finalize, check its deltas."""
    cut = record_cut(text, pos)
    rest = text[pos:cut] + "</dp>"
    for at in range(0, len(rest), 1 << 16):
        cl.stream_append(stream_id, rest[at:at + (1 << 16)], offset=pos + at)
    cl.stream_finalize(stream_id)
    got = cl.stream_deltas(stream_id, since=0, n=1 << 20)
    streamed: dict[str, list[int]] = {}
    for delta in got["deltas"]:
        for q, offs in delta["matches"].items():
            streamed.setdefault(q, []).extend(offs)
    expected = SequentialEngine(STREAM_QUERIES).run(text[:cut] + "</dp>").matches
    expected = {q: v for q, v in expected.items() if v}
    if got["gap"] or streamed != expected:
        tally.fail(f"stream {stream_id}: deltas differ from a batch run "
                   f"(gap {got['gap']})", wrong=True)
    else:
        tally.ok()
    return cut


def _delta(before: dict, after: dict, *keys) -> float:
    a, b = after, before
    for key in keys:
        a = a.get(key, {}) if isinstance(a, dict) else 0
        b = b.get(key, {}) if isinstance(b, dict) else 0
    return float(a or 0) - float(b or 0)


def run(seed: int, seconds: float, root: str, trace: bool) -> tuple:
    pin(HOME)
    inputs = Inputs(seed)
    out = out_dir(root)
    log_path = os.path.join(out, f"daemon-{NAME}-seed{seed}.log")
    cal = Calibration()
    setups = []
    daemon = None
    try:
        for _ in range(SETUP_REPS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            cal.probe()
            t0 = clock()
            daemon, doc_ids, churn, stream_ids = start_service(root, inputs, log_path)
            t1 = clock()
            cal.probe()
            setups.append(cal.scaled_s(t0, t1, SERVER))
        cl = daemon.client
        seq_runs = sequential_runs(inputs, 0, cal)
        varz0 = cl.varz() if trace else {}
        states = [ClientState() for _ in range(CLIENTS)]
        cal.probe()
        start = clock()
        step = Lockstep(seed, start + seconds, CLIENTS)
        threads = [threading.Thread(
            target=client_loop,
            args=(c, seed, daemon.port, step, inputs, doc_ids, churn[c],
                  stream_ids[c], states[c]))
            for c in range(CLIENTS)]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            time.sleep(PROBE_EVERY_S)
            cal.probe()
        for t in threads:
            t.join()
        end = clock()
        cal.probe()
        window = cal.scaled_s(start, end, SERVER)
        varz1 = cl.varz() if trace else {}
        rss = vm_hwm_mb(daemon.proc.pid)
        tally = Tally()
        for st in states:
            tally.merge(st.tally)
        stream_bytes = [finish_stream(cl, stream_ids[c], inputs.streams[c],
                                      states[c].pos, tally)
                        for c in range(CLIENTS)]
    finally:
        if daemon is not None:
            daemon.stop()
    seq_runs += sequential_runs(inputs, 1, cal)
    check_sequential(inputs, seq_runs, states, tally)
    seq_ms = [r[2] for r in seq_runs]

    def scaled(key: str) -> list[float]:
        return [cal.scaled_ms(a, b, SERVER) for st in states
                for a, b in getattr(st, key)]

    query_ms, plain_ms = scaled("query"), scaled("plain")
    seal_ms, ingest_ms = scaled("seal"), scaled("ingest")
    append_ms = plain_ms + seal_ms
    q_tail = tail(query_ms)
    a_tail = tail(append_ms)
    record = {
        "workload": NAME, "seed": seed, "trace": int(trace),
        "documents": [len(d["text"]) for d in inputs.docs],
        "window_s": end - start, "scaled_window_s": window,
        "calibration_ms": cal.summary(),
        "unscaled_ms": {
            "query_p50_ms": median([ms(b - a) for st in states for a, b in st.query]),
            "append_p50_ms": median([ms(b - a) for st in states
                                     for a, b in st.plain + st.seal]),
            "ingest_p50_ms": median([ms(b - a) for st in states
                                     for a, b in st.ingest])},
        "ops": {"queries": len(query_ms), "appends": len(append_ms),
                "seals": len(seal_ms), "ingests": len(ingest_ms)},
        "stream_bytes": stream_bytes,
        "query_tail": {"percentile": q_tail[1], "samples": q_tail[2]},
        "append_tail": {"percentile": a_tail[1], "samples": a_tail[2]},
        "setup_runs_s": setups,
        "samples_ms": {"query": query_ms, "seq": seq_ms, "plain_append": plain_ms,
                       "seal_append": seal_ms, "ingest": ingest_ms},
        "peak_rss_includes": "the repro serve daemon process (HTTP server, "
                             "scheduler, thread backend, registry, engines, "
                             "streams); not the client process",
    }
    if not trace:
        metrics = {
            "query_p50_ms": median(query_ms),
            "query_tail_ms": q_tail[0],
            "seq_p50_ms": median(seq_ms),
            "mb_per_s": sum(st.query_bytes for st in states) / 1e6 / window,
            "ops_per_s": sum(st.ops for st in states) / window,
            "append_p50_ms": median(append_ms),
            "append_tail_ms": a_tail[0],
            "ingest_p50_ms": median(ingest_ms),
            "ok_frac": 1.0 - tally.failed / max(1, tally.attempted),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
        }
        return metrics, tally, record

    # the daemon times its stages in wall time; they are scaled by the
    # window's mean host speed factor (client intervals are scaled one
    # by one)
    factor = window / (end - start)
    stages = varz1["latency"]["stages"]
    stage_p50 = {s: ms(stages[s]["p50"] or 0.0) * factor for s in stages}
    hits = _delta(varz0, varz1, "engine_cache", "hit")
    misses = _delta(varz0, varz1, "engine_cache", "miss")
    memo_hits = _delta(varz0, varz1, "memo", "hits")
    memo_misses = _delta(varz0, varz1, "memo", "misses")
    batches = _delta(varz0, varz1, "batches_total")
    answered = _delta(varz0, varz1, "requests", "ok")
    metrics = {
        "stream.plain_append_p50_ms": median(plain_ms),
        "stream.seal_append_p50_ms": median(seal_ms),
        "stream.seals": len(seal_ms),
        "subseq.memo_hits": memo_hits,
        "subseq.memo_misses": memo_misses,
        "subseq.hit_ratio": memo_hits / max(1.0, memo_hits + memo_misses),
        "service.queue_wait_p50_ms": stage_p50["queue_wait"],
        "service.batch_assembly_p50_ms": stage_p50["batch_assembly"],
        "service.execute_p50_ms": stage_p50["execute"],
        "service.respond_p50_ms": stage_p50["respond"],
        # the daemon's p50s are bucketed; means from its exact sums
        "service.http_ms": sum(query_ms) / max(1, len(query_ms)) - factor * ms(
            _delta(varz0, varz1, "latency", "request_seconds", "sum")
            / max(1.0, _delta(varz0, varz1, "latency", "request_seconds", "count"))),
        "service.requests_per_batch": answered / max(1.0, batches),
        "service.engine_cache_hit_ratio": hits / max(1.0, hits + misses),
        "service.rejected": _delta(varz0, varz1, "requests", "rejected"),
        # stage traces partition each request's daemon time, so the
        # summed stage seconds against summed request seconds is exact
        # where bucketed p50s are not
        "engine.unattributed_frac": 1.0 - sum(
            _delta(varz0, varz1, "latency", "stages", s, "sum") for s in stages)
        / max(1e-9, _delta(varz0, varz1, "latency", "request_seconds", "sum")),
    }
    record["varz_before"] = {k: varz0.get(k) for k in ("requests", "engine_cache", "memo")}
    record["varz_after"] = {k: varz1.get(k) for k in ("requests", "engine_cache", "memo",
                                                      "latency", "batch_size")}
    return metrics, tally, record

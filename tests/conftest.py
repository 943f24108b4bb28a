"""Shared fixtures: tiny graphs, random-case generators, a mock chat endpoint."""

from __future__ import annotations

import io
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import strategies as st

from pathpool.kg_store import QueryRecord, TripleStore, load_triples
from pathpool.pooling import _doubled_csr
from pathpool.scoring import TripleSequence


def make_sequence(
    rows: list[tuple[str, str, str, float]], provenance: str = "test"
) -> TripleSequence:
    """Sequence over a fresh store from (head, relation, tail, score) rows."""
    store = TripleStore()
    for head, relation, tail, _ in rows:
        store.add(head, relation, tail)
    triples = [store.find(head, relation, tail) for head, relation, tail, _ in rows]
    return TripleSequence.from_scores(store, triples, [row[3] for row in rows], provenance)


def random_case(
    seed: int,
    max_vertices: int = 10,
    max_edges: int = 16,
    dyadic: bool = False,
    positive: bool = True,
    max_queries: int = 3,
) -> tuple[TripleSequence, list[str]]:
    """Random scored multigraph plus query labels (possibly absent from it)."""
    rnd = random.Random(seed)
    nv = rnd.randint(2, max_vertices)
    labels = [f"E{i}" for i in range(nv)]
    store = TripleStore()
    triples, scores = [], []
    for _ in range(rnd.randint(1, max_edges)):
        head = rnd.choice(labels)
        tail = rnd.choice(labels)
        relation = f"r{rnd.randint(0, 5)}"
        if dyadic:
            score = rnd.randrange(1, 1025) / 1024.0
        elif positive:
            score = rnd.uniform(1e-3, 1.0)
        else:
            score = rnd.uniform(-1.0, 1.0)
        if store.add(head, relation, tail):
            triples.append(store.find(head, relation, tail))
            scores.append(score)
    sequence = TripleSequence.from_scores(store, triples, scores, "random")
    n_queries = rnd.randint(0, min(max_queries, nv))
    queries = rnd.sample(labels, n_queries)
    if rnd.random() < 0.15:
        queries.append("ABSENT_ENTITY")
    return sequence, queries


def grown_store(data) -> tuple[TripleStore, list[tuple[str, str, str]]]:
    """A store loaded in bulk and then grown by ``add``, and its distinct rows.

    The columns are built after the load and possibly once more among the
    adds, so later rows are added past built columns. Few entities and
    relations make self-loops, parallel edges and repeats common. Returns
    the store and the label rows it must hold, in first-seen order.
    """
    n = data.draw(st.integers(1, 7))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, 3), st.integers(0, n - 1))
    loaded = data.draw(st.lists(edge, max_size=20))
    added = data.draw(st.lists(edge, min_size=1, max_size=20))
    rows = [(f"E{h}", f"r{r}", f"E{t}") for h, r, t in loaded + added]
    text = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows[: len(loaded)])
    store = load_triples(io.StringIO(text))
    rebuild_at = data.draw(st.integers(0, len(added)))
    for i in range(len(loaded), len(rows)):
        if i - len(loaded) == rebuild_at:
            store.id_array  # reading the columns builds them
        assert store.add(*rows[i]) == (rows[i] not in rows[:i])
    return store, list(dict.fromkeys(rows))


def flat_args(n_vertices, edges, scores, rank=None):
    """The leading ``smooth_scores``/``search_kernels`` arguments of a flat graph.

    ``(n_vertices, off, eid, src, dst, scores, rank)``: the doubled CSR and
    the per-edge columns. ``edges`` are (head, tail) vertex pairs; ``rank``
    defaults to edge order.
    """
    heads, tails = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    off, eid, src, dst = _doubled_csr(n_vertices, heads, tails)
    rank = np.arange(len(edges)) if rank is None else np.asarray(rank, dtype=np.int64)
    return (n_vertices, off, eid, src, dst, np.array(scores), rank)


# a score in [-1, 1], never -0.0 (whose sign the max of a zero may lose)
_SCORE = st.floats(-1, 1).map(lambda x: x + 0.0)


@st.composite
def tree_graphs(draw):
    """A flat multigraph for the dijkstra kernels.

    Returns (n_vertices, edges, scores, rank, sources).

    Parallel edges and self-loops arise freely, and most vertices are
    reachable in one search direction only. A chain 0 -> 1 -> ... -> k of up
    to 11 edges, placed anywhere in edge order, grows trees deeper than any
    workload's. The scores are one value for every edge (each equal-hop path
    ties, so edge ranks decide), a pool of at most three values, or free;
    ``rank`` is a random permutation, so it differs from edge order; there
    are up to three sources.
    """
    n_vertices = draw(st.integers(1, 12))
    vertex = st.integers(0, n_vertices - 1)
    chain = draw(st.integers(0, n_vertices - 1))
    edges = [(i, i + 1) for i in range(chain)]
    extra = st.lists(st.tuples(vertex, vertex), min_size=int(not chain), max_size=16)
    edges += draw(extra)
    edges = draw(st.permutations(edges))
    n = len(edges)
    kind = draw(st.sampled_from(["equal", "pool", "free"]))
    if kind == "equal":
        scores = [draw(_SCORE)] * n
    elif kind == "pool":
        pool = draw(st.lists(_SCORE, min_size=1, max_size=3))
        scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        scores = draw(st.lists(_SCORE, min_size=n, max_size=n))
    rank = draw(st.permutations(range(n)))
    sources = sorted(draw(st.sets(vertex, max_size=3)))
    return n_vertices, edges, scores, rank, sources


def deep_tied_chain(length=12):
    """Two parallel edges per step of a chain, every score equal, ranks reversed.

    (n_vertices, edges, scores, rank). From either end the tree is
    ``length`` levels deep, and every vertex past a source has two tied
    edges into it, so the edge ranks pick each tree edge.
    """
    edges = [(i, i + 1) for i in range(length) for _ in range(2)]
    rank = list(range(len(edges)))[::-1]
    return length + 1, edges, [0.5] * len(edges), rank


@pytest.fixture
def example_sequence() -> TripleSequence:
    """The three-triple hand example: A->B 0.9, B->C 0.3, D->E 0.5."""
    return make_sequence(
        [("A", "r1", "B", 0.9), ("B", "r2", "C", 0.3), ("D", "r3", "E", 0.5)]
    )


class _MockChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {"payload": payload, "headers": dict(self.headers)}
        )
        script = self.server.script
        if script:
            status, body = script.pop(0)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(body.encode("utf-8"))
            return
        question = ""
        messages = payload.get("messages", [])
        if messages:
            content = messages[-1].get("content", "")
            question = content.rsplit("Question:\n", 1)[-1].strip()
        answers = self.server.answers.get(question, [])
        completion = "\n".join(f"ans: {answer}" for answer in answers) or "no answer"
        body = json.dumps({"choices": [{"message": {"content": completion}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    def log_message(self, *args):  # keep pytest output clean
        pass


class MockChatServer:
    """Local chat-completions endpoint answering from a question->answers map.

    ``script`` (a list of (status, body) pairs) overrides normal behaviour
    for fault-injection tests; entries are consumed one per request.
    """

    def __init__(self):
        self._httpd = HTTPServer(("127.0.0.1", 0), _MockChatHandler)
        self._httpd.answers = {}
        self._httpd.script = []
        self._httpd.requests = []
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    @property
    def answers(self) -> dict:
        return self._httpd.answers

    @property
    def script(self) -> list:
        return self._httpd.script

    @property
    def requests(self) -> list:
        return self._httpd.requests

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def mock_llm():
    server = MockChatServer()
    yield server
    server.close()


@pytest.fixture
def lou_seal_query() -> QueryRecord:
    return QueryRecord(
        id="exemplar",
        question="What year did the team with mascot named Lou Seal win the World Series?",
        query_entities=("Lou Seal",),
        gold_answers=("2010 World Series", "2012 World Series", "2014 World Series"),
    )

"""Test helpers: tiny graphs, random-case generators, a mock chat endpoint.

Test modules import these by name; ``conftest.py`` holds only fixtures.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import shlex
import shutil
import sysconfig
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from pathpool.kg_store import TripleStore, load_triples
from pathpool.pooling import _doubled_csr
from pathpool.scoring import TripleSequence


def label_rows(candidates) -> list[tuple[str, str, str]]:
    """The (head, relation, tail) labels of each row of a store or subgraph view."""
    return list(zip(*candidates.store.label_columns(candidates.id_array)))


@contextmanager
def pipe_path(data: bytes):
    """A ``/dev/fd`` path to a pipe holding ``data``, as a shell's ``<(...)`` gives.

    A reader that opened the path twice would find the second read empty.
    ``data`` must fit in the pipe's buffer (64 KiB on Linux).
    """
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    try:
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)


def c_compiler() -> list[str]:
    """The C compiler command ``setup.py build_ext`` would run."""
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def c_compiler_found() -> bool:
    return shutil.which(c_compiler()[0]) is not None


def read_tree(root: Path) -> dict[str, str]:
    """The text of every file under ``root``, keyed by its relative path."""
    return {
        str(p.relative_to(root)): p.read_text(encoding="utf-8")
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def store_rows(store: TripleStore, rows) -> list[int]:
    """The store row of each row of ``rows``, whose first three fields are labels."""
    index = {labels: row for row, labels in enumerate(label_rows(store))}
    return [index[tuple(row[:3])] for row in rows]


def scores_by_rank(sequence: TripleSequence) -> dict[int, float]:
    """Each row's score, keyed by its retrieval rank."""
    return dict(zip(sequence.rank_array.tolist(), sequence.score_array.tolist()))


def sequence_rows(sequence: TripleSequence) -> list[tuple[int, float, int]]:
    """The (store row, score, rank) of each row of ``sequence``, in order."""
    columns = (sequence.row_array, sequence.score_array, sequence.rank_array)
    return list(zip(*(column.tolist() for column in columns)))


def make_sequence(
    rows: list[tuple[str, str, str, float]], provenance: str = "test"
) -> TripleSequence:
    """Sequence over a fresh store from (head, relation, tail, score) rows."""
    store = TripleStore(row[:3] for row in rows)
    triples = store_rows(store, rows)
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
    # each distinct row with the score of its first draw, in first-seen order
    edges: dict[tuple[str, str, str], float] = {}
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
        edges.setdefault((head, relation, tail), score)
    store = TripleStore(edges)
    sequence = TripleSequence.from_scores(
        store, range(len(edges)), list(edges.values()), "random"
    )
    n_queries = rnd.randint(0, min(max_queries, nv))
    queries = rnd.sample(labels, n_queries)
    if rnd.random() < 0.15:
        queries.append("ABSENT_ENTITY")
    return sequence, queries


def small_store(data) -> tuple[TripleStore, list[tuple[str, str, str]]]:
    """A store built in one call from drawn rows, and its distinct rows.

    Few entities and relations make self-loops, parallel edges and repeats
    common. The store is drawn to come from ``load_triples`` or from
    ``TripleStore`` itself. Returns the store and the label rows it must
    hold, in first-seen order.
    """
    n = data.draw(st.integers(1, 7))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, 3), st.integers(0, n - 1))
    drawn = data.draw(st.lists(edge, min_size=1, max_size=40))
    rows = [(f"E{h}", f"r{r}", f"E{t}") for h, r, t in drawn]
    if data.draw(st.booleans()):
        store = load_triples(io.StringIO("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows)))
    else:
        store = TripleStore(rows)
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


# random-walk seeds, the negative and the 2**63 ones taken modulo 2**64
WALK_SEEDS = (0, 1, 7, 123456789, -3, 2**63)


def branching_star(branches: int):
    """Q -> A_i -> B_i for each i: a two-edge walk shows which branch it drew."""
    rows = []
    for i in range(branches):
        rows.append(("Q", "r", f"A{i}", 0.25 + i / 512))
        rows.append((f"A{i}", "r", f"B{i}", 0.75 - i / 1024))
    return make_sequence(rows), ["Q"]


def edge_shapes():
    """Flat graphs the random cases rarely draw, with what each one runs.

    (context, n_vertices, edges, sources, path lengths, walk_count).
    """
    among = [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b]
    hub = [(0, 1 + i % 5) for i in range(2**15 + 3)] + among + [(5, 0), (2, 0)]
    loops = [(0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (2, 2), (3, 1)]
    return [
        ("degree past 2**15", 6, hub, [0], (3,), 64),
        # vertex 4 has no edge at all
        ("every vertex a source", 5, loops, [0, 1, 2, 3, 4], (3, 2**40), 256),
        ("sources of degree zero", 5, loops, [3, 4], (3, 2**40), 256),
        ("one vertex", 1, [(0, 0), (0, 0)], [0], (1, 2**40), 10**5),
    ]


def crowded_end_vertices(max_path_len):
    """BFS graphs whose longest prefix ends at a vertex crowded by blocked edges.

    A list of (context, n_vertices, edges, scores). From source 0, a chain of
    low-scored edges 0 -> 1 -> ... -> u, with u = ``max_path_len - 1``, is the
    one prefix of ``max_path_len - 1`` edges. Its one free extension is the
    mid-scored edge u -> u + 1, and the high-scored edges out of u all reach
    a vertex on the prefix:

    * "parallel": ``max_path_len + 2`` parallel edges u -> u - 1;
    * "self-loop": one edge from u to each vertex of the chain before it, and
      ``max_path_len + 2`` self-loops at u.

    Unless a table of u's best out-neighbours merges the parallel edges and
    skips the self-loops, they fill it and hide the free edge.
    """
    u = max_path_len - 1
    chain = [(i, i + 1) for i in range(u)]
    crowds = {
        "parallel": [(u, u - 1)] * (max_path_len + 2),
        "self-loop": [(u, j) for j in range(u)] + [(u, u)] * (max_path_len + 2),
    }
    return [
        (
            (context, max_path_len),
            u + 2,
            [*chain, *crowd, (u, u + 1)],
            [0.125] * len(chain) + [0.875] * len(crowd) + [0.5],
        )
        for context, crowd in crowds.items()
    ]


class _MockChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length)) if length else {}
        server = self.server
        with server.lock:
            server.requests.append(
                {"method": self.command, "payload": payload, "headers": dict(self.headers)}
            )
            step = server.script.pop(0) if server.script else None
            server.active += 1
            server.peak = max(server.peak, server.active)
        try:
            time.sleep(server.delay)
        finally:
            with server.lock:
                server.active -= 1
        status, body = step or (200, self._answer(payload))
        if status is None:  # drop the connection without a reply
            return
        self.send_response(status)
        if 300 <= status < 400:  # redirect to the body's URL, or to this endpoint
            self.send_header("Location", body or self.path)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    do_GET = do_POST  # a 301-303 redirect of the POST arrives as a GET

    def _answer(self, payload) -> str:
        question = ""
        messages = payload.get("messages", [])
        if messages:
            content = messages[-1].get("content", "")
            question = content.rsplit("Question:\n", 1)[-1].strip()
        answers = self.server.answers.get(question, [])
        completion = "\n".join(f"ans: {answer}" for answer in answers) or "no answer"
        return json.dumps({"choices": [{"message": {"content": completion}}]})

    def log_message(self, *args):  # keep pytest output clean
        pass


class MockChatServer(ThreadingHTTPServer):
    """Local chat-completions endpoint answering from a question->answers map.

    Each request is served on a thread of its own. ``script`` (a list of
    (status, body) pairs) overrides normal behaviour for fault-injection
    tests; entries are consumed one per request, a ``None`` status drops
    the connection without a reply, and a 3xx status redirects to the URL
    its body names (to this endpoint when the body is empty). Each reply waits ``delay`` seconds;
    ``peak`` is the most requests that have been waiting at once.
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _MockChatHandler)
        self.answers = {}
        self.script = []
        self.requests = []
        self.lock = threading.Lock()
        self.delay = 0.0
        self.active = 0
        self.peak = 0
        # a short poll lets close() return at once rather than in 0.5 s
        serve = functools.partial(self.serve_forever, poll_interval=0.01)
        threading.Thread(target=serve, daemon=True).start()

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self):
        self.shutdown()
        self.server_close()

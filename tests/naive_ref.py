"""Independent naive references for subgraph extraction, scoring and smoothing.

Written directly from the algorithm definitions: extraction by full scans
of the whole KG, top-k by one sort of label tuples, cosine scoring one
candidate at a time, the embedding table parsed one line at a time,
smoothing by exhaustive path enumeration (BFS), greedily grown min-hop
trees (dijkstra) and walks drawn one step at a time with Python ints
(random walk). Shares no code or data structures with the
package implementation it checks. Operates on plain label tuples.
"""

from __future__ import annotations

import math

import numpy as np

SHIFT_EPS = 1e-6


def naive_extract_subgraph(
    triples: list[tuple[str, str, str]], query_labels: list[str], hops: int
) -> list[tuple[str, str, str]]:
    """KG triples, in KG order, with an endpoint within hops - 1 undirected steps.

    Every step scans all triples, as the original extraction did; no
    adjacency index is used.
    """
    reached = set(query_labels)
    for _ in range(hops - 1):
        reached |= {
            end for head, _, tail in triples if head in reached or tail in reached
            for end in (head, tail)
        }
    return [t for t in triples if t[0] in reached or t[2] in reached]


def naive_top_k(
    rows: list[tuple[str, str, str, float]], k: int
) -> list[tuple[str, str, str, float]]:
    """The first k (head, relation, tail, score) rows: score descending, then labels."""
    return sorted(rows, key=lambda row: (-row[3], row[:3]))[:k]


def naive_cosine_scores(
    table: dict[str, np.ndarray], question: str, triples: list[tuple[str, str, str]]
) -> list[float]:
    """Cosine of the question's vector with each triple sentence's, one by one.

    A triple's sentence is ``"head relation tail"`` with the relation's dots
    and underscores turned into spaces. Each score is one ``np.dot`` over
    the two ``np.linalg.norm``s, 0.0 when either norm is zero, and is then
    clipped into [-1, 1] with ``min``/``max``. A text missing from the table
    raises KeyError naming it.
    """
    qvec = table[question]
    qnorm = float(np.linalg.norm(qvec))
    scores = []
    for head, relation, tail in triples:
        sentence = f"{head} {relation.replace('.', ' ').replace('_', ' ')} {tail}"
        tvec = table[sentence]
        denom = qnorm * float(np.linalg.norm(tvec))
        score = float(np.dot(qvec, tvec) / denom) if denom > 0.0 else 0.0
        scores.append(min(1.0, max(-1.0, score)))
    return scores


class NaiveTableError(ValueError):
    """A malformed embedding table line; ``str()`` reads ``line N: message``."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def naive_load_table(path) -> tuple[np.ndarray, dict[str, int], np.ndarray]:
    """A ``label<TAB>components`` table parsed one line at a time.

    Returns the ``(texts, dim)`` float64 matrix, the ``text -> row`` dict
    and each row's ``np.linalg.norm``. Blank lines are skipped; a repeated
    label keeps its first row and its last vector. A line without a tab or
    a label, a component ``float`` rejects, no component, a dimension other
    than the first vector's or a non-finite component raises
    NaiveTableError naming the line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        n_lines = sum(1 for _ in handle)
    rows: dict[str, int] = {}
    matrix: np.ndarray | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            label, tab, rest = line.partition("\t")
            if not tab or not label:
                raise NaiveTableError("expected 'label<TAB>components'", line=lineno)
            try:
                values = list(map(float, rest.split()))
            except ValueError:
                raise NaiveTableError("non-numeric embedding component", line=lineno)
            if not values:
                raise NaiveTableError("empty embedding vector", line=lineno)
            if matrix is None:
                matrix = np.empty((n_lines, len(values)))
            elif len(values) != matrix.shape[1]:
                raise NaiveTableError(
                    f"dimension mismatch: {len(values)} != {matrix.shape[1]}",
                    line=lineno,
                )
            if not all(map(math.isfinite, values)):
                raise NaiveTableError("non-finite embedding component", line=lineno)
            matrix[rows.setdefault(label, len(rows))] = values
    if matrix is None:
        matrix = np.empty((0, 0))
    matrix = matrix[: len(rows)]
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(row) for row in matrix], dtype=np.float64)
    return matrix, rows, norms


def _all_simple_paths(adjacency, endpoint_of, start, limit):
    """Every simple path (list of edge ids) from start, up to limit edges."""
    paths: list[list[int]] = []

    def extend(vertex, used, path):
        if limit is not None and len(path) >= limit:
            return
        for e in adjacency.get(vertex, ()):
            nxt = endpoint_of[e]
            if nxt in used:
                continue
            path.append(e)
            paths.append(list(path))
            extend(nxt, used | {nxt}, path)
            path.pop()

    extend(start, {start}, [])
    return paths


def naive_tree_paths(heads, tails, scores, rank, sources) -> list[tuple[int, ...]]:
    """Every tree path of the from-query and the to-query min-hop trees.

    Each tree is grown greedily a level at a time from the sources: a vertex
    first reached at depth d + 1 extends the tree path of one depth-d
    vertex by one edge, taking of its candidates the largest sum of scores
    (added one by one from the source), then the smallest tuple of edge
    ranks from the source on. Edges are ``heads[e] -> tails[e]``, followed
    backwards for the to-query tree.
    """
    paths = []
    for near, far in ((heads, tails), (tails, heads)):
        adjacency: dict = {}
        for e, vertex in enumerate(near):
            adjacency.setdefault(vertex, []).append(e)
        tree = {q: ((), 0.0) for q in sources}  # vertex -> (path, sum)
        frontier = list(tree)
        while frontier:
            offers: dict = {}
            for u in frontier:
                path, total = tree[u]
                for e in adjacency.get(u, ()):
                    if far[e] in tree:
                        continue
                    step = path + (e,)
                    key = (-(total + scores[e]), tuple(rank[x] for x in step))
                    if far[e] not in offers or key < offers[far[e]][0]:
                        offers[far[e]] = (key, step, total + scores[e])
            for vertex, (_, step, total) in offers.items():
                tree[vertex] = (step, total)
                paths.append(step)
            frontier = list(offers)
    return paths


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(base: int, n: int) -> int:
    """The n-th output of the splitmix64 stream seeded with base."""
    z = (base + _GOLDEN * n) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def naive_walk_kernels(heads, tails, sources, max_len, walk_count, seed):
    """Every prefix of every counter-drawn walk, one walk and one step at a time.

    Vertices may be ids or labels. Walk w from ``sources[i]`` has the key
    ``splitmix(seed, i * walk_count + w + 1)``. Attempt a of its step t, at a
    vertex whose out-edges ``heads[e] == u`` are d in edge order, draws
    ``splitmix(key, t * 2**32 + a + 1) & m``, m the least ``2**b - 1`` that
    is at least d - 1: a draw below d takes that out-edge, any other is
    redrawn. A walk ends at a vertex with no out-edge, after ``max_len``
    edges, or before an edge into a vertex it holds.
    """
    out: dict = {}
    for e, vertex in enumerate(heads):
        out.setdefault(vertex, []).append(e)
    kernels = []
    for i, source in enumerate(sources):
        for w in range(walk_count):
            key = _splitmix(seed, i * walk_count + w + 1)
            u, held, path = source, {source}, []
            while len(path) < max_len and u in out:
                slots = out[u]
                mask = (1 << (len(slots) - 1).bit_length()) - 1
                draw, attempt = len(slots), 0
                while draw >= len(slots):
                    attempt += 1  # attempt a draws with the counter a + 1
                    draw = _splitmix(key, (len(path) << 32) + attempt) & mask
                e = slots[draw]
                u = tails[e]
                if u in held:
                    break
                held.add(u)
                path.append(e)
                kernels.append(tuple(path))
    return kernels


def naive_smooth(
    edges: list[tuple[str, str, str, float]],
    query_labels: list[str],
    algorithm: str = "dijkstra",
    pooling: str = "average",
    divisor: float = 10.0,
    max_path_len: int = 4,
    walk_count: int = 256,
    seed: int = 0,
) -> list[tuple[str, str, str, float]]:
    """Smoothed (head, relation, tail, score) rows, sorted like the library.

    Random walks start from the query entities in first-seen vertex order
    (head before tail, edge by edge), the order that numbers their lanes.
    """
    n = len(edges)
    assert n > 0
    raw = [float(e[3]) for e in edges]
    low = min(raw)
    scores = raw if low > 0.0 else [s + (SHIFT_EPS - low) for s in raw]
    s_min = min(scores)

    heads = [e[0] for e in edges]
    tails = [e[2] for e in edges]
    out_adj: dict[str, list[int]] = {}
    in_adj: dict[str, list[int]] = {}
    for i in range(n):
        out_adj.setdefault(heads[i], []).append(i)
        in_adj.setdefault(tails[i], []).append(i)

    lex_order = sorted(range(n), key=lambda i: (edges[i][0], edges[i][1], edges[i][2]))
    lex = [0] * n
    for rank, i in enumerate(lex_order):
        lex[i] = rank

    vertices = set(heads) | set(tails)
    queries = sorted({q for q in query_labels if q in vertices})

    kernels: set[tuple[int, ...]] = set()
    if queries:
        if algorithm == "dijkstra":
            kernels.update(naive_tree_paths(heads, tails, scores, lex, queries))
        elif algorithm == "bfs":
            for adjacency, endpoint_of in ((out_adj, tails), (in_adj, heads)):
                for q in queries:
                    for path in _all_simple_paths(adjacency, endpoint_of, q, max_path_len):
                        kernels.add(tuple(path))
        elif algorithm == "random_walk":
            first_seen = list(dict.fromkeys(label for e in edges for label in (e[0], e[2])))
            sources = sorted(queries, key=first_seen.index)
            kernels.update(
                naive_walk_kernels(heads, tails, sources, max_path_len, walk_count, seed)
            )
        else:
            raise ValueError(f"no naive reference for algorithm {algorithm!r}")

    covered = set()
    for kernel in kernels:
        covered.update(kernel)
    for e in range(n):
        if e not in covered:
            kernels.add((e,))

    final: dict[int, float] = {}
    for kernel in kernels:
        values = [scores[e] for e in kernel]
        pooled = sum(values) / len(values) if pooling == "average" else max(values)
        for position, e in enumerate(kernel, start=1):
            value = pooled + s_min / (position * divisor)
            if e not in final or value > final[e]:
                final[e] = value

    order = sorted(range(n), key=lambda i: (-final[i], i))
    return [(heads[i], edges[i][1], tails[i], final[i]) for i in order]


def naive_kernel_smoothing(kernels, n_edges, pool, s_min, divisor) -> list[float]:
    """Per edge, the max over kernels of pooled + s_min / (position * divisor).

    ``kernels`` are edge-id sequences, position 1 first, that cover every
    edge (singletons included), as an enumerating search lists them; ``pool``
    gives a kernel's pooled score, ``pool(kernel)``. One step per kernel and
    position.
    """
    final: dict[int, float] = {}
    for kernel in kernels:
        pooled = pool(kernel)
        for position, e in enumerate(kernel, start=1):
            value = pooled + s_min / (position * divisor)
            if e not in final or value > final[e]:
                final[e] = value
    return [final[e] for e in range(n_edges)]


def naive_scored_subgraph(edges: list[tuple[str, str, str, float]]) -> dict:
    """The arrays a scored subgraph holds, derived from label tuples.

    Vertices are entity labels in first-seen order (head before tail, edge
    by edge). Each CSR lists, vertex by vertex, the edges anchored there
    (by head for ``out``, by tail for ``in``) in edge order. ``lex_rank``
    is each edge's position when the edges are sorted by label tuple.
    """
    vertex_of: dict[str, int] = {}
    for head, _, tail, _ in edges:
        for label in (head, tail):
            if label not in vertex_of:
                vertex_of[label] = len(vertex_of)
    heads = [vertex_of[e[0]] for e in edges]
    tails = [vertex_of[e[2]] for e in edges]

    def csr(anchor):
        owned: list[list[int]] = [[] for _ in vertex_of]
        for e, v in enumerate(anchor):
            owned[v].append(e)
        off = [0]
        eid: list[int] = []
        for edges_of_v in owned:
            eid += edges_of_v
            off.append(len(eid))
        return off, eid

    by_labels = sorted(range(len(edges)), key=lambda e: edges[e][:3])
    lex_rank = [0] * len(edges)
    for position, e in enumerate(by_labels):
        lex_rank[e] = position
    return {
        "vertices": list(vertex_of),
        "heads": heads,
        "tails": tails,
        "scores": [float(e[3]) for e in edges],
        "out": csr(heads),
        "in": csr(tails),
        "lex_rank": lex_rank,
    }

"""Independent naive references for subgraph extraction, scoring and smoothing.

Written directly from the algorithm definitions: extraction by full scans
of the whole KG, top-k by one sort of label tuples, cosine scoring one
candidate at a time, the embedding table parsed one line at a time,
smoothing by exhaustive path enumeration and a global best-path selection. Shares no code or data structures with the
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


def naive_smooth(
    edges: list[tuple[str, str, str, float]],
    query_labels: list[str],
    algorithm: str = "dijkstra",
    pooling: str = "average",
    divisor: float = 10.0,
    max_path_len: int = 4,
) -> list[tuple[str, str, str, float]]:
    """Smoothed (head, relation, tail, score) rows, sorted like the library."""
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
    query_set = set(queries)

    kernels: set[tuple[int, ...]] = set()
    if queries:
        directions = ((out_adj, tails), (in_adj, heads))
        if algorithm == "dijkstra":
            for adjacency, endpoint_of in directions:
                best: dict[str, tuple] = {}
                for q in queries:
                    for path in _all_simple_paths(adjacency, endpoint_of, q, None):
                        terminal = endpoint_of[path[-1]]
                        if terminal in query_set:
                            continue
                        cum = 0.0
                        for e in path:
                            cum += scores[e]
                        key = (len(path), -cum, tuple(lex[e] for e in path))
                        if terminal not in best or key < best[terminal][0]:
                            best[terminal] = (key, tuple(path))
                for key, path in best.values():
                    kernels.add(path)
        elif algorithm == "bfs":
            for adjacency, endpoint_of in directions:
                for q in queries:
                    for path in _all_simple_paths(adjacency, endpoint_of, q, max_path_len):
                        kernels.add(tuple(path))
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


def naive_scored_subgraph(edges: list[tuple[str, str, str, float]]) -> dict:
    """The arrays a scored subgraph holds, derived from label tuples.

    Vertices are entity labels in first-seen order (head before tail, edge
    by edge). Each CSR lists, vertex by vertex, the edges anchored there
    (by head for ``out``, by tail for ``in``) in edge order. ``lex_rank``
    is each edge's position when the edges are sorted by label tuple.
    """
    vertices: list[str] = []
    for head, _, tail, _ in edges:
        for label in (head, tail):
            if label not in vertices:
                vertices.append(label)
    heads = [vertices.index(e[0]) for e in edges]
    tails = [vertices.index(e[2]) for e in edges]

    def csr(anchor):
        off = [0]
        eid: list[int] = []
        for v in range(len(vertices)):
            eid += [e for e in range(len(edges)) if anchor[e] == v]
            off.append(len(eid))
        return off, eid

    by_labels = sorted(range(len(edges)), key=lambda e: edges[e][:3])
    return {
        "vertices": vertices,
        "heads": heads,
        "tails": tails,
        "scores": [float(e[3]) for e in edges],
        "out": csr(heads),
        "in": csr(tails),
        "lex_rank": [by_labels.index(e) for e in range(len(edges))],
    }

"""Pure-Python backend for path-kernel search and score smoothing.

This is the reference implementation: ``search_kernels`` lives only here,
and the optional compiled ``_kernels_c.c`` implements ``smooth_scores``
alone, bit for bit the same. Both operate on a flattened subgraph: per-edge
``heads``/``tails``/``scores``/``lex_rank`` lists plus CSR adjacency
(``out_off``/``out_eid`` over head vertices, ``in_off``/``in_eid`` over tail
vertices; each vertex's edges in edge order).

Conventions the compiled ``smooth_scores`` shares:

* kernels are edge-id sequences ordered outward from the query entity, so
  position 1 is always the edge nearest a query entity, in both directions;
* direction codes: 0 = from query, 1 = to query, 2 = singleton;
* ``sources`` is a strictly ascending list of vertex ids;
* random walks draw from a splitmix64 stream with mask-rejection sampling,
  seeded with the seed modulo 2**64, so the walk sequence is identical
  across backends for a given seed.

``search_kernels`` and the dijkstra and random-walk branches of
``smooth_scores`` feed each kernel through ``_dispatch``, as the compiled
core does for all three. BFS smoothing here (``_bfs_smooth``) does not visit
each simple path: one DFS over the prefixes of up to ``max_path_len - 1``
edges carries each prefix's running sum (or max) and the best pooled value
below it, and the last edge of the longest paths is solved once per end
vertex from the prefixes that end there. It still equals the exhaustive
enumeration bit for bit, because IEEE rounding is monotone: ``x + c``,
``x / n`` and the running max never fall when ``x`` rises, so the max over
paths of fl(pooled + c) is fl(max pooled + c), and a path's pooled value is
largest where its prefix's and its last edge's are. (The one exception is
the sign of a zero result when the smallest score is ``-0.0``; ``smooth``
shifts every score positive first.)
"""

from __future__ import annotations

from operator import itemgetter

ALG_DIJKSTRA = 0
ALG_BFS = 1
ALG_RANDOM_WALK = 2

DIR_FROM_QUERY = 0
DIR_TO_QUERY = 1
DIR_SINGLETON = 2

_MASK64 = (1 << 64) - 1


class _SplitMix:
    """splitmix64 with unbiased sampling of integers below n."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            value = self.next_u64() & mask
            if value < n:
                return value


def _shortest_path_tree(n_vertices, endpoint, off, eid, scores, lex_rank, sources):
    """Multi-source min-hop tree; one path per reachable vertex.

    Ties at equal hop count prefer higher cumulative edge score, then the
    lexicographically smaller sequence of edge ranks.
    """
    dist = [-1] * n_vertices
    parent_edge = [-1] * n_vertices
    parent_vertex = [-1] * n_vertices
    cum = [0.0] * n_vertices
    for s in sources:
        dist[s] = 0
    frontier = list(sources)
    depth = 0
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for k in range(off[u], off[u + 1]):
                e = eid[k]
                v = endpoint[e]
                if dist[v] == -1:
                    dist[v] = depth + 1
                    parent_edge[v] = e
                    parent_vertex[v] = u
                    cum[v] = cum[u] + scores[e]
                    nxt.append(v)
                elif dist[v] == depth + 1:
                    candidate = cum[u] + scores[e]
                    if candidate > cum[v]:
                        replace = True
                    elif candidate == cum[v]:
                        cand_ranks = _tail_ranks(
                            parent_edge, parent_vertex, lex_rank, e, u, depth + 1
                        )
                        best_ranks = _tail_ranks(
                            parent_edge,
                            parent_vertex,
                            lex_rank,
                            parent_edge[v],
                            parent_vertex[v],
                            depth + 1,
                        )
                        replace = cand_ranks < best_ranks
                    else:
                        replace = False
                    if replace:
                        parent_edge[v] = e
                        parent_vertex[v] = u
                        cum[v] = candidate
        frontier = nxt
        depth += 1
    return dist, parent_edge, parent_vertex


def _tail_ranks(parent_edge, parent_vertex, lex_rank, last_edge, last_vertex, length):
    """Front-to-back lex ranks of path(last_vertex) extended by last_edge."""
    buf = [0] * length
    buf[length - 1] = lex_rank[last_edge]
    x = last_vertex
    i = length - 2
    while i >= 0:
        buf[i] = lex_rank[parent_edge[x]]
        x = parent_vertex[x]
        i -= 1
    return buf


def _path_edges(parent_edge, parent_vertex, v, length):
    buf = [0] * length
    x = v
    i = length - 1
    while i >= 0:
        buf[i] = parent_edge[x]
        x = parent_vertex[x]
        i -= 1
    return buf


def _enumerate_simple_paths(n_vertices, endpoint, off, eid, source, max_len, emit):
    """Preorder emission of every simple path of 1..max_len edges from source."""
    visited = bytearray(n_vertices)
    visited[source] = 1
    path: list[int] = []
    stack = [[source, off[source]]]
    while stack:
        frame = stack[-1]
        u, k = frame
        if k >= off[u + 1]:
            stack.pop()
            if path:
                visited[endpoint[path.pop()]] = 0
            continue
        frame[1] = k + 1
        e = eid[k]
        v = endpoint[e]
        if visited[v]:
            continue
        path.append(e)
        emit(path)
        if len(path) < max_len:
            visited[v] = 1
            stack.append([v, off[v]])
        else:
            path.pop()


def _bfs_smooth(
    n_vertices, endpoint, off, eid, scores, sources, max_len, average, pos, final, covered
):
    """Fold every simple path of 1..max_len edges into ``final``, one direction.

    Per edge, the max over the paths ``_enumerate_simple_paths`` would emit
    of pooled + ``pos[position]``, without visiting each path:

    * a DFS walks the prefixes of up to ``max_len - 1`` edges once each; a
      frame carries the running sum (or max) of its prefix, which is the
      float sequence a per-path loop computes, and the best pooled value of
      any path through it, which it folds into its parent on pop;
    * a path of ``max_len`` edges is a prefix Q ending at u plus one edge
      u->v with v not on Q. Its pooled value never falls when Q's running
      value or the edge's score rises, so Q only needs its best-scored
      out-edge of u whose endpoint is free, and each edge u->v only needs
      the best Q ending at u that avoids v.
    """
    if max_len < 2:
        return  # a one-edge path scores as the singleton the caller gives it
    last = max_len - 1  # prefix depth the DFS stops at
    neg_inf = float("-inf")
    start = 0.0 if average else neg_inf
    ends: dict[int, list] = {}  # u -> (running value, vertices) of prefixes at u
    by_score: dict[int, list[int]] = {}  # u -> out-edges, highest score first
    visited = bytearray(n_vertices)
    for s in sources:
        visited[s] = 1
        path = [s]
        # frame: [vertex, next slot in eid, edge in, running value, best pooled]
        stack = [[s, off[s], -1, start, neg_inf]]
        while stack:
            frame = stack[-1]
            u = frame[0]
            k = frame[1]
            if k >= off[u + 1]:
                stack.pop()
                if not stack:
                    break
                best = frame[4]
                e = frame[2]
                value = best + pos[len(stack)]
                if not covered[e]:
                    covered[e] = 1
                    final[e] = value
                elif value > final[e]:
                    final[e] = value
                if best > stack[-1][4]:
                    stack[-1][4] = best
                visited[u] = 0
                path.pop()
                continue
            frame[1] = k + 1
            e = eid[k]
            v = endpoint[e]
            if visited[v]:
                continue
            depth = len(stack)
            score = scores[e]
            acc = frame[3]
            if average:
                acc = acc + score
                pooled = acc / depth
            elif score > acc:
                acc = pooled = score
            else:
                pooled = acc
            if depth < last:
                visited[v] = 1
                path.append(v)
                stack.append([v, off[v], e, acc, pooled])
                continue
            # a prefix of `last` edges ending at v: record it for the last
            # level, and extend it by v's best free out-edge
            record = (acc, (*path, v))
            if v in ends:
                ends[v].append(record)
            else:
                ends[v] = [record]
            order = by_score.get(v)
            if order is None:
                order = sorted(
                    eid[off[v] : off[v + 1]], key=scores.__getitem__, reverse=True
                )
                by_score[v] = order
            for e2 in order:
                w = endpoint[e2]
                if w != v and not visited[w]:
                    # under max pooling, pooled == acc here: only the score counts
                    ext = (acc + scores[e2]) / max_len if average else scores[e2]
                    if ext > pooled:
                        pooled = ext
                    break
            value = pooled + pos[depth]
            if not covered[e]:
                covered[e] = 1
                final[e] = value
            elif value > final[e]:
                final[e] = value
            if pooled > frame[4]:
                frame[4] = pooled
        visited[s] = 0
    top = pos[max_len]
    for u, records in ends.items():
        records.sort(key=itemgetter(0), reverse=True)
        for k in range(off[u], off[u + 1]):
            e = eid[k]
            v = endpoint[e]
            for acc, vertices in records:
                if v not in vertices:
                    score = scores[e]
                    if average:
                        pooled = (acc + score) / max_len
                    else:
                        pooled = score if score > acc else acc
                    value = pooled + top
                    if not covered[e]:
                        covered[e] = 1
                        final[e] = value
                    elif value > final[e]:
                        final[e] = value
                    break


def _random_walks(tails, off, eid, sources, max_len, walk_count, rng, emit):
    """Uniform out-edge walks; a walk ends at a dead end, max_len, or a revisit."""
    for s in sources:
        for _ in range(walk_count):
            u = s
            visited = {s}
            path: list[int] = []
            while len(path) < max_len:
                lo = off[u]
                degree = off[u + 1] - lo
                if degree == 0:
                    break
                e = eid[lo + rng.below(degree)]
                v = tails[e]
                if v in visited:
                    break
                path.append(e)
                emit(path)
                visited.add(v)
                u = v


def _dispatch(
    n_vertices,
    heads,
    tails,
    out_off,
    out_eid,
    in_off,
    in_eid,
    scores,
    lex_rank,
    sources,
    algorithm,
    max_path_len,
    walk_count,
    seed,
    emit,
):
    """Run one search algorithm, feeding every kernel to ``emit(path, dircode)``."""
    if not sources:
        return
    directions = (
        (DIR_FROM_QUERY, tails, out_off, out_eid),
        (DIR_TO_QUERY, heads, in_off, in_eid),
    )
    if algorithm == ALG_DIJKSTRA:
        for dircode, endpoint, off, eid in directions:
            dist, parent_edge, parent_vertex = _shortest_path_tree(
                n_vertices, endpoint, off, eid, scores, lex_rank, sources
            )
            for v in range(n_vertices):
                if dist[v] >= 1:
                    emit(_path_edges(parent_edge, parent_vertex, v, dist[v]), dircode)
    elif algorithm == ALG_BFS:
        for dircode, endpoint, off, eid in directions:
            for s in sources:
                _enumerate_simple_paths(
                    n_vertices,
                    endpoint,
                    off,
                    eid,
                    s,
                    max_path_len,
                    lambda path, d=dircode: emit(path, d),
                )
    elif algorithm == ALG_RANDOM_WALK:
        rng = _SplitMix(seed)
        _random_walks(
            tails,
            out_off,
            out_eid,
            sources,
            max_path_len,
            walk_count,
            rng,
            lambda path: emit(path, DIR_FROM_QUERY),
        )
    else:
        raise ValueError(f"unknown algorithm code {algorithm}")


def search_kernels(
    n_vertices,
    heads,
    tails,
    out_off,
    out_eid,
    in_off,
    in_eid,
    scores,
    lex_rank,
    sources,
    algorithm,
    max_path_len,
    walk_count,
    seed,
):
    """All path kernels in canonical order, deduplicated, singletons last."""
    ne = len(heads)
    kernels: list[tuple[tuple[int, ...], int]] = []
    seen: set[tuple[int, ...]] = set()

    def add(path, dircode):
        key = tuple(path)
        if key not in seen:
            seen.add(key)
            kernels.append((key, dircode))

    _dispatch(
        n_vertices,
        heads,
        tails,
        out_off,
        out_eid,
        in_off,
        in_eid,
        scores,
        lex_rank,
        sources,
        algorithm,
        max_path_len,
        walk_count,
        seed,
        add,
    )
    covered = bytearray(ne)
    for key, _ in kernels:
        for e in key:
            covered[e] = 1
    for e in range(ne):
        if not covered[e]:
            kernels.append(((e,), DIR_SINGLETON))
    return kernels


def smooth_scores(
    n_vertices,
    heads,
    tails,
    out_off,
    out_eid,
    in_off,
    in_eid,
    scores,
    lex_rank,
    sources,
    algorithm,
    max_path_len,
    walk_count,
    seed,
    pooling,
    s_min,
    divisor,
):
    """Per-edge smoothed score: max over kernels of pooled + positional term."""
    ne = len(heads)
    final = [0.0] * ne
    covered = bytearray(ne)

    if algorithm == ALG_BFS:
        max_len = min(max_path_len, ne)
        pos = [0.0] + [s_min / (i * divisor) for i in range(1, max_len + 1)]
        for endpoint, off, eid in ((tails, out_off, out_eid), (heads, in_off, in_eid)):
            _bfs_smooth(
                n_vertices,
                endpoint,
                off,
                eid,
                scores,
                sources,
                max_len,
                pooling == 0,
                pos,
                final,
                covered,
            )
        return _fill_singletons(final, covered, scores, s_min, divisor)

    def process(path, _dircode):
        length = len(path)
        if pooling == 0:
            total = 0.0
            for e in path:
                total += scores[e]
            pooled = total / length
        else:
            pooled = scores[path[0]]
            for e in path:
                if scores[e] > pooled:
                    pooled = scores[e]
        i = 1
        for e in path:
            value = pooled + s_min / (i * divisor)
            if not covered[e]:
                covered[e] = 1
                final[e] = value
            elif value > final[e]:
                final[e] = value
            i += 1

    _dispatch(
        n_vertices,
        heads,
        tails,
        out_off,
        out_eid,
        in_off,
        in_eid,
        scores,
        lex_rank,
        sources,
        algorithm,
        max_path_len,
        walk_count,
        seed,
        process,
    )
    return _fill_singletons(final, covered, scores, s_min, divisor)


def _fill_singletons(final, covered, scores, s_min, divisor):
    for e in range(len(final)):
        if not covered[e]:
            final[e] = scores[e] + s_min / divisor
    return final

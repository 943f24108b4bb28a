"""Pure-Python backend for path-kernel search and score smoothing.

This is the reference implementation: ``search_kernels`` lives only here,
and the optional compiled ``_kernels_c.c`` implements ``smooth_scores``
alone, bit for bit the same. Both read one adjacency, the CSR over the
doubled graph (``off``/``eid``), with each slot's ends: ``src``, the vertex
that owns the slot, and ``dst``, the one its edge reaches; ``scores`` and
``rank`` are per-edge numpy columns. Vertex u of the from-query search is
u, with the edges u heads; vertex u of the to-query search is
``u + n_vertices``, with the edges u tails. No edge joins the halves, so
every search runs once over the doubled graph, from each source in both
halves. The from-query slots come first, and each vertex's edges are in
edge order. ``rank`` orders the edges by their (head, relation, tail)
labels; only its order is read.

Conventions the compiled ``smooth_scores`` shares:

* kernels are edge-id sequences ordered outward from the query entity, so
  position 1 is always the edge nearest a query entity, in both directions;
* direction codes: 0 = from query, 1 = to query, 2 = singleton;
* ``sources`` is a strictly ascending list of vertex ids;
* random walks draw from a splitmix64 stream with mask-rejection sampling,
  seeded with the seed modulo 2**64, so the walk sequence is identical
  across backends for a given seed.

Only ``search_kernels``, the test oracle, lists kernels: ``_dispatch``
feeds each one to a callback, on Python lists of the columns. Smoothing
pools no kernel on its own, in either backend. It folds: a path's best
pooled value, over the path and every kernel that extends it, goes to the
path or tree vertex it extends and, plus the positional term, onto its last
edge. Dijkstra and BFS fold numpy arrays over the doubled graph, so the two
search directions run as one:

* Dijkstra (``_tree_smooth``) grows both min-hop trees a level at a time
  and then pushes each vertex's pooled value up its tree as a subtree max;
* BFS (``_bfs_smooth``) holds the prefixes of up to ``max_path_len - 1``
  edges, one depth and one block at a time, each with its running sum (or
  max) and the best pooled value below it, and solves the last edge of the
  longest paths per prefix and per end vertex from the prefixes that end
  there;
* a random walk (``_walk_smooth``) is folded once it ends: its prefixes are
  its kernels, so each edge takes a suffix max of their pooled values.

The compiled core folds the same way as it searches: per tree vertex, per
depth-first prefix and per walk. The fold equals the per-kernel max bit for
bit: each float operation is the one a per-kernel loop does, and IEEE
rounding is monotone, since ``x + c``, ``x / n`` and the running max never
fall when ``x`` rises. So the max over paths of fl(pooled + c) is
fl(max pooled + c), and a path's pooled value is largest where its prefix's
and its last edge's are. (The one exception is the sign of a zero result
when the smallest score is ``-0.0``; ``smooth`` shifts every score positive
first.)
"""

from __future__ import annotations

import numpy as np

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


def _shortest_path_tree(off, eid, dst, scores, rank, roots):
    """Multi-source min-hop tree; one path per reachable vertex.

    Ties at equal hop count prefer higher cumulative edge score, then the
    lexicographically smaller sequence of edge ranks.
    """
    n_vertices = len(off) - 1
    dist = [-1] * n_vertices
    parent_edge = [-1] * n_vertices
    parent_vertex = [-1] * n_vertices
    cum = [0.0] * n_vertices
    for s in roots:
        dist[s] = 0
    frontier = list(roots)
    depth = 0
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for k in range(off[u], off[u + 1]):
                e = eid[k]
                v = dst[k]
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
                            parent_edge, parent_vertex, rank, e, u, depth + 1
                        )
                        best_ranks = _tail_ranks(
                            parent_edge,
                            parent_vertex,
                            rank,
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


def _tail_ranks(parent_edge, parent_vertex, rank, last_edge, last_vertex, length):
    """Front-to-back edge ranks of path(last_vertex) extended by last_edge."""
    buf = [0] * length
    buf[length - 1] = rank[last_edge]
    x = last_vertex
    i = length - 2
    while i >= 0:
        buf[i] = rank[parent_edge[x]]
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


def _enumerate_simple_paths(off, eid, dst, source, max_len, emit):
    """Preorder emission of every simple path of 1..max_len edges from source."""
    visited = bytearray(len(off) - 1)
    visited[source] = 1
    path: list[int] = []
    stack = [[source, off[source]]]
    while stack:
        frame = stack[-1]
        u, k = frame
        if k >= off[u + 1]:
            stack.pop()
            if path:
                path.pop()
                visited[u] = 0
            continue
        frame[1] = k + 1
        e = eid[k]
        v = dst[k]
        if visited[v]:
            continue
        path.append(e)
        emit(path)
        if len(path) < max_len:
            visited[v] = 1
            stack.append([v, off[v]])
        else:
            path.pop()


# Longer prefixes one block of BFS smoothing may create at once, counted
# before the simple-path test; a prefix with more out-edges than this is a
# block alone. The arrays held per prefix depth grow with this, not with the
# number of paths.
BFS_BLOCK_PATHS = 4096


class _Level:
    """Simple paths of ``depth`` edges from a source, path i in column i.

    Path i has the vertices ``verts[:, i]`` (source first), the running sum
    or max ``acc[i]`` of its edge scores, the last edge ``edges[i]`` and the
    path ``parents[i]`` of the level above that it extends. ``best`` starts
    as each path's pooled value and takes the best pooled value of every
    longer path through it as the blocks below are folded in. With the
    paths along the last axis, a test against one vertex position is one
    contiguous numpy operation.
    """

    __slots__ = (
        "verts", "acc", "edges", "parents", "depth", "best",
        "first", "count", "bounds", "next",
    )

    def __init__(self, verts, acc, edges, parents, depth, best):
        self.verts = verts
        self.acc = acc
        self.edges = edges
        self.parents = parents
        self.depth = depth
        self.best = best

    def open(self, off) -> None:
        """Lay the paths' out-edges end to end, to be expanded a block at a time."""
        self.first = off[self.verts[-1]]
        self.count = off[self.verts[-1] + 1] - self.first
        self.bounds = np.cumsum(self.count)  # where each path's out-edges end
        self.next = 0

    def block(self):
        """The next block: each of its out-edges' path and CSR slot."""
        lo = self.next
        start = self.bounds[lo] - self.count[lo]
        limit = start + BFS_BLOCK_PATHS
        hi = max(lo + 1, int(self.bounds.searchsorted(limit, side="right")))
        self.next = hi
        paths, slots = _spans(self.first[lo:hi], self.count[lo:hi])
        return paths + lo, slots


def _spans(first, count):
    """Owner and CSR slot of every entry of the spans [first, first + count)."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + (first - np.cumsum(count) + count)[owner]


class _PrefixFold:
    """BFS smoothing of both search directions; see ``_bfs_smooth``.

    The two searches run as one on the doubled graph. Per CSR slot, ``src``
    is the vertex the edge leaves, ``dst`` the one it reaches and ``eid``
    the edge.
    """

    def __init__(self, off, eid, src, dst, scores, max_len, average, pos, final):
        self.off = off
        self.eid = eid
        self.src = src
        self.dst = dst
        self.n_vertices = (len(off) - 1) // 2
        self.scores = scores
        self.max_len = max_len
        self.average = average
        self.pos = pos
        self.final = final

    def run(self, sources) -> None:
        sources = np.asarray(sources, dtype=np.intp)
        roots = np.concatenate((sources, sources + self.n_vertices))[None, :]
        start = np.full(roots.shape[1], 0.0 if self.average else -np.inf)
        root = _Level(roots, start, None, None, 0, start.copy())
        root.open(self.off)
        stack = [root]
        top = None  # the out-neighbour table, built at the first longest paths
        while stack:
            level = stack[-1]
            if level.next == len(level.acc):  # every block expanded
                stack.pop()
                if stack:
                    self._fold(level, stack[-1].best)
                continue
            child = self._expand(level)
            if child is None:
                continue
            if child.depth < self.max_len - 1:
                child.open(self.off)
                stack.append(child)
                continue
            if top is None:
                top = self._top_neighbours()
            self._close(child, top)
            self._fold(child, level.best)

    def _expand(self, level):
        """The next block of ``level``'s paths, each extended by every edge to
        a vertex off it; None when there is no such edge."""
        paths, slots = level.block()
        ends = self.dst[slots]
        verts = level.verts.take(paths, axis=1)
        free = (verts != ends).all(axis=0)
        if not free.any():
            return None
        paths, slots = paths[free], slots[free]
        edges = self.eid[slots]
        below = level.acc[paths]
        score = self.scores[edges]
        depth = level.depth + 1
        if self.average:
            acc = below + score
            best = acc / depth
        else:
            acc = np.where(score > below, score, below)
            best = acc.copy()
        # compress keeps the C order the row-wise tests rely on
        verts = np.concatenate((verts.compress(free, axis=1), ends[None, free]))
        return _Level(verts, acc, edges, paths, depth, best)

    def _fold(self, level, parent_best) -> None:
        """Push a finished level's best values onto its edges and its parents."""
        np.maximum.at(self.final, level.edges, level.best + self.pos[level.depth])
        np.maximum.at(parent_best, level.parents, level.best)

    def _close(self, level, top) -> None:
        """Fold in the paths one edge longer than ``level``'s, the longest ones.

        Such a path is a prefix ending at u plus one edge u->v with v off the
        prefix. Its pooled value never falls when the prefix's running value
        or the edge's score rises, so each prefix takes its best-scored free
        out-edge, and each edge u->v the best prefix at u that avoids v.
        """
        max_len = self.max_len
        verts, acc = level.verts, level.acc
        u = verts[-1]
        # each prefix's best extension: the best of u's top out-neighbours
        # that is off the prefix (slot -1 is the table's pad)
        top_off, top_dst, top_score, width = top
        slots = top_off[u] + np.arange(width)[:, None]
        slots = np.where(slots < top_off[u + 1], slots, -1)
        free = (verts[:, None, :] != top_dst[slots]).all(axis=0)
        score = np.where(free, top_score[slots], -np.inf).max(axis=0)
        if self.average:
            np.maximum(level.best, (acc + score) / max_len, out=level.best)
        else:
            level.best = np.where(score > acc, score, acc)
        # per end vertex (group g): its best prefix, and for each vertex j of
        # that one (u itself included) the best prefix at u that avoids it
        best_acc = np.full(len(self.off) - 1, -np.inf)
        np.maximum.at(best_acc, u, acc)
        ends = np.flatnonzero(best_acc > -np.inf)
        group = np.full(len(best_acc), -1)
        group[ends] = np.arange(len(ends))
        g = group[u]
        best_acc = best_acc[ends]
        paths = np.flatnonzero(acc == best_acc[g])
        best_path = np.empty(len(ends), dtype=np.intp)
        best_path[g[paths]] = paths
        best_verts = verts.take(best_path, axis=1)
        avoid = np.full(best_verts.shape, -np.inf)
        for j, vertex in enumerate(best_verts.take(g, axis=1)):
            held = (verts == vertex).any(axis=0)
            np.maximum.at(avoid[j], g, np.where(held, -np.inf, acc))
        # each edge u->v out of an end vertex: avoid[j] when v is vertex j
        # of u's best prefix, else the best (avoid <= best, so take the min)
        g = group[self.src]
        slots = np.flatnonzero(g >= 0)
        g = g[slots]
        below = np.where(
            best_verts.take(g, axis=1) == self.dst[slots],
            avoid.take(g, axis=1),
            best_acc[g],
        ).min(axis=0)
        reached = below > -np.inf
        edges, below = self.eid[slots[reached]], below[reached]
        score = self.scores[edges]
        if self.average:
            pooled = (below + score) / max_len
        else:
            pooled = np.where(score > below, score, below)
        np.maximum.at(self.final, edges, pooled + self.pos[max_len])

    def _top_neighbours(self):
        """Each vertex's best-scored distinct out-neighbours, best first.

        A CSR of at most ``max_len + 1`` per vertex: offsets, neighbours and
        the score of each one's best edge, both ending in a pad entry (-1,
        -inf), and the largest count. A prefix ending at u holds ``max_len``
        vertices, so when any neighbour of u is off the prefix, one of these
        is.
        """
        n = len(self.off) - 1
        # the best edge of each (src, dst) pair; pairs grouped by src. The
        # int64 pairs are timsorted, which merges runs: the slots come in
        # src order already, so only each vertex's own pairs are out of order
        pair = self.src * n + self.dst
        order = pair.argsort(kind="stable")
        pair = pair[order]
        first = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
        score = np.maximum.reduceat(self.scores[self.eid[order]], first)
        pair = pair[first]
        # each src's pairs, best first: its pairs in score order, kept in
        # that order by a stable sort on src
        order = (-score).argsort()
        order = order[_stable_order(pair[order] // n, n)]
        pair, score = pair[order], score[order]
        src = pair // n
        keep = np.arange(len(src)) - src.searchsorted(src) <= self.max_len
        count = np.bincount(src[keep], minlength=n)
        off = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(count, out=off[1:])
        dst = np.append(pair[keep] % n, -1)
        return off, dst, np.append(score[keep], -np.inf), int(count.max())


def _bfs_smooth(off, eid, src, dst, scores, sources, max_len, average, pos, final):
    """Fold every simple path of 1..max_len edges into ``final``.

    Per edge, the max over the paths ``_enumerate_simple_paths`` would emit
    in both directions of pooled + ``pos[position]``, without listing them:

    * the prefixes of up to ``max_len - 1`` edges are built as numpy
      columns (``_Level``), one depth at a time and at most
      ``BFS_BLOCK_PATHS`` new ones at a time; each carries its prefix's
      running sum (or max), the float sequence a per-path loop computes;
    * the paths of ``max_len`` edges are solved per prefix and per edge
      (``_PrefixFold._close``), so they are never listed either;
    * once every block below a prefix is done, its best pooled value goes
      to its parent and to ``final`` at its last edge, by ``np.maximum.at``.

    ``final`` holds -inf for an edge no path has reached yet; scores are
    finite.
    """
    if max_len < 2:
        return  # a one-edge path scores as the singleton the caller gives it
    _PrefixFold(off, eid, src, dst, scores, max_len, average, pos, final).run(sources)


def _tree_smooth(off, eid, src, dst, scores, rank, sources, average, s_min, divisor,
                 final):
    """Fold the min-hop trees of both directions into ``final``.

    Per edge, the max over the tree paths ``_shortest_path_tree`` gives of
    pooled + s_min / (position * divisor), without walking a path:

    * both trees grow as one, a level at a time over the doubled graph. A
      vertex first reached at depth d + 1 takes, of the edges into it from
      depth d, the one with the largest running sum ``acc[u] + score``; a
      tie goes to the smallest pair (u's place in its level, the edge's
      ``rank``). A level's vertices are placed in the order of the pairs
      that reached them, so the pair orders two tied paths as comparing
      their edge ranks front to back does (every source has place 0, as
      its path has no edge);
    * a vertex's pooled value is its running sum over its depth, or its
      running max;
    * from the deepest level up, each vertex's best value, the max over its
      subtree, goes to its parent, and best + positional term to its parent
      edge, which is at position ``depth`` on every path through it.

    ``final`` holds -inf for an edge on no tree path; scores are finite.
    """
    n = len(off) - 1
    depth_of = np.full(n, -1)
    depth_of[sources] = depth_of[sources + n // 2] = 0
    place = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n)  # running sum of each tree path's scores
    peak = np.full(n, -np.inf)  # running max, for max pooling
    best = np.empty(n)  # pooled value, then the max over the subtree
    width = int(rank.max()) + 1
    levels = []
    while True:
        depth = len(levels)
        slots = np.flatnonzero((depth_of[src] == depth) & (depth_of[dst] < 0))
        if not len(slots):
            break
        ends, edges, parents = dst[slots], eid[slots], src[slots]
        total = acc[parents] + scores[edges]
        pair = place[parents] * width + rank[edges]
        # per end vertex, the largest sum and then the smallest pair first
        order = np.lexsort((pair, -total, ends))
        ends_sorted = ends[order]
        won = order[np.concatenate(([True], ends_sorted[1:] != ends_sorted[:-1]))]
        won = won[pair[won].argsort()]
        vertices, parents, edges = ends[won], parents[won], edges[won]
        depth_of[vertices] = depth + 1
        place[vertices] = np.arange(len(vertices))
        acc[vertices] = total[won]
        if average:
            best[vertices] = acc[vertices] / (depth + 1)
        else:
            peak[vertices] = np.maximum(peak[parents], scores[edges])
            best[vertices] = peak[vertices]
        levels.append((vertices, parents, edges))
    for depth in range(len(levels), 0, -1):
        vertices, parents, edges = levels[depth - 1]
        if depth > 1:
            np.maximum.at(best, parents, best[vertices])
        np.maximum.at(final, edges, best[vertices] + s_min / (depth * divisor))


def _random_walks(off, eid, dst, sources, max_len, walk_count, rng):
    """Uniform out-edge walks; a walk ends at a dead end, max_len, or a revisit.

    Walks start at the sources and stay in the from-query half of the
    doubled graph. Yields each walk's edge list once it ends; its kernels
    are its prefixes.
    """
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
                k = lo + rng.below(degree)
                e = eid[k]
                v = dst[k]
                if v in visited:
                    break
                path.append(e)
                visited.add(v)
                u = v
            yield path


def _walk_smooth(walks, scores, average, pos, final):
    """Fold the prefixes of every walk into ``final``, a list.

    Edge i of a walk is edge i of each prefix of i or more edges, so it
    takes the best of their pooled values: a suffix max from the walk's end.
    Each prefix's running sum (or max) is the float sequence a per-prefix
    loop computes. ``pos`` has an entry for every walk length.
    """
    start = 0.0 if average else -np.inf
    lowest = -np.inf
    prefix = [0.0] * len(pos)  # the pooled value of each prefix, by length
    for walk in walks:
        acc = start
        length = 0
        for e in walk:
            score = scores[e]
            length += 1
            if average:
                acc += score
                prefix[length] = acc / length
            else:
                acc = score if score > acc else acc
                prefix[length] = acc
        best = lowest
        while length:
            if prefix[length] > best:
                best = prefix[length]
            value = best + pos[length]
            e = walk[length - 1]
            if value > final[e]:
                final[e] = value
            length -= 1


def _dispatch(
    n_vertices,
    off,
    eid,
    dst,
    scores,
    rank,
    sources,
    algorithm,
    max_path_len,
    walk_count,
    seed,
    emit,
):
    """Run one search algorithm, feeding every kernel to ``emit(path, dircode)``.

    Dijkstra and BFS search from every root of the doubled graph, the
    sources and then each source + n_vertices; a path is to the query when
    its root is in the second half.
    """
    if not sources:
        return
    roots = [*sources, *(s + n_vertices for s in sources)]
    if algorithm == ALG_DIJKSTRA:
        dist, parent_edge, parent_vertex = _shortest_path_tree(
            off, eid, dst, scores, rank, roots
        )
        for v, d in enumerate(dist):
            if d >= 1:
                dircode = DIR_TO_QUERY if v >= n_vertices else DIR_FROM_QUERY
                emit(_path_edges(parent_edge, parent_vertex, v, d), dircode)
    elif algorithm == ALG_BFS:
        for s in roots:
            dircode = DIR_TO_QUERY if s >= n_vertices else DIR_FROM_QUERY
            _enumerate_simple_paths(
                off, eid, dst, s, max_path_len, lambda path, d=dircode: emit(path, d)
            )
    elif algorithm == ALG_RANDOM_WALK:
        walks = _random_walks(
            off, eid, dst, sources, max_path_len, walk_count, _SplitMix(seed)
        )
        for walk in walks:
            for length in range(1, len(walk) + 1):
                emit(walk[:length], DIR_FROM_QUERY)
    else:
        raise ValueError(f"unknown algorithm code {algorithm}")


def _stable_order(keys, bound):
    """``keys.argsort(kind="stable")`` for integer keys in ``0..bound``.

    The keys are sorted in the narrowest dtype that holds ``bound``: numpy's
    stable sort is a radix sort for integers of 16 bits or fewer and a
    timsort for wider ones, and both give this one permutation.
    """
    return keys.astype(np.min_scalar_type(bound)).argsort(kind="stable")


def _as_lists(*columns):
    """Lists of numpy columns, for the loops that read them an item at a time."""
    return [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]


def search_kernels(
    n_vertices,
    off,
    eid,
    src,
    dst,
    scores,
    rank,
    sources,
    algorithm,
    max_path_len,
    walk_count,
    seed,
):
    """All path kernels in canonical order, deduplicated, singletons last."""
    ne = len(scores)
    kernels: list[tuple[tuple[int, ...], int]] = []
    seen: set[tuple[int, ...]] = set()

    def add(path, dircode):
        key = tuple(path)
        if key not in seen:
            seen.add(key)
            kernels.append((key, dircode))

    _dispatch(
        n_vertices,
        *_as_lists(off, eid, dst, scores, rank),
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
    off,
    eid,
    src,
    dst,
    scores,
    rank,
    sources,
    algorithm,
    max_path_len,
    walk_count,
    seed,
    pooling,
    s_min,
    divisor,
):
    """Per-edge smoothed score: max over kernels of pooled + positional term.

    The columns are numpy arrays (``rank`` may be None unless the algorithm
    is dijkstra) and ``scores`` are finite; the result is a float64 array.
    """
    if algorithm not in (ALG_DIJKSTRA, ALG_BFS, ALG_RANDOM_WALK):
        raise ValueError(f"unknown algorithm code {algorithm}")
    ne = len(scores)
    final = np.full(ne, -np.inf)  # -inf: on no kernel yet
    if not len(sources):
        return _fill_singletons(final, scores, s_min, divisor)
    average = pooling == 0
    if algorithm == ALG_DIJKSTRA:
        sources = np.asarray(sources, dtype=np.intp)
        _tree_smooth(
            off, eid, src, dst, scores, rank, sources, average, s_min, divisor, final
        )
        return _fill_singletons(final, scores, s_min, divisor)
    max_len = min(max_path_len, ne)
    pos = [0.0] + [s_min / (i * divisor) for i in range(1, max_len + 1)]
    if algorithm == ALG_BFS:
        sources = np.asarray(sources, dtype=np.intp)
        _bfs_smooth(off, eid, src, dst, scores, sources, max_len, average, pos, final)
        return _fill_singletons(final, scores, s_min, divisor)
    off, eid, dst, score_list = _as_lists(off, eid, dst, scores)
    walks = _random_walks(off, eid, dst, sources, max_len, walk_count, _SplitMix(seed))
    values = final.tolist()
    _walk_smooth(walks, score_list, average, pos, values)
    return _fill_singletons(np.array(values), scores, s_min, divisor)


def _fill_singletons(final, scores, s_min, divisor):
    """Edges on no kernel score as a one-edge kernel: score + s_min/divisor."""
    return np.where(final == -np.inf, scores + s_min / divisor, final)

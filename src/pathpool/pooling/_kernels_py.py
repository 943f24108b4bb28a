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
* a random walk draws each step by counter, with no stream state. With
  ``splitmix(base, n) = mix(base + G * n)`` the n-th output of the
  splitmix64 stream seeded with base (``mix`` its output function,
  ``G = 0x9E3779B97F4A7C15``, all arithmetic modulo 2**64), walk w from
  ``sources[i]`` has the key ``k = splitmix(seed, i * walk_count + w + 1)``.
  Attempt a (from 0) of its step t (from 0), at a vertex of d out-slots,
  draws ``splitmix(k, t * 2**32 + a + 1) & m``, with m the least
  ``2**b - 1`` that is at least ``d - 1``. A draw below d picks that
  out-slot; any other is rejected, and attempt a + 1 draws. So each step is
  a pure function of (seed, source position, walk, step, attempt): every
  walk is uniform, seeded and identical across backends.

Only ``search_kernels`` lists kernels: each dijkstra tree path is read off
``_tree_levels``, the trees ``_tree_smooth`` folds, each BFS path is
emitted by ``_enumerate_simple_paths`` and each walk's prefixes are read
off ``_walks``. Smoothing pools no kernel on its own, in either backend. It
folds: a path's best pooled value, over the path and every kernel that
extends it, goes to the path or tree vertex it extends and, plus the
positional term, onto its last edge. All three fold numpy arrays, and
dijkstra and BFS run over the doubled graph, so the two search directions
run as one:

* Dijkstra (``_tree_smooth``) takes both min-hop trees, grown a level at a
  time by ``_tree_levels``, and pushes each vertex's pooled value up its
  tree as a subtree max;
* BFS (``_PrefixFold``) holds the prefixes of up to ``max_path_len - 1``
  edges, one depth and one block at a time, each with its running sum (or
  max) and the best pooled value below it, and solves the last edge of the
  longest paths per prefix and per edge. Both read dense tables indexed by
  vertex: a prefix takes the best of its end vertex's ``max_path_len`` best
  distinct out-neighbours that is off it, and an edge u->v the best prefix
  at u, or when v is on that one, the best prefix at u that avoids v;
* random walks (``_walks``) step a block of walks at once, and
  ``_walk_smooth`` folds the block's edge matrix once its walks end: a
  walk's prefixes are its kernels, so each edge takes a suffix max of their
  pooled values.

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
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment


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
# number of paths. A block of random walks holds this many walks.
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
        "count", "bounds", "shift", "next",
    )

    def __init__(self, verts, acc, edges, parents, depth, best):
        self.verts = verts
        self.acc = acc
        self.edges = edges
        self.parents = parents
        self.depth = depth
        self.best = best

    def open(self, off, degree) -> None:
        """Lay the paths' out-edges end to end, to be expanded a block at a time."""
        end = self.verts[-1]
        self.count = degree[end]
        self.bounds = np.cumsum(self.count)  # where each path's out-edges end
        # out-edge i of the row lies at CSR slot i + shift of its path
        self.shift = off[end] - self.bounds + self.count
        self.next = 0

    def block(self):
        """The next block: each of its out-edges' path and CSR slot."""
        lo = self.next
        start = self.bounds[lo] - self.count[lo]
        limit = start + BFS_BLOCK_PATHS
        hi = max(lo + 1, int(self.bounds.searchsorted(limit, side="right")))
        self.next = hi
        paths = np.repeat(np.arange(lo, hi), self.count[lo:hi])
        return paths, np.arange(start, self.bounds[hi - 1]) + self.shift[paths]


class _PrefixFold:
    """BFS smoothing: fold every simple path of 1..max_len edges into ``final``.

    Per edge, the max over the paths ``_enumerate_simple_paths`` would emit
    in both directions of pooled + ``pos[position]``, without listing them:

    * the prefixes of up to ``max_len - 1`` edges are built as numpy
      columns (``_Level``), one depth at a time and at most
      ``BFS_BLOCK_PATHS`` new ones at a time; each carries its prefix's
      running sum (or max), the float sequence a per-path loop computes;
    * the paths of ``max_len`` edges are solved per prefix and per edge
      (``_close``), so they are never listed either;
    * once every block below a prefix is done, its best pooled value goes
      to its parent and to ``final`` at its last edge, by ``np.maximum.at``.

    The two searches run as one on the doubled graph. Per CSR slot, ``src``
    is the vertex the edge leaves, ``dst`` the one it reaches and ``eid``
    the edge. ``final`` holds -inf for an edge no path has reached yet;
    scores are finite, and ``max_len`` is at least 2.
    """

    def __init__(self, off, eid, src, dst, scores, max_len, average, pos, final):
        self.off = off
        self.eid = eid
        self.src = src
        self.dst = dst
        self.n_vertices = (len(off) - 1) // 2
        self.max_len = max_len
        self.average = average
        self.pos = pos
        self.final = final
        self.degree = np.diff(off)
        self.slot_score = scores[eid]
        self.loop = src == dst

    def run(self, sources) -> None:
        roots = np.concatenate((sources, sources + self.n_vertices))[None, :]
        start = np.full(roots.shape[1], 0.0 if self.average else -np.inf)
        root = _Level(roots, start, None, None, 0, start.copy())
        root.open(self.off, self.degree)
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
                child.open(self.off, self.degree)
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
        free = np.flatnonzero((verts != ends).all(axis=0))
        if not len(free):
            return None
        paths, ends, slots = paths[free], ends[free], slots[free]
        edges = self.eid[slots]
        below = level.acc[paths]
        score = self.slot_score[slots]
        depth = level.depth + 1
        if self.average:
            acc = below + score
            best = acc / depth
        else:
            acc = np.where(score > below, score, below)
            best = acc.copy()
        verts = np.concatenate((verts.take(free, axis=1), ends[None]))
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
        out-edge, and each edge u->v the best prefix at u that avoids v. The
        first reads ``top``, the tables of ``_top_neighbours``, at u; the
        second reads arrays indexed by vertex, built from ``level``'s
        prefixes: each vertex's best prefix, and the best that avoids each
        vertex on that one.
        """
        max_len = self.max_len
        verts, acc = level.verts, level.acc
        u = verts[-1]
        # each prefix's best extension: the best of u's top neighbours that
        # is off the prefix (u itself is none of them)
        top_dst, top_score = top
        near = top_dst.take(u, axis=1)
        score = top_score.take(u, axis=1)
        for vertex in verts[:-1]:
            score[near == vertex] = -np.inf
        score = score.max(axis=0)
        if self.average:
            np.maximum(level.best, (acc + score) / max_len, out=level.best)
        else:
            level.best = np.where(score > acc, score, acc)
        # per vertex: its best prefix, and for each vertex of that one but
        # itself (every prefix at u holds u) the best prefix at u that
        # avoids it; -inf where no prefix ends
        n = len(self.off) - 1
        best_acc = np.full(n, -np.inf)
        np.maximum.at(best_acc, u, acc)
        best_path = np.zeros(n, dtype=np.intp)
        paths = np.flatnonzero(acc == best_acc[u])
        best_path[u[paths]] = paths
        # each edge u->v: the best prefix at u, or the one avoiding v when v
        # is on it; a self-loop has none
        src, dst = self.src, self.dst
        below = np.where(self.loop, -np.inf, best_acc[src])
        for row in verts[:-1]:
            vertex = row[best_path]
            held = (verts[:-1] == vertex[u]).any(axis=0)
            avoid = np.full(n, -np.inf)
            np.maximum.at(avoid, u, np.where(held, -np.inf, acc))
            below = np.where(vertex[src] == dst, avoid[src], below)
        slots = np.flatnonzero(below > -np.inf)
        below, score = below[slots], self.slot_score[slots]
        if self.average:
            pooled = (below + score) / max_len
        else:
            pooled = np.where(score > below, score, below)
        np.maximum.at(self.final, self.eid[slots], pooled + self.pos[max_len])

    def _top_neighbours(self):
        """Each vertex's best-scored distinct out-neighbours, best first.

        Two dense ``(max_len, 2 * n_vertices)`` tables: row k holds each
        vertex's k-th best neighbour and the score of its best edge there,
        found as the best edge left once the edges to the neighbours of rows
        0..k-1 are dropped (of tied neighbours, the largest id). A self-loop
        counts for none, and a vertex with fewer neighbours scores -inf in
        the rows past them. A prefix ending at u holds u and ``max_len - 1``
        other vertices, so when any neighbour of u is off the prefix, one of
        these is.
        """
        n = len(self.off) - 1
        src, dst = self.src, self.dst
        score = np.where(self.loop, -np.inf, self.slot_score)
        top_dst = np.full((self.max_len, n), -1)
        top_score = np.full((self.max_len, n), -np.inf)
        for near, best in zip(top_dst, top_score):
            np.maximum.at(best, src, score)
            np.maximum.at(near, src, np.where(score == best[src], dst, -1))
            score[dst == near[src]] = -np.inf
        return top_dst, top_score


def _tree_levels(off, eid, src, dst, scores, rank, sources):
    """Both min-hop trees, grown as one a level at a time over the doubled graph.

    The roots, at depth 0, are ``sources`` and each ``source + n_vertices``.
    A vertex first reached at depth d + 1 takes, of the edges into it from a
    depth-d vertex u, the one whose path (u's tree path, then the edge) has
    the largest running sum, ``acc[u] + score`` with ``acc[u]`` the float sum
    of u's tree path's scores front to back; a tie goes to the smallest
    sequence of edge ranks, compared front to back. So each vertex extends
    one depth-d vertex's tree path: this is a tree, not the best of all
    min-hop paths to each vertex, which differ where two sums round equal
    at depth d but not once extended.

    The rank comparison is one pair per candidate, (u's place in its level,
    the edge's ``rank``): a level's vertices are placed in the order of the
    pairs that reached them, and every root has place 0. Returns the levels,
    one ``(vertices, parents, edges)`` triple of arrays per depth 1, 2, ...
    (each vertex of the level in place order, its tree parent and the edge
    from that parent), and ``acc``, indexed by vertex.
    """
    n = len(off) - 1
    depth_of = np.full(n, -1)
    depth_of[sources] = depth_of[sources + n // 2] = 0
    place = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n)  # running sum of each tree path's scores
    width = int(rank.max()) + 1
    levels = []
    while True:
        depth = len(levels)
        slots = np.flatnonzero((depth_of[src] == depth) & (depth_of[dst] < 0))
        if not len(slots):
            return levels, acc
        ends, edges, parents = dst[slots], eid[slots], src[slots]
        total = acc[parents] + scores[edges]
        pair = place[parents] * width + rank[edges]
        # per end vertex, the largest sum and then the smallest pair first
        order = np.lexsort((pair, -total, ends))
        ends_sorted = ends[order]
        won = order[np.concatenate(([True], ends_sorted[1:] != ends_sorted[:-1]))]
        won = won[pair[won].argsort()]
        vertices = ends[won]
        depth_of[vertices] = depth + 1
        place[vertices] = np.arange(len(vertices))
        acc[vertices] = total[won]
        levels.append((vertices, parents[won], edges[won]))


def _tree_smooth(off, eid, src, dst, scores, rank, sources, average, s_min, divisor,
                 final):
    """Fold the min-hop trees of both directions into ``final``.

    Per edge, the max over the paths of the ``_tree_levels`` trees of
    pooled + s_min / (position * divisor), without walking a path:

    * a vertex's pooled value is its tree path's running sum ``acc`` over
      its depth, or its running max, found a level at a time from its
      parent's;
    * from the deepest level up, each vertex's best value, the max over its
      subtree, goes to its parent, and best + positional term to its parent
      edge, which is at position ``depth`` on every path through it.

    ``final`` holds -inf for an edge on no tree path; scores are finite.
    """
    levels, acc = _tree_levels(off, eid, src, dst, scores, rank, sources)
    best = np.full(len(off) - 1, -np.inf)  # pooled value, then the subtree max
    for depth, (vertices, parents, edges) in enumerate(levels, 1):
        if average:
            best[vertices] = acc[vertices] / depth
        else:  # the running max, from -inf at the roots
            best[vertices] = np.maximum(best[parents], scores[edges])
    for depth in range(len(levels), 0, -1):
        vertices, parents, edges = levels[depth - 1]
        if depth > 1:
            np.maximum.at(best, parents, best[vertices])
        np.maximum.at(final, edges, best[vertices] + s_min / (depth * divisor))


def _walks(off, eid, dst, sources, max_len, walk_count, seed):
    """Uniform out-edge walks, every walk of a block stepped at once.

    Walk w from ``sources[i]`` is lane ``i * walk_count + w``; a block is at
    most ``BFS_BLOCK_PATHS`` consecutive lanes. A walk ends at a dead end,
    after ``max_len`` edges or where its next vertex is one it holds, and
    stays in the from-query half of the doubled graph. Each step draws by
    counter (module docstring), and the live walks' vertices are a
    (steps + 1, walks) matrix. Yields each block as a (steps, walks) matrix
    of edge ids, column j the walk of the block's lane j, -1 past its end.
    """
    degree = np.diff(off)
    total = len(sources) * walk_count
    for lo in range(0, total, BFS_BLOCK_PATHS):
        hi = min(lo + BFS_BLOCK_PATHS, total)
        lanes = np.arange(lo, hi)
        u = sources[lanes // walk_count]
        keys = (lanes + 1).astype(np.uint64) * np.uint64(_GOLDEN)
        keys = _mix(keys + np.uint64(seed & _MASK64))
        live = np.arange(hi - lo)
        verts = u[None]
        rows = []
        for step in range(max_len):
            out = degree[u]
            # a dead end draws the slot after its own, and stops below
            slot = off[u] + _draw(keys, np.maximum(out, 1), step)
            v = dst[slot]
            go = np.flatnonzero((out > 0) & (verts != v).all(axis=0))
            if not len(go):
                break
            live, u, keys = live[go], v[go], keys[go]
            verts = np.vstack((verts[:, go], u))
            row = np.full(hi - lo, -1)
            row[live] = eid[slot[go]]
            rows.append(row)
        yield np.array(rows, dtype=np.intp).reshape(len(rows), hi - lo)


def _mix(z):
    """splitmix64's output function, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _draw(keys, degree, step):
    """Each walk's out-slot below ``degree`` at ``step``, by mask rejection."""
    mask = (np.ldexp(1.0, np.frexp(degree - 1)[1]) - 1).astype(np.uint64)
    bound = degree.astype(np.uint64)
    slot = np.empty(len(keys), dtype=np.intp)
    todo = np.arange(len(keys))
    attempt = 0
    while len(todo):
        counter = _GOLDEN * ((step << 32) + attempt + 1) & _MASK64
        value = _mix(keys[todo] + np.uint64(counter)) & mask[todo]
        kept = value < bound[todo]
        slot[todo[kept]] = value[kept]
        todo = todo[~kept]
        attempt += 1
    return slot


def _walk_smooth(edges, scores, average, pos, final):
    """Fold one block of walks, ``_walks``' edge matrix, into ``final``.

    A walk's kernels are its prefixes, and edge i of a walk is edge i of
    each prefix of i or more edges, so it takes the best of their pooled
    values: a suffix max down the walk's column. The running sums are an
    ``np.cumsum`` down each column, the float sequence a per-prefix loop
    computes. ``pos`` has an entry for every walk length.
    """
    on = edges >= 0
    score = np.where(on, scores[edges], 0.0)
    if average:
        pooled = np.cumsum(score, axis=0) / np.arange(1, len(edges) + 1)[:, None]
    else:
        pooled = np.maximum.accumulate(score, axis=0)
    pooled[~on] = -np.inf
    best = np.maximum.accumulate(pooled[::-1], axis=0)[::-1]
    best += np.array(pos[1 : len(edges) + 1])[:, None]
    np.maximum.at(final, edges[on], best[on])


def _stable_order(keys, bound):
    """``keys.argsort(kind="stable")`` for integer keys in ``0..bound``.

    The keys are sorted in the narrowest dtype that holds ``bound``: numpy's
    stable sort is a radix sort for integers of 16 bits or fewer and a
    timsort for wider ones, and both give this one permutation.
    """
    return keys.astype(np.min_scalar_type(bound)).argsort(kind="stable")


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
    sources = np.asarray(sources, dtype=np.intp)
    ne = len(scores)
    kernels: list[tuple[tuple[int, ...], int]] = []
    seen: set[tuple[int, ...]] = set()

    def add(path, dircode):
        key = tuple(path)
        if key not in seen:
            seen.add(key)
            kernels.append((key, dircode))

    if algorithm == ALG_RANDOM_WALK:
        for edges in _walks(off, eid, dst, sources, max_path_len, walk_count, seed):
            for walk, length in zip(edges.T.tolist(), (edges >= 0).sum(axis=0).tolist()):
                for end in range(1, length + 1):
                    add(walk[:end], DIR_FROM_QUERY)
    elif algorithm == ALG_DIJKSTRA:
        # each reached vertex's tree path, the vertices in ascending order
        paths: dict[int, tuple[int, ...]] = {}
        levels, _ = _tree_levels(off, eid, src, dst, scores, rank, sources)
        for level in levels:
            for v, u, e in zip(*(column.tolist() for column in level)):
                paths[v] = paths.get(u, ()) + (e,)
        for v in sorted(paths):
            add(paths[v], DIR_TO_QUERY if v >= n_vertices else DIR_FROM_QUERY)
    elif algorithm == ALG_BFS:
        off, eid, dst = off.tolist(), eid.tolist(), dst.tolist()
        for s in np.concatenate((sources, sources + n_vertices)).tolist():
            dircode = DIR_TO_QUERY if s >= n_vertices else DIR_FROM_QUERY
            _enumerate_simple_paths(
                off, eid, dst, s, max_path_len, lambda path, d=dircode: add(path, d)
            )
    else:
        raise ValueError(f"unknown algorithm code {algorithm}")
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

    The columns are numpy arrays and ``scores`` are finite; the result is a
    float64 array. An edge on no kernel scores as a one-edge kernel,
    score + s_min / divisor.
    """
    sources = np.asarray(sources, dtype=np.intp)
    final = np.full(len(scores), -np.inf)  # -inf: on no kernel yet
    average = pooling == 0
    max_len = min(max_path_len, len(scores))
    pos = [0.0] + [s_min / (i * divisor) for i in range(1, max_len + 1)]
    if algorithm == ALG_DIJKSTRA:
        _tree_smooth(
            off, eid, src, dst, scores, rank, sources, average, s_min, divisor, final
        )
    elif algorithm == ALG_BFS:
        if max_len > 1:  # a one-edge path scores as the singleton given below
            fold = _PrefixFold(off, eid, src, dst, scores, max_len, average, pos, final)
            fold.run(sources)
    elif algorithm == ALG_RANDOM_WALK:
        for edges in _walks(off, eid, dst, sources, max_len, walk_count, seed):
            _walk_smooth(edges, scores, average, pos, final)
    else:
        raise ValueError(f"unknown algorithm code {algorithm}")
    return np.where(final == -np.inf, scores + s_min / divisor, final)

/* Compiled smooth_scores for pathpool.pooling, loaded through ctypes.
 *
 * Computes the same per-edge smoothed scores as _kernels_py.smooth_scores,
 * to the last bit: kernels are visited in the same order, the RNG stream is
 * the same splitmix64, and floating-point expressions follow Python's
 * evaluation order. Build with -ffp-contract=off so the compiler fuses no
 * multiply-add. The conventions (CSR arrays, kernel order, direction) are
 * described in _kernels_py. Plain C: no Python headers, fixed-width
 * int32/float64 buffers owned by the caller, no global state.
 */

#include <stdint.h>
#include <stdlib.h>

enum { ALG_DIJKSTRA = 0, ALG_BFS = 1, ALG_RANDOM_WALK = 2 };

enum { PP_OK = 0, PP_NO_MEMORY = -1, PP_BAD_ALGORITHM = -2 };

/* Scores in, smoothed scores out: one kernel at a time. */
typedef struct {
    const double *scores;
    double *final;
    char *covered;
    int32_t pooling; /* 0 = average, 1 = max */
    double s_min;
    double divisor;
} Sink;

static void add_kernel(Sink *sink, const int32_t *path, int32_t length)
{
    const double *scores = sink->scores;
    double pooled;
    if (sink->pooling == 0) {
        double total = 0.0;
        for (int32_t i = 0; i < length; i++)
            total += scores[path[i]];
        pooled = total / length;
    } else {
        pooled = scores[path[0]];
        for (int32_t i = 0; i < length; i++)
            if (scores[path[i]] > pooled)
                pooled = scores[path[i]];
    }
    for (int32_t i = 0; i < length; i++) {
        int32_t e = path[i];
        double value = pooled + sink->s_min / ((double)(i + 1) * sink->divisor);
        if (!sink->covered[e]) {
            sink->covered[e] = 1;
            sink->final[e] = value;
        } else if (value > sink->final[e]) {
            sink->final[e] = value;
        }
    }
}

/* -- splitmix64 with mask-rejection sampling ------------------------------ */

static uint64_t next_u64(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static int32_t below(uint64_t *state, int32_t n)
{
    uint64_t mask = 0;
    for (uint64_t m = (uint64_t)(n - 1); m; m >>= 1)
        mask = (mask << 1) | 1;
    for (;;) {
        uint64_t value = next_u64(state) & mask;
        if (value < (uint64_t)n)
            return (int32_t)value;
    }
}

/* -- shortest-path trees: min hops, then score, then edge-rank order ------ */

/* Front-to-back edge ranks of path(last_vertex) extended by last_edge. */
static void tail_ranks(const int32_t *parent_edge, const int32_t *parent_vertex,
                       const int32_t *lex, int32_t last_edge,
                       int32_t last_vertex, int32_t length, int32_t *buf)
{
    buf[length - 1] = lex[last_edge];
    for (int32_t i = length - 2, x = last_vertex; i >= 0; i--) {
        buf[i] = lex[parent_edge[x]];
        x = parent_vertex[x];
    }
}

static int ranks_less(const int32_t *a, const int32_t *b, int32_t length)
{
    for (int32_t i = 0; i < length; i++)
        if (a[i] != b[i])
            return a[i] < b[i];
    return 0;
}

/* Per-vertex tree arrays, plus path buffers (path is shared by every search). */
typedef struct {
    int32_t *dist, *parent_edge, *parent_vertex, *frontier, *next;
    int32_t *ranks_a, *ranks_b, *path;
    double *cum;
} Buffers;

static void shortest_path_tree(Buffers *t, int32_t nv, const int32_t *endpoint,
                               const int32_t *off, const int32_t *eid,
                               const double *scores, const int32_t *lex,
                               const int32_t *sources, int32_t nsrc, Sink *sink)
{
    int32_t *dist = t->dist, *pe = t->parent_edge, *pv = t->parent_vertex;
    double *cum = t->cum;
    for (int32_t v = 0; v < nv; v++) {
        dist[v] = pe[v] = pv[v] = -1;
        cum[v] = 0.0;
    }
    int32_t nf = 0;
    for (int32_t i = 0; i < nsrc; i++) {
        dist[sources[i]] = 0;
        t->frontier[nf++] = sources[i];
    }
    for (int32_t depth = 0; nf > 0; depth++) {
        int32_t nn = 0;
        for (int32_t i = 0; i < nf; i++) {
            int32_t u = t->frontier[i];
            for (int32_t k = off[u]; k < off[u + 1]; k++) {
                int32_t e = eid[k], v = endpoint[e];
                double candidate = cum[u] + scores[e];
                int replace = 0;
                if (dist[v] == -1) {
                    dist[v] = depth + 1;
                    t->next[nn++] = v;
                    replace = 1;
                } else if (dist[v] == depth + 1) {
                    if (candidate > cum[v]) {
                        replace = 1;
                    } else if (candidate == cum[v]) {
                        tail_ranks(pe, pv, lex, e, u, depth + 1, t->ranks_a);
                        tail_ranks(pe, pv, lex, pe[v], pv[v], depth + 1, t->ranks_b);
                        replace = ranks_less(t->ranks_a, t->ranks_b, depth + 1);
                    }
                }
                if (replace) {
                    pe[v] = e;
                    pv[v] = u;
                    cum[v] = candidate;
                }
            }
        }
        int32_t *swap = t->frontier;
        t->frontier = t->next;
        t->next = swap;
        nf = nn;
    }
    for (int32_t v = 0; v < nv; v++) {
        if (dist[v] < 1)
            continue;
        for (int32_t i = dist[v] - 1, x = v; i >= 0; i--) {
            t->path[i] = pe[x];
            x = pv[x];
        }
        add_kernel(sink, t->path, dist[v]);
    }
}

/* -- every simple path of 1..max_len edges, in preorder ------------------- */

static void simple_paths(const int32_t *endpoint, const int32_t *off,
                         const int32_t *eid, int32_t source, int32_t max_len,
                         char *visited, int32_t *path, int32_t *stack_v,
                         int32_t *stack_k, Sink *sink)
{
    int32_t top = 0, plen = 0;
    visited[source] = 1;
    stack_v[0] = source;
    stack_k[0] = off[source];
    while (top >= 0) {
        int32_t u = stack_v[top], k = stack_k[top];
        if (k >= off[u + 1]) {
            top--;
            if (plen > 0)
                visited[endpoint[path[--plen]]] = 0;
            continue;
        }
        stack_k[top] = k + 1;
        int32_t e = eid[k], v = endpoint[e];
        if (visited[v])
            continue;
        path[plen++] = e;
        add_kernel(sink, path, plen);
        if (plen < max_len) {
            visited[v] = 1;
            top++;
            stack_v[top] = v;
            stack_k[top] = off[v];
        } else {
            plen--;
        }
    }
    visited[source] = 0;
}

/* -- uniform out-edge walks; a walk ends at a dead end, max_len or a revisit */

static void random_walks(const int32_t *tails, const int32_t *off,
                         const int32_t *eid, const int32_t *sources,
                         int32_t nsrc, int32_t max_len, int64_t walk_count,
                         uint64_t seed, char *visited, int32_t *path, Sink *sink)
{
    uint64_t state = seed;
    for (int32_t si = 0; si < nsrc; si++) {
        for (int64_t w = 0; w < walk_count; w++) {
            int32_t u = sources[si], plen = 0;
            visited[u] = 1;
            while (plen < max_len) {
                int32_t lo = off[u], degree = off[u + 1] - lo;
                if (degree == 0)
                    break;
                int32_t e = eid[lo + below(&state, degree)], v = tails[e];
                if (visited[v])
                    break;
                path[plen++] = e;
                add_kernel(sink, path, plen);
                visited[v] = 1;
                u = v;
            }
            visited[sources[si]] = 0;
            for (int32_t i = 0; i < plen; i++)
                visited[tails[path[i]]] = 0;
        }
    }
}

/* CSR adjacency of the edges by their anchor vertex, each list in edge order
 * (the order _kernels_py's lists have). */
static void build_csr(int32_t nv, int32_t ne, const int32_t *anchor,
                      int32_t *off, int32_t *eid)
{
    for (int32_t v = 0; v <= nv; v++)
        off[v] = 0;
    for (int32_t e = 0; e < ne; e++)
        off[anchor[e] + 1]++;
    for (int32_t v = 0; v < nv; v++)
        off[v + 1] += off[v];
    for (int32_t e = 0; e < ne; e++) /* advances off[v] to v's end... */
        eid[off[anchor[e]]++] = e;
    for (int32_t v = nv; v > 0; v--) /* ...so shift the starts back */
        off[v] = off[v - 1];
    off[0] = 0;
}

/* Per-edge smoothed score into final[0..ne): max over kernels of the pooled
 * kernel score plus s_min / (position * divisor); edges on no kernel score
 * as singletons. lex is read by dijkstra only and may be NULL otherwise.
 * Work buffers hold nv + 1 vertices, ne edges or cap + 1 path entries,
 * where cap is the longest kernel: a dijkstra path has at most ne edges, the
 * others at most min(max_path_len, ne). A simple path has at most ne edges,
 * so that clamp loses no kernel and no RNG draw.
 * Returns PP_OK, PP_NO_MEMORY or PP_BAD_ALGORITHM. */
int pathpool_smooth_scores(int32_t nv, int32_t ne, const int32_t *heads,
                           const int32_t *tails, const double *scores,
                           const int32_t *lex, const int32_t *sources,
                           int32_t nsrc, int32_t algorithm, int32_t max_path_len,
                           int64_t walk_count, uint64_t seed, int32_t pooling,
                           double s_min, double divisor, double *final)
{
    if (algorithm < ALG_DIJKSTRA || algorithm > ALG_RANDOM_WALK)
        return PP_BAD_ALGORITHM;
    int32_t cap = algorithm == ALG_DIJKSTRA || max_path_len > ne ? ne : max_path_len;
    size_t nv1 = (size_t)nv + 1, nes = (size_t)ne, caps = (size_t)cap + 1;
    Sink sink = {scores, final, calloc(nes + 1, 1), pooling, s_min, divisor};
    char *visited = calloc(nv1, 1);
    int32_t *ints = malloc((7 * nv1 + 2 * nes + 5 * caps) * sizeof(int32_t));
    double *cum = malloc(nv1 * sizeof(double));
    int status = PP_NO_MEMORY;
    if (sink.covered && visited && ints && cum) {
        /* ints holds 2 CSR lists, 5 vertex arrays, then 5 path arrays */
        int32_t *csr = ints, *vtx = ints + 2 * (nv1 + nes), *pth = vtx + 5 * nv1;
        int32_t *off[2] = {csr, csr + nv1 + nes}, *eid[2] = {csr + nv1, csr + 2 * nv1 + nes};
        const int32_t *endpoint[2] = {tails, heads};
        build_csr(nv, ne, heads, off[0], eid[0]); /* from the query: out-edges */
        build_csr(nv, ne, tails, off[1], eid[1]); /* to the query: in-edges */
        Buffers t = {vtx, vtx + nv1, vtx + 2 * nv1, vtx + 3 * nv1, vtx + 4 * nv1,
                  pth, pth + caps, pth + 2 * caps, cum};
        int32_t *stack_v = pth + 3 * caps, *stack_k = pth + 4 * caps;
        for (int32_t d = 0; d < 2 && nsrc > 0; d++) {
            if (algorithm == ALG_DIJKSTRA) {
                shortest_path_tree(&t, nv, endpoint[d], off[d], eid[d], scores, lex,
                                   sources, nsrc, &sink);
            } else if (algorithm == ALG_BFS) {
                for (int32_t i = 0; i < nsrc; i++)
                    simple_paths(endpoint[d], off[d], eid[d], sources[i], cap,
                                 visited, t.path, stack_v, stack_k, &sink);
            } else if (d == 0) {
                random_walks(tails, off[0], eid[0], sources, nsrc, cap, walk_count,
                             seed, visited, t.path, &sink);
            }
        }
        for (int32_t e = 0; e < ne; e++)
            if (!sink.covered[e])
                final[e] = scores[e] + s_min / divisor;
        status = PP_OK;
    }
    free(sink.covered);
    free(visited);
    free(ints);
    free(cum);
    return status;
}

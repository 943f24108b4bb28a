/* Compiled smooth_scores for pathpool.pooling, loaded through ctypes.
 *
 * Computes the same per-edge smoothed scores as _kernels_py.smooth_scores,
 * to the last bit and by the same fold, which pools no kernel on its own
 * (_kernels_py describes the fold, kernel order and direction). It reads
 * the one adjacency both backends share, the CSR over the doubled graph:
 * vertex u of the to-query search is u + nv, so each search runs once over
 * both directions. The RNG stream is the same splitmix64, and floating-point
 * expressions follow Python's evaluation order. Build with -ffp-contract=off
 * so the compiler fuses no multiply-add. Plain C: no Python headers,
 * fixed-width int32/float64 buffers owned by the caller, no global state.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { ALG_DIJKSTRA = 0, ALG_BFS = 1, ALG_RANDOM_WALK = 2 };

enum { PP_OK = 0, PP_NO_MEMORY = -1, PP_BAD_ALGORITHM = -2 };

/* Scores in, smoothed scores out; -INFINITY marks an edge on no kernel yet. */
typedef struct {
    const double *scores;
    double *final;
    int average;  /* 1 = average pooling, 0 = max */
    double empty; /* the running value of a path with no edge */
    double s_min, divisor;
} Fold;

/* A path's running sum (average pooling) or max, one edge longer. */
static double extend(const Fold *f, double acc, int32_t e)
{
    double score = f->scores[e];
    return f->average ? acc + score : score > acc ? score : acc;
}

static void raise_to(double *x, double value)
{
    if (value > *x)
        *x = value;
}

/* Edge e at position on kernels whose best pooled value is best. */
static void lift(const Fold *f, int32_t e, double best, int32_t position)
{
    raise_to(&f->final[e], best + f->s_min / ((double)position * f->divisor));
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

/* Root i of a search over both halves: the sources, then each source + nv. */
static int32_t root(const int32_t *sources, int32_t nsrc, int32_t nv, int32_t i)
{
    return i < nsrc ? sources[i] : sources[i - nsrc] + nv;
}

/* Work arrays of 2 * nv + 1 entries, one per doubled vertex and one more,
 * named by each search as it uses them. A simple path has at most nv - 1
 * edges, so one entry per depth fits too. */
typedef struct {
    int32_t *ints[6];
    double *reals[2];
} Work;

/* Grows both trees in one BFS-order queue, from every root of the doubled
 * graph, then folds them from the deepest vertex up. Sharing the queue
 * changes no parent: no edge joins the halves, and a vertex's parent is the
 * best of its candidates under a strict order (hops, sum, edge ranks). */
static void shortest_path_tree(const Work *w, const Fold *f, int32_t nv,
                               const int32_t *off, const int32_t *eid,
                               const int32_t *dst, const int32_t *lex,
                               const int32_t *sources, int32_t nsrc)
{
    int32_t *dist = w->ints[0], *pe = w->ints[1], *pv = w->ints[2];
    int32_t *queue = w->ints[3], *ranks_a = w->ints[4], *ranks_b = w->ints[5], nq = 0;
    double *cum = w->reals[0], *best = w->reals[1];
    for (int32_t v = 0; v < 2 * nv; v++)
        dist[v] = pe[v] = pv[v] = -1;
    for (int32_t i = 0; i < 2 * nsrc; i++) {
        int32_t s = root(sources, nsrc, nv, i);
        dist[s] = 0;
        cum[s] = 0.0; /* every other vertex's is set when it is reached */
        best[s] = f->empty;
        queue[nq++] = s;
    }
    for (int32_t head = 0; head < nq; head++) {
        int32_t u = queue[head], depth = dist[u];
        if (depth > 0) /* its whole level is reached, so its path is final */
            best[u] = f->average ? cum[u] / depth : extend(f, best[pv[u]], pe[u]);
        for (int32_t k = off[u]; k < off[u + 1]; k++) {
            int32_t e = eid[k], v = dst[k];
            double candidate = cum[u] + f->scores[e];
            int replace = 0;
            if (dist[v] == -1) {
                dist[v] = depth + 1;
                queue[nq++] = v;
                replace = 1;
            } else if (dist[v] == depth + 1) {
                if (candidate > cum[v]) {
                    replace = 1;
                } else if (candidate == cum[v]) {
                    tail_ranks(pe, pv, lex, e, u, depth + 1, ranks_a);
                    tail_ranks(pe, pv, lex, pe[v], pv[v], depth + 1, ranks_b);
                    replace = ranks_less(ranks_a, ranks_b, depth + 1);
                }
            }
            if (replace) {
                pe[v] = e;
                pv[v] = u;
                cum[v] = candidate;
            }
        }
    }
    /* each vertex's subtree best goes to its tree edge and to its parent */
    for (int32_t i = nq - 1; i >= 2 * nsrc; i--) {
        int32_t v = queue[i];
        lift(f, pe[v], best[v], dist[v]);
        raise_to(&best[pv[v]], best[v]);
    }
}

/* -- every simple path of 1..max_len edges, depth first ------------------- */

/* A path of max_len edges is folded at once, a shorter one after its subtree. */
static void simple_paths(const Work *w, const Fold *f, const int32_t *off,
                         const int32_t *eid, const int32_t *dst, int32_t source,
                         int32_t max_len, char *visited)
{
    int32_t *stack_v = w->ints[0], *stack_k = w->ints[1], *path = w->ints[2], top = 0;
    double *acc = w->reals[0], *best = w->reals[1];
    visited[source] = 1;
    stack_v[0] = source;
    stack_k[0] = off[source];
    acc[0] = f->empty;
    best[0] = -INFINITY;
    while (top >= 0) {
        int32_t u = stack_v[top], k = stack_k[top];
        if (k >= off[u + 1]) {
            visited[u] = 0;
            if (top > 0) {
                lift(f, path[top], best[top], top);
                raise_to(&best[top - 1], best[top]);
            }
            top--;
            continue;
        }
        stack_k[top] = k + 1;
        int32_t e = eid[k], v = dst[k];
        if (visited[v])
            continue;
        double running = extend(f, acc[top], e);
        double value = f->average ? running / (top + 1) : running;
        if (top + 1 == max_len) {
            lift(f, e, value, max_len);
            raise_to(&best[top], value);
            continue;
        }
        top++;
        visited[v] = 1;
        stack_v[top] = v;
        stack_k[top] = off[v];
        path[top] = e;
        acc[top] = running;
        best[top] = value;
    }
}

/* -- uniform out-edge walks; a walk ends at a dead end, max_len or a revisit */

/* A walk's kernels are its prefixes: edge i takes the best of those of >= i
 * edges. Walks stay in the from-query half; step i reaches vertex path_v[i]. */
static void random_walks(const Work *w, const Fold *f, const int32_t *off,
                         const int32_t *eid, const int32_t *dst,
                         const int32_t *sources, int32_t nsrc, int32_t max_len,
                         int64_t walk_count, uint64_t seed, char *visited)
{
    int32_t *path = w->ints[0], *path_v = w->ints[1];
    double *prefix = w->reals[0];
    uint64_t state = seed;
    for (int32_t si = 0; si < nsrc; si++) {
        for (int64_t walk = 0; walk < walk_count; walk++) {
            int32_t u = sources[si], plen = 0;
            double running = f->empty, best = -INFINITY;
            visited[u] = 1;
            while (plen < max_len) {
                int32_t lo = off[u], degree = off[u + 1] - lo;
                if (degree == 0)
                    break;
                int32_t k = lo + below(&state, degree), e = eid[k], v = dst[k];
                if (visited[v])
                    break;
                running = extend(f, running, e);
                path_v[plen] = v;
                path[plen++] = e;
                prefix[plen] = f->average ? running / plen : running;
                visited[v] = 1;
                u = v;
            }
            for (int32_t i = plen; i > 0; i--) {
                raise_to(&best, prefix[i]);
                lift(f, path[i - 1], best, i);
                visited[path_v[i - 1]] = 0;
            }
            visited[sources[si]] = 0;
        }
    }
}

/* Per-edge smoothed score into final[0..ne): max over kernels of the pooled
 * kernel score plus s_min / (position * divisor); edges on no kernel score
 * as singletons. off (2 * nv + 1 entries), eid and dst (2 * ne each) are
 * the CSR over the doubled graph and each slot's far end. lex is read by
 * dijkstra only and may be NULL otherwise. max_path_len bounds bfs and
 * random-walk kernels, and may exceed any path. Returns PP_OK, PP_NO_MEMORY
 * or PP_BAD_ALGORITHM. */
int pathpool_smooth_scores(int32_t nv, int32_t ne, const int32_t *off,
                           const int32_t *eid, const int32_t *dst,
                           const double *scores, const int32_t *lex,
                           const int32_t *sources, int32_t nsrc, int32_t algorithm,
                           int32_t max_path_len, int64_t walk_count, uint64_t seed,
                           int32_t pooling, double s_min, double divisor,
                           double *final)
{
    if (algorithm < ALG_DIJKSTRA || algorithm > ALG_RANDOM_WALK)
        return PP_BAD_ALGORITHM;
    size_t nv1 = 2 * (size_t)nv + 1;
    Fold f = {scores, final, pooling == 0, pooling ? -INFINITY : 0.0, s_min, divisor};
    char *visited = calloc(nv1, 1);
    int32_t *ints = malloc(6 * nv1 * sizeof(int32_t));
    double *reals = malloc(2 * nv1 * sizeof(double));
    int status = PP_NO_MEMORY;
    if (visited && ints && reals) {
        Work w = {{ints, ints + nv1, ints + 2 * nv1, ints + 3 * nv1, ints + 4 * nv1, ints + 5 * nv1},
                  {reals, reals + nv1}};
        for (int32_t e = 0; e < ne; e++)
            final[e] = -INFINITY;
        if (algorithm == ALG_DIJKSTRA) {
            shortest_path_tree(&w, &f, nv, off, eid, dst, lex, sources, nsrc);
        } else if (algorithm == ALG_BFS) {
            for (int32_t i = 0; i < 2 * nsrc; i++)
                simple_paths(&w, &f, off, eid, dst, root(sources, nsrc, nv, i),
                             max_path_len, visited);
        } else {
            random_walks(&w, &f, off, eid, dst, sources, nsrc, max_path_len,
                         walk_count, seed, visited);
        }
        for (int32_t e = 0; e < ne; e++)
            if (final[e] == -INFINITY)
                final[e] = scores[e] + s_min / divisor;
        status = PP_OK;
    }
    free(visited);
    free(ints);
    free(reals);
    return status;
}

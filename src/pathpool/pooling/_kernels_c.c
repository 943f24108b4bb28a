/* Compiled smooth_scores for pathpool.pooling, loaded through ctypes.
 *
 * Computes the same per-edge smoothed scores as _kernels_py.smooth_scores,
 * to the last bit, folding as it searches (_kernels_py describes the folds,
 * kernel order and direction), over the CSR of the doubled graph: vertex u
 * of the to-query search is u + nv. With splitmix(base, n) the n-th output
 * of the splitmix64 stream seeded with base (mod 2**64), walk w from
 * sources[i] has key k = splitmix(seed, i * walk_count + w + 1); attempt a
 * of its step t draws splitmix(k, t * 2**32 + a + 1) & mask, kept when
 * below the out-degree d (mask: the least 2**b - 1 >= d - 1). Floats follow
 * Python's evaluation order; build with -ffp-contract=off so no multiply-add
 * is fused. Plain C: no Python headers, caller-owned int64/float64 buffers,
 * no global state. */

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
static double extend(const Fold *f, double acc, int64_t e)
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
static void lift(const Fold *f, int64_t e, double best, int64_t position)
{
    raise_to(&f->final[e], best + f->s_min / ((double)position * f->divisor));
}

/* -- shortest-path trees: min hops, then score, then edge-rank order ------ */

/* Front-to-back edge ranks of path(last_vertex) extended by last_edge. */
static void tail_ranks(const int64_t *parent_edge, const int64_t *parent_vertex,
                       const int64_t *lex, int64_t last_edge,
                       int64_t last_vertex, int64_t length, int64_t *buf)
{
    buf[length - 1] = lex[last_edge];
    for (int64_t i = length - 2, x = last_vertex; i >= 0; i--) {
        buf[i] = lex[parent_edge[x]];
        x = parent_vertex[x];
    }
}

static int ranks_less(const int64_t *a, const int64_t *b, int64_t length)
{
    for (int64_t i = 0; i < length; i++)
        if (a[i] != b[i])
            return a[i] < b[i];
    return 0;
}

/* Root i of a search over both halves: the sources, then each source + nv. */
static int64_t root(const int64_t *sources, int64_t nsrc, int64_t nv, int64_t i)
{
    return i < nsrc ? sources[i] : sources[i - nsrc] + nv;
}

/* Work arrays of 2 * nv + 1 entries, one per doubled vertex and one more,
 * named by each search as it uses them. A simple path has at most nv - 1
 * edges, so one entry per depth fits too. */
typedef struct {
    int64_t *ints[6];
    double *reals[2];
} Work;

/* Grows both trees in one BFS-order queue, from every root of the doubled
 * graph, then folds them from the deepest vertex up. Sharing the queue
 * changes no parent: no edge joins the halves, and a vertex's parent is the
 * best of its candidates under a strict order (hops, sum, edge ranks). */
static void shortest_path_tree(const Work *w, const Fold *f, int64_t nv,
                               const int64_t *off, const int64_t *eid,
                               const int64_t *dst, const int64_t *lex,
                               const int64_t *sources, int64_t nsrc)
{
    int64_t *dist = w->ints[0], *pe = w->ints[1], *pv = w->ints[2];
    int64_t *queue = w->ints[3], *ranks_a = w->ints[4], *ranks_b = w->ints[5], nq = 0;
    double *cum = w->reals[0], *best = w->reals[1];
    for (int64_t v = 0; v < 2 * nv; v++)
        dist[v] = pe[v] = pv[v] = -1;
    for (int64_t i = 0; i < 2 * nsrc; i++) {
        int64_t s = root(sources, nsrc, nv, i);
        dist[s] = 0;
        cum[s] = 0.0; /* every other vertex's is set when it is reached */
        best[s] = f->empty;
        queue[nq++] = s;
    }
    for (int64_t head = 0; head < nq; head++) {
        int64_t u = queue[head], depth = dist[u];
        if (depth > 0) /* its whole level is reached, so its path is final */
            best[u] = f->average ? cum[u] / (double)depth : extend(f, best[pv[u]], pe[u]);
        for (int64_t k = off[u]; k < off[u + 1]; k++) {
            int64_t e = eid[k], v = dst[k];
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
    for (int64_t i = nq - 1; i >= 2 * nsrc; i--) {
        int64_t v = queue[i];
        lift(f, pe[v], best[v], dist[v]);
        raise_to(&best[pv[v]], best[v]);
    }
}

/* -- every simple path of 1..max_len edges, depth first ------------------- */

/* A path of max_len edges is folded at once, a shorter one after its subtree. */
static void simple_paths(const Work *w, const Fold *f, const int64_t *off,
                         const int64_t *eid, const int64_t *dst, int64_t source,
                         int64_t max_len, char *visited)
{
    int64_t *stack_v = w->ints[0], *stack_k = w->ints[1], *path = w->ints[2], top = 0;
    double *acc = w->reals[0], *best = w->reals[1];
    visited[source] = 1;
    stack_v[0] = source;
    stack_k[0] = off[source];
    acc[0] = f->empty;
    best[0] = -INFINITY;
    while (top >= 0) {
        int64_t u = stack_v[top], k = stack_k[top];
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
        int64_t e = eid[k], v = dst[k];
        if (visited[v])
            continue;
        double running = extend(f, acc[top], e);
        double value = f->average ? running / (double)(top + 1) : running;
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

/* Output n of the splitmix64 stream seeded with base. */
static uint64_t splitmix(uint64_t base, uint64_t n)
{
    uint64_t z = base + 0x9E3779B97F4A7C15ULL * n;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The out-slot below n that the walk keyed key takes at step. */
static int64_t below(uint64_t key, int64_t step, int64_t n)
{
    uint64_t mask = 0, counter = (uint64_t)step << 32, value;
    for (uint64_t m = (uint64_t)(n - 1); m; m >>= 1)
        mask = (mask << 1) | 1;
    do
        value = splitmix(key, ++counter) & mask;
    while (value >= (uint64_t)n);
    return (int64_t)value;
}

/* A walk's kernels are its prefixes: edge i takes the best of those of >= i
 * edges. Walks stay in the from-query half; step i reaches vertex path_v[i]. */
static void random_walks(const Work *w, const Fold *f, const int64_t *off,
                         const int64_t *eid, const int64_t *dst,
                         const int64_t *sources, int64_t nsrc, int64_t max_len,
                         int64_t walk_count, uint64_t seed, char *visited)
{
    int64_t *path = w->ints[0], *path_v = w->ints[1];
    double *prefix = w->reals[0];
    uint64_t lane = 0; /* si * walk_count + walk, plus one */
    for (int64_t si = 0; si < nsrc; si++) {
        for (int64_t walk = 0; walk < walk_count; walk++) {
            uint64_t key = splitmix(seed, ++lane);
            int64_t u = sources[si], plen = 0;
            double running = f->empty, best = -INFINITY;
            visited[u] = 1;
            while (plen < max_len) {
                int64_t lo = off[u], degree = off[u + 1] - lo;
                if (degree == 0)
                    break;
                int64_t k = lo + below(key, plen, degree), e = eid[k], v = dst[k];
                if (visited[v])
                    break;
                running = extend(f, running, e);
                path_v[plen] = v;
                path[plen++] = e;
                prefix[plen] = f->average ? running / (double)plen : running;
                visited[v] = 1;
                u = v;
            }
            for (int64_t i = plen; i > 0; i--) {
                raise_to(&best, prefix[i]);
                lift(f, path[i - 1], best, i);
                visited[path_v[i - 1]] = 0;
            }
            visited[sources[si]] = 0;
        }
    }
}

/* Per-edge smoothed score into final[0..ne): max over kernels of pooled
 * score plus s_min / (position * divisor); edges on no kernel score as
 * singletons. off (2 * nv + 1 entries), eid and dst (2 * ne each) are the
 * CSR over the doubled graph and each slot's far end. lex is read by
 * dijkstra only and may be NULL otherwise. max_path_len bounds bfs and walk
 * kernels and may exceed any path. Returns PP_OK, PP_NO_MEMORY or PP_BAD_ALGORITHM. */
int pathpool_smooth_scores(int64_t nv, int64_t ne, const int64_t *off,
                           const int64_t *eid, const int64_t *dst,
                           const double *scores, const int64_t *lex,
                           const int64_t *sources, int64_t nsrc, int64_t algorithm,
                           int64_t max_path_len, int64_t walk_count, uint64_t seed,
                           int64_t pooling, double s_min, double divisor,
                           double *final)
{
    if (algorithm < ALG_DIJKSTRA || algorithm > ALG_RANDOM_WALK)
        return PP_BAD_ALGORITHM;
    size_t nv1 = 2 * (size_t)nv + 1;
    Fold f = {scores, final, pooling == 0, pooling ? -INFINITY : 0.0, s_min, divisor};
    char *visited = calloc(nv1, 1);
    int64_t *ints = malloc(6 * nv1 * sizeof(int64_t));
    double *reals = malloc(2 * nv1 * sizeof(double));
    int status = PP_NO_MEMORY;
    if (visited && ints && reals) {
        Work w = {{ints, ints + nv1, ints + 2 * nv1, ints + 3 * nv1, ints + 4 * nv1, ints + 5 * nv1},
                  {reals, reals + nv1}};
        for (int64_t e = 0; e < ne; e++)
            final[e] = -INFINITY;
        if (algorithm == ALG_DIJKSTRA) {
            shortest_path_tree(&w, &f, nv, off, eid, dst, lex, sources, nsrc);
        } else if (algorithm == ALG_BFS) {
            for (int64_t i = 0; i < 2 * nsrc; i++)
                simple_paths(&w, &f, off, eid, dst, root(sources, nsrc, nv, i),
                             max_path_len, visited);
        } else {
            random_walks(&w, &f, off, eid, dst, sources, nsrc, max_path_len,
                         walk_count, seed, visited);
        }
        for (int64_t e = 0; e < ne; e++)
            if (final[e] == -INFINITY)
                final[e] = scores[e] + s_min / divisor;
        status = PP_OK;
    }
    free(visited);
    free(ints);
    free(reals);
    return status;
}

"""Path pooling: smooth retrieval scores along query-anchored graph paths.

The retrieved sequence is viewed as a scored subgraph; a search algorithm
(dijkstra, bfs, or random walk) extracts path kernels anchored at the query
entities; each kernel's pooled score plus a rank-decaying positional term is
pushed back onto its member triples, taking the max where kernels overlap.
Triples on no path are treated as single-hop kernels, so every input triple
receives a smoothed score.

Two backends compute the smoothed scores, bit for bit the same: the
pure-Python ``_kernels_py``, which also serves the kernel search, and an
optional compiled ``smooth_scores`` built from ``_kernels_c.c`` by
``setup.py``. The compiled one is loaded with ctypes when its library sits next
to this file and is then the ``auto`` choice; ``backend="py"`` forces Python.

The arrays both backends receive are built in bulk from the sequence's
``(n, 3)`` id array, in passes over its own triples: first-seen vertex ids,
numbered in a per-thread entity-indexed buffer with no sort of entity ids,
one CSR adjacency over the doubled graph that holds both search directions
(``_doubled_csr``, one stable argsort of small vertex ids, which also gives
each slot's two ends), and each edge's label-order rank, the store's
``row_rank`` at the sequence's rows. The output is one stable
``np.argsort`` of the smoothed scores, applied to the input's row, score
and rank columns, so no object is built per row. No step before or
after the kernel calls Python code once per triple; the compiled core
takes int32 and float64 copies of the columns. That CSR is the only
adjacency: both backends and the kernel search walk it, and each search
runs once over both directions.

Neither backend pools a kernel on its own: both fold. Each path's best
pooled value, over the path and every kernel that extends it, goes to the
path or tree vertex it extends and, plus its positional term, onto its last
edge. The compiled core folds as it searches: per tree vertex, per DFS
prefix of a simple path and per walk. The Python backend folds numpy
arrays: it grows both shortest-path trees a level at a time and pushes the
pooled values up each tree as a subtree max, and for BFS it folds path
prefixes, one depth and one block of ``BFS_BLOCK_PATHS`` prefixes at a
time, and solves the last edge of the longest paths per prefix and per edge
from dense tables indexed by vertex (each vertex's best distinct
out-neighbours, its best prefix and the best that avoid each vertex of
that one). Random walks it steps a block of up to ``BFS_BLOCK_PATHS``
walks at once and folds the block once its walks end. Each step of a walk
is drawn from a counter, a pure function of the seed, the source, the walk,
the step and the attempt (see ``_kernels_py``), so the walks of a block
need no shared stream and both backends walk the same. Both give the same bits
as pooling each kernel, because rounding is monotone, so the max of
fl(pooled + c) over paths is fl(max pooled + c) (see ``_kernels_py``).
Only ``search_path_kernels`` and the tests' oracles list and pool kernels
one by one.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .._bulk import stable_order
from ..errors import ConfigError, EmptyInputError
from ..scoring import TripleSequence
from . import _kernels_py

SCORE_SHIFT_EPS = 1e-6

ALGORITHMS = ("dijkstra", "bfs", "random_walk")
POOLING_STRATEGIES = ("average", "max")
DIRECTIONS = ("from_query", "to_query", "singleton")

_ALGORITHM_CODES = {name: code for code, name in enumerate(ALGORITHMS)}
_POOLING_CODES = {name: code for code, name in enumerate(POOLING_STRATEGIES)}

_MASK64 = (1 << 64) - 1
_INT32_MAX = (1 << 31) - 1
_INT64_MAX = (1 << 63) - 1
_PTR = ctypes.c_void_p  # address of a C-contiguous int32 or float64 numpy buffer
_SMOOTH_ARGTYPES = [
    ctypes.c_int32,  # n_vertices
    ctypes.c_int32,  # n_edges
    _PTR,  # off, 2 * n_vertices + 1 offsets of the doubled CSR
    _PTR,  # eid, 2 * n_edges
    _PTR,  # dst, 2 * n_edges
    _PTR,  # scores
    _PTR,  # label-order rank per edge, read only by dijkstra
    _PTR,  # sources
    ctypes.c_int32,  # n_sources
    ctypes.c_int32,  # algorithm
    ctypes.c_int32,  # max_path_len, clamped to n_edges
    ctypes.c_int64,  # walk_count
    ctypes.c_uint64,  # seed
    ctypes.c_int32,  # pooling
    ctypes.c_double,  # s_min
    ctypes.c_double,  # divisor
    _PTR,  # final (written)
]


class _CompiledCore:
    """``smooth_scores`` of the compiled library, with ``_kernels_py``'s signature.

    The library walks the same doubled CSR as the Python backend, from int32
    copies of ``off``, ``eid`` and ``dst``; ``src`` is unused. Sizes the
    library cannot index with int32 are a ``ValueError``.
    """

    def __init__(self, fn):
        fn.argtypes = _SMOOTH_ARGTYPES
        fn.restype = ctypes.c_int
        self._fn = fn

    def smooth_scores(
        self,
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
        n_edges = len(scores)
        if 2 * n_vertices + 1 > _INT32_MAX or 2 * n_edges > _INT32_MAX:
            raise ValueError("the compiled core indexes the doubled graph with int32")
        dijkstra = algorithm == _ALGORITHM_CODES["dijkstra"]
        if dijkstra and n_edges and rank.max() > _INT32_MAX:
            raise ValueError("the compiled core compares edge ranks as int32")
        # every buffer stays referenced by a local until the call returns
        off_buf = _int32_buffer(off)
        eid_buf = _int32_buffer(eid)
        dst_buf = _int32_buffer(dst)
        score_buf = np.ascontiguousarray(scores, dtype=np.float64)
        rank_buf = _int32_buffer(rank)
        source_buf = _int32_buffer(sources)
        final = np.zeros(n_edges)
        status = self._fn(
            n_vertices,
            n_edges,
            off_buf.ctypes.data,
            eid_buf.ctypes.data,
            dst_buf.ctypes.data,
            score_buf.ctypes.data,
            rank_buf.ctypes.data,
            source_buf.ctypes.data,
            len(source_buf),
            algorithm,
            min(max_path_len, n_edges),
            walk_count,
            seed & _MASK64,
            pooling,
            s_min,
            divisor,
            final.ctypes.data,
        )
        if status == -1:
            raise MemoryError("compiled smooth_scores could not allocate its buffers")
        if status != 0:
            raise ValueError(f"unknown algorithm code {algorithm}")
        return final


def _int32_buffer(values) -> np.ndarray:
    """A C-contiguous int32 copy of ``values``, which the library reads."""
    return np.ascontiguousarray(values, dtype=np.int32)


def _load_core(directory: Path) -> _CompiledCore | None:
    """The compiled ``smooth_scores`` built into ``directory``, or None.

    ``setup.py`` builds ``_kernels_c.c`` under an extension-module file name,
    but the library has no Python entry point: it is opened with ctypes, never
    imported. Loading compiles nothing and starts no process.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_kernels_c{suffix}"
        if path.is_file():
            try:
                return _CompiledCore(ctypes.CDLL(str(path)).pathpool_smooth_scores)
            except (OSError, AttributeError):
                return None
    return None


_core = _load_core(Path(__file__).parent)
DEFAULT_BACKEND = "c" if _core is not None else "py"


def available_backends() -> tuple[str, ...]:
    return ("py", "c") if _core is not None else ("py",)


def backend_module(name: str = "auto"):
    """The object whose ``smooth_scores`` the named backend runs."""
    if name == "auto":
        name = DEFAULT_BACKEND
    if name == "py":
        return _kernels_py
    if name == "c":
        if _core is None:
            raise ConfigError("compiled backend requested but not built")
        return _core
    raise ConfigError(f"unknown backend: {name!r}")


@dataclass(frozen=True)
class PoolingConfig:
    """Knobs for kernel search and smoothing."""

    search_algorithm: str = "dijkstra"
    pooling: str = "average"
    positional_divisor: float = 10.0
    max_path_len: int = 4
    walk_count: int = 256
    rng_seed: int = 0

    def validate(self) -> None:
        if self.search_algorithm not in _ALGORITHM_CODES:
            raise ConfigError(f"unknown search algorithm: {self.search_algorithm!r}")
        if self.pooling not in _POOLING_CODES:
            raise ConfigError(f"unknown pooling strategy: {self.pooling!r}")
        if not self.positional_divisor > 0:
            raise ConfigError("positional divisor must be > 0")
        if self.max_path_len < 1:
            raise ConfigError("max_path_len must be >= 1")
        if self.walk_count < 1:
            raise ConfigError("walk_count must be >= 1")
        # the compiled core counts walks in an int64, which ctypes would wrap
        if self.walk_count > _INT64_MAX:
            raise ConfigError(f"walk_count must be <= {_INT64_MAX}")


@dataclass(frozen=True)
class PathKernel:
    """A directed simple path of triple indices with its pooled score.

    Indices point into the sequence the kernel was searched on; position 1
    is the triple nearest a query entity for both search directions.
    """

    edge_indices: tuple[int, ...]
    direction: str
    pooled_score: float

    def __len__(self) -> int:
        return len(self.edge_indices)


class ScoredSubgraph:
    """Adjacency view over the triples of one retrieved sequence.

    Vertices are the entities appearing in the sequence, interned in
    first-seen order (head before tail, edge by edge); ``vertex_entities``
    holds the store entity id of each vertex, and ``heads`` and ``tails``
    each edge's ends. The one adjacency is the CSR over the doubled graph,
    ``off`` and ``eid``, with each slot's ends ``src`` and ``dst`` (see
    ``_doubled_csr``): both backends and the kernel search walk it. Every
    array is built in bulk with numpy in passes over the sequence's own
    triples: vertices are numbered in an entity-indexed buffer
    (``_vertex_buffer``), so no entity id is sorted, and the CSR is one
    stable argsort of small vertex ids. ``scores`` is the sequence's score
    column.
    """

    def __init__(self, sequence: TripleSequence):
        if len(sequence) == 0:
            raise EmptyInputError("cannot build a subgraph from an empty sequence")
        self.sequence = sequence
        self.store = sequence.store
        ids = sequence.id_array
        # heads and tails interleaved edge by edge, so first occurrence in
        # this array is first-seen order
        ends = ids[:, ::2].ravel()
        seen = np.arange(len(ends))
        # the buffer holds each entity's first position in ends, then its
        # vertex; only the entries of the subgraph's entities are touched
        vertex_of = _vertex_buffer(self.store.n_entities)
        vertex_of[ends] = len(ends)
        np.minimum.at(vertex_of, ends, seen)
        entities = ends[vertex_of[ends] == seen]
        vertex_of[entities] = np.arange(len(entities))
        heads, tails = vertex_of[ends].reshape(-1, 2).T
        self.vertex_entities = entities
        self.n_vertices = len(entities)
        self.n_edges = len(ids)
        self.heads = heads
        self.tails = tails
        self.scores = sequence.score_array
        csr = _doubled_csr(self.n_vertices, heads, tails)
        self.off, self.eid, self.src, self.dst = csr

    @property
    def edge_rank(self) -> np.ndarray:
        """Per-edge rank under (head, relation, tail) label order.

        The store's ``row_rank`` at the sequence's rows: distinct, but not
        ``0..n_edges-1``; only the order is meaningful.
        """
        return self.store.row_rank[self.sequence.row_array]

    def vertices_for_labels(self, labels: Iterable[str]) -> list[int]:
        """Ascending local vertex ids for the labels present in the subgraph.

        Only the given labels are looked up: each one's entity id is compared
        with the entity of every vertex.
        """
        store = self.store
        wanted = {store.entity_id(label) for label in labels if store.has_entity(label)}
        held = np.zeros(self.n_vertices, dtype=bool)
        for eid in wanted:
            held |= self.vertex_entities == eid
        return np.flatnonzero(held).tolist()


_thread_scratch = threading.local()


def _vertex_buffer(n_entities: int) -> np.ndarray:
    """This thread's entity-indexed buffer, of at least ``n_entities`` ints.

    ``ScoredSubgraph`` numbers its vertices in it, reading only the entries
    of its own entities after writing them, so nothing in it outlives one
    build. It is allocated once per thread and kept across stores: a later
    store with more entities than any before replaces it with a larger one.
    Each thread has its own, because library callers may share a store
    across threads.
    """
    buf = getattr(_thread_scratch, "vertex_of", None)
    if buf is None or len(buf) < n_entities:
        buf = _thread_scratch.vertex_of = np.empty(n_entities, dtype=np.intp)
    return buf


def _doubled_csr(
    n_vertices: int, heads: np.ndarray, tails: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Offsets, edge ids and slot ends of the CSR over the doubled graph.

    Vertex u of the from-query search is u and owns the edges u heads;
    vertex u of the to-query search is ``u + n_vertices`` and owns the edges
    u tails. One ``stable_order`` of the owning vertices, whose keys are
    below ``2 * n_vertices`` and so cannot wrap, keeps each vertex's edges
    in ascending edge order and puts the from-query slots first. The same
    permutation gives each slot's ``src``, the vertex that owns it, and
    ``dst``, the edge's other end in the same half.
    """
    n_edges = len(heads)
    anchor = np.concatenate((heads, np.add(tails, n_vertices)))
    other = np.concatenate((tails, np.add(heads, n_vertices)))
    offsets = np.zeros(2 * n_vertices + 1, dtype=np.intp)
    np.cumsum(np.bincount(anchor, minlength=2 * n_vertices), out=offsets[1:])
    eid = stable_order(anchor, 2 * n_vertices)
    src, dst = anchor[eid], other[eid]
    eid[n_edges:] -= n_edges  # to-query slots point into anchor's tails half
    return offsets, eid, src, dst


def build_scored_subgraph(sequence: TripleSequence) -> ScoredSubgraph:
    """Subgraph with exactly the sequence's triples and their scores."""
    return ScoredSubgraph(sequence)


def pool_path(
    kernel: PathKernel | Sequence[int], scores: Sequence[float], strategy: str
) -> float:
    """Pooled kernel score: arithmetic mean or maximum of member scores."""
    indices = kernel.edge_indices if isinstance(kernel, PathKernel) else tuple(kernel)
    if not indices:
        raise EmptyInputError("cannot pool an empty kernel")
    values = [scores[i] for i in indices]
    if strategy == "average":
        return sum(values) / len(values)
    if strategy == "max":
        return max(values)
    raise ConfigError(f"unknown pooling strategy: {strategy!r}")


def _kernel_args(
    g: ScoredSubgraph, query_entities: Iterable[str], cfg: PoolingConfig
) -> tuple:
    """The leading arguments of ``smooth_scores`` and ``search_kernels``.

    ``cfg`` is validated first. The kernels search the subgraph's scores
    shifted positive (``_shifted``), at index 5 of the tuple, from the
    vertices of the query entities the subgraph holds.
    """
    cfg.validate()
    return (
        g.n_vertices,
        g.off,
        g.eid,
        g.src,
        g.dst,
        _shifted(g.scores),
        g.edge_rank,
        g.vertices_for_labels(query_entities),
        _ALGORITHM_CODES[cfg.search_algorithm],
        cfg.max_path_len,
        cfg.walk_count,
        cfg.rng_seed,
    )


def search_path_kernels(
    g: ScoredSubgraph,
    query_entities: Iterable[str],
    cfg: PoolingConfig,
    backend: str = "auto",
) -> list[PathKernel]:
    """Path kernels anchored at the query entities, per cfg.search_algorithm.

    Every triple of the subgraph appears in at least one kernel: triples on
    no searched path are emitted as singletons. Query entities absent from
    the subgraph contribute nothing; with no usable query entity every
    triple becomes a singleton. The search always runs in ``_kernels_py``;
    ``backend`` is only checked, as ``smooth`` checks it. The search gets
    the arguments ``smooth`` gives its kernel (``_kernel_args``), so the
    kernels are the ones ``smooth`` folds, the dijkstra trees included;
    each ``pooled_score`` pools the subgraph's own scores.
    """
    backend_module(backend)
    raw = _kernels_py.search_kernels(*_kernel_args(g, query_entities, cfg))
    scores = g.scores.tolist()
    return [
        PathKernel(tuple(edges), DIRECTIONS[code], pool_path(edges, scores, cfg.pooling))
        for edges, code in raw
    ]


def _shifted(scores: np.ndarray) -> np.ndarray:
    """Shift all scores positive when the minimum is <= 0.

    The positional term divides the sequence minimum by the path position;
    a non-positive minimum would invert its direction, so the whole score
    vector is translated by (eps - min) first. Only the ordering of the
    output is meaningful downstream, which a common shift preserves.
    """
    low = scores.min()
    if low > 0.0:
        return scores
    return scores + (SCORE_SHIFT_EPS - low)


def smooth(
    sequence: TripleSequence,
    query_entities: Iterable[str],
    cfg: PoolingConfig,
    backend: str = "auto",
) -> TripleSequence:
    """Smoothed sequence: per-triple max over kernels of pooled + positional score.

    Output is sorted descending by smoothed score, ties by position in the
    input sequence; the triple multiset is preserved. A smoothed score that
    overflows float64 (say, under a positional divisor so small that
    ``s_min / (position * divisor)`` is infinite) raises ``ConfigError``
    naming the first such triple in input order.
    """
    module = backend_module(backend)
    args = _kernel_args(build_scored_subgraph(sequence), query_entities, cfg)
    s_min = float(args[5].min())
    final = module.smooth_scores(
        *args, _POOLING_CODES[cfg.pooling], s_min, cfg.positional_divisor
    )
    if not np.isfinite(final).all():
        row = sequence.row_array[np.isfinite(final).argmin()]
        labels = sequence.store.row_labels(row)
        raise ConfigError(f"non-finite smoothed score for triple {labels}")
    # descending, ties by input position: a stable argsort of the negated
    # scores equals a stable sort with reverse=True for finite scores
    order = np.argsort(-final, kind="stable")
    provenance = f"smoothed:{cfg.search_algorithm}:{cfg.pooling}"
    return sequence._take(order, provenance, final[order])

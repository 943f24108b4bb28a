"""Path-kernel search and score smoothing."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from cases import (
    WALK_SEEDS,
    branching_star,
    crowded_end_vertices,
    deep_tied_chain,
    edge_shapes,
    flat_args,
    make_sequence,
    random_case,
    scores_by_rank,
    tree_graphs,
)
from naive_ref import (
    naive_kernel_smoothing,
    naive_smooth,
    naive_tree_paths,
    naive_walk_kernels,
)
from pathpool import bench, pooling
from pathpool.errors import ConfigError, EmptyInputError
from pathpool.pooling import (
    SCORE_SHIFT_EPS,
    PathKernel,
    PoolingConfig,
    build_scored_subgraph,
    pool_path,
    search_path_kernels,
    smooth,
)
from pathpool.pooling import _kernels_py
from pathpool.pooling._kernels_py import ALG_BFS, ALG_DIJKSTRA, ALG_RANDOM_WALK

CFG = PoolingConfig()


def kernel_set(sequence, queries, cfg):
    g = build_scored_subgraph(sequence)
    return {
        (k.edge_indices, k.direction): k.pooled_score
        for k in search_path_kernels(g, queries, cfg)
    }


# -- worked example ---------------------------------------------------------


def test_worked_example_scores(example_sequence):
    out = smooth(example_sequence, ["A"], CFG)
    rows = out.labeled_items()
    assert [row[:3] for row in rows] == [
        ("A", "r1", "B"),
        ("B", "r2", "C"),
        ("D", "r3", "E"),
    ]
    assert rows[0][3] == pytest.approx(0.93, abs=1e-12)
    assert rows[1][3] == pytest.approx(0.615, abs=1e-12)
    assert rows[2][3] == pytest.approx(0.53, abs=1e-12)


def test_worked_example_kernels(example_sequence):
    kernels = kernel_set(example_sequence, ["A"], CFG)
    assert kernels == {
        ((0,), "from_query"): 0.9,
        ((0, 1), "from_query"): (0.9 + 0.3) / 2,
        ((2,), "singleton"): 0.5,
    }


def test_no_query_entities_all_singletons(example_sequence):
    kernels = kernel_set(example_sequence, [], CFG)
    assert kernels == {
        ((0,), "singleton"): 0.9,
        ((1,), "singleton"): 0.3,
        ((2,), "singleton"): 0.5,
    }
    rows = smooth(example_sequence, [], CFG).labeled_items()
    assert [row[0] for row in rows] == ["A", "D", "B"]
    assert rows[0][3] == pytest.approx(0.93, abs=1e-12)
    assert rows[1][3] == pytest.approx(0.53, abs=1e-12)
    assert rows[2][3] == pytest.approx(0.33, abs=1e-12)


def test_single_triple_smooth():
    seq = make_sequence([("A", "r", "B", 0.8)])
    rows = smooth(seq, ["A"], CFG).labeled_items()
    assert rows[0][3] == pytest.approx(0.88, abs=1e-12)


def test_diamond_tie_breaks_lexicographically():
    seq = make_sequence(
        [
            ("A", "r", "B", 0.5),
            ("A", "r", "C", 0.5),
            ("B", "r", "D", 0.5),
            ("C", "r", "D", 0.5),
        ]
    )
    kernels = set(kernel_set(seq, ["A"], CFG))
    assert kernels == {
        ((0,), "from_query"),
        ((1,), "from_query"),
        ((0, 2), "from_query"),
        ((3,), "singleton"),
    }


def test_absent_query_entities_contribute_nothing(example_sequence):
    assert kernel_set(example_sequence, ["ZZZ"], CFG) == kernel_set(
        example_sequence, [], CFG
    )


def test_edge_between_two_query_entities_stays_singleton():
    seq = make_sequence([("A", "r", "B", 0.4)])
    kernels = set(kernel_set(seq, ["A", "B"], CFG))
    assert kernels == {((0,), "singleton")}


def test_to_query_kernel_position_one_nearest_query():
    # chain A -> B -> C with query C: reverse search orders edges outward from C
    seq = make_sequence([("A", "r", "B", 0.2), ("B", "r", "C", 0.9)])
    kernels = set(kernel_set(seq, ["C"], CFG))
    assert ((1,), "to_query") in kernels
    assert ((1, 0), "to_query") in kernels


# -- subgraph construction ---------------------------------------------------


def test_subgraph_single_edge():
    g = build_scored_subgraph(make_sequence([("A", "r", "B", 0.5)]))
    assert g.n_vertices == 2
    assert g.n_edges == 1


def test_subgraph_components_and_vertices(example_sequence):
    g = build_scored_subgraph(example_sequence)
    assert g.n_vertices == 5
    assert g.n_edges == 3


def test_subgraph_fan_out_adjacency():
    g = build_scored_subgraph(
        make_sequence([("A", "r1", "B", 0.5), ("A", "r2", "C", 0.4)])
    )
    (a,) = g.vertices_for_labels(["A"])
    assert g.vertex_entities[a] == g.store.entity_id("A")
    assert g.eid[g.off[a] : g.off[a + 1]].tolist() == [0, 1]


def test_vertices_for_labels_skips_labels_outside_the_subgraph():
    seq = make_sequence([("A", "r", "B", 0.5), ("C", "r", "D", 0.4), ("E", "r", "F", 0.3)])
    g = build_scored_subgraph(seq.trimmed(2))  # E and F are in the store only
    assert g.vertices_for_labels(["D", "E", "no such entity", "A", "D"]) == [0, 3]
    assert g.vertices_for_labels(["E", "F"]) == []
    assert g.vertices_for_labels([]) == []


def test_empty_sequence_rejected():
    from pathpool.kg_store import TripleStore
    from pathpool.scoring import TripleSequence

    empty = TripleSequence.from_scores(TripleStore([]), [], [], "empty")
    with pytest.raises(EmptyInputError):
        build_scored_subgraph(empty)
    with pytest.raises(EmptyInputError):
        smooth(empty, [], CFG)


# -- pooling op ---------------------------------------------------------------


def test_pool_path_average_and_max():
    scores = [0.9, 0.3, 0.5]
    assert pool_path((0, 1), scores, "average") == pytest.approx(0.6)
    assert pool_path((0, 1), scores, "max") == 0.9
    assert pool_path((2,), scores, "average") == 0.5
    assert pool_path((2,), scores, "max") == 0.5


def test_pool_path_uniform_symmetry():
    scores = [0.4, 0.4, 0.4]
    kernel = PathKernel((0, 1, 2), "from_query", 0.0)
    assert pool_path(kernel, scores, "average") == pytest.approx(0.4, abs=1e-12)
    assert pool_path(kernel, scores, "max") == 0.4


def test_pool_path_rejects_empty_and_unknown():
    with pytest.raises(EmptyInputError):
        pool_path((), [0.5], "average")
    with pytest.raises(ConfigError):
        pool_path((0,), [0.5], "median")


# -- config -------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"search_algorithm": "astar"},
        {"pooling": "sum"},
        {"positional_divisor": 0.0},
        {"positional_divisor": -3.0},
        {"max_path_len": 0},
        {"walk_count": 0},
        {"walk_count": 2**63},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        PoolingConfig(**kwargs).validate()


# -- bfs and random walk ------------------------------------------------------


def test_bfs_respects_max_path_len():
    seq = make_sequence(
        [(f"V{i}", "r", f"V{i+1}", 0.5) for i in range(6)]
    )
    for limit in (1, 2, 4):
        cfg = PoolingConfig(search_algorithm="bfs", max_path_len=limit)
        longest = max(len(idx) for idx, _ in kernel_set(seq, ["V0"], cfg))
        assert longest == limit


def test_bfs_enumerates_all_simple_paths():
    seq = make_sequence(
        [
            ("A", "r", "B", 0.5),
            ("A", "r", "C", 0.5),
            ("B", "r", "D", 0.5),
            ("C", "r", "D", 0.5),
        ]
    )
    cfg = PoolingConfig(search_algorithm="bfs")
    kernels = {idx for idx, _ in kernel_set(seq, ["A"], cfg)}
    assert kernels == {(0,), (1,), (0, 2), (1, 3)}


def test_random_walk_deterministic_and_forward_only():
    seq, queries = random_case(99, max_edges=14)
    cfg = PoolingConfig(search_algorithm="random_walk", rng_seed=7)
    first = kernel_set(seq, queries, cfg)
    second = kernel_set(seq, queries, cfg)
    assert first == second
    assert all(
        direction in ("from_query", "singleton") for _, direction in first
    )
    out_a = smooth(seq, queries, cfg).labeled_items()
    out_b = smooth(seq, queries, cfg).labeled_items()
    assert out_a == out_b


def test_random_walk_kernels_are_simple_paths():
    for seed in range(40):
        seq, queries = random_case(seed, max_edges=14)
        cfg = PoolingConfig(search_algorithm="random_walk", rng_seed=seed)
        g = build_scored_subgraph(seq)
        for kernel in search_path_kernels(g, queries, cfg):
            if kernel.direction == "singleton":
                continue
            vertices = [g.heads[kernel.edge_indices[0]]]
            for e in kernel.edge_indices:
                assert g.heads[e] == vertices[-1]
                vertices.append(g.tails[e])
            assert len(set(vertices)) == len(vertices)
            assert len(kernel) <= cfg.max_path_len


def _first_steps(degree, walk_count, seed):
    """How often each out-slot of a star's centre takes a walk's first step."""
    args = flat_args(degree + 1, [(0, 1 + i) for i in range(degree)], [0.5] * degree)
    _, off, eid, _, dst = args[:5]
    blocks = _kernels_py._walks(off, eid, dst, np.array([0]), 1, walk_count, seed)
    first = np.concatenate([edges[0] for edges in blocks])
    return np.bincount(first, minlength=degree)


@pytest.mark.parametrize("degree", [3, 6, 11])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_walk_first_step_is_uniform_over_out_slots(degree, seed):
    # 6000 walks span two blocks. Reducing a masked draw modulo the degree
    # instead of rejecting it doubles the first slots' share: a chi-square
    # statistic in the hundreds against the 0.001 critical value here
    walk_count = 6000
    counts = _first_steps(degree, walk_count, seed)
    expected = walk_count / degree
    chi_square = float(((counts - expected) ** 2 / expected).sum())
    critical = {3: 13.82, 6: 20.52, 11: 29.59}[degree]  # df = degree - 1, p = 0.001
    assert counts.sum() == walk_count
    assert chi_square < critical, counts


def _python_calls(fn) -> int:
    """The Python function calls ``fn()`` makes, counted by ``sys.setprofile``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_random_walk_smoothing_makes_no_python_call_per_walk():
    # a binary tree three levels deep: every out-degree is a power of two, so
    # no draw is rejected, and every walk runs to max_path_len, so the steps
    # and draw rounds are the same at any walk count
    seq = make_sequence(
        [(f"V{v}", "r", f"V{2 * v + c}", 0.25 + v / 64) for v in range(1, 8) for c in (0, 1)]
    )
    counts = []
    for walk_count in (16, 1024):
        cfg = PoolingConfig(
            search_algorithm="random_walk", max_path_len=3, walk_count=walk_count
        )
        counts.append(_python_calls(lambda: smooth(seq, ["V1"], cfg, backend="py")))
    assert counts[0] == counts[1]


# -- canonical kernel order ---------------------------------------------------

# sha256 of every kernel ``search_path_kernels`` lists, in list order, over
# random_case(seed, max_edges=24) for seeds 0..299 and max_path_len 1, 3, 5:
# one "seed max_path_len direction edge_indices pooled_score.hex()" line each
KERNEL_ORDER_DIGESTS = {
    "dijkstra": (
        10680,
        "2e8fdf676b00f6cbc6ca153afd6c6eabc000a72486b5f6b21661d025ee5b3f76",
    ),
    "bfs": (
        19166,
        "e18cf55e695178007d16f7c50d0d0c10aa3efa5e260edd19b0d7054bfb9e0ee8",
    ),
    "random_walk": (
        13684,
        "ed9dd983efc529eec70fc89020cbd6a82a305a8da5e776c63855bcd1c816032c",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(KERNEL_ORDER_DIGESTS))
def test_search_path_kernels_canonical_order_is_pinned(algorithm):
    # the whole list, not its set: "the first kernel in canonical order"
    # depends on where each search direction's kernels fall
    digest = hashlib.sha256()
    count = 0
    for seed in range(300):
        seq, queries = random_case(seed, max_edges=24)
        g = build_scored_subgraph(seq)
        for max_path_len in (1, 3, 5):
            cfg = PoolingConfig(
                search_algorithm=algorithm, max_path_len=max_path_len, rng_seed=seed
            )
            for k in search_path_kernels(g, queries, cfg, backend="py"):
                line = f"{seed} {max_path_len} {k.direction} {k.edge_indices} "
                digest.update(f"{line}{k.pooled_score.hex()}\n".encode())
                count += 1
    assert (count, digest.hexdigest()) == KERNEL_ORDER_DIGESTS[algorithm]


# -- bfs smoothing vs exhaustive enumeration --------------------------------


def _enumerated_bfs_scores(args, sources, max_path_len, pooling, divisor):
    """Max over every kernel ``search_kernels`` lists of pooled + s_min/(i*divisor)."""
    scores = args[5].tolist()
    s_min = min(scores)
    kernels = _kernels_py.search_kernels(*args, sources, ALG_BFS, max_path_len, 1, 0)
    final = {}
    for path, _ in kernels:
        if pooling == 0:
            total = 0.0
            for e in path:
                total += scores[e]
            pooled = total / len(path)
        else:
            pooled = max(scores[e] for e in path)
        for i, e in enumerate(path, start=1):
            value = pooled + s_min / (i * divisor)
            if e not in final or value > final[e]:
                final[e] = value
    return [final[e] for e in range(len(scores))]


def _assert_bfs_matches_enumeration(n_vertices, edges, scores, sources, context):
    args = flat_args(n_vertices, edges, scores)
    s_min = min(scores)
    for max_path_len in (1, 2, 3, 4, 5, len(edges), 2**40):
        for pooling in (0, 1):
            for divisor in (10.0, 0.75):
                got = _kernels_py.smooth_scores(
                    *args, sources, ALG_BFS, max_path_len, 1, 0, pooling, s_min, divisor
                )
                expected = _enumerated_bfs_scores(
                    args, sources, max_path_len, pooling, divisor
                )
                case = (context, max_path_len, pooling, divisor)
                assert got.tolist() == expected, case


def _random_multigraph(seed):
    # self-loops and parallel edges arise freely; half the scores come from a
    # pool of at most three values, so pooled values tie often
    rnd = random.Random(seed)
    n_vertices = rnd.randint(1, 8)
    edges = [
        (rnd.randrange(n_vertices), rnd.randrange(n_vertices))
        for _ in range(rnd.randint(1, 16))
    ]
    pool = [rnd.uniform(-1.0, 1.0) for _ in range(rnd.randint(1, 3))]
    scores = [
        rnd.choice(pool) if rnd.random() < 0.5 else rnd.uniform(-1.0, 1.0)
        for _ in edges
    ]
    sources = sorted(rnd.sample(range(n_vertices), rnd.randint(0, min(3, n_vertices))))
    return n_vertices, edges, scores, sources


# 0->1->2->0: every prefix from 0 holds vertex 0, so no prefix may be
# extended by 2->0 although it is the best-scored out-edge of 2
BACK_EDGE = (
    4,
    [(0, 1), (1, 2), (2, 0), (2, 3), (0, 0)],
    [0.125, 0.25, 0.875, 0.0625, 0.5],
)

# prefixes into 3: 0->1->3 (high) holds 1, 0->2->3 (low) does not, so 3->1
# must end the low one; 3->4 may end the high one
BLOCKED_PREFIX = (
    5,
    [(0, 1), (1, 3), (0, 2), (2, 3), (3, 1), (3, 4)],
    [0.875, 0.75, 0.125, 0.0625, 0.5, 0.25],
)


def _oracle_cases():
    """Every (n_vertices, edges, scores, sources, context) the oracle tests check."""
    for seed in range(300):
        yield (*_random_multigraph(seed), seed)
    yield (*BACK_EDGE, [0], "back edge")
    yield (*BACK_EDGE, [0, 2], "back edge, two sources")
    yield (*BLOCKED_PREFIX, [0], "blocked prefix")
    for max_path_len in range(2, 6):
        for context, *graph in crowded_end_vertices(max_path_len):
            yield (*graph, [0], context)


def test_bfs_smoothing_equals_enumeration_on_random_multigraphs():
    for seed in range(300):
        _assert_bfs_matches_enumeration(*_random_multigraph(seed), seed)


def test_bfs_smoothing_edge_back_into_the_source():
    _assert_bfs_matches_enumeration(*BACK_EDGE, [0], "back edge")
    _assert_bfs_matches_enumeration(*BACK_EDGE, [0, 2], "back edge, two sources")


def test_bfs_smoothing_best_prefix_blocked_by_the_last_edge():
    _assert_bfs_matches_enumeration(*BLOCKED_PREFIX, [0], "blocked prefix")
    args = flat_args(*BLOCKED_PREFIX)
    got = _kernels_py.smooth_scores(*args, [0], ALG_BFS, 3, 1, 0, 0, 0.0625, 10.0)
    assert got[4] == (0.125 + 0.0625 + 0.5) / 3 + 0.0625 / 30.0


@pytest.mark.parametrize("max_path_len", [2, 3, 4, 5])
def test_bfs_smoothing_finds_the_free_edge_behind_crowded_out_edges(max_path_len):
    # the longest prefix's one free out-edge scores below max_path_len + 2
    # parallel edges or self-loops that all lead back onto the prefix
    for context, *graph in crowded_end_vertices(max_path_len):
        _assert_bfs_matches_enumeration(*graph, [0], context)


@pytest.mark.parametrize("block_paths", [1, 3])
def test_bfs_smoothing_equals_enumeration_across_block_boundaries(
    monkeypatch, block_paths
):
    # blocks of one or three out-edges split almost every level, so prefixes
    # of one parent land in different blocks and their best values merge
    monkeypatch.setattr(_kernels_py, "BFS_BLOCK_PATHS", block_paths)
    for case in _oracle_cases():
        _assert_bfs_matches_enumeration(*case)


def test_bfs_smoothing_memory_is_bounded_by_the_block_size():
    # a 500-triple bench sequence holds about 3.4 million simple paths of
    # five triples from its anchor (both directions); listed at once their
    # vertices alone would take about 160 MB. Expanded a block at a time,
    # each depth holds a few arrays of at most max_path_len rows per path
    # of a block.
    store = bench.synthesize_store(seed=0)
    ((sequence, anchors),) = bench.sample_workloads(store, 1, 500, seed=0)
    max_path_len = 6
    cfg = PoolingConfig(search_algorithm="bfs", max_path_len=max_path_len)
    tracemalloc.start()
    try:
        smooth(sequence, anchors, cfg, backend="py")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * _kernels_py.BFS_BLOCK_PATHS * max_path_len**2


# -- dijkstra smoothing vs the naive tree oracle ----------------------------


def _assert_tree_fold_matches_oracle(n_vertices, edges, scores, rank, sources):
    """The dijkstra fold equals pooling each path of the naive trees."""
    args = flat_args(n_vertices, edges, scores, rank)
    s_min = min(scores)
    heads, tails = zip(*edges)
    kernels = naive_tree_paths(heads, tails, scores, rank, sources)
    covered = {e for kernel in kernels for e in kernel}
    kernels += [(e,) for e in range(len(edges)) if e not in covered]
    for code, strategy in enumerate(("average", "max")):
        for divisor in (10.0, 0.75):
            got = _kernels_py.smooth_scores(
                *args, sources, ALG_DIJKSTRA, 1, 1, 0, code, s_min, divisor
            )
            expected = naive_kernel_smoothing(
                kernels,
                len(edges),
                lambda kernel: pool_path(kernel, scores, strategy),
                s_min,
                divisor,
            )
            assert got.tolist() == expected, (strategy, divisor)


@settings(max_examples=400, deadline=None)
@given(tree_graphs())
def test_dijkstra_smoothing_equals_the_tree_oracle(graph):
    _assert_tree_fold_matches_oracle(*graph)


def test_dijkstra_smoothing_on_a_deep_tied_chain():
    n_vertices, edges, scores, rank = deep_tied_chain()
    for sources in ([0], [n_vertices - 1], [0, 5], [4]):
        _assert_tree_fold_matches_oracle(n_vertices, edges, scores, rank, sources)
    args = flat_args(n_vertices, edges, scores, rank)
    kernels = _kernels_py.search_kernels(*args, [0], ALG_DIJKSTRA, 1, 1, 0)
    longest = max(kernels, key=lambda kernel: len(kernel[0]))[0]
    # the later, lower-ranked edge of each parallel pair wins every step
    assert longest == tuple(range(1, len(edges), 2))


def test_dijkstra_listing_breaks_ties_on_the_scores_smoothing_searches():
    # shifted by 1e-6, the two Q->M scores round equal and the edge rank
    # picks r0; the raw scores would pick r1
    seq = make_sequence(
        [("Q", "r0", "M", 0.0), ("Q", "r1", "M", 1e-97), ("M", "r2", "T", 0.0)]
    )
    kernels = kernel_set(seq, ["Q"], CFG)
    assert list(kernels) == [
        ((0,), "from_query"),
        ((0, 2), "from_query"),
        ((1,), "singleton"),
    ]
    assert kernels[(1,), "singleton"] == 1e-97
    assert scores_by_rank(smooth(seq, ["Q"], CFG)) == aggregate_reference(
        seq, ["Q"], CFG
    )


def test_naive_dijkstra_is_the_tree_when_sums_round_equal_only_further_down():
    # r1 wins M on the larger sum, though both Q->M->T paths sum to 1.0
    rows = [("Q", "r0", "M", 1e-20), ("Q", "r1", "M", 2e-20), ("M", "r2", "T", 1.0)]
    seq = make_sequence(rows)
    assert set(kernel_set(seq, ["Q"], CFG)) == {
        ((1,), "from_query"),
        ((1, 2), "from_query"),
        ((0,), "singleton"),
    }
    for strategy in ("average", "max"):
        cfg = PoolingConfig(pooling=strategy)
        expected = naive_smooth(rows, ["Q"], algorithm="dijkstra", pooling=strategy)
        assert smooth(seq, ["Q"], cfg).labeled_items() == expected, strategy


@pytest.mark.parametrize("strategy", ["average", "max"])
@pytest.mark.parametrize("algorithm", ["dijkstra", "bfs", "random_walk"])
def test_smoothing_walks_no_path(monkeypatch, algorithm, strategy):
    cfg = PoolingConfig(search_algorithm=algorithm, pooling=strategy)
    cases = [random_case(seed, max_edges=24) for seed in range(40)]
    cases = [
        (make_sequence([(h, r, t, 0.5) for h, r, t, _ in seq.labeled_items()]), queries)
        for seq, queries in cases
    ]

    def smoothed():
        return [smooth(*case, cfg, backend="py").labeled_items() for case in cases]

    expected = smoothed()

    def walk(*args):
        raise AssertionError(f"{algorithm} smoothing walked a path in Python")

    for name in ("search_kernels", "_enumerate_simple_paths"):
        monkeypatch.setattr(_kernels_py, name, walk)
    assert smoothed() == expected


def test_dijkstra_smoothing_and_listing_grow_one_tree_each(monkeypatch):
    # py smoothing and kernel listing both read the one tree helper, once
    cfg = PoolingConfig(search_algorithm="dijkstra")
    grow = _kernels_py._tree_levels
    calls = []

    def spy(*args):
        calls.append(args)
        return grow(*args)

    monkeypatch.setattr(_kernels_py, "_tree_levels", spy)
    cases = [random_case(seed, max_edges=24) for seed in range(20)]
    cases = [
        (seq, queries)
        for seq, queries in cases
        if build_scored_subgraph(seq).vertices_for_labels(queries)
    ]
    assert len(cases) >= 10
    for seq, queries in cases:
        calls.clear()
        smooth(seq, queries, cfg, backend="py")
        assert len(calls) == 1
        calls.clear()
        search_path_kernels(build_scored_subgraph(seq), queries, cfg)
        assert len(calls) == 1


@pytest.mark.parametrize("algorithm", ["dijkstra", "bfs", "random_walk"])
def test_smoothing_and_listing_pass_the_kernels_equal_arguments(monkeypatch, algorithm):
    # the listing once searched the raw scores where smoothing searched them
    # shifted positive, so the two disagreed wherever a score was <= 0
    cfg = PoolingConfig(search_algorithm=algorithm, max_path_len=3)
    calls = []

    def spy(fn):
        def record(*args):
            calls.append(args[:12])
            return fn(*args)

        return record

    targets = [(_kernels_py, "search_kernels"), (_kernels_py, "smooth_scores")]
    if pooling._core is not None:
        targets.append((pooling._core, "smooth_scores"))
    for owner, name in targets:
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    cases = [
        random_case(seed, max_edges=24, positive=seed % 2 == 0) for seed in range(30)
    ]
    assert sum(seq.score_array.min() <= 0 for seq, _ in cases) >= 10
    for seq, queries in cases:
        for backend in pooling.available_backends():
            calls.clear()
            search_path_kernels(build_scored_subgraph(seq), queries, cfg, backend)
            smooth(seq, queries, cfg, backend=backend)
            listed, smoothed = calls
            assert len(listed) == len(smoothed) == 12
            for a, b in zip(listed, smoothed):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("algorithm", ["dijkstra", "bfs", "random_walk"])
def test_smoothing_sorts_no_entity_ids(monkeypatch, algorithm):
    cfg = PoolingConfig(search_algorithm=algorithm, max_path_len=3)
    cases = [random_case(seed, max_edges=24) for seed in range(40)]

    def smoothed():
        return [smooth(*case, cfg, backend="py").labeled_items() for case in cases]

    expected = smoothed()

    def unique(*args, **kwargs):
        raise AssertionError("smooth sorted entity ids with np.unique")

    monkeypatch.setattr(np, "unique", unique)
    assert smoothed() == expected


# -- py smoothing against the oracles on chosen graph families ---------------

ALGORITHMS = ("dijkstra", "bfs", "random_walk")


def _assert_smooth_matches_oracles(seq, queries, cfg, context):
    """py ``smooth`` equals ``naive_smooth``, whose walks are ``naive_walk_kernels``."""
    expected = naive_smooth(
        seq.labeled_items(),
        queries,
        algorithm=cfg.search_algorithm,
        pooling=cfg.pooling,
        divisor=cfg.positional_divisor,
        max_path_len=cfg.max_path_len,
        walk_count=cfg.walk_count,
        seed=cfg.rng_seed,
    )
    assert smooth(seq, queries, cfg, backend="py").labeled_items() == expected, context


def test_smooth_matches_the_oracles_on_random_cases():
    # mixed-sign scores, so the shift runs; 2**40 exceeds every edge count
    for seed in range(150):
        seq, queries = random_case(seed, max_edges=24, positive=False)
        for algorithm, strategy, max_path_len in itertools.product(
            ALGORITHMS, ("average", "max"), (1, 3, 4, 2**40)
        ):
            cfg = PoolingConfig(
                search_algorithm=algorithm,
                pooling=strategy,
                max_path_len=max_path_len,
                positional_divisor=0.5 + seed % 7,
                rng_seed=seed,
            )
            context = (seed, algorithm, strategy, max_path_len)
            _assert_smooth_matches_oracles(seq, queries, cfg, context)


def test_dijkstra_tie_breaks_match_the_tree_oracle():
    # with one score for every triple (the uniform scorer's case) equal-hop
    # paths tie on score, and the edge-rank order picks the tree path
    for seed in range(150):
        seq, queries = random_case(seed, max_edges=24)
        flat = make_sequence([(h, r, t, 0.5) for h, r, t, _ in seq.labeled_items()])
        _assert_smooth_matches_oracles(flat, queries, CFG, seed)


def test_smooth_matches_the_oracles_on_whole_graph_chains():
    # a chain of n edges holds a kernel with every edge, reached with
    # max_path_len == n and above
    for n in (1, 2, 5):
        seq = make_sequence([(f"V{i}", "r", f"V{i + 1}", 0.1 + i / 8) for i in range(n)])
        for anchor in ("V0", f"V{n}"):
            for algorithm in ALGORITHMS:
                for max_path_len in (n, n + 1, 2**40):
                    cfg = PoolingConfig(
                        search_algorithm=algorithm, max_path_len=max_path_len
                    )
                    context = (n, anchor, algorithm, max_path_len)
                    _assert_smooth_matches_oracles(seq, [anchor], cfg, context)


def test_bfs_smoothing_matches_the_oracle_on_dense_bench_graphs():
    # bench sequences are dense community multigraphs with many parallel
    # edges: about 20,000 simple paths of four triples per anchor
    store = bench.synthesize_store(seed=0)
    for sequence, anchors in bench.sample_workloads(store, 2, 200, seed=1):
        first = anchors[0]
        other = next(h for h, _, _ in sequence.label_rows()[::-1] if h != first)
        for anchor_set in ([first], [first, other]):
            for strategy in ("average", "max"):
                cfg = PoolingConfig(search_algorithm="bfs", pooling=strategy)
                _assert_smooth_matches_oracles(sequence, anchor_set, cfg, anchor_set)


def test_walk_smoothing_matches_the_reference_across_seeds():
    # long walk budgets take thousands of counter draws; any divergence in a
    # walk's key, a step's counter or the rejection sampling changes which
    # paths become kernels
    seq, queries = random_case(5, max_edges=20)
    queries = queries or [seq.label_rows()[0][0]]
    for seed in WALK_SEEDS:
        cfg = PoolingConfig(
            search_algorithm="random_walk", walk_count=2048, rng_seed=seed
        )
        _assert_smooth_matches_oracles(seq, queries, cfg, seed)
    # on a 48-branch star (draws below 48 reject masked values of 48..63) a
    # few walks leave most branches unwalked, so each draw shows in the scores
    star, anchors = branching_star(48)
    for seed in WALK_SEEDS:
        for walk_count in (1, 5, 20):
            cfg = PoolingConfig(
                search_algorithm="random_walk", walk_count=walk_count, rng_seed=seed
            )
            _assert_smooth_matches_oracles(star, anchors, cfg, (seed, walk_count))


def test_smoothing_matches_naive_smooth_on_edge_shapes():
    # the kernel runs on the flat graph, so a source of degree zero reaches
    # it; naive_smooth runs on labels, with one relation per edge so that
    # parallel edges stay apart, and never sees a vertex with no edge
    for context, n_vertices, edges, sources, lengths, _ in edge_shapes():
        scores = [0.25 + (e * 37 % 101) / 128 for e in range(len(edges))]
        rows = [
            (f"V{h}", f"r{e:06d}", f"V{t}", scores[e]) for e, (h, t) in enumerate(edges)
        ]
        rank = np.empty(len(rows), dtype=np.int64)
        rank[sorted(range(len(rows)), key=lambda e: rows[e][:3])] = np.arange(len(rows))
        args = flat_args(n_vertices, edges, scores, rank)
        for algorithm, code in (("dijkstra", ALG_DIJKSTRA), ("bfs", ALG_BFS)):
            for max_path_len in lengths:
                for pooling_code, strategy in enumerate(pooling.POOLING_STRATEGIES):
                    tail = (sources, code, max_path_len, 1, 0, pooling_code)
                    got = _kernels_py.smooth_scores(*args, *tail, min(scores), 10.0)
                    expected = naive_smooth(
                        rows,
                        [f"V{s}" for s in sources],
                        algorithm=algorithm,
                        pooling=strategy,
                        max_path_len=max_path_len,
                    )
                    by_edge = {int(r[1:]): score for _, r, _, score in expected}
                    want = [by_edge[e] for e in range(len(edges))]
                    case = (context, algorithm, max_path_len, strategy)
                    assert got.tolist() == want, case


def test_walk_smoothing_matches_the_reference_on_edge_shapes():
    for context, n_vertices, edges, sources, lengths, walk_count in edge_shapes():
        scores = [0.25 + (e * 37 % 101) / 128 for e in range(len(edges))]
        args = flat_args(n_vertices, edges, scores)
        heads, tails = zip(*edges)
        s_min = min(scores)
        for max_path_len in lengths:
            kernels = naive_walk_kernels(
                heads, tails, sources, max_path_len, walk_count, 7
            )
            covered = {e for kernel in kernels for e in kernel}
            kernels += [(e,) for e in range(len(edges)) if e not in covered]
            for pooling_code, strategy in enumerate(pooling.POOLING_STRATEGIES):
                tail = (sources, ALG_RANDOM_WALK, max_path_len, walk_count, 7)
                got = _kernels_py.smooth_scores(*args, *tail, pooling_code, s_min, 10.0)
                expected = naive_kernel_smoothing(
                    kernels,
                    len(edges),
                    lambda kernel: pool_path(kernel, scores, strategy),
                    s_min,
                    10.0,
                )
                assert got.tolist() == expected, (context, max_path_len, strategy)


# -- compiled core adapter ----------------------------------------------------


def _never_called_core():
    """A ``_CompiledCore`` around a stand-in that fails if the guards let a call by."""

    def library(*args):
        raise AssertionError("the int32 guards passed the call on")

    return pooling._CompiledCore(library)


def _adapter_args(n_vertices, rank):
    args = list(flat_args(2, [(0, 1), (1, 0)], [0.5, 0.25], rank))
    args[0] = n_vertices
    return (*args, [0], ALG_DIJKSTRA, 4, 1, 0, 0, 0.25, 10.0)


@pytest.mark.parametrize(
    ("n_vertices", "rank", "error", "match"),
    [
        # 2 * n_vertices + 1 is the int32 max, then one past it
        (2**30 - 1, [0, 1], AssertionError, "guards passed"),
        (2**30, [0, 1], ValueError, "doubled graph"),
        (2, [0, 2**31 - 1], AssertionError, "guards passed"),
        (2, [0, 2**31], ValueError, "edge ranks"),
    ],
)
def test_compiled_core_guards_its_int32_sizes(n_vertices, rank, error, match):
    with pytest.raises(error, match=match):
        _never_called_core().smooth_scores(*_adapter_args(n_vertices, rank))


# -- smoothing properties ------------------------------------------------------


def shifted_scores(sequence):
    raw = sequence.score_array.tolist()
    low = min(raw)
    if low > 0.0:
        return raw
    return [s + (SCORE_SHIFT_EPS - low) for s in raw]


def aggregate_reference(sequence, queries, cfg):
    """Recompute smoothed scores from the public kernel API."""
    g = build_scored_subgraph(sequence)
    scores = shifted_scores(sequence)
    s_min = min(scores)
    kernels = search_path_kernels(g, queries, cfg)
    final = {}
    for kernel in kernels:
        pooled = pool_path(kernel, scores, cfg.pooling)
        for position, e in enumerate(kernel.edge_indices, start=1):
            value = pooled + s_min / (position * cfg.positional_divisor)
            if e not in final or value > final[e]:
                final[e] = value
    return final


def test_smooth_matches_kernel_aggregation_positive_scores():
    for seed in range(150):
        seq, queries = random_case(seed, positive=True)
        for algorithm in ("dijkstra", "bfs", "random_walk"):
            cfg = PoolingConfig(
                search_algorithm=algorithm,
                pooling="average" if seed % 2 else "max",
                rng_seed=seed,
            )
            expected = aggregate_reference(seq, queries, cfg)
            got = scores_by_rank(smooth(seq, queries, cfg))
            assert got == expected, (seed, algorithm)


def test_smooth_matches_naive_reference_bfs_mixed_signs():
    for seed in range(120):
        seq, queries = random_case(seed, positive=False)
        cfg = PoolingConfig(
            search_algorithm="bfs", pooling="average" if seed % 2 else "max"
        )
        expected = naive_smooth(
            seq.labeled_items(), queries, algorithm="bfs", pooling=cfg.pooling
        )
        assert smooth(seq, queries, cfg).labeled_items() == expected, seed


def test_smooth_matches_naive_reference_dijkstra_trees_with_negatives():
    # unique paths on trees: the tie-break is never consulted, so arbitrary
    # float scores (and the shift path) are exercised safely
    for seed in range(120):
        rnd = random.Random(seed)
        n = rnd.randint(2, 10)
        rows = []
        for child in range(1, n):
            parent = rnd.randrange(child)
            down = rnd.random() < 0.5
            h, t = (f"N{parent}", f"N{child}") if down else (f"N{child}", f"N{parent}")
            rows.append((h, f"rel{child}", t, rnd.uniform(-1, 1)))
        seq = make_sequence(rows)
        queries = ["N0"] if rnd.random() < 0.8 else []
        expected = naive_smooth(seq.labeled_items(), queries, algorithm="dijkstra")
        assert smooth(seq, queries, CFG).labeled_items() == expected, seed


def test_singleton_law_exact():
    for seed in range(100):
        seq, queries = random_case(seed, positive=True)
        g = build_scored_subgraph(seq)
        kernels = search_path_kernels(g, queries, CFG)
        multi = set()
        for kernel in kernels:
            if len(kernel) > 1:
                multi.update(kernel.edge_indices)
        scores = seq.score_array.tolist()
        s_min = min(scores)
        out = scores_by_rank(smooth(seq, queries, CFG))
        for e in range(len(scores)):
            if e not in multi:
                assert out[e] == scores[e] + s_min / CFG.positional_divisor


def test_multiset_preserved(example_sequence):
    for seed in range(60):
        seq, queries = random_case(seed, positive=False)
        out = smooth(seq, queries, CFG)
        assert sorted(out.label_rows()) == sorted(seq.label_rows())


def test_smoothed_score_that_overflows_raises_naming_its_triple():
    # s_min / (position * divisor) is infinite at every position here
    seq = make_sequence([("A", "r", "B", 0.5), ("B", "r", "C", 0.25), ("X", "r", "Y", 0.75)])
    for algorithm in ("dijkstra", "bfs", "random_walk"):
        cfg = PoolingConfig(search_algorithm=algorithm, positional_divisor=1e-310)
        with pytest.raises(ConfigError) as info:
            smooth(seq, ["A"], cfg)
        assert str(info.value) == "non-finite smoothed score for triple ('A', 'r', 'B')"


def test_shift_applies_when_scores_non_positive():
    seq = make_sequence([("A", "r", "B", -0.5), ("B", "r", "C", 0.2)])
    rows = smooth(seq, ["A"], CFG).labeled_items()
    shifted = [(-0.5 + (SCORE_SHIFT_EPS + 0.5)), (0.2 + (SCORE_SHIFT_EPS + 0.5))]
    pooled = sum(shifted) / 2
    s_min = min(shifted)
    expected_first = max(shifted[0] + s_min / 10.0, pooled + s_min / 10.0)
    assert rows[0][3] == pytest.approx(expected_first)
    assert all(row[3] > 0 for row in rows)


def test_score_shift_is_consistent_with_external_preshift():
    # smoothing a sequence with a non-positive minimum must equal smoothing
    # the same sequence pre-shifted by the identical positive constant; this
    # is the sense in which the internal shift is harmless to the ordering
    checked = 0
    for seed in range(300):
        seq, queries = random_case(seed, positive=False)
        raw = [row[3] for row in seq.labeled_items()]
        if min(raw) > 0:
            continue
        checked += 1
        shift = SCORE_SHIFT_EPS - min(raw)
        pre = make_sequence(
            [(h, r, t, s + shift) for h, r, t, s in seq.labeled_items()]
        )
        cfg = PoolingConfig(pooling="average")
        assert (
            smooth(seq, queries, cfg).labeled_items()
            == smooth(pre, queries, cfg).labeled_items()
        ), seed
    assert checked > 100


def test_uniform_scores_average_equals_max_ordering():
    # 0.5 is dyadic, so the mean of l equal copies is exact for every l and
    # the avg/max symmetry holds down to the bit; a non-dyadic uniform value
    # (e.g. 0.4) drifts by ~1 ulp for l >= 3 and may legally reorder ties
    for seed in range(80):
        seq, queries = random_case(seed, positive=True)
        uniform = make_sequence(
            [(h, r, t, 0.5) for h, r, t, _ in seq.labeled_items()]
        )
        avg = smooth(uniform, queries, PoolingConfig(pooling="average")).labeled_items()
        mx = smooth(uniform, queries, PoolingConfig(pooling="max")).labeled_items()
        assert avg == mx

"""The bulk data path from retrieval to the kernel, pinned against per-item orders.

Label-order sorts, the scored-subgraph arrays and the sequence rows are
built in bulk; each test states the per-item definition they must match.
"""

from __future__ import annotations

import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import random_case, sequence_rows, store_rows
from naive_ref import naive_scored_subgraph
from pathpool import bench, pooling
from pathpool.errors import ConfigError
from pathpool.kg_store import QueryRecord, TripleStore
from pathpool.pooling import (
    PoolingConfig,
    _kernels_py,
    build_scored_subgraph,
    search_path_kernels,
    smooth,
)
from pathpool.scoring import PrecomputedScorer, ScoredTriple, TripleSequence, score_triples
from pathpool.selection import rerank, reselect, top_k

QUERY = QueryRecord("q1", "?", (), ())

# short labels over a mixed alphabet: prefixes ("a", "aa"), case and
# non-ASCII code points all occur
_LABELS = st.text(alphabet="aAbé中_ ", min_size=1, max_size=3)
_RELATIONS = st.sampled_from(["r", "R", "r1", "é", "r "])


def _store_with_decoys(labels: list[str], rows) -> TripleStore:
    """A store of ``rows`` that first interned ``labels`` in reverse, so ids
    differ from the rows' first-seen order."""
    decoys = [(label, "decoy", label) for label in reversed(labels)]
    return TripleStore(decoys + [tuple(row[:3]) for row in rows])


def _rows(data, min_size=1, max_size=20):
    pool = data.draw(st.lists(_LABELS, min_size=1, max_size=6, unique=True))
    rows = data.draw(
        st.lists(
            st.tuples(st.sampled_from(pool), _RELATIONS, st.sampled_from(pool)),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    return pool, rows


# -- scored subgraph ---------------------------------------------------------


def _assert_subgraph_matches_naive(store, edges):
    scores = [edge[3] for edge in edges]
    g = build_scored_subgraph(
        TripleSequence.from_scores(store, store_rows(store, edges), scores, "t")
    )
    naive = naive_scored_subgraph(edges)
    assert [store.entity_label(e) for e in g.vertex_entities.tolist()] == naive["vertices"]
    for v, label in enumerate(naive["vertices"]):
        assert g.vertices_for_labels([label, label]) == [v]
    assert g.vertices_for_labels(reversed(naive["vertices"])) == list(range(g.n_vertices))
    assert (g.n_vertices, g.n_edges) == (len(naive["vertices"]), len(edges))
    assert g.heads.tolist() == naive["heads"]
    assert g.tails.tolist() == naive["tails"]
    assert g.scores.tolist() == naive["scores"]
    # the doubled CSR: the from-query (out) half, then the to-query (in) half
    n, n_out = g.n_vertices, g.off[g.n_vertices]
    assert (g.off[: n + 1].tolist(), g.eid[:n_out].tolist()) == naive["out"]
    assert ((g.off[n:] - n_out).tolist(), g.eid[n_out:].tolist()) == naive["in"]
    assert g.edge_rank.argsort().argsort().tolist() == naive["lex_rank"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scored_subgraph_matches_naive_arrays(data):
    pool, rows = _rows(data)
    scores = data.draw(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=len(rows), max_size=len(rows))
    )
    edges = [(*row, score) for row, score in zip(rows, scores)]
    _assert_subgraph_matches_naive(_store_with_decoys(pool, edges), edges)


@pytest.mark.parametrize(
    "edges",
    [
        [("A", "r", "B", 0.5)],
        [("A", "r", "A", 0.5)],
        # self-loops, parallel edges both ways, a vertex with only in-edges
        [
            ("b", "r", "a", 0.1),
            ("a", "r", "a", 0.2),
            ("a", "s", "b", 0.3),
            ("a", "r", "b", 0.4),
            ("b", "s", "a", 0.5),
            ("c", "r", "b", 0.6),
            ("b", "r", "b", 0.7),
        ],
        # prefix and non-ASCII labels
        [("aa", "r", "a", 1.0), ("a", "r", "aa", 1.0), ("中", "é", "a", 1.0)],
    ],
)
def test_scored_subgraph_hand_cases(edges):
    _assert_subgraph_matches_naive(_store_with_decoys(["zz", "a", "b"], edges), edges)


def test_scored_subgraph_matches_naive_past_16_bit_vertex_keys():
    # 2 * n_vertices needs more than 16 bits, so the CSR sorts wider keys;
    # the store interned every label in reverse first
    rnd = random.Random(7)
    labels = [f"v{i}" for i in range(32_800)]
    edges = [(labels[i], "r", labels[i + 1], rnd.random()) for i in range(0, 32_800, 2)]
    for _ in range(1500):  # parallel edges, self-loops and hubs among them
        head = labels[rnd.randrange(400)]
        tail = rnd.choice(labels)
        edges.append((head, f"s{rnd.randrange(3)}", tail, rnd.random()))
    edges = list({edge[:3]: edge for edge in edges}.values())
    rnd.shuffle(edges)
    _assert_subgraph_matches_naive(_store_with_decoys(labels, edges), edges)


def _on_fresh_thread(fn):
    """``fn()`` on a new thread, which numbers vertices in a buffer of its own."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def _smoothed_bytes(sequence, queries, cfg):
    out = smooth(sequence, queries, cfg, backend="py")
    return out.row_array.tobytes(), out.score_array.tobytes()


def test_threads_smoothing_one_store_match_serial_runs():
    # each thread smooths its own sequences of one shared store, switching
    # threads every microsecond; every result equals the serial run's bytes
    store = bench.synthesize_store(seed=4, n_triples=6000)
    cases = bench.sample_workloads(store, 16, 120, seed=2)
    cfg = PoolingConfig(search_algorithm="dijkstra")
    expected = [_smoothed_bytes(sequence, anchors, cfg) for sequence, anchors in cases]
    failures, finished = [], []

    def smooth_some(offset):
        for _ in range(6):
            for i in range(offset, len(cases), 4):
                if _smoothed_bytes(*cases[i], cfg) != expected[i]:
                    failures.append(i)
        finished.append(offset)  # a thread that raised never gets here

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=smooth_some, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and sorted(finished) == [0, 1, 2, 3]


def test_subgraph_answers_after_a_later_build_on_its_thread():
    store = bench.synthesize_store(seed=4, n_triples=6000)
    (first, anchors), (second, _) = bench.sample_workloads(store, 2, 150, seed=5)
    labels = [label for h, _, t in first.label_rows() for label in (h, t)]
    cfg = PoolingConfig(search_algorithm="bfs", max_path_len=2)

    def answers(g):
        vertices = [g.vertices_for_labels([label]) for label in labels]
        return vertices, search_path_kernels(g, anchors, cfg, backend="py")

    g = build_scored_subgraph(first)
    build_scored_subgraph(second)  # renumbers the shared entities in this thread
    assert answers(g) == _on_fresh_thread(lambda: answers(build_scored_subgraph(first)))


def test_smooth_after_a_larger_store_on_one_thread():
    rows = [(f"E{i}", "r", f"E{i + 1}", 1.0 / (i + 1)) for i in range(40)]
    more = [(f"E{i}", "s", f"N{i}", 0.5) for i in range(0, 40, 3)] + [
        (f"N{i}", "s", f"N{i + 1}", 0.25) for i in range(100)
    ]
    cfg = PoolingConfig(search_algorithm="bfs", max_path_len=3)

    def sequence(store, edges):
        scores = [edge[3] for edge in edges]
        return TripleSequence.from_scores(store, store_rows(store, edges), scores, "t")

    def smaller_then_larger():
        smaller = _store_with_decoys([], rows)
        before = _smoothed_bytes(sequence(smaller, rows), ["E0"], cfg)
        larger = _store_with_decoys([], rows + more)
        # the buffer this thread sized for 41 entities must grow to 142
        _assert_subgraph_matches_naive(larger, more)
        return before, _smoothed_bytes(sequence(larger, rows + more), ["E0", "N7"], cfg)

    def larger_only():
        store = _store_with_decoys([], rows + more)
        return (
            _smoothed_bytes(sequence(store, rows), ["E0"], cfg),
            _smoothed_bytes(sequence(store, rows + more), ["E0", "N7"], cfg),
        )

    assert _on_fresh_thread(smaller_then_larger) == _on_fresh_thread(larger_only)


# -- label order --------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_rank_orders_like_label_tuples(data):
    pool, rows = _rows(data)
    store = _store_with_decoys(pool, rows)
    by_labels = sorted(range(store.n_triples), key=store.row_labels)
    assert np.argsort(store.row_rank).tolist() == by_labels


# -- score_triples --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_score_triples_matches_sort_by_score_then_labels(data):
    pool, rows = _rows(data, max_size=25)
    # few distinct values, so ties (also 0.0 against -0.0) are common
    scores = data.draw(
        st.lists(
            st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 5e-324]),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    k = data.draw(st.integers(1, len(rows) + 3))
    store = _store_with_decoys(pool, rows)
    table = {("q1", *row): score for row, score in zip(rows, scores)}
    got = score_triples(QUERY, store, PrecomputedScorer(table), k)
    expected = sorted(zip(rows, scores), key=lambda p: (-p[1], p[0]))[:k]
    assert [(*item[:3], repr(item[3])) for item in got.labeled_items()] == [
        (*row, repr(score)) for row, score in expected
    ]
    assert got.rank_array.tolist() == list(range(len(expected)))


def test_score_triples_with_no_candidates_is_empty():
    store = TripleStore([("a", "r", "b")])
    # the table names the query, but scores no candidate of it
    scorer = PrecomputedScorer({("q1", "x", "r", "y"): 0.5})
    assert len(score_triples(QUERY, store, scorer, 5)) == 0


# -- smooth output order ------------------------------------------------------


def _with_ranks(sequence, ranks):
    """``sequence`` with each row's rank taken from ``ranks``, a permutation.

    As in the pipeline, the ranks come from ``from_scores`` over the rows in
    rank order, and a reorder by ``_take`` keeps them.
    """
    by_rank = np.argsort(ranks)
    ranked = TripleSequence.from_scores(
        sequence.store, sequence.row_array[by_rank], sequence.score_array[by_rank], "ranked"
    )
    shuffled = ranked._take(np.argsort(by_rank), "shuffled ranks")
    assert shuffled.rank_array.tolist() == list(ranks)
    return shuffled


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("algorithm", ["dijkstra", "bfs", "random_walk"])
def test_smooth_orders_by_final_score_then_input_position(seed, algorithm):
    # dyadic scores tie often; ranks are shuffled so they differ from positions
    sequence, queries = random_case(seed, dyadic=True)
    ranks = list(range(len(sequence)))
    random.Random(seed).shuffle(ranks)
    sequence = _with_ranks(sequence, ranks)
    cfg = PoolingConfig(search_algorithm=algorithm, max_path_len=3)
    args = pooling._kernel_args(build_scored_subgraph(sequence), queries, cfg)
    final = _kernels_py.smooth_scores(
        *args, pooling._POOLING_CODES[cfg.pooling], min(args[5]), cfg.positional_divisor
    )
    order = sorted(range(len(final)), key=lambda i: (-final[i], i))
    out = smooth(sequence, queries, cfg, backend="py")
    assert out.row_array.tolist() == sequence.row_array[order].tolist()
    assert out.score_array.tolist() == [final[i] for i in order]
    assert out.rank_array.tolist() == sequence.rank_array[order].tolist()


def test_smooth_keeps_input_order_when_every_final_score_ties():
    store = TripleStore((f"h{i}", "r", f"t{i}") for i in range(12))
    sequence = TripleSequence.from_scores(store, np.arange(12)[::-1], [0.5] * 12, "t")
    out = smooth(sequence, [], PoolingConfig())
    assert out.row_array.tolist() == sequence.row_array.tolist()


# -- selection order ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_selection_orders_by_score_then_rank_not_list_position(seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 14)
    store = TripleStore((f"h{i}", "r", f"t{i}") for i in range(n))
    ranks = list(range(n))
    rnd.shuffle(ranks)
    scores = [rnd.choice([0.0, -0.0, 0.25, 0.5]) for _ in range(n)]
    sequence = _with_ranks(TripleSequence.from_scores(store, range(n), scores, "t"), ranks)
    k = rnd.randint(1, n + 2)
    expected = sorted(sequence_rows(sequence), key=lambda row: (-row[1], row[2]))

    def lost_in_middle(ranked):
        head, tail = [], []
        for position, item in enumerate(ranked):
            (head if position % 2 == 0 else tail).append(item)
        return head + tail[::-1]

    def same(got, want):
        # repr keeps the sign of zero, and the unique rows and ranks pin each row
        def key(row):
            return row[0], repr(row[1]), row[2]

        return list(map(key, sequence_rows(got))) == list(map(key, want))

    assert same(top_k(sequence, k), expected[:k])
    assert same(reselect(sequence, k, "recency"), expected[:k][::-1])
    assert same(reselect(sequence, k, "lost_in_middle"), lost_in_middle(expected[:k]))
    assert same(rerank(sequence, "recency"), expected[::-1])
    assert same(rerank(sequence, "lost_in_middle"), lost_in_middle(expected))


# -- sequence checks ----------------------------------------------------------


@pytest.mark.parametrize(
    "rows, message",
    [
        # the first offender is named, whichever check it fails
        ([(0, 1.0), (1, float("nan")), (0, 0.5)], "non-finite score for triple {t1}"),
        (
            [(0, 1.0), (0, 0.5), (1, float("nan"))],
            "duplicate triple in sequence: ('a', 'r', 'b')",
        ),
        ([(1, float("inf"))], "non-finite score for triple {t1}"),
        ([(0, 0.5), (1, float("-inf"))], "non-finite score for triple {t1}"),
        ([(1, 0.5), (0, 0.5), (1, 0.5)], "duplicate triple in sequence: ('c', 'r', 'd')"),
    ],
)
def test_sequence_names_the_first_invalid_item(rows, message):
    store = TripleStore([("a", "r", "b"), ("c", "r", "d")])
    message = message.format(t1=store.row_labels(1))
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        TripleSequence.from_scores(store, *zip(*rows), "t")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([0, 1], "store rows lie in 0..0, got 0..1"),
        ([-1], "store rows lie in 0..0, got -1..-1"),
        ([(0, 0, 1)], "3 store rows but 1 scores"),
    ],
)
def test_from_scores_rejects_numbers_that_are_no_store_row(rows, message):
    store = TripleStore([("a", "r", "b")])
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        TripleSequence.from_scores(store, rows, [0.5] * len(rows), "t")
    sequence = TripleSequence.from_scores(store, [0], [0.5], "t")
    assert sequence.id_array.tolist() == [[0, 0, 1]]
    assert (sequence.score_array.tolist(), sequence.rank_array.tolist()) == ([0.5], [0])


def test_from_scores_builds_float_rows_in_order():
    store = TripleStore([("a", "r", "b"), ("c", "r", "d")])
    sequence = TripleSequence.from_scores(store, [1, 0], [1, 0.25], "t")
    assert sequence.labeled_items() == [("c", "r", "d", 1.0), ("a", "r", "b", 0.25)]
    assert type(sequence.labeled_items()[0][3]) is float
    assert sequence.rank_array.tolist() == [0, 1]
    # ``items`` rows hold each triple as its plain id tuple
    t0, t1 = (0, 0, 1), (2, 0, 3)
    assert sequence.items == [ScoredTriple(t1, 1.0, 0), ScoredTriple(t0, 0.25, 1)]
    assert all(type(item) is ScoredTriple for item in sequence.items)
    assert all(type(item.triple) is tuple for item in sequence.items)
    assert type(sequence.items[0].score) is float


@pytest.mark.parametrize("k", [1, 2, 3])
# an infinite candidate ahead of the NaN is not the one named
@pytest.mark.parametrize("first", [0.5, float("inf"), float("-inf")])
def test_score_triples_rejects_a_nan_score_wherever_it_would_sort(k, first):
    store = TripleStore([("a", "r", "b"), ("c", "r", "d"), ("e", "r", "f")])
    table = {
        ("q1", "a", "r", "b"): first,
        ("q1", "c", "r", "d"): float("nan"),
        ("q1", "e", "r", "f"): 0.7,
    }
    message = "non-finite score for triple ('c', 'r', 'd')"
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        score_triples(QUERY, store, PrecomputedScorer(table), k)

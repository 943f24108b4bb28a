"""Scorer backends and top-k selection."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpool.errors import ConfigError, ParseError, ScoringError
from pathpool.kg_store import QueryRecord, extract_subgraph, load_triples
from pathpool.scoring import (
    CosineScorer,
    PrecomputedScorer,
    TripleSequence,
    UniformScorer,
    build_scorer,
    score_triples,
    triple_sentence,
)

QUERY = QueryRecord(id="q1", question="who?", query_entities=("A",), gold_answers=("x",))


def _store():
    return load_triples(io.StringIO("A\tr1\tB\nB\tr2\tC\nA\tr0\tC\n"))


def test_uniform_top2_breaks_ties_lexicographically():
    store = _store()
    seq = score_triples(QUERY, store, UniformScorer(), k=2)
    assert seq.labeled_items() == [
        ("A", "r0", "C", 1.0),
        ("A", "r1", "B", 1.0),
    ]


def test_fewer_candidates_than_k_returns_all():
    store = _store()
    seq = score_triples(QUERY, store, UniformScorer(), k=10)
    assert len(seq) == 3


def test_scores_non_increasing_and_prefix_monotone():
    store = _store()
    table = {
        (QUERY.id, "A", "r1", "B"): 0.9,
        (QUERY.id, "B", "r2", "C"): 0.3,
        (QUERY.id, "A", "r0", "C"): 0.5,
    }
    scorer = PrecomputedScorer(table)
    seq3 = score_triples(QUERY, store, scorer, k=3)
    scores = seq3.scores()
    assert scores == sorted(scores, reverse=True)
    seq2 = score_triples(QUERY, store, scorer, k=2)
    assert seq2.labeled_items() == seq3.labeled_items()[:2]


def test_precomputed_order_matches_scores():
    store = _store()
    scorer = PrecomputedScorer(
        {
            (QUERY.id, "A", "r1", "B"): 0.9,
            (QUERY.id, "B", "r2", "C"): 0.3,
            (QUERY.id, "A", "r0", "C"): 0.5,
        }
    )
    seq = score_triples(QUERY, store, scorer, k=3)
    assert [row[:3] for row in seq.labeled_items()] == [
        ("A", "r1", "B"),
        ("A", "r0", "C"),
        ("B", "r2", "C"),
    ]


def test_precomputed_missing_entries_are_excluded():
    store = _store()
    scorer = PrecomputedScorer({(QUERY.id, "A", "r1", "B"): 0.9})
    seq = score_triples(QUERY, store, scorer, k=5)
    assert len(seq) == 1


def test_triple_sentence_rewrites_relation():
    assert (
        triple_sentence("A", "sports.sports_team.championships", "B")
        == "A sports sports team championships B"
    )


def _cosine_table(store, query_text):
    table = {query_text: [1.0, 0.0]}
    sentences = [triple_sentence(*store.triple_labels(t)) for t in store.triples]
    table[sentences[0]] = [1.0, 0.0]   # identical direction
    table[sentences[1]] = [0.0, 1.0]   # orthogonal
    table[sentences[2]] = [-1.0, 0.0]  # opposite
    import numpy as np

    return {k: np.asarray(v, dtype=float) for k, v in table.items()}


def test_cosine_identity_scores_one_and_ranks_first():
    store = _store()
    scorer = CosineScorer(_cosine_table(store, QUERY.question))
    seq = score_triples(QUERY, store, scorer, k=3)
    rows = seq.labeled_items()
    assert rows[0][:3] == ("A", "r1", "B")
    assert rows[0][3] == pytest.approx(1.0)
    assert all(-1.0 <= row[3] <= 1.0 for row in rows)


def test_cosine_query_text_equal_to_triple_text():
    # the query string IS one triple's sentence; with normalized embeddings
    # that triple scores exactly 1.0 and ranks first
    import numpy as np

    store = _store()
    query = QueryRecord(
        id="q", question=triple_sentence("B", "r2", "C"), query_entities=(), gold_answers=("x",)
    )
    table = {
        triple_sentence("A", "r1", "B"): np.asarray([0.0, 1.0]),
        triple_sentence("B", "r2", "C"): np.asarray([1.0, 0.0]),
        triple_sentence("A", "r0", "C"): np.asarray([-1.0, 0.0]),
    }
    rows = score_triples(query, store, CosineScorer(table), k=3).labeled_items()
    assert rows[0][:3] == ("B", "r2", "C")
    assert rows[0][3] == 1.0


def test_cosine_query_scale_does_not_change_ranking():
    store = _store()
    table = _cosine_table(store, QUERY.question)
    scorer = CosineScorer(table)
    base = [row[:3] for row in score_triples(QUERY, store, scorer, k=3).labeled_items()]
    table[QUERY.question] = table[QUERY.question] * 37.5
    scaled = [
        row[:3] for row in score_triples(QUERY, store, scorer, k=3).labeled_items()
    ]
    assert base == scaled


def test_cosine_missing_embedding_names_label():
    store = _store()
    scorer = CosineScorer({QUERY.question: __import__("numpy").ones(2)})
    with pytest.raises(ScoringError) as err:
        score_triples(QUERY, store, scorer, k=1)
    assert "A r1 B" in str(err.value)


def test_cosine_loader_validates_dimensions(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1.0 2.0\nb\t1.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        CosineScorer.load(path)
    assert err.value.line == 2


def test_precomputed_loader_rejects_bad_arity(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("q\tA\tr\tB\n", encoding="utf-8")
    with pytest.raises(ParseError):
        PrecomputedScorer.load(path)


def test_build_scorer_dispatch(tmp_path):
    assert isinstance(build_scorer("uniform"), UniformScorer)
    scores = tmp_path / "s.tsv"
    scores.write_text("q\tA\tr\tB\t0.5\n", encoding="utf-8")
    assert isinstance(build_scorer(f"precomputed:{scores}"), PrecomputedScorer)
    with pytest.raises(ConfigError):
        build_scorer("nope")
    with pytest.raises(ConfigError):
        build_scorer("cosine")


def test_k_must_be_positive():
    with pytest.raises(ConfigError):
        score_triples(QUERY, _store(), UniformScorer(), k=0)


def test_sequence_rejects_duplicates_and_nan():
    store = _store()
    triple = store.triples[0]
    with pytest.raises(ConfigError):
        TripleSequence.from_scores(store, [(triple, 0.1), (triple, 0.2)], "t")
    with pytest.raises(ConfigError):
        TripleSequence.from_scores(store, [(triple, float("nan"))], "t")


@settings(max_examples=50, deadline=None)
@given(
    scores=st.lists(
        st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=8
    ),
    k=st.integers(1, 8),
)
def test_topk_prefix_property(scores, k):
    store = load_triples(
        io.StringIO("".join(f"E{i}\tr\tF{i}\n" for i in range(len(scores))))
    )
    table = {
        ("q1", f"E{i}", "r", f"F{i}"): float(s) for i, s in enumerate(scores)
    }
    scorer = PrecomputedScorer(table)
    smaller = score_triples(QUERY, store, scorer, k=k).labeled_items()
    bigger = score_triples(QUERY, store, scorer, k=k + 1).labeled_items()
    assert bigger[: len(smaller)] == smaller


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_view_and_standalone_store_score_identically(data):
    n = data.draw(st.integers(2, 6))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, n - 1)),
            min_size=1,
            max_size=20,
        )
    )
    # labels interned out of label order, so parent and standalone ids differ
    lines = [f"{'zyxwvu'[h]}E\tr{2 - r}\t{'zyxwvu'[t]}E" for h, r, t in edges]
    store = load_triples(io.StringIO("\n".join(lines) + "\n"))
    anchor = lines[-1].split("\t")[0]
    view = extract_subgraph(store, [anchor], data.draw(st.integers(1, 3)))
    standalone = load_triples(io.StringIO("".join(f"{line}\n" for line in view.lines())))
    # few distinct scores, so most of the order comes from the tie-break
    values = data.draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(lines), max_size=len(lines))
    )
    table = {("q1", *line.split("\t")): v for line, v in zip(lines, values)}
    k = data.draw(st.integers(1, 25))
    for scorer in (UniformScorer(), PrecomputedScorer(table)):
        from_view = score_triples(QUERY, view, scorer, k)
        from_store = score_triples(QUERY, standalone, scorer, k)
        assert from_view.labeled_items() == from_store.labeled_items()
        assert from_view.store is store

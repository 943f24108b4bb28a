"""Positional reranking and coarse-to-fine reselection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import make_sequence, random_case, sequence_rows
from pathpool.errors import ConfigError
from pathpool.selection import SelectionConfig, rerank, reselect, top_k


@pytest.fixture
def smoothed():
    # the worked-example smoothed scores
    return make_sequence(
        [("A", "r1", "B", 0.93), ("B", "r2", "C", 0.615), ("D", "r3", "E", 0.53)]
    )


def heads(sequence):
    return [row[0] for row in sequence.labeled_items()]


def test_recency_sorts_ascending(smoothed):
    assert heads(rerank(smoothed, "recency")) == ["D", "B", "A"]


def test_lost_in_middle_alternates_head_tail(smoothed):
    assert heads(rerank(smoothed, "lost_in_middle")) == ["A", "D", "B"]


def test_lost_in_middle_four_items():
    seq = make_sequence(
        [("A", "r", "X", 0.9), ("B", "r", "X", 0.8), ("C", "r", "X", 0.7), ("D", "r", "X", 0.6)]
    )
    assert heads(rerank(seq, "lost_in_middle")) == ["A", "C", "D", "B"]


def test_single_triple_identity():
    seq = make_sequence([("A", "r", "B", 0.5)])
    assert heads(rerank(seq, "recency")) == ["A"]
    assert heads(rerank(seq, "lost_in_middle")) == ["A"]


def test_reselect_top2_recency(smoothed):
    assert heads(reselect(smoothed, 2, "recency")) == ["B", "A"]


def test_reselect_keeps_everything_when_k_large(smoothed):
    assert heads(reselect(smoothed, 10, "recency")) == heads(
        rerank(smoothed, "recency")
    )


def test_reselect_all_tied_keeps_best_original_rank():
    seq = make_sequence(
        [("A", "r", "X", 0.5), ("B", "r", "X", 0.5), ("C", "r", "X", 0.5)]
    )
    assert heads(reselect(seq, 1, "recency")) == ["A"]


def test_rerank_is_permutation():
    for seed in range(50):
        seq, _ = random_case(seed, positive=False)
        for order in ("recency", "lost_in_middle"):
            out = rerank(seq, order)
            assert sorted(sequence_rows(out)) == sorted(sequence_rows(seq))


def test_recency_scores_non_decreasing():
    for seed in range(50):
        seq, _ = random_case(seed, positive=False)
        scores = rerank(seq, "recency").score_array.tolist()
        assert scores == sorted(scores)


def test_reselect_kept_scores_dominate_dropped():
    for seed in range(50):
        seq, _ = random_case(seed, positive=False)
        k = max(1, len(seq) // 2)
        kept = reselect(seq, k, "recency")
        assert len(kept) == min(k, len(seq))
        kept_set = set(sequence_rows(kept))
        dropped = [row for row in sequence_rows(seq) if row not in kept_set]
        if dropped:
            assert min(kept.score_array) >= max(score for _, score, _ in dropped)


def test_reselect_equals_rerank_of_topk():
    for seed in range(50):
        seq, _ = random_case(seed, positive=False)
        k = max(1, len(seq) - 2)
        for order in ("recency", "lost_in_middle"):
            assert (
                reselect(seq, k, order).labeled_items()
                == rerank(top_k(seq, k), order).labeled_items()
            )


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
    fine_k=st.integers(1, 12),
)
def test_reselect_size_property(scores, fine_k):
    seq = make_sequence(
        [(f"H{i}", "r", f"T{i}", float(s)) for i, s in enumerate(scores)]
    )
    out = reselect(seq, fine_k, "recency")
    assert len(out) == min(fine_k, len(seq))


def test_config_validation():
    SelectionConfig().validate()
    with pytest.raises(ConfigError):
        SelectionConfig(mode="blend").validate()
    with pytest.raises(ConfigError):
        SelectionConfig(order="random").validate()
    # fine_k <= coarse_k is a run's check (``cli._check_run``): ``select``
    # reads no coarse_k
    SelectionConfig(coarse_k=10, fine_k=20).validate()
    with pytest.raises(ConfigError):
        SelectionConfig(fine_k=0).validate()


def test_bad_order_rejected(smoothed):
    with pytest.raises(ConfigError):
        rerank(smoothed, "shuffled")
    with pytest.raises(ConfigError):
        reselect(smoothed, 0, "recency")

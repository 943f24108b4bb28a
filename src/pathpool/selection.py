"""Final-sequence shaping: positional reranking and coarse-to-fine reselection.

Two orderings target known positional biases of LLM readers: ``recency``
puts the highest-scoring triples last (nearest the question) and
``lost_in_middle`` alternates top scorers between the head and the tail so
the weakest sit in the middle. All ties break by original retrieval rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scoring import TripleSequence

ORDERS = ("recency", "lost_in_middle")
MODES = ("rerank", "reselect")


@dataclass(frozen=True)
class SelectionConfig:
    mode: str = "reselect"
    order: str = "recency"
    coarse_k: int = 500
    fine_k: int = 100

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown selection mode: {self.mode!r}")
        if self.order not in ORDERS:
            raise ConfigError(f"unknown ordering: {self.order!r}")
        if self.coarse_k < 1 or self.fine_k < 1:
            raise ConfigError("coarse_k and fine_k must be >= 1")
        if self.fine_k > self.coarse_k:
            raise ConfigError(
                f"fine_k ({self.fine_k}) must not exceed coarse_k ({self.coarse_k})"
            )


def _descending(sequence: TripleSequence) -> np.ndarray:
    """Row order by score descending, ties by rank: one stable ``np.lexsort``."""
    return np.lexsort((sequence.rank_array, -sequence.score_array))


def _ordered(ranked: np.ndarray, order: str) -> np.ndarray:
    if order == "recency":
        return ranked[::-1]
    if order == "lost_in_middle":
        # even positions lead, odd positions close the sequence reversed
        return np.concatenate((ranked[0::2], ranked[1::2][::-1]))
    raise ConfigError(f"unknown ordering: {order!r}")


def rerank(sequence: TripleSequence, order: str) -> TripleSequence:
    """Permutation of the sequence per the requested positional-bias order."""
    return sequence._take(_ordered(_descending(sequence), order), f"rerank:{order}")


def top_k(sequence: TripleSequence, k: int) -> TripleSequence:
    """Highest-scoring min(k, len) triples, descending, ties by rank."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return sequence._take(_descending(sequence)[:k], f"top:{k}")


def reselect(sequence: TripleSequence, fine_k: int, order: str) -> TripleSequence:
    """Keep the top fine_k by score, then apply the positional-bias order."""
    if fine_k < 1:
        raise ConfigError(f"fine_k must be >= 1, got {fine_k}")
    kept = _descending(sequence)[:fine_k]
    return sequence._take(_ordered(kept, order), f"reselect:{order}")

"""Query-relevance scoring of candidate triples.

Backends are interchangeable: ``uniform`` (constant score), ``cosine``
(embedding-table similarity), and ``precomputed`` (replay of scores produced
by an external retriever). All of them feed the same top-k selection with a
deterministic label tie-break.

Candidates are a ``kg_store.Subgraph`` view or a whole ``TripleStore``: both
expose ``triples`` and the ``store`` that resolves their labels.
"""

from __future__ import annotations

import logging
import math
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, ScoringError
from .kg_store import QueryRecord, Subgraph, Triple, TripleStore

logger = logging.getLogger(__name__)


class ScoredTriple(NamedTuple):
    """A triple plus its relevance score and original retrieval rank."""

    triple: Triple
    score: float
    rank: int


def scored_rows(
    triples: Iterable[Triple], scores: Iterable[float], ranks: Iterable[int]
) -> list[ScoredTriple]:
    """``ScoredTriple`` rows zipped from three columns, with no Python call per row."""
    return list(map(tuple.__new__, repeat(ScoredTriple), zip(triples, scores, ranks)))


_TRIPLE = attrgetter("triple")
_SCORE = attrgetter("score")
_RANK = attrgetter("rank")


class TripleSequence:
    """Ordered scored triples together with the store resolving their labels.

    The rows are held as three read-only numpy columns: ``id_array``, the
    ``(n, 3)`` int64 (head, relation, tail) ids, ``score_array`` (float64)
    and ``rank_array`` (int64). Every stage from ``score_triples`` to the
    prompt reads and writes these columns; ``items`` builds ``ScoredTriple``
    rows from them only when a caller asks, anew on each access.

    Scores are finite and no triple repeats: the constructor and
    ``from_scores`` check both and name the first offending row. A stage
    that keeps, reorders or rescores rows of a valid sequence (``_take``)
    needs no second check.
    """

    def __init__(self, store: TripleStore, items: list[ScoredTriple], provenance: str):
        n = len(items)
        ids = np.fromiter(
            chain.from_iterable(map(_TRIPLE, items)), np.int64, 3 * n
        ).reshape(n, 3)
        scores = np.fromiter(map(_SCORE, items), np.float64, n)
        ranks = np.fromiter(map(_RANK, items), np.int64, n)
        self._set(store, ids, scores, ranks, provenance)
        if not self._valid():
            _raise_first_invalid(store, items)

    def _set(self, store, ids, scores, ranks, provenance) -> None:
        for column in (ids, scores, ranks):
            column.flags.writeable = False
        self.store = store
        self.id_array = ids
        self.score_array = scores
        self.rank_array = ranks
        self.provenance = provenance

    def _valid(self) -> bool:
        """Every score finite and no triple twice, checked on the columns.

        Rows are compared through one uint64 key per triple, sorted. Equal
        triples always get equal keys (the arithmetic wraps modulo 2**64 the
        same way for both), so a repeat is never missed; a key shared by two
        different triples (ids beyond the store's counts, or wrapping) only
        sends the caller to the exact per-row check.
        """
        if not np.isfinite(self.score_array).all():
            return False
        n_entities = max(self.store.n_entities, 1)
        n_relations = max(self.store.n_relations, 1)
        weights = [n_relations * n_entities % (1 << 64), n_entities, 1]
        keys = self.id_array.view(np.uint64) @ np.array(weights, dtype=np.uint64)
        keys.sort()
        return not (keys[1:] == keys[:-1]).any()

    @classmethod
    def _checked(cls, store, ids, scores, ranks, provenance) -> "TripleSequence":
        sequence = cls.__new__(cls)
        sequence._set(store, ids, scores, ranks, provenance)
        if not sequence._valid():
            _raise_first_invalid(store, sequence.items)
        return sequence

    @classmethod
    def from_scores(
        cls,
        store: TripleStore,
        pairs: list[tuple[Triple, float]],
        provenance: str,
    ) -> "TripleSequence":
        n = len(pairs)
        triples, scores = zip(*pairs) if pairs else ((), ())
        ids = np.fromiter(chain.from_iterable(triples), np.int64, 3 * n).reshape(n, 3)
        values = np.fromiter(map(float, scores), np.float64, n)
        return cls._checked(store, ids, values, np.arange(n), provenance)

    def _take(
        self, index, provenance: str, scores: np.ndarray | None = None
    ) -> "TripleSequence":
        """The rows at ``index`` (a subset or permutation), optionally rescored."""
        sequence = TripleSequence.__new__(TripleSequence)
        sequence._set(
            self.store,
            self.id_array[index],
            self.score_array[index] if scores is None else scores,
            self.rank_array[index],
            provenance,
        )
        return sequence

    @property
    def items(self) -> list[ScoredTriple]:
        """The rows as ``ScoredTriple``s, built from the columns."""
        triples = map(tuple.__new__, repeat(Triple), self.id_array.tolist())
        return scored_rows(triples, self.score_array.tolist(), self.rank_array.tolist())

    def __len__(self) -> int:
        return len(self.score_array)

    def __iter__(self):
        return iter(self.items)

    def scores(self) -> list[float]:
        return self.score_array.tolist()

    def labels(self, index: int) -> tuple[str, str, str]:
        return self.store.triple_labels(Triple(*self.id_array[index].tolist()))

    def label_rows(self) -> list[tuple[str, str, str]]:
        """The (head, relation, tail) labels of every row, in order."""
        return list(zip(*self.store.label_columns(self.id_array)))

    def labeled_items(self) -> list[tuple[str, str, str, float]]:
        return list(zip(*self.store.label_columns(self.id_array), self.scores()))

    def trimmed(self, k: int, provenance: str | None = None) -> "TripleSequence":
        return self._take(slice(None, k), provenance or self.provenance)


def _raise_first_invalid(store: TripleStore, items: Iterable[ScoredTriple]) -> None:
    """Raise ConfigError naming the first non-finite score or repeated triple."""
    seen: set[Triple] = set()
    for item in items:
        if not math.isfinite(item.score):
            raise ConfigError(f"non-finite score for triple {item.triple}")
        if item.triple in seen:
            raise ConfigError(
                f"duplicate triple in sequence: {store.triple_labels(item.triple)}"
            )
        seen.add(item.triple)


def relation_sentence(relation: str) -> str:
    """Relation label rewritten for text encoders (dots/underscores to spaces)."""
    return relation.replace(".", " ").replace("_", " ")


def triple_sentence(head: str, relation: str, tail: str) -> str:
    return f"{head} {relation_sentence(relation)} {tail}"


class UniformScorer:
    """Constant score for every candidate; ordering falls to the tie-break."""

    name = "uniform"

    def score_candidates(
        self, query: QueryRecord, candidates: Subgraph | TripleStore
    ) -> list[tuple[Triple, float]]:
        return list(zip(candidates.triples, repeat(1.0)))


class CosineScorer:
    """Cosine similarity between the query text and each triple's sentence.

    The embedding table maps exact texts (queries and triple sentences) to
    vectors; a missing entry is an error naming the text.
    """

    name = "cosine"

    def __init__(self, table: dict[str, np.ndarray]):
        self._table = table

    @classmethod
    def load(cls, path: str | Path) -> "CosineScorer":
        table: dict[str, np.ndarray] = {}
        dim: int | None = None
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                label, tab, rest = line.partition("\t")
                if not tab or not label:
                    raise ParseError("expected 'label<TAB>components'", line=lineno)
                try:
                    vector = np.asarray(
                        [float(x) for x in rest.split()], dtype=np.float64
                    )
                except ValueError:
                    raise ParseError("non-numeric embedding component", line=lineno)
                if vector.size == 0:
                    raise ParseError("empty embedding vector", line=lineno)
                if dim is None:
                    dim = vector.size
                elif vector.size != dim:
                    raise ParseError(
                        f"dimension mismatch: {vector.size} != {dim}", line=lineno
                    )
                table[label] = vector
        return cls(table)

    def _lookup(self, text: str) -> np.ndarray:
        vector = self._table.get(text)
        if vector is None:
            raise ScoringError(f"no embedding for {text!r}")
        return vector

    def score_candidates(
        self, query: QueryRecord, candidates: Subgraph | TripleStore
    ) -> list[tuple[Triple, float]]:
        qvec = self._lookup(query.question)
        qnorm = float(np.linalg.norm(qvec))
        store = candidates.store
        out: list[tuple[Triple, float]] = []
        for triple in candidates.triples:
            sentence = triple_sentence(*store.triple_labels(triple))
            tvec = self._lookup(sentence)
            denom = qnorm * float(np.linalg.norm(tvec))
            score = float(np.dot(qvec, tvec) / denom) if denom > 0.0 else 0.0
            # rounding can push |score| an ulp past 1
            out.append((triple, min(1.0, max(-1.0, score))))
        return out


class PrecomputedScorer:
    """Replays per-(query, triple) scores written by an external retriever."""

    name = "precomputed"

    def __init__(self, table: dict[tuple[str, str, str, str], float]):
        self._table = table

    @classmethod
    def load(cls, path: str | Path) -> "PrecomputedScorer":
        table: dict[tuple[str, str, str, str], float] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.rstrip("\r\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 5:
                    raise ParseError(
                        f"expected 5 tab-separated fields, got {len(parts)}",
                        line=lineno,
                    )
                qid, head, relation, tail, score_text = parts
                try:
                    score = float(score_text)
                except ValueError:
                    raise ParseError("non-numeric score", line=lineno)
                table[(qid, head, relation, tail)] = score
        return cls(table)

    def score_candidates(
        self, query: QueryRecord, candidates: Subgraph | TripleStore
    ) -> list[tuple[Triple, float]]:
        store = candidates.store
        out: list[tuple[Triple, float]] = []
        missing = 0
        for triple in candidates.triples:
            head, relation, tail = store.triple_labels(triple)
            score = self._table.get((query.id, head, relation, tail))
            if score is None:
                missing += 1
                continue
            out.append((triple, score))
        if missing:
            logger.info(
                "precomputed scorer: %d/%d candidates had no score for query %s",
                missing,
                candidates.n_triples,
                query.id,
            )
        return out


def build_scorer(spec: str):
    """Construct a scorer from ``uniform``, ``cosine:FILE`` or ``precomputed:FILE``."""
    kind, _, arg = spec.partition(":")
    if kind == "uniform":
        return UniformScorer()
    if kind == "cosine":
        if not arg:
            raise ConfigError("cosine scorer needs an embedding table: cosine:FILE")
        return CosineScorer.load(arg)
    if kind == "precomputed":
        if not arg:
            raise ConfigError("precomputed scorer needs a score file: precomputed:FILE")
        return PrecomputedScorer.load(arg)
    raise ConfigError(f"unknown scorer: {spec!r}")


def score_triples(
    query: QueryRecord, candidates: Subgraph | TripleStore, scorer, k: int
) -> TripleSequence:
    """Top-k candidates by score, descending; label order breaks ties.

    One stable ``np.lexsort`` sorts by -score, then by the store's
    ``label_sort_keys`` of the candidates' id array, which order triples
    exactly as their (head, relation, tail) labels do; the kept rows are
    taken from the columns, and no ``ScoredTriple`` is built. Returns all candidates when fewer than k
    exist; a NaN score raises ConfigError. The sequence references the store
    behind ``candidates`` (the parent store for a subgraph view); the output
    rank of each triple is its position in this sequence.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scored = scorer.score_candidates(query, candidates)
    store = candidates.store
    if not scored:
        return TripleSequence(store, [], scorer.name)
    triples, scores = zip(*scored)
    values = np.asarray(scores, dtype=np.float64)
    nan = np.isnan(values)
    if nan.any():
        # NaN has no place in a score order: fail wherever it would sort
        raise ConfigError(f"non-finite score for triple {triples[int(nan.argmax())]}")
    n = len(triples)
    ids = np.fromiter(chain.from_iterable(triples), np.int64, 3 * n).reshape(n, 3)
    order = np.lexsort((*store.label_sort_keys(*ids.T), -values))[:k]
    return TripleSequence._checked(
        store, ids[order], values[order], np.arange(len(order)), scorer.name
    )

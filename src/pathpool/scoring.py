"""Query-relevance scoring of candidate triples.

Backends are interchangeable: ``uniform`` (constant score), ``cosine``
(embedding-table similarity), and ``precomputed`` (replay of scores produced
by an external retriever). All of them feed the same top-k selection, whose
ties fall to the store's ``row_rank``: (head, relation, tail) label order.

Candidates are a ``kg_store.Subgraph`` view or a whole ``TripleStore``: both
expose their store ``rows``, the ``(n, 3)`` int64 ``id_array`` of those
rows, and the ``store`` that resolves and ranks them. Every scorer returns
columns, never a tuple per candidate: ``score_candidates(query, candidates)``
gives ``(kept, scores)``, where ``kept`` indexes the rows of
``candidates.id_array`` that were scored (``slice(None)`` for all of them)
and ``scores`` is a float64 array aligned with ``id_array[kept]``.
"""

from __future__ import annotations

import logging
import math
from itertools import compress, filterfalse, repeat
from operator import methodcaller
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from ._bulk import count_lines, line_blocks, utf8_errors
from .errors import ConfigError, ParseError, ScoringError
from .kg_store import QueryRecord, Subgraph, TripleStore

logger = logging.getLogger(__name__)


class ScoredTriple(NamedTuple):
    """A triple's ``(head, relation, tail)`` ids, its score and its retrieval rank."""

    triple: tuple[int, int, int]
    score: float
    rank: int


class TripleSequence:
    """Ordered scored triples, each named by its row in the store resolving its labels.

    The rows are three read-only numpy columns: ``row_array`` (int64 store
    rows), ``score_array`` (float64) and ``rank_array`` (int64). Every stage
    from ``score_triples`` to the prompt reads and writes these columns;
    ``id_array`` gathers the rows' ids from the store, and ``label_rows``
    and ``labeled_items`` their labels.

    ``from_scores`` is the one way in: every row is a row of the store,
    scores are finite and no row repeats; the first offender is named. A
    stage that keeps, reorders or rescores rows of a valid sequence
    (``_take``) needs no second check.
    """

    def _set(self, store, rows, scores, ranks, provenance) -> None:
        for column in (rows, scores, ranks):
            column.flags.writeable = False
        self.store = store
        self.row_array = rows
        self.score_array = scores
        self.rank_array = ranks
        self.provenance = provenance

    def _check(self) -> None:
        """Raise ConfigError on a number that is no store row, or naming the
        first non-finite score or repeated row; only a failing sequence is walked.
        """
        rows = np.sort(self.row_array)
        n = self.store.n_triples
        if len(rows) and not 0 <= rows[0] <= rows[-1] < n:
            raise ConfigError(f"store rows lie in 0..{n - 1}, got {rows[0]}..{rows[-1]}")
        if np.isfinite(self.score_array).all() and not (rows[1:] == rows[:-1]).any():
            return
        seen: set[int] = set()
        for row, score in zip(self.row_array.tolist(), self.score_array.tolist()):
            if not math.isfinite(score):
                raise ConfigError(
                    f"non-finite score for triple {self.store.row_labels(row)}"
                )
            if row in seen:
                raise ConfigError(
                    f"duplicate triple in sequence: {self.store.row_labels(row)}"
                )
            seen.add(row)

    @classmethod
    def from_scores(
        cls, store: TripleStore, rows: ArrayLike, scores: ArrayLike, provenance: str
    ) -> "TripleSequence":
        """The store rows ``rows`` scored ``scores``, in that order.

        Each row's rank is its position. Arrays of the right dtype are kept
        without a copy and made read-only. A length mismatch, a number that
        is no store row, a non-finite score or a repeated row raises
        ConfigError.
        """
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(scores, dtype=np.float64)
        if rows.ndim != 1 or values.shape != rows.shape:
            raise ConfigError(f"{rows.size} store rows but {values.size} scores")
        sequence = cls.__new__(cls)
        sequence._set(store, rows, values, np.arange(len(rows)), provenance)
        sequence._check()
        return sequence

    def _take(
        self, index, provenance: str, scores: np.ndarray | None = None
    ) -> "TripleSequence":
        """The rows at ``index`` (a subset or permutation), optionally rescored."""
        sequence = TripleSequence.__new__(TripleSequence)
        sequence._set(
            self.store,
            self.row_array[index],
            self.score_array[index] if scores is None else scores,
            self.rank_array[index],
            provenance,
        )
        return sequence

    @property
    def id_array(self) -> np.ndarray:
        """The ``(n, 3)`` int64 ids of the rows, gathered from the store."""
        return self.store.id_array.take(self.row_array, axis=0)

    @property
    def items(self) -> list[ScoredTriple]:
        """The rows as ``ScoredTriple``s, built from the columns on each access.

        Each row's ``triple`` is the plain ``(head, relation, tail)`` id tuple.
        No stage reads these rows; the benchmark's smoothing diagnostic does.
        """
        rows = zip(
            map(tuple, self.id_array.tolist()),
            self.score_array.tolist(),
            self.rank_array.tolist(),
        )
        return list(map(tuple.__new__, repeat(ScoredTriple), rows))

    def __len__(self) -> int:
        return len(self.score_array)

    def label_rows(self) -> list[tuple[str, str, str]]:
        """The (head, relation, tail) labels of every row, in order."""
        return list(zip(*self.store.label_columns(self.id_array)))

    def labeled_items(self) -> list[tuple[str, str, str, float]]:
        labels = self.store.label_columns(self.id_array)
        return list(zip(*labels, self.score_array.tolist()))

    def trimmed(self, k: int, provenance: str | None = None) -> "TripleSequence":
        return self._take(slice(None, k), provenance or self.provenance)


def relation_sentence(relation: str) -> str:
    """Relation label rewritten for text encoders (dots/underscores to spaces)."""
    return relation.replace(".", " ").replace("_", " ")


def triple_sentence(head: str, relation: str, tail: str) -> str:
    return f"{head} {relation_sentence(relation)} {tail}"


def triple_sentences(
    heads: Iterable[str], relations: Iterable[str], tails: Iterable[str]
) -> list[str]:
    """``triple_sentence`` of each row of three label columns, in bulk.

    Built from C-level ``map``s, with no Python call per row; the cosine
    oracle test holds it equal to ``triple_sentence``.
    """
    texts = map(str.replace, relations, repeat("."), repeat(" "))
    texts = map(str.replace, texts, repeat("_"), repeat(" "))
    return list(map(" ".join, zip(heads, texts, tails)))


class UniformScorer:
    """Constant score for every candidate; ordering falls to the tie-break."""

    name = "uniform"

    def score_candidates(
        self, query: QueryRecord, candidates: Subgraph | TripleStore
    ) -> tuple[slice, np.ndarray]:
        return slice(None), np.ones(candidates.n_triples)


class CosineScorer:
    """Cosine similarity between the query text and each triple's sentence.

    The embedding table maps exact texts (queries and triple sentences) to
    vectors; a missing entry is an error naming the text. The vectors are
    held as one ``(n_texts, dim)`` float64 matrix with a ``text -> row``
    dict and a column of row norms, so a query is scored in one batch.
    Every component is finite, and a dot product or norm product that
    overflows raises ScoringError: either would otherwise make a NaN
    quotient, which the clip turns into a silent -1.0.
    """

    name = "cosine"

    def __init__(self, table: Mapping[str, ArrayLike]):
        rows: dict[str, int] = {}
        vectors: list[np.ndarray] = []
        for text, values in table.items():
            vector = np.array(values, dtype=np.float64)
            if vector.ndim != 1 or vector.size == 0:
                raise ConfigError(
                    f"embedding for {text!r} must be a non-empty 1-d vector, "
                    f"got shape {vector.shape}"
                )
            if vectors and vector.size != vectors[0].size:
                raise ConfigError(
                    f"embedding for {text!r} has dimension {vector.size}, "
                    f"expected {vectors[0].size}"
                )
            if not np.isfinite(vector).all():
                raise ConfigError(f"non-finite embedding component for {text!r}")
            rows[text] = len(vectors)
            vectors.append(vector)
        self._set(np.stack(vectors) if vectors else np.empty((0, 0)), rows)

    def _set(self, matrix: np.ndarray, rows: dict[str, int]) -> None:
        self.matrix = matrix
        self.rows = rows
        # per row, the float ``np.linalg.norm`` gives for that vector; an
        # overflow to inf is reported when a query meets it
        with np.errstate(over="ignore"):
            self.norms = np.sqrt(np.vecdot(matrix, matrix))

    @classmethod
    def load(cls, path: str | Path) -> "CosineScorer":
        """Parse ``label<TAB>components`` lines straight into the matrix rows.

        The file is read once. ``count_lines`` bounds its lines from its
        bytes, so the matrix is allocated once (a pipe, which it cannot
        count ahead, grows the matrix as its blocks arrive); a repeated
        label keeps its first row and its last vector. The lines are read
        ``LOAD_BLOCK`` at a time by ``line_blocks``, and ``_parse_block``
        parses a block's components with one ``np.loadtxt`` call. A block
        it does not accept is read again by ``_load_lines``, one line at a
        time; that loop alone raises, so every ParseError names its line as
        a whole-file line loop would. A file that is not UTF-8 raises
        ParseError naming it.
        """
        rows: dict[str, int] = {}
        matrix: np.ndarray | None = None
        lineno = 1
        with utf8_errors(path), open(path, "r", encoding="utf-8") as handle:
            n_lines = count_lines(handle.buffer)
            for block in line_blocks(handle):
                if len(rows) + len(block) > n_lines:
                    n_lines = 2 * (len(rows) + len(block))
                    if matrix is not None:
                        matrix = np.resize(matrix, (n_lines, matrix.shape[1]))
                parsed = _parse_block(block, None if matrix is None else matrix.shape[1])
                if parsed is None:
                    matrix = _load_lines(block, lineno, rows, matrix, n_lines)
                else:
                    labels, values = parsed
                    if matrix is None:
                        matrix = np.empty((n_lines, values.shape[1]))
                    fresh = list(filterfalse(rows.__contains__, labels))
                    rows.update(zip(fresh, range(len(rows), len(rows) + len(fresh))))
                    matrix[list(map(rows.__getitem__, labels))] = values
                lineno += len(block)
        if matrix is None:
            matrix = np.empty((0, 0))
        scorer = cls.__new__(cls)
        scorer._set(matrix[: len(rows)], rows)
        return scorer

    def score_candidates(
        self, query: QueryRecord, candidates: Subgraph | TripleStore
    ) -> tuple[slice, np.ndarray]:
        """Every candidate's cosine with the query, batched over the matrix.

        The sentences come from the label columns of ``candidates.id_array``.
        Bit for bit what one ``np.dot`` and ``np.linalg.norm`` per candidate
        give: ``np.vecdot`` takes the same dot product per row, and the
        clip keeps the ``min(1.0, max(-1.0, s))`` order. A non-finite dot
        product or norm product raises ScoringError naming the triple.
        """
        qrow = self.rows.get(query.question)
        if qrow is None:
            raise ScoringError(f"no embedding for {query.question!r}")
        ids = candidates.id_array
        n = len(ids)
        sentences = triple_sentences(*candidates.store.label_columns(ids))
        try:
            rows = np.fromiter(map(self.rows.__getitem__, sentences), np.intp, n)
        except KeyError as missing:
            raise ScoringError(f"no embedding for {missing.args[0]!r}") from None
        with np.errstate(over="ignore"):
            dots = np.vecdot(self.matrix[rows], self.matrix[qrow])
            denom = self.norms[rows] * self.norms[qrow]
        finite = np.isfinite(dots) & np.isfinite(denom)
        if not finite.all():
            row = candidates.rows[finite.argmin()]
            raise ScoringError(
                f"cosine of {query.question!r} and triple "
                f"{candidates.store.row_labels(row)} overflows float64"
            )
        scores = np.divide(dots, denom, out=np.zeros(n), where=denom > 0.0)
        # rounding can push |score| an ulp past 1
        scores = np.where(scores > -1.0, scores, -1.0)
        scores = np.where(scores < 1.0, scores, 1.0)
        return slice(None), scores


_SPLIT_LABEL = methodcaller("partition", "\t")


def _parse_block(
    lines: list[str], width: int | None
) -> tuple[tuple[str, ...], np.ndarray] | None:
    """The labels and ``(len(lines), width)`` components of a clean block, else None.

    A block is clean when every line is ``label<TAB>components`` with a
    label and a non-blank component string (``np.loadtxt`` would skip a
    blank one, and warn on a block of them), no label repeats (numpy does
    not define which of two writes to one row wins), ``np.loadtxt`` parses
    the components into one row per line of ``width`` columns (any width
    for the first block) and every component is finite. The checks run on
    the whole block; there is no Python step per line. ``comments=None``
    keeps a ``#`` a component. ``np.loadtxt`` converts a token as
    ``float`` does, but rejects some that ``float`` accepts (``1_0``,
    non-ASCII digits); such a block is not clean.
    """
    labels, tabs, rests = zip(*map(_SPLIT_LABEL, lines))
    if not (all(tabs) and all(labels) and all(map(str.strip, rests))):
        return None
    if len(set(labels)) < len(labels):
        return None
    try:
        values = np.loadtxt(rests, dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        return None
    if values.shape != (len(lines), width or values.shape[1]):
        return None
    if not np.isfinite(values).all():
        return None
    return labels, values


def _load_lines(
    lines: list[str],
    first: int,
    rows: dict[str, int],
    matrix: np.ndarray | None,
    n_lines: int,
) -> np.ndarray | None:
    """Parse ``lines``, numbered from ``first``, one at a time into ``matrix``.

    Blank lines are skipped. When ``matrix`` is None, one of ``n_lines``
    rows is allocated at the first vector. Returns the matrix, None while
    no vector has been read. A malformed line raises ParseError naming it.
    """
    for lineno, raw in enumerate(lines, start=first):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        label, tab, rest = line.partition("\t")
        if not tab or not label:
            raise ParseError("expected 'label<TAB>components'", line=lineno)
        try:
            values = list(map(float, rest.split()))
        except ValueError:
            raise ParseError("non-numeric embedding component", line=lineno)
        if not values:
            raise ParseError("empty embedding vector", line=lineno)
        if matrix is None:
            matrix = np.empty((n_lines, len(values)))
        elif len(values) != matrix.shape[1]:
            raise ParseError(
                f"dimension mismatch: {len(values)} != {matrix.shape[1]}",
                line=lineno,
            )
        # a finite sum proves every component finite; only a NaN, an
        # infinity or an overflowing sum needs the exact check
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise ParseError("non-finite embedding component", line=lineno)
        matrix[rows.setdefault(label, len(rows))] = values
    return matrix


class PrecomputedScorer:
    """Replays per-(query, triple) scores written by an external retriever.

    A query the table never names cannot be replayed: its id can only be a
    mismatch, so scoring it raises ScoringError rather than keeping no
    candidate.
    """

    name = "precomputed"

    def __init__(self, table: dict[tuple[str, str, str, str], float]):
        self._table = table
        self._query_ids = {key[0] for key in table}

    @classmethod
    def load(cls, path: str | Path) -> "PrecomputedScorer":
        table: dict[tuple[str, str, str, str], float] = {}
        with utf8_errors(path), open(path, "r", encoding="utf-8") as handle:
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
                if not math.isfinite(score):
                    raise ParseError("non-finite score", line=lineno)
                table[(qid, head, relation, tail)] = score
        return cls(table)

    def score_candidates(
        self, query: QueryRecord, candidates: Subgraph | TripleStore
    ) -> tuple[np.ndarray, np.ndarray]:
        """The candidates the table scores for this query, in candidate order."""
        if query.id not in self._query_ids:
            raise ScoringError(f"no precomputed scores for query {query.id}")
        labels = candidates.store.label_columns(candidates.id_array)
        found = list(map(self._table.get, zip(repeat(query.id), *labels)))
        has_score = [score is not None for score in found]
        kept = np.flatnonzero(has_score)
        scores = np.fromiter(compress(found, has_score), np.float64, len(kept))
        missing = len(found) - len(kept)
        if missing:
            logger.info(
                "precomputed scorer: %d/%d candidates had no score for query %s",
                missing,
                len(found),
                query.id,
            )
        return kept, scores


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

    The scorer returns ``(kept, scores)`` aligned with
    ``candidates.id_array`` (see the module docstring). One ``np.lexsort``
    sorts the kept store rows by -score, then by the store's ``row_rank``,
    which orders triples exactly as their (head, relation, tail) labels do;
    the first k rows are taken, and no object is built per row. Returns all
    candidates when fewer than k exist; a NaN score raises ConfigError. The
    sequence references the store behind ``candidates`` (the parent store
    for a subgraph view); the output rank of each triple is its position in
    this sequence.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    kept, scores = scorer.score_candidates(query, candidates)
    store = candidates.store
    rows = candidates.rows[kept]
    values = np.asarray(scores, dtype=np.float64)
    nan = np.isnan(values)
    if nan.any():
        # NaN has no place in a score order: fail wherever it would sort
        labels = store.row_labels(rows[nan.argmax()])
        raise ConfigError(f"non-finite score for triple {labels}")
    order = np.lexsort((store.row_rank[rows], -values))[:k]
    return TripleSequence.from_scores(store, rows[order], values[order], scorer.name)

"""Knowledge-graph store: triple loading, label interning, subgraph extraction.

Entities and relations are interned to integer ids in first-seen order, so
loading the same bytes always produces the same id assignment. Public
functions take entity *labels*; ids are an internal detail of the store.
The triples are numpy columns (an id array and an incidence CSR), and
retrieval runs on them; a ``Triple`` is built only when a caller asks.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .errors import ConfigError, EntityLookupError, ParseError
from .textnorm import normalize_answer

logger = logging.getLogger(__name__)


class Triple(NamedTuple):
    """Directed edge; fields are interned ids resolved through a TripleStore."""

    head: int
    relation: int
    tail: int


class TripleStore:
    """Deduplicated triples held as id columns, with interning tables.

    ``TripleStore(rows)`` interns an iterable of ``(head, relation, tail)``
    label rows in first-seen order, keeps the first of each repeated row and
    builds every column once; the store is immutable after that, and so
    safe to share across threads.

    ``id_array`` is one ``(n, 3)`` int64 array of (head, relation, tail)
    ids, a row per triple in first-seen order. ``incidence()`` is a CSR
    over it that lists, entity by entity, every triple touching the entity:
    ``offsets`` (entity ``e`` owns entries ``offsets[e]:offsets[e + 1]``),
    ``other`` (the endpoint across the triple) and ``triple`` (its row).
    Per entity, the triples it heads come first and then those it tails,
    each in store order, so a self-loop is listed twice.

    ``row_rank`` ranks the rows in (head, relation, tail) label order. It is
    built with the columns, and no other code computes label order. No
    ``Triple`` is held per row: ``triples`` builds the list on request.
    """

    def __init__(self, rows: Iterable[tuple[str, str, str]]) -> None:
        entity_ids: dict[str, int] = {}
        relation_ids: dict[str, int] = {}
        heads: list[int] = []
        relations: list[int] = []
        tails: list[int] = []
        for head, relation, tail in rows:
            heads.append(entity_ids.setdefault(head, len(entity_ids)))
            relations.append(relation_ids.setdefault(relation, len(relation_ids)))
            tails.append(entity_ids.setdefault(tail, len(entity_ids)))
        self._entity_ids = entity_ids
        self._entity_labels = list(entity_ids)
        self._relation_ids = relation_ids
        self._relation_labels = list(relation_ids)
        ids = np.array([heads, relations, tails], dtype=np.int64).T
        # drop the interning lists, so the column build reuses their memory
        del heads, relations, tails
        self.id_array, *incidence, self.row_rank = _build_columns(
            _first_seen(ids, self.n_entities), self._entity_labels, self._relation_labels
        )
        self._incidence = tuple(incidence)

    # -- lookups ------------------------------------------------------

    @property
    def store(self) -> "TripleStore":
        """The store resolving labels; a whole store is its own candidate set."""
        return self

    @property
    def n_entities(self) -> int:
        return len(self._entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self._relation_labels)

    @property
    def n_triples(self) -> int:
        return len(self.id_array)

    @property
    def rows(self) -> np.ndarray:
        """Every row number; a whole store is its own candidate set."""
        return np.arange(self.n_triples)

    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only incidence CSR: ``offsets``, ``other`` and ``triple``."""
        return self._incidence

    @property
    def triples(self) -> list[Triple]:
        """Every triple as a ``Triple``, built from ``id_array`` on each access."""
        return _triples(self.id_array)

    def has_entity(self, label: str) -> bool:
        return label in self._entity_ids

    def entity_id(self, label: str) -> int:
        try:
            return self._entity_ids[label]
        except KeyError:
            raise EntityLookupError(label) from None

    def entity_label(self, eid: int) -> str:
        return self._entity_labels[eid]

    def find(self, head: str, relation: str, tail: str) -> int | None:
        """The row of the triple with these labels, or None.

        Only the rows in the head's incidence are compared.
        """
        entity = self._entity_ids.get
        triple = (entity(head), self._relation_ids.get(relation), entity(tail))
        if None in triple:
            return None
        offsets, _, rows = self._incidence
        touching = rows[offsets[triple[0]] : offsets[triple[0] + 1]]
        found = touching[(self.id_array[touching] == triple).all(axis=1)]
        return int(found[0]) if len(found) else None

    def triple_labels(self, triple: Triple) -> tuple[str, str, str]:
        return (
            self._entity_labels[triple.head],
            self._relation_labels[triple.relation],
            self._entity_labels[triple.tail],
        )

    def label_columns(self, ids: np.ndarray) -> tuple[list[str], list[str], list[str]]:
        """Head, relation and tail labels of the rows of an ``(n, 3)`` id array."""
        heads, relations, tails = ids.T.tolist()
        entity = self._entity_labels.__getitem__
        return (
            list(map(entity, heads)),
            list(map(self._relation_labels.__getitem__, relations)),
            list(map(entity, tails)),
        )

    def entity_labels(self) -> list[str]:
        return list(self._entity_labels)

    def lines(self) -> Iterator[str]:
        """Emit the store back as tab-separated lines (round-trip view)."""
        return _lines(self, self.id_array)


def _label_ranks(labels: list[str]) -> np.ndarray:
    ranks = np.empty(len(labels), dtype=np.int64)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


def _build_columns(
    ids: np.ndarray, entity_labels: list[str], relation_labels: list[str]
) -> tuple[np.ndarray, ...]:
    """``ids``, the incidence CSR over it and the row rank (see ``TripleStore``).

    The rank sorts the rows by relation and tail label rank, then by head
    rank keeping that order; no key wraps, as each is below
    ``n_entities * max(n_relations, n)``. One stable argsort of the head
    column followed by the tail column puts each entity's headed triples
    before its tailed ones, each in row order. Every array is read-only.
    """
    n, n_entities = len(ids), len(entity_labels)
    erank, rrank = _label_ranks(entity_labels), _label_ranks(relation_labels)
    by_label = np.argsort(rrank[ids[:, 1]] * n_entities + erank[ids[:, 2]])
    by_label = by_label[np.argsort(erank[ids[by_label, 0]] * n + np.arange(n))]
    rank = np.empty(n, dtype=np.int64)
    rank[by_label] = np.arange(n)
    ends = np.concatenate((ids[:, 0], ids[:, 2]))
    order = np.argsort(ends, kind="stable")
    offsets = np.zeros(n_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n_entities), out=offsets[1:])
    other = np.concatenate((ids[:, 2], ids[:, 0]))[order]
    columns = (ids, offsets, other, order % max(n, 1), rank)
    for column in columns:
        column.flags.writeable = False
    return columns


def _first_seen(ids: np.ndarray, n_entities: int) -> np.ndarray:
    """The distinct rows of ``ids``, each where it first occurs, in order."""
    # below n_entities ** 2, so no store that fits in memory wraps it
    pair = ids[:, 0] * n_entities + ids[:, 2]
    # stable, so a repeat sorts after the row it repeats
    order = np.lexsort((ids[:, 1], pair))
    pair, relation = pair[order], ids[order, 1]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (pair[1:] != pair[:-1]) | (relation[1:] != relation[:-1])
    return ids[np.sort(order[first])]


def _triples(ids: np.ndarray) -> list[Triple]:
    return list(map(tuple.__new__, repeat(Triple), ids.tolist()))


def _lines(store: TripleStore, ids: np.ndarray) -> Iterator[str]:
    return map("\t".join, zip(*store.label_columns(ids)))


class Subgraph:
    """Candidate view: some triples of a parent store, in parent order.

    ``rows`` holds the store rows of the triples (sorted, as
    ``extract_subgraph`` gives them) and ``id_array`` their ``(n, 3)`` ids,
    gathered from the parent's columns. Labels resolve through the parent,
    so nothing is re-interned; the view offers the same read surface
    scorers use on a whole ``TripleStore``.
    """

    __slots__ = ("store", "rows", "id_array")

    def __init__(self, store: TripleStore, rows: ArrayLike):
        self.store = store
        self.rows = np.asarray(rows, dtype=np.int64)
        self.id_array = store.id_array.take(self.rows, axis=0)

    @property
    def n_triples(self) -> int:
        return len(self.rows)

    @property
    def triples(self) -> list[Triple]:
        """The triples as ``Triple``s, built from ``id_array`` on each access."""
        return _triples(self.id_array)

    def triple_labels(self, triple: Triple) -> tuple[str, str, str]:
        return self.store.triple_labels(triple)

    def lines(self) -> Iterator[str]:
        return _lines(self.store, self.id_array)


@dataclass(frozen=True)
class QueryRecord:
    """One benchmark question: text, anchor entities, gold answers."""

    id: str
    question: str
    query_entities: tuple[str, ...]
    gold_answers: tuple[str, ...]


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from handle
        return
    for raw in source:
        if isinstance(raw, bytes):
            yield raw.decode("utf-8")
        else:
            yield raw


def load_triples(source: str | Path | IO | Iterable[str]) -> TripleStore:
    """Parse tab-separated ``head<TAB>relation<TAB>tail`` lines into a store.

    Blank lines and ``#`` comments are skipped; duplicate triples collapse to
    one. Raises ParseError (with line number) on wrong arity or empty fields.
    """
    if isinstance(source, (str, Path)):
        # the file's own line iterator, one generator frame fewer per line
        with open(source, "r", encoding="utf-8") as handle:
            return TripleStore(_parse_triples(handle))
    return TripleStore(_parse_triples(_iter_lines(source)))


def _parse_triples(lines: Iterable[str]) -> Iterator[tuple[str, str, str]]:
    """The stripped ``(head, relation, tail)`` of each triple line, in order.

    A line that splits into three non-empty fields, the first not starting
    with ``#``, is a triple; that test is all a valid line costs. Any other
    line is blank or a comment, and skipped, or raises ParseError. The line
    end stays on the tail, whose strip removes it.
    """
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        if len(parts) == 3:
            head, relation, tail = parts[0].strip(), parts[1].strip(), parts[2].strip()
            if head and relation and tail and head[0] != "#":
                yield head, relation, tail
                continue
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        if len(parts) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(parts)}", line=lineno
            )
        raise ParseError("empty field in triple", line=lineno)


def read_label(value: object, field: str, line: int | None = None) -> str:
    """A JSON value read as a label: a string as it is, a number as its text.

    ``null``, a bool, a list, an object or ``""`` raises ParseError naming
    ``field``; ``str()`` would read them as labels such as ``"None"``.
    """
    if isinstance(value, str) and value:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise ParseError(
        f"{field} must be a non-empty string or a number, got {json.dumps(value)}",
        line=line,
    )


def check_query_id(qid: object, line: int | None = None) -> str:
    """``qid`` read as a label, if it can name a file inside an output directory.

    Ids name prompt and completion files, so ids that are empty, ``.``/``..``,
    or contain ``/``, ``\\`` or NUL raise ParseError, as does any value that
    ``read_label`` rejects.
    """
    if isinstance(qid, str) and (qid in ("", ".", "..") or any(c in qid for c in "/\\\0")):
        raise ParseError(f"query id {qid!r} cannot name a file", line=line)
    return read_label(qid, "query id", line)


def _list_field(payload: dict, key: str, line: int | None = None) -> list:
    """``payload[key]``, ``[]`` when absent; any other non-list raises ParseError.

    A JSON string would otherwise iterate as one-character items.
    """
    value = payload.get(key, [])
    if not isinstance(value, list):
        raise ParseError(
            f"{key} must be a JSON list, got {type(value).__name__}", line=line
        )
    return value


def load_queries(source: str | Path | IO | Iterable[str]) -> list[QueryRecord]:
    """Parse a JSONL query file with keys id, question, query_entities, answers.

    Gold answers are deduplicated by normalized form, keeping the first
    spelling. ``query_entities`` may be empty (evaluation-only records); it
    and ``answers`` must be JSON lists when given. The question, each
    entity and each answer are read by ``read_label``. Ids that
    ``check_query_id`` rejects, or that repeat an earlier id, raise
    ParseError.
    """
    records: list[QueryRecord] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
        if not isinstance(payload, dict):
            raise ParseError("query record must be a JSON object", line=lineno)
        question = payload.get("question", "")
        # a missing or empty question is reported as such, not as a bad label
        if question != "":
            question = read_label(question, "question", lineno).strip()
        if not question:
            raise ParseError("query record has no question", line=lineno)
        qid = check_query_id(payload.get("id", lineno), line=lineno)
        if qid in seen_ids:
            raise ParseError(f"duplicate query id {qid!r}", line=lineno)
        seen_ids.add(qid)
        entities = tuple(
            read_label(e, "query entity", lineno)
            for e in _list_field(payload, "query_entities", line=lineno)
        )
        answers: list[str] = []
        seen: set[str] = set()
        for answer in _list_field(payload, "answers", line=lineno):
            answer = read_label(answer, "answer", lineno)
            key = normalize_answer(answer)
            if key not in seen:
                seen.add(key)
                answers.append(answer)
        records.append(QueryRecord(qid, question, entities, tuple(answers)))
    return records


def _incident(
    offsets: np.ndarray, column: np.ndarray, entities: np.ndarray
) -> np.ndarray:
    """``column[offsets[e]:offsets[e + 1]]`` for each of ``entities``, concatenated."""
    starts = offsets[entities]
    counts = offsets[entities + 1] - starts
    ends = np.cumsum(counts)
    # an entry's index: its entity's start plus its place in the output run
    shift = np.repeat(starts - ends + counts, counts)
    return column[shift + np.arange(len(shift))]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` from one sort, which is faster on arrays this small."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def extract_subgraph(
    store: TripleStore, query_entities: Iterable[str], hops: int
) -> Subgraph:
    """View of all triples within ``hops`` undirected steps of the query.

    An edge is kept when its nearer endpoint lies at undirected distance
    <= hops - 1 from some query entity, i.e. the edge itself is crossed by
    step ``hops`` at the latest. Unknown query entities raise
    EntityLookupError. The walk runs on the store's incidence CSR: each
    step gathers the ``other`` entries of the frontier and keeps the
    entities not reached before, found by ``np.searchsorted`` in the sorted
    reached set; the result gathers the ``triple`` entries of every reached
    entity, sorted and deduplicated. Every array is sized by the
    neighbourhood, never by the KG. The result is a ``Subgraph`` holding
    the kept rows in store order and their ids; labels are not re-interned.
    """
    if hops < 1:
        raise ConfigError(f"hops must be >= 1, got {hops}")
    sources = {store.entity_id(label) for label in query_entities}
    offsets, other, triple = store.incidence()
    reached = frontier = np.array(sorted(sources), dtype=np.int64)
    for _ in range(hops - 1):
        step = _sorted_unique(_incident(offsets, other, frontier))
        # the entities of ``step`` that the sorted ``reached`` does not hold
        found = reached.take(np.searchsorted(reached, step), mode="clip")
        frontier = step[found != step]
        if not frontier.size:
            break
        reached = np.sort(np.concatenate((reached, frontier)))
    return Subgraph(store, _sorted_unique(_incident(offsets, triple, reached)))

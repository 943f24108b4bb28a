"""Knowledge-graph store: triple loading, label interning, subgraph extraction.

Entities and relations are interned to integer ids in first-seen order, so
loading the same bytes always produces the same id assignment. Public
functions take entity *labels*; ids are an internal detail of the store.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, EntityLookupError, ParseError
from .textnorm import normalize_answer

logger = logging.getLogger(__name__)


class Triple(NamedTuple):
    """Directed edge; fields are interned ids resolved through a TripleStore."""

    head: int
    relation: int
    tail: int


class TripleStore:
    """Deduplicated triple list with interning tables and adjacency indexes.

    Immutable by convention once loaded; safe for concurrent readers.
    """

    def __init__(self) -> None:
        self._entity_labels: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self._relation_labels: list[str] = []
        self._relation_ids: dict[str, int] = {}
        self.triples: list[Triple] = []
        self._triple_set: set[Triple] = set()
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        # entity and relation ranks in label order, built on first use
        self._ranks: tuple[np.ndarray, np.ndarray] = (_label_ranks([]), _label_ranks([]))

    # -- construction -------------------------------------------------

    def _intern_entity(self, label: str) -> int:
        eid = self._entity_ids.get(label)
        if eid is None:
            eid = len(self._entity_labels)
            self._entity_ids[label] = eid
            self._entity_labels.append(label)
        return eid

    def _intern_relation(self, label: str) -> int:
        rid = self._relation_ids.get(label)
        if rid is None:
            rid = len(self._relation_labels)
            self._relation_ids[label] = rid
            self._relation_labels.append(label)
        return rid

    def add(self, head: str, relation: str, tail: str) -> bool:
        """Add one triple; returns False if it was a duplicate."""
        triple = Triple(
            self._intern_entity(head),
            self._intern_relation(relation),
            self._intern_entity(tail),
        )
        if triple in self._triple_set:
            return False
        idx = len(self.triples)
        self.triples.append(triple)
        self._triple_set.add(triple)
        self._out.setdefault(triple.head, []).append(idx)
        self._in.setdefault(triple.tail, []).append(idx)
        return True

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
        return len(self.triples)

    def has_entity(self, label: str) -> bool:
        return label in self._entity_ids

    def entity_id(self, label: str) -> int:
        try:
            return self._entity_ids[label]
        except KeyError:
            raise EntityLookupError(label) from None

    def entity_label(self, eid: int) -> str:
        return self._entity_labels[eid]

    def relation_label(self, rid: int) -> str:
        return self._relation_labels[rid]

    def find(self, head: str, relation: str, tail: str) -> Triple | None:
        """The stored triple with these labels, or None."""
        triple = Triple(
            self._entity_ids.get(head, -1),
            self._relation_ids.get(relation, -1),
            self._entity_ids.get(tail, -1),
        )
        return triple if triple in self._triple_set else None

    def triple_labels(self, triple: Triple) -> tuple[str, str, str]:
        return (
            self._entity_labels[triple.head],
            self._relation_labels[triple.relation],
            self._entity_labels[triple.tail],
        )

    def label_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Entity and relation ranks in label order, as arrays indexed by id.

        ``erank[e]`` is the position of entity ``e``'s label among all entity
        labels sorted, likewise ``rrank`` for relations. Both are ranked once
        and cached; labels are only ever appended, so the cache is stale
        exactly when ``add`` has interned a new label since, and is then
        rebuilt. Arrays taken before a later ``add`` are stale.
        """
        ranks = self._ranks
        if len(ranks[0]) != len(self._entity_labels) or len(ranks[1]) != len(
            self._relation_labels
        ):
            ranks = (_label_ranks(self._entity_labels), _label_ranks(self._relation_labels))
            self._ranks = ranks
        return ranks

    def label_sort_keys(
        self, heads: Sequence[int], relations: Sequence[int], tails: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``np.lexsort`` keys ordering triples, given as id columns, by label.

        The columns are int sequences or arrays, such as ``*ids.T`` of an
        ``(n, 3)`` id array. The keys are the tail, relation and head ranks,
        in that order (``lexsort`` sorts by the last key first), so the sort
        orders the triples exactly as their (head, relation, tail) label
        tuples do.
        """
        erank, rrank = self.label_ranks()
        return (
            erank[np.asarray(tails, dtype=np.intp)],
            rrank[np.asarray(relations, dtype=np.intp)],
            erank[np.asarray(heads, dtype=np.intp)],
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

    def out_indices(self, eid: int) -> list[int]:
        return self._out.get(eid, [])

    def in_indices(self, eid: int) -> list[int]:
        return self._in.get(eid, [])

    def entity_labels(self) -> list[str]:
        return list(self._entity_labels)

    def lines(self) -> Iterator[str]:
        """Emit the store back as tab-separated lines (round-trip view)."""
        for triple in self.triples:
            h, r, t = self.triple_labels(triple)
            yield f"{h}\t{r}\t{t}"


def _label_ranks(labels: list[str]) -> np.ndarray:
    ranks = np.empty(len(labels), dtype=np.int64)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


class Subgraph:
    """Candidate view: some triples of a parent store, in parent order.

    Labels resolve through the parent, so nothing is re-interned; the view
    offers the same read surface scorers use on a whole ``TripleStore``.
    """

    __slots__ = ("store", "triples")

    def __init__(self, store: TripleStore, triples: list[Triple]):
        self.store = store
        self.triples = triples

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    def triple_labels(self, triple: Triple) -> tuple[str, str, str]:
        return self.store.triple_labels(triple)

    def lines(self) -> Iterator[str]:
        for triple in self.triples:
            h, r, t = self.store.triple_labels(triple)
            yield f"{h}\t{r}\t{t}"


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
    store = TripleStore()
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(parts)}", line=lineno
            )
        head, relation, tail = (part.strip() for part in parts)
        if not head or not relation or not tail:
            raise ParseError("empty field in triple", line=lineno)
        store.add(head, relation, tail)
    return store


def check_query_id(qid: str, line: int | None = None) -> str:
    """``qid`` unchanged if it can name a file inside an output directory.

    Ids name prompt and completion files, so ids that are empty, ``.``/``..``,
    or contain ``/``, ``\\`` or NUL raise ParseError.
    """
    if qid in ("", ".", "..") or any(c in qid for c in "/\\\0"):
        raise ParseError(f"query id {qid!r} cannot name a file", line=line)
    return qid


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
    and ``answers`` must be JSON lists when given. Ids that
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
        question = str(payload.get("question", "")).strip()
        if not question:
            raise ParseError("query record has no question", line=lineno)
        qid = check_query_id(str(payload.get("id", lineno)), line=lineno)
        if qid in seen_ids:
            raise ParseError(f"duplicate query id {qid!r}", line=lineno)
        seen_ids.add(qid)
        entities = tuple(
            str(e) for e in _list_field(payload, "query_entities", line=lineno)
        )
        answers: list[str] = []
        seen: set[str] = set()
        for answer in _list_field(payload, "answers", line=lineno):
            answer = str(answer)
            key = normalize_answer(answer)
            if key not in seen:
                seen.add(key)
                answers.append(answer)
        records.append(QueryRecord(qid, question, entities, tuple(answers)))
    return records


def extract_subgraph(
    store: TripleStore, query_entities: Iterable[str], hops: int
) -> Subgraph:
    """View of all triples within ``hops`` undirected steps of the query.

    An edge is kept when its nearer endpoint lies at undirected distance
    <= hops - 1 from some query entity, i.e. the edge itself is crossed by
    step ``hops`` at the latest. Unknown query entities raise
    EntityLookupError. Only the adjacency lists of the visited entities are
    read, so the cost follows the neighbourhood, not the KG. The result is a
    view over ``store`` holding the kept triples in store order; labels are
    not re-interned.
    """
    if hops < 1:
        raise ConfigError(f"hops must be >= 1, got {hops}")
    sources = [store.entity_id(label) for label in query_entities]

    max_dist = hops - 1
    dist: dict[int, int] = {}
    frontier: deque[int] = deque()
    for eid in sources:
        if eid not in dist:
            dist[eid] = 0
            frontier.append(eid)
    while frontier:
        eid = frontier.popleft()
        d = dist[eid]
        if d >= max_dist:
            continue
        for idx in store.out_indices(eid):
            other = store.triples[idx].tail
            if other not in dist:
                dist[other] = d + 1
                frontier.append(other)
        for idx in store.in_indices(eid):
            other = store.triples[idx].head
            if other not in dist:
                dist[other] = d + 1
                frontier.append(other)

    kept: set[int] = set()
    for eid in dist:
        kept.update(store.out_indices(eid))
        kept.update(store.in_indices(eid))
    triples = store.triples
    return Subgraph(store, [triples[idx] for idx in sorted(kept)])

"""Knowledge-graph store: triple loading, label interning, subgraph extraction.

Entities and relations are interned to integer ids in first-seen order, so
loading the same bytes always produces the same id assignment. Public
functions take entity *labels*; ids are an internal detail of the store.
The triples are numpy columns (an id array and an incidence CSR), and
retrieval runs on them; a triple is named by its store row.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass
from itertools import chain, count, cycle
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from ._bulk import count_lines, line_blocks, stable_order, utf8_errors
from .errors import ConfigError, EntityLookupError, ParseError
from .textnorm import normalize_answer

logger = logging.getLogger(__name__)


class TripleStore:
    """Deduplicated triples held as id columns, with interning tables.

    ``TripleStore(rows)`` interns an iterable of ``(head, relation, tail)``
    label rows in first-seen order, keeps the first of each repeated row and
    builds every column once; the store is immutable after that, and so
    safe to share across threads. ``load_triples`` builds one from a
    file's flat label blocks through ``_from_fields``; both go through
    ``_build``, which interns with ``_intern``.

    ``id_array`` is one ``(n, 3)`` int64 array of (head, relation, tail)
    ids, a row per triple in first-seen order. ``incidence()`` is a CSR
    over it that lists, entity by entity, every triple touching the entity:
    ``offsets`` (entity ``e`` owns entries ``offsets[e]:offsets[e + 1]``),
    ``other`` (the endpoint across the triple) and ``triple`` (its row).
    Per entity, the triples it heads come first and then those it tails,
    each in store order, so a self-loop is listed twice.

    ``row_rank`` ranks the rows in (head, relation, tail) label order. It is
    built with the columns, and no other code computes label order. No
    object is held per row: ``row_labels`` names one row by its labels.
    """

    def __init__(self, rows: Iterable[tuple[str, str, str]]) -> None:
        self._build(map(_row_fields, line_blocks(rows)), 0)

    @classmethod
    def _from_fields(
        cls, field_blocks: Iterable[list[str]], capacity: int
    ) -> "TripleStore":
        """A store of flat ``[head, relation, tail, ...]`` label blocks."""
        store = cls.__new__(cls)
        store._build(field_blocks, capacity)
        return store

    def _build(self, field_blocks: Iterable[list[str]], capacity: int) -> None:
        entity_ids, relation_ids, ids = _intern(field_blocks, capacity)
        self._entity_ids = entity_ids
        self._entity_labels = list(entity_ids)
        self._relation_ids = relation_ids
        self._relation_labels = list(relation_ids)
        self.id_array, *incidence, self.row_rank = _build_columns(
            ids, self._entity_labels, self._relation_labels
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

    def has_entity(self, label: str) -> bool:
        return label in self._entity_ids

    def entity_id(self, label: str) -> int:
        try:
            return self._entity_ids[label]
        except KeyError:
            raise EntityLookupError(label) from None

    def entity_label(self, eid: int) -> str:
        return self._entity_labels[eid]

    def row_labels(self, row: int) -> tuple[str, str, str]:
        """The (head, relation, tail) labels of store row ``row``."""
        head, relation, tail = self.id_array[row].tolist()
        return (
            self._entity_labels[head],
            self._relation_labels[relation],
            self._entity_labels[tail],
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


def _label_ranks(labels: list[str]) -> np.ndarray:
    """Each label's place in sorted order, in the narrowest dtype that holds it."""
    ranks = np.empty(len(labels), dtype=np.min_scalar_type(max(len(labels) - 1, 0)))
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


def _build_columns(
    ids: np.ndarray, entity_labels: list[str], relation_labels: list[str]
) -> tuple[np.ndarray, ...]:
    """The distinct rows of ``ids`` in first-seen order, the incidence CSR
    over them and their row rank (see ``TripleStore``).

    One ``stable_order`` of the head column followed by the tail column
    puts each entity's headed triples before its tailed ones, each in row
    order; its keys are entity ids, below ``n_entities``. ``ids`` may be of
    any integer dtype; every array built is int64 and read-only.
    """
    ids, rank = _first_seen(ids, entity_labels, relation_labels)
    n, n_entities = len(ids), len(entity_labels)
    ends = np.concatenate((ids[:, 0], ids[:, 2]))
    offsets = np.zeros(n_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n_entities), out=offsets[1:])
    triple = stable_order(ends, n_entities - 1)
    other = np.concatenate((ids[:, 2], ids[:, 0]))[triple].astype(np.int64)
    triple %= max(n, 1)  # an index into the tails half is its row plus n
    columns = (ids.astype(np.int64), offsets, other, triple, rank)
    for column in columns:
        column.flags.writeable = False
    return columns


def _first_seen(
    ids: np.ndarray, entity_labels: list[str], relation_labels: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``ids``, each where it first occurs, and their row rank.

    Three ``stable_order`` passes, by tail, relation and then head label
    rank, sort the rows in label order. The sort is stable, so a repeated
    row sorts right after the row it repeats and is dropped; the kept rows'
    places in it are the row rank. Every sort key is a label rank, below
    ``n_entities`` or ``n_relations``, and no key is combined with another,
    so none can wrap.
    """
    n_entities, n_relations = len(entity_labels), len(relation_labels)
    erank, rrank = _label_ranks(entity_labels), _label_ranks(relation_labels)
    keys = (erank[ids[:, 0]], rrank[ids[:, 1]], erank[ids[:, 2]])
    by_label = stable_order(keys[2], n_entities - 1)
    for key, bound in ((keys[1], n_relations - 1), (keys[0], n_entities - 1)):
        by_label = by_label[stable_order(key[by_label], bound)]
    repeat = np.ones(len(ids), dtype=bool)
    repeat[:1] = False
    for key in keys:
        key = key[by_label]
        repeat[1:] &= key[1:] == key[:-1]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[by_label] = np.cumsum(~repeat) - 1
    keep = np.ones(len(ids), dtype=bool)
    keep[by_label[repeat]] = False
    return ids.compress(keep, axis=0), rank.compress(keep)


def _intern(
    field_blocks: Iterable[list[str]], capacity: int
) -> tuple[dict[str, int], dict[str, int], np.ndarray]:
    """The entity and relation ids, in first-seen order, and the ``(n, 3)``
    ids of every row of the blocks, repeats included.

    Each block is a flat ``[head, relation, tail, head, ...]`` label list.
    One C-level map of ``dict.setdefault`` over a block looks every label up
    in its table, and gives a new one the next value of a counter that both
    tables share, into an id array of ``capacity`` rows (grown when the
    blocks hold more). A label's value rises with its first sighting but
    skips the values of later sightings, so at the end one array indexed
    by value maps each table's values to ``0, 1, ...`` in table order. The
    ids come back in the narrowest dtype that holds them, which keeps the
    load's peak memory low.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    ids = np.empty((capacity, 3), dtype=np.int64)
    n = 0
    tick = count()
    for fields in field_blocks:
        end = n + len(fields) // 3
        if end > len(ids):
            ids = np.resize(ids, (max(end, 2 * len(ids)), 3))
        tables = cycle((entity_ids, relation_ids, entity_ids))
        looked_up = map(dict.setdefault, tables, fields, tick)
        ids[n:end] = np.fromiter(looked_up, np.int64, len(fields)).reshape(-1, 3)
        n = end
    widest = max(len(entity_ids), len(relation_ids), 1) - 1
    dense = np.empty(next(tick), dtype=np.min_scalar_type(widest))
    for table in (entity_ids, relation_ids):
        dense[np.fromiter(table.values(), np.int64, len(table))] = np.arange(len(table))
    return (
        dict(zip(entity_ids, range(len(entity_ids)))),
        dict(zip(relation_ids, range(len(relation_ids)))),
        dense[ids[:n]],
    )


def _row_fields(rows: list[tuple[str, str, str]]) -> list[str]:
    """The labels of a block of ``(head, relation, tail)`` rows, flat."""
    if set(map(len, rows)) != {3}:
        raise ValueError("every row must be a (head, relation, tail) triple")
    return list(chain.from_iterable(rows))


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


@dataclass(frozen=True)
class QueryRecord:
    """One benchmark question: text, anchor entities, gold answers."""

    id: str
    question: str
    query_entities: tuple[str, ...]
    gold_answers: tuple[str, ...]


def _iter_lines(source) -> Iterator[str]:
    """The text lines of a path, or the items of an iterable, bytes decoded.

    Bytes that are not UTF-8 raise ParseError naming the path, or the
    handle's ``name``.
    """
    path = isinstance(source, (str, Path))
    with utf8_errors(source if path else getattr(source, "name", "input")):
        if path:
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
    one. Raises ParseError (with line number) on wrong arity or empty
    fields, and naming the source on bytes that are not UTF-8.

    A path is read once, in binary, ``LOAD_BLOCK`` lines at a time
    (``_file_fields``), into ids sized by ``count_lines``; its lines are
    those of a text-mode read, so a ``\\r`` or ``\\r\\n`` ends one too.
    Any other source goes through the line loop, its items taken as lines
    as they are, bytes decoded.
    """
    if isinstance(source, (str, Path)):
        with utf8_errors(source), open(source, "rb") as handle:
            capacity = count_lines(handle)
            return TripleStore._from_fields(_file_fields(handle), capacity)
    return TripleStore(_parse_triples(_iter_lines(source), 1))


def _file_fields(handle: IO[bytes]) -> Iterator[list[str]]:
    """The flat ``[head, relation, tail, ...]`` labels of each block's triples.

    A block's ``\\r\\n`` line ends are checked as the ``\\n`` a text-mode
    read turns them into, so a CRLF file is split in bulk too; a binary
    read ends a line only after a ``\\n``, so none spans two blocks. A
    block ``_clean_fields`` accepts is split at once. Any other is split
    into lines as a text-mode read splits it and goes through
    ``_parse_triples``, numbered from its first line, so that loop alone
    raises and each ParseError names the line a whole-file line loop would.
    """
    lineno = 1
    for block in line_blocks(handle):
        data = b"".join(block)
        fields = _clean_fields(data.replace(b"\r\n", b"\n"), len(block))
        if fields is None:
            lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
            fields = list(chain.from_iterable(_parse_triples(lines, lineno)))
            lineno += len(lines)
        else:
            lineno += len(block)
        yield fields


# the bytes a clean block's separators read, line by line: tab, tab, newline
_SEPARATORS = np.array([9, 9, 10], dtype=np.uint8)
# the bytes a field of a clean block may start or end with: printable ASCII
# other than the space, so no field is empty or padded
_BARE = np.zeros(256, dtype=bool)
_BARE[33:127] = True


def _clean_fields(data: bytes, n_lines: int) -> list[str] | None:
    """The flat labels of ``n_lines`` lines of UTF-8, or None if they are not clean.

    The lines are clean when no ``\\r`` occurs, the bytes below 11 are
    exactly a tab, a tab and a newline per line (so every line ends in its
    newline), every field starts and ends on a ``_BARE`` byte (so none is
    empty or padded, and a non-ASCII byte at a field edge counts as
    padding) and no line starts with ``#``. Then each line is a triple
    whose fields ``_parse_triples`` keeps as they are, so one split of the
    decoded text gives them all. The checks are numpy passes over the
    block's bytes, made before they are decoded.
    """
    if b"\r" in data:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    # where each field ends: three per line, the last a newline
    ends = np.flatnonzero(raw < 11)
    if len(ends) != 3 * n_lines:
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if not (
        (raw[ends].reshape(-1, 3) == _SEPARATORS).all()
        and _BARE[raw[starts]].all()
        and _BARE[raw[ends - 1]].all()
        and (raw[starts[::3]] != ord("#")).all()
    ):
        return None
    fields = data.decode("utf-8").replace("\n", "\t").split("\t")
    fields.pop()  # after the last newline
    return fields


def _parse_triples(
    lines: Iterable[str], start: int
) -> Iterator[tuple[str, str, str]]:
    """The stripped ``(head, relation, tail)`` of each triple line, in order.

    A line that splits into three non-empty fields, the first not starting
    with ``#``, is a triple; that test is all a valid line costs. Any other
    line is blank or a comment, and skipped, or raises ParseError; the
    lines are numbered from ``start``. The line end stays on the tail,
    whose strip removes it.
    """
    for lineno, line in enumerate(lines, start=start):
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

"""Triple loading, interning, and subgraph extraction."""

from __future__ import annotations

import io
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cases import label_rows, pipe_path, small_store
from naive_ref import naive_extract_subgraph

from pathpool import _bulk, kg_store
from pathpool.errors import ConfigError, EntityLookupError, ParseError
from pathpool.kg_store import (
    QueryRecord,
    TripleStore,
    extract_subgraph,
    load_queries,
    load_triples,
)


def test_empty_input_gives_empty_store():
    store = load_triples(io.StringIO(""))
    assert store.n_entities == 0
    assert store.n_relations == 0
    assert store.n_triples == 0


def test_duplicate_lines_collapse():
    store = load_triples(io.StringIO("A\tr1\tB\nB\tr2\tC\nA\tr1\tB\n"))
    assert store.n_entities == 3
    assert store.n_relations == 2
    assert store.n_triples == 2


def test_wrong_arity_reports_line_number():
    with pytest.raises(ParseError) as err:
        load_triples(io.StringIO("A\tr1\n"))
    assert err.value.line == 1


def test_empty_field_rejected():
    with pytest.raises(ParseError):
        load_triples(io.StringIO("A\t\tB\n"))


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("A\tr\t\r\n", "line 2: empty field in triple"),
        ("A\tr\r\n", "line 2: expected 3 tab-separated fields, got 2"),
        ("A\tr\tB\t\r\n", "line 2: expected 3 tab-separated fields, got 4"),
    ],
)
def test_line_ends_are_not_part_of_a_field(line, message):
    # bytes lines keep their "\r\n"; a field's surrounding blanks go too
    store = load_triples([b"A\tr\tB \r\n", b"# c\r\n", b" \r\n", b"B\tr\tC"])
    assert label_rows(store) == [("A", "r", "B"), ("B", "r", "C")]
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_triples(["# c\r\n", line])


def test_comments_and_blank_lines_skipped():
    store = load_triples(io.StringIO("# header\n\nA\tr\tB\n  \n# trailing\n"))
    assert store.n_triples == 1


def test_round_trip_lines():
    text = "A\tr1\tB\nB\tr2\tC\n"
    store = load_triples(io.StringIO(text))
    assert "".join("\t".join(row) + "\n" for row in label_rows(store)) == text


def test_interning_is_deterministic():
    text = "X\tr\tY\nY\tr\tZ\nA\tq\tX\n"
    first = load_triples(io.StringIO(text))
    second = load_triples(io.StringIO(text))
    assert first._entity_labels == second._entity_labels
    assert first.id_array.tolist() == second.id_array.tolist()


def test_load_from_byte_stream(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_bytes("Å\tr\tB\n".encode("utf-8"))
    with open(path, "rb") as handle:
        store = load_triples(handle)
    assert label_rows(store) == [("Å", "r", "B")]


def test_subgraph_two_hop_ball_on_chain():
    store = load_triples(io.StringIO("A\tr\tB\nB\tr\tC\nC\tr\tD\n"))
    sub = extract_subgraph(store, ["A"], hops=2)
    assert sorted(label_rows(sub)) == [("A", "r", "B"), ("B", "r", "C")]


def test_subgraph_one_hop_single_triple():
    store = load_triples(io.StringIO("A\tr\tB\n"))
    sub = extract_subgraph(store, ["A"], hops=1)
    assert label_rows(sub) == [("A", "r", "B")]


def test_subgraph_excludes_disconnected_component():
    store = load_triples(io.StringIO("A\tr\tB\nX\tr\tY\n"))
    for hops in (1, 3, 10):
        sub = extract_subgraph(store, ["A"], hops=hops)
        assert ("X", "r", "Y") not in set(label_rows(sub))


def test_subgraph_follows_undirected_steps():
    # C is upstream of A; reachable via one undirected step
    store = load_triples(io.StringIO("C\tr\tA\nA\tr\tB\n"))
    sub = extract_subgraph(store, ["A"], hops=1)
    assert sorted(label_rows(sub)) == [("A", "r", "B"), ("C", "r", "A")]


def test_subgraph_unknown_entity():
    store = load_triples(io.StringIO("A\tr\tB\n"))
    with pytest.raises(EntityLookupError) as err:
        extract_subgraph(store, ["NOPE"], hops=1)
    assert "NOPE" in str(err.value)


def test_subgraph_rejects_zero_hops():
    store = load_triples(io.StringIO("A\tr\tB\n"))
    with pytest.raises(ConfigError):
        extract_subgraph(store, ["A"], hops=0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subgraph_monotone_in_hops(data):
    n = data.draw(st.integers(2, 8))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, n - 1)),
            min_size=1,
            max_size=14,
        )
    )
    lines = [f"E{h}\tr{r}\tE{t}" for h, r, t in edges]
    store = load_triples(io.StringIO("\n".join(lines) + "\n"))
    anchor = f"E{edges[0][0]}"
    hops = data.draw(st.integers(1, 4))
    smaller = set(label_rows(extract_subgraph(store, [anchor], hops)))
    larger = set(label_rows(extract_subgraph(store, [anchor], hops + 1)))
    assert smaller <= larger


def test_load_queries_normalizes_and_dedups_answers():
    raw = io.StringIO(
        '{"id": "q", "question": "Q?", "query_entities": ["A"],'
        ' "answers": ["X ", "x", "Y."]}\n'
    )
    (record,) = load_queries(raw)
    assert record.gold_answers == ("X ", "Y.")


def test_load_queries_requires_question():
    with pytest.raises(ParseError):
        load_queries(io.StringIO('{"id": "q", "answers": ["a"]}\n'))


def test_load_queries_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        load_queries(io.StringIO("{not json}\n"))
    assert err.value.line == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subgraph_matches_full_scan_oracle(data):
    # few entities and relations: self-loops, parallel edges with different
    # relations and shared neighbourhoods of several anchors are common
    n = data.draw(st.integers(1, 7))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 3), st.integers(0, n - 1)),
            min_size=1,
            max_size=30,
        )
    )
    store = TripleStore((f"E{h}", f"r{r}", f"E{t}") for h, r, t in edges)
    labels = label_rows(store)
    present = sorted(store._entity_labels)
    anchors = data.draw(st.lists(st.sampled_from(present), min_size=1, max_size=3))
    hops = data.draw(st.integers(1, 4))
    sub = extract_subgraph(store, anchors, hops)
    expected = naive_extract_subgraph(labels, anchors, hops)
    assert [store.row_labels(row) for row in sub.rows.tolist()] == expected
    assert label_rows(sub) == expected
    assert sub.n_triples == len(expected)
    assert sub.store is store


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_store_matches_its_rows(data):
    store, rows = small_store(data)
    assert label_rows(store) == rows
    assert store.n_triples == len(store.id_array) == len(rows)
    assert [store.row_labels(row) for row in range(store.n_triples)] == rows
    # the incidence CSR: per entity, the rows it heads, then the rows it tails
    offsets, other, triple = store.incidence()
    ids = store.id_array.tolist()
    for e in range(store.n_entities):
        span = slice(offsets[e], offsets[e + 1])
        expected = [(i, t) for i, (h, _, t) in enumerate(ids) if h == e]
        expected += [(i, h) for i, (h, _, t) in enumerate(ids) if t == e]
        assert list(zip(triple[span].tolist(), other[span].tolist())) == expected
    anchors = data.draw(
        st.lists(st.sampled_from(sorted(store._entity_labels)), min_size=1, max_size=3)
    )
    hops = data.draw(st.integers(1, 4))
    sub = extract_subgraph(store, anchors, hops)
    assert label_rows(sub) == naive_extract_subgraph(rows, anchors, hops)
    assert sub.id_array.tolist() == [ids[i] for i in sub.rows.tolist()]


def _naive_parse(lines):
    """The distinct label rows of ``lines``, or the ``(line, message)`` of the
    first bad one: a plain loop that trims each line, skips blank and ``#``
    lines, then splits and checks the rest."""
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.strip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            return lineno, f"expected 3 tab-separated fields, got {len(parts)}"
        row = tuple(part.strip() for part in parts)
        if "" in row:
            return lineno, "empty field in triple"
        rows.append(row)
    return list(dict.fromkeys(rows))


# one to four fields of few characters, so blank, comment, short, long and
# empty-field lines, padded labels and each line end are all common
_LINE = st.builds(
    lambda fields, end: "\t".join(fields) + end,
    st.lists(st.text(alphabet="ab# \x1c", max_size=3), min_size=1, max_size=4),
    st.sampled_from(["", "\n", "\r\n"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=8))
def test_load_triples_matches_a_plain_line_loop(lines):
    expected = _naive_parse(lines)
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as err:
            load_triples(lines)
        assert (err.value.line, str(err.value)) == (expected[0], f"line {expected[0]}: {expected[1]}")
    else:
        assert label_rows(load_triples(lines)) == expected


# lines for blocks of 2 or 3: clean triples most often, else a line that
# fails the bulk check in one way: a "\r\n" end, "\x1c" or space padding,
# a "#" head, a blank line, a BOM, a non-ASCII byte at a field edge, or too
# few, too many or empty fields
_CLEAN_LINE = st.builds(
    lambda fields: "\t".join(fields) + "\n",
    st.lists(
        st.sampled_from(["a", "b", "a b", "a\u00e9b", "x#"]), min_size=3, max_size=3
    ),
)
_UNCLEAN_LINE = st.sampled_from(
    [
        "a\tb\tc\r\n",
        "a\x1c\tb\tc\n",
        "a\tb\t\x1cc\n",
        " a\tb\tc\n",
        "a\tb \tc\n",
        "#a\tb\tc\n",
        "# comment\n",
        "\n",
        " \t \n",
        "\ufeffa\tb\tc\n",
        "\u00e9\tb\tc\n",
        "a\tb\t\u4e2d\n",
        "a\tb\n",
        "a\tb\tc\td\n",
        "a\t\tc\n",
        "a\tb\t\n",
    ]
)
_BLOCK_LINE = st.one_of(_CLEAN_LINE, _CLEAN_LINE, _CLEAN_LINE, _UNCLEAN_LINE)


def _store_outcome(source):
    """The rows and columns of the store ``source`` loads, or its ParseError."""
    try:
        store = load_triples(source)
    except ParseError as err:
        return err.line, str(err)
    columns = (store.id_array, *store.incidence(), store.row_rank)
    return label_rows(store), [(c.dtype.str, c.tolist()) for c in columns]


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_BLOCK_LINE, max_size=12),
    ended=st.booleans(),
    block=st.integers(2, 3),
)
def test_load_triples_matches_a_plain_line_loop_across_blocks(
    tmp_path_factory, lines, ended, block
):
    text = "".join(lines)
    if not ended:
        text = text.removesuffix("\n").removesuffix("\r")
    path = tmp_path_factory.mktemp("kg") / "kg.tsv"
    path.write_bytes(text.encode("utf-8"))
    sources = {
        "path": path,
        "text handle": io.StringIO(text),
        "str lines without ends": text.split("\n"),
        "bytes lines": io.BytesIO(text.encode("utf-8")).readlines(),
    }
    with mock.patch.object(_bulk, "LOAD_BLOCK", block):
        outcomes = {name: _store_outcome(source) for name, source in sources.items()}
    expected = _naive_parse(text.split("\n"))
    got = outcomes["path"]
    if isinstance(expected, tuple):
        assert got == (expected[0], f"line {expected[0]}: {expected[1]}")
    else:
        assert got[0] == expected
    assert all(outcome == got for outcome in outcomes.values())


# texts whose two-line blocks each defeat one check of the bulk path
_BLOCK_CASES = {
    "a tab moved to the next line": "a\tb\tc\td\ne\tf\n",
    "a lone carriage return": "a\rb\tc\td\ne\tf\tg\n",
    "crlf ends": "a\tb\tc\r\nd\te\tf\r\n",
    "a lone carriage return before a crlf": "a\tb\tc\r\r\nd\te\n",
    "padding before a head": "\x1ca\tb\tc\nd\te\tf\n",
    "padding after a tail": "a\tb\tc \nd\te\tf\n",
    "a non-ASCII field edge": "a\tb\t\u00e9\nd\te\tf\n",
    "a # head": "#a\tb\tc\nd\te\tf\n",
    "a BOM": "\ufeffa\tb\tc\nd\te\tf\n",
    "no newline at the end": "a\tb\tc\nd\te\tf",
    "an empty field": "a\t\tc\nd\te\tf\n",
}


@pytest.mark.parametrize("case", _BLOCK_CASES)
def test_load_triples_matches_a_text_mode_line_loop_on_edge_cases(
    tmp_path, monkeypatch, case
):
    path = tmp_path / "kg.tsv"
    path.write_bytes(_BLOCK_CASES[case].encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        expected = _naive_parse(handle.readlines())
    monkeypatch.setattr(_bulk, "LOAD_BLOCK", 2)
    got = _store_outcome(path)
    if isinstance(expected, tuple):
        assert got == (expected[0], f"line {expected[0]}: {expected[1]}")
    else:
        assert got[0] == expected


def test_load_triples_takes_each_item_as_one_line():
    # the newlines count matches the items, but one item holds two
    rows = label_rows(load_triples(["a\tb\tc", "d\ne\tf\tg\n"]))
    assert rows == [("a", "b", "c"), ("d\ne", "f", "g")]


def test_load_triples_reads_only_an_unclean_block_line_by_line(tmp_path, monkeypatch):
    calls = []
    parse_triples = kg_store._parse_triples

    def spy(lines, start):
        calls.append((start, len(lines)))
        return parse_triples(lines, start)

    monkeypatch.setattr(_bulk, "LOAD_BLOCK", 2)
    monkeypatch.setattr(kg_store, "_parse_triples", spy)
    path = tmp_path / "kg.tsv"
    clean = ["a\tr\tb\n", "b\tr\tc\n", "c\tr\td\n", "d\tr\te\n", "e\tr\tf\n"]
    expected = [tuple(line.split()) for line in clean]
    # CRLF line ends are checked in bulk too
    for end in ("\n", "\r\n"):
        path.write_bytes("".join(clean).replace("\n", end).encode())
        assert label_rows(load_triples(path)) == expected
    assert calls == []
    unclean = clean[:3] + ["# d\n"] + clean[4:]
    path.write_bytes("".join(unclean).encode())
    assert len(label_rows(load_triples(path))) == 4
    assert calls == [(3, 2)]


def test_load_triples_reads_a_pipe_once(monkeypatch):
    # a pipe cannot be counted ahead, so the ids grow block by block
    monkeypatch.setattr(_bulk, "LOAD_BLOCK", 2)
    text = "".join(f"e{i}\tr\te{i + 1}\n" for i in range(5))
    with pipe_path(text.encode()) as path:
        rows = label_rows(load_triples(path))
    assert rows == [tuple(line.split("\t")) for line in text.splitlines()]


@pytest.mark.parametrize("n_entities", [1_000, 70_000])
def test_incidence_equals_an_int64_stable_argsort(n_entities):
    # under 65,536 entities the ends sort as uint16, by radix; above, as uint32
    rng = np.random.default_rng(n_entities)
    heads = np.concatenate((np.arange(n_entities), rng.integers(0, n_entities, 5_000)))
    tails = rng.integers(0, n_entities, len(heads))
    relations = rng.integers(0, 4, len(heads))
    store = TripleStore(
        zip(
            [f"e{i}" for i in heads.tolist()],
            [f"r{i}" for i in relations.tolist()],
            [f"e{i}" for i in tails.tolist()],
        )
    )
    assert store.n_entities == n_entities
    ids, n = store.id_array, store.n_triples
    ends = np.concatenate((ids[:, 0], ids[:, 2]))
    order = ends.astype(np.int64).argsort(kind="stable")
    offsets, other, triple = store.incidence()
    counts = np.bincount(ends, minlength=n_entities)
    assert offsets.tolist() == [0, *np.cumsum(counts).tolist()]
    assert other.tolist() == np.concatenate((ids[:, 2], ids[:, 0]))[order].tolist()
    assert triple.tolist() == (order % n).tolist()
    by_label = sorted(range(n), key=store.row_labels)
    assert np.argsort(store.row_rank).tolist() == by_label
    for column in (ids, offsets, other, triple, store.row_rank):
        assert column.dtype == np.int64 and not column.flags.writeable


def _store_bytes(store) -> int:
    """The memory a store holds: its columns, its tables and their labels."""
    arrays = (store.id_array, *store.incidence(), store.row_rank)
    tables = (
        store._entity_ids,
        store._relation_ids,
        store._entity_labels,
        store._relation_labels,
    )
    labels = [*store._entity_labels, *store._relation_labels]
    return (
        sum(array.nbytes for array in arrays)
        + sum(map(sys.getsizeof, tables))
        + sum(map(sys.getsizeof, labels))
    )


def test_load_triples_peak_memory_is_near_the_store(tmp_path):
    """A 120,000-line KG of 4,800 entities loads within its store and 4 MiB.

    The store itself takes about 7.7 MiB. Blocks of lines, ids kept narrow
    until the columns are built, and temporaries freed before the CSR is
    built keep the load about 2 MiB above it; a per-line list of ids took
    more than 7 MiB.
    """
    path = tmp_path / "kg.tsv"
    path.write_text(
        "".join(
            f"E{i % 4799}\tR{i % 24}\tE{i * 7919 % 4801}\n" for i in range(120_000)
        ),
        encoding="utf-8",
    )
    tracemalloc.start()
    try:
        store = load_triples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.n_triples == 120_000
    assert peak < _store_bytes(store) + 4 * 2**20


def test_load_triples_names_a_source_that_is_not_utf8(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_bytes(b"A\tr\tB\nC\tr\t\xff\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} is not valid UTF-8"):
        load_triples(path)
    with pytest.raises(ParseError, match="^input is not valid UTF-8"):
        load_triples([b"A\tr\tB\n", b"C\tr\t\xff\n"])


def test_load_queries_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_bytes(b'{"id": "q", "question": "Q\xff?"}\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} is not valid UTF-8"):
        load_queries(path)


def test_subgraph_shares_parent_triples():
    store = load_triples(io.StringIO("A\tr\tA\nA\tr\tB\nA\tq\tB\nC\tr\tD\n"))
    sub = extract_subgraph(store, ["A"], hops=1)
    assert sub.rows.tolist() == [0, 1, 2]
    assert sub.id_array.tolist() == store.id_array[:3].tolist()
    assert store.n_entities == 4  # nothing re-interned into a new store


_LABELS = st.text(alphabet="aAbBé\u00c9\u03a9\u4e2d_1 ", min_size=1, max_size=3)


def _label_order(store):
    """The labels of the store's rows, sorted by ``row_rank``."""
    return [store.row_labels(row) for row in np.argsort(store.row_rank).tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_LABELS, _LABELS, _LABELS), min_size=1, max_size=25))
def test_row_rank_matches_label_tuples(rows):
    store = TripleStore(rows)
    assert _label_order(store) == sorted(label_rows(store))
    assert sorted(store.row_rank.tolist()) == list(range(store.n_triples))


def test_row_rank_case_and_prefix_labels():
    store = TripleStore(
        [("AB", "r", "a"), ("A", "r", "b"), ("a", "R", "A"), ("A", "R", "AB")]
    )
    assert _label_order(store) == [
        ("A", "R", "AB"),
        ("A", "r", "b"),
        ("AB", "r", "a"),
        ("a", "R", "A"),
    ]


def test_query_numbers_are_read_as_labels():
    raw = '{"id": 5, "question": 1.5, "query_entities": [7, -2], "answers": [0]}\n'
    (record,) = load_queries(io.StringIO(raw))
    assert record == QueryRecord("5", "1.5", ("7", "-2"), ("0",))


def _queries(*ids):
    return io.StringIO(
        "".join(
            '{"id": %s, "question": "Q?", "query_entities": ["A"]}\n' % i for i in ids
        )
    )


@pytest.mark.parametrize(
    "bad_id", ['""', '"."', '".."', '"a/b"', '"/abs"', '"a\\\\b"', '"a\\u0000b"']
)
def test_load_queries_rejects_ids_that_cannot_name_a_file(bad_id):
    with pytest.raises(ParseError) as err:
        load_queries(_queries('"ok"', bad_id))
    assert err.value.line == 2


def test_load_queries_rejects_duplicate_ids():
    with pytest.raises(ParseError) as err:
        load_queries(_queries('"q1"', '"q2"', '"q1"'))
    assert err.value.line == 3
    assert "q1" in str(err.value)


def test_load_queries_accepts_dotted_and_default_ids():
    raw = io.StringIO(
        '{"id": "a.b", "question": "Q?"}\n{"id": "..x", "question": "Q?"}\n'
        '{"question": "Q?"}\n'
    )
    assert [r.id for r in load_queries(raw)] == ["a.b", "..x", "3"]


@pytest.mark.parametrize(
    ("key", "value", "kind"),
    [
        ("query_entities", "5", "int"),
        ("answers", "7", "int"),
        ("query_entities", '"Mira Voss"', "str"),
        ("answers", '"Kestrel River"', "str"),
        ("query_entities", "null", "NoneType"),
    ],
)
def test_load_queries_rejects_a_field_that_is_not_a_list(key, value, kind):
    raw = io.StringIO(
        '{"id": "ok", "question": "Q?", "query_entities": ["A"], "answers": ["B"]}\n'
        '{"id": "bad", "question": "Q?", "%s": %s}\n' % (key, value)
    )
    with pytest.raises(ParseError) as err:
        load_queries(raw)
    assert err.value.line == 2
    assert str(err.value) == f"line 2: {key} must be a JSON list, got {kind}"

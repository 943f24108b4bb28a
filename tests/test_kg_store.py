"""Triple loading, interning, and subgraph extraction."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cases import small_store
from naive_ref import naive_extract_subgraph

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
    assert list(store.lines()) == ["A\tr\tB", "B\tr\tC"]
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_triples(["# c\r\n", line])


def test_comments_and_blank_lines_skipped():
    store = load_triples(io.StringIO("# header\n\nA\tr\tB\n  \n# trailing\n"))
    assert store.n_triples == 1


def test_round_trip_lines():
    text = "A\tr1\tB\nB\tr2\tC\n"
    store = load_triples(io.StringIO(text))
    assert "\n".join(store.lines()) + "\n" == text


def test_interning_is_deterministic():
    text = "X\tr\tY\nY\tr\tZ\nA\tq\tX\n"
    first = load_triples(io.StringIO(text))
    second = load_triples(io.StringIO(text))
    assert first.entity_labels() == second.entity_labels()
    assert first.triples == second.triples


def test_load_from_byte_stream(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_bytes("Å\tr\tB\n".encode("utf-8"))
    with open(path, "rb") as handle:
        store = load_triples(handle)
    assert list(store.lines()) == ["Å\tr\tB"]


def test_subgraph_two_hop_ball_on_chain():
    store = load_triples(io.StringIO("A\tr\tB\nB\tr\tC\nC\tr\tD\n"))
    sub = extract_subgraph(store, ["A"], hops=2)
    assert sorted(sub.lines()) == ["A\tr\tB", "B\tr\tC"]


def test_subgraph_one_hop_single_triple():
    store = load_triples(io.StringIO("A\tr\tB\n"))
    sub = extract_subgraph(store, ["A"], hops=1)
    assert list(sub.lines()) == ["A\tr\tB"]


def test_subgraph_excludes_disconnected_component():
    store = load_triples(io.StringIO("A\tr\tB\nX\tr\tY\n"))
    for hops in (1, 3, 10):
        sub = extract_subgraph(store, ["A"], hops=hops)
        assert "X\tr\tY" not in set(sub.lines())


def test_subgraph_follows_undirected_steps():
    # C is upstream of A; reachable via one undirected step
    store = load_triples(io.StringIO("C\tr\tA\nA\tr\tB\n"))
    sub = extract_subgraph(store, ["A"], hops=1)
    assert sorted(sub.lines()) == ["A\tr\tB", "C\tr\tA"]


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
    smaller = set(extract_subgraph(store, [anchor], hops).lines())
    larger = set(extract_subgraph(store, [anchor], hops + 1).lines())
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
    labels = [store.triple_labels(t) for t in store.triples]
    present = sorted(store.entity_labels())
    anchors = data.draw(st.lists(st.sampled_from(present), min_size=1, max_size=3))
    hops = data.draw(st.integers(1, 4))
    sub = extract_subgraph(store, anchors, hops)
    expected = naive_extract_subgraph(labels, anchors, hops)
    assert [sub.triple_labels(t) for t in sub.triples] == expected
    assert list(sub.lines()) == ["\t".join(t) for t in expected]
    assert sub.n_triples == len(expected)
    assert sub.store is store


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_store_matches_its_rows(data):
    store, rows = small_store(data)
    assert list(store.lines()) == ["\t".join(row) for row in rows]
    assert store.n_triples == len(store.id_array) == len(rows)
    for row in rows:
        assert store.triple_labels(store.triples[store.find(*row)]) == row
    assert store.find("E0", "r9", "E0") is None
    # the incidence CSR: per entity, the rows it heads, then the rows it tails
    offsets, other, triple = store.incidence()
    ids = store.id_array.tolist()
    for e in range(store.n_entities):
        span = slice(offsets[e], offsets[e + 1])
        expected = [(i, t) for i, (h, _, t) in enumerate(ids) if h == e]
        expected += [(i, h) for i, (h, _, t) in enumerate(ids) if t == e]
        assert list(zip(triple[span].tolist(), other[span].tolist())) == expected
    anchors = data.draw(
        st.lists(st.sampled_from(sorted(store.entity_labels())), min_size=1, max_size=3)
    )
    hops = data.draw(st.integers(1, 4))
    sub = extract_subgraph(store, anchors, hops)
    assert list(sub.lines()) == ["\t".join(t) for t in naive_extract_subgraph(rows, anchors, hops)]
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
        assert list(load_triples(lines).lines()) == ["\t".join(row) for row in expected]


def test_subgraph_shares_parent_triples():
    store = load_triples(io.StringIO("A\tr\tA\nA\tr\tB\nA\tq\tB\nC\tr\tD\n"))
    sub = extract_subgraph(store, ["A"], hops=1)
    assert sub.triples == store.triples[:3]
    assert store.n_entities == 4  # nothing re-interned into a new store


_LABELS = st.text(alphabet="aAbBé\u00c9\u03a9\u4e2d_1 ", min_size=1, max_size=3)


def _label_order(store):
    """The store's triples sorted by ``row_rank``."""
    triples = store.triples
    return [triples[i] for i in np.argsort(store.row_rank).tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_LABELS, _LABELS, _LABELS), min_size=1, max_size=25))
def test_row_rank_matches_label_tuples(rows):
    store = TripleStore(rows)
    by_labels = sorted(store.triples, key=store.triple_labels)
    assert _label_order(store) == by_labels
    assert sorted(store.row_rank.tolist()) == list(range(store.n_triples))


def test_row_rank_case_and_prefix_labels():
    store = TripleStore(
        [("AB", "r", "a"), ("A", "r", "b"), ("a", "R", "A"), ("A", "R", "AB")]
    )
    ordered = _label_order(store)
    assert [store.triple_labels(t) for t in ordered] == [
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

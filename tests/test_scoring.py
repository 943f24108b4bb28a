"""Scorer backends and top-k selection."""

from __future__ import annotations

import io
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import small_store
from pathpool.errors import ConfigError, ParseError, ScoringError
from naive_ref import (
    NaiveTableError,
    naive_cosine_scores,
    naive_extract_subgraph,
    naive_load_table,
    naive_top_k,
)
from pathpool import scoring
from pathpool.kg_store import QueryRecord, Subgraph, extract_subgraph, load_triples
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


@pytest.mark.parametrize("table", [{}, {("other", "A", "r1", "B"): 0.9}])
def test_precomputed_scorer_rejects_a_query_the_table_never_names(table):
    # an id the table never mentions is a mismatch, not an empty retrieval
    message = f"^no precomputed scores for query {QUERY.id}$"
    with pytest.raises(ScoringError, match=message):
        score_triples(QUERY, _store(), PrecomputedScorer(table), k=5)


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
    # the scorer copies its table, so the scaled query needs a scorer of its own
    scaled_table = {**table, QUERY.question: table[QUERY.question] * 37.5}
    scaled_scorer = CosineScorer(scaled_table)
    scaled = [
        row[:3]
        for row in score_triples(QUERY, store, scaled_scorer, k=3).labeled_items()
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


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_cosine_loader_rejects_non_finite_components(tmp_path, component):
    path = tmp_path / "emb.tsv"
    path.write_text(f"a\t1.0 2.0\n\nb\t1.0 {component}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        CosineScorer.load(path)
    assert err.value.line == 3
    assert "non-finite" in str(err.value)


def test_cosine_loader_accepts_finite_components_whose_sum_overflows(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1e308 1e308\n", encoding="utf-8")
    with np.errstate(over="ignore"):  # its norm overflows, as np.linalg.norm's does
        scorer = CosineScorer.load(path)
    assert scorer.matrix.tolist() == [[1e308, 1e308]]


@pytest.mark.parametrize("component", [np.nan, np.inf, -np.inf])
def test_cosine_table_rejects_non_finite_components(component):
    table = {"fine": np.ones(2), "bad text": np.array([1.0, component])}
    with pytest.raises(ConfigError) as err:
        CosineScorer(table)
    assert "'bad text'" in str(err.value)


def test_cosine_table_rejects_mixed_dimensions():
    with pytest.raises(ConfigError) as err:
        CosineScorer({"a": np.ones(2), "b": np.ones(3)})
    assert "'b'" in str(err.value)


def test_cosine_loader_keeps_the_last_vector_of_a_repeated_text(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text(
        f"{QUERY.question}\t1 0\nA r1 B\t0 1\nA r1 B\t1 0\n", encoding="utf-8"
    )
    store = load_triples(io.StringIO("A\tr1\tB\n"))
    scorer = CosineScorer.load(path)
    assert scorer.matrix.shape == (2, 2)
    kept, scores = scorer.score_candidates(QUERY, store)
    assert kept == slice(None)
    assert scores.tolist() == [1.0]


# -- cosine table loader against the line-loop oracle ------------------------


def _load_outcomes(path) -> tuple[tuple, tuple]:
    """``CosineScorer.load``'s and ``naive_load_table``'s outcome for one file.

    A table gives its matrix shape and bytes, its rows and its norm bytes;
    a rejected table gives the error's line and message.
    """
    try:
        scorer = CosineScorer.load(path)
        got = (scorer.matrix.shape, scorer.matrix.tobytes(), scorer.rows, scorer.norms.tobytes())
    except ParseError as err:
        got = (err.line, str(err))
    try:
        matrix, rows, norms = naive_load_table(path)
        want = (matrix.shape, matrix.tobytes(), rows, norms.tobytes())
    except NaiveTableError as err:
        want = (err.line, str(err))
    return got, want


# components: plain ones most often, then ones float() and np.loadtxt both
# accept, then ones float() alone accepts
_PLAIN_TOKENS = ["0.25", "-1.5", "3", "0.000001", "-2.25e-3"]
_TABLE_TOKENS = st.sampled_from(
    _PLAIN_TOKENS * 4
    + ["0", "-0", "+1", ".5", "1.", "1e-400", "4.9e-324", "1e308"]
    + ["1_0", "\u0661\u0662", "1_0.5"]
)
_BAD_TOKENS = st.sampled_from(
    ["#", "nan", "-inf", "Infinity", "1e999", "x", "1,5", "0x10", "1e", "\u22121"]
)
# labels that repeat now and then
_TABLE_LABELS = st.sampled_from(
    ["a", "b", "c d", "\u00e9", "\u4e2d", "#x", " e", "f "] + [f"t{i}" for i in range(40)]
)
_SEPARATORS = st.sampled_from([" "] * 8 + ["  ", "\t", " \t", "\u2003", "\xa0", "\x0c"])


@st.composite
def _tables(draw) -> str:
    """Table text: vector lines over a few labels, blank and whitespace-only
    lines, CRLF or LF endings, and at most one faulty line anywhere."""

    def vector(dim, bad=False):
        tokens = draw(st.lists(_TABLE_TOKENS, min_size=dim, max_size=dim))
        if bad:
            tokens[draw(st.integers(0, dim - 1))] = draw(_BAD_TOKENS)
        text = "".join(token + draw(_SEPARATORS) for token in tokens)
        return draw(st.sampled_from(["", " ", "\t"])) + text

    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["vector"] * 14 + ["blank", "space"]))
        if kind == "vector":
            lines.append(f"{draw(_TABLE_LABELS)}\t{vector(dim)}")
        else:
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", "\t", " \t "])))
    faults = {
        "token": lambda: f"z\t{vector(dim, bad=True)}",
        "no tab": lambda: f"z {vector(dim)}",
        "no label": lambda: f"\t{vector(dim)}",
        "no components": lambda: draw(st.sampled_from(["z\t", "z\t  ", "z\t\u2003"])),
        "dimension": lambda: f"z\t{vector(dim + draw(st.sampled_from([-1, 1])) or 2)}",
    }
    fault = draw(st.sampled_from([None, *faults]))
    if fault is not None:
        lines.insert(draw(st.integers(0, len(lines))), faults[fault]())
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + ending for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(text=_tables(), block=st.integers(1, 8))
def test_cosine_loader_equals_the_line_loop_oracle(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("table") / "emb.tsv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(scoring, "_LOAD_BLOCK", block), np.errstate(over="ignore"):
        got, want = _load_outcomes(path)
    assert got == want


# (table text, the line and message it fails with, or None), read in blocks of 2
_LOADER_CASES = {
    "bad line in the second block": (
        "a\t1 2\nb\t3 4\nc\t5 x\nd\t7 8\n", "line 3: non-numeric embedding component"
    ),
    "label repeated within a block": ("a\t1 2\na\t3 4\nb\t5 6\n", None),
    "label repeated across blocks": ("a\t1 2\nb\t3 4\na\t5 6\nc\t7 8\nb\t9 0\n", None),
    "crlf endings": ("a\t1 2\r\nb\t3 4\r\nc\t5 6\r\n", None),
    "blank and whitespace-only lines": ("a\t1 2\n\n \t \nb\t3 4\n\n", None),
    "tabs and unicode spaces": ("a\t1\t2\nb\t3\u20034\nc\t\xa05 6\u3000\n", None),
    "empty component string": ("a\t1 2\nb\t3 4\nc\t\n", "line 3: empty embedding vector"),
    "blank component string": ("a\t1 2\nb\t3 4\nc\t \t\n", "line 3: empty embedding vector"),
    "no label": ("a\t1 2\nb\t3 4\n\t5 6\n", "line 3: expected 'label<TAB>components'"),
    "no tab": ("a\t1 2\nb\t3 4\nc 5 6\n", "line 3: expected 'label<TAB>components'"),
    "dimension change at a block start": (
        "a\t1 2\nb\t3 4\nc\t5 6 7\n", "line 3: dimension mismatch: 3 != 2"
    ),
    **{
        f"component {token}": ("a\t1 2\nb\t3 4\nc\t5 " + token + "\n", failure)
        for token, failure in [
            ("#", "line 3: non-numeric embedding component"),
            ("6 #", "line 3: non-numeric embedding component"),
            ("1_0", None),
            ("\u0661\u0662", None),
            ("+1", None),
            (".5", None),
            ("1e-400", None),
            ("4.9e-324", None),
            ("1e999", "line 3: non-finite embedding component"),
            ("nan", "line 3: non-finite embedding component"),
            ("NaN", "line 3: non-finite embedding component"),
            ("inf", "line 3: non-finite embedding component"),
            ("-Infinity", "line 3: non-finite embedding component"),
        ]
    },
}


@pytest.mark.filterwarnings("error")  # np.loadtxt warns on a block of blank lines
@pytest.mark.parametrize("case", _LOADER_CASES)
def test_cosine_loader_equals_the_oracle_on_edge_cases(tmp_path, monkeypatch, case):
    text, failure = _LOADER_CASES[case]
    path = tmp_path / "emb.tsv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(scoring, "_LOAD_BLOCK", 2)
    got, want = _load_outcomes(path)
    assert got == want
    if failure is None:
        assert len(got) == 4
    else:
        assert got[1] == failure


def test_cosine_loader_reads_only_a_failing_block_line_by_line(tmp_path, monkeypatch):
    calls = []
    load_lines = scoring._load_lines

    def spy(lines, first, *args):
        calls.append((first, len(lines)))
        return load_lines(lines, first, *args)

    monkeypatch.setattr(scoring, "_LOAD_BLOCK", 2)
    monkeypatch.setattr(scoring, "_load_lines", spy)
    path = tmp_path / "emb.tsv"
    clean = "a\t1 2\nb\t3 4\nc\t5 6\nd\t7 8\ne\t9 0\n"
    path.write_text(clean, encoding="utf-8")
    assert CosineScorer.load(path).matrix.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8], [9, 0]]
    assert calls == []
    path.write_text(clean.replace("d\t7", "d\t1_0"), encoding="utf-8")
    got, want = _load_outcomes(path)
    assert got == want
    assert calls == [(3, 2)]


def test_cosine_loader_peak_memory_is_one_block_past_its_result(tmp_path):
    """A 20,000 x 64 table loads within the matrix, the rows dict and 4 MiB.

    The text alone is about 12 MB, so a parse of the whole file at once
    would exceed the bound; the ``peak_rss_mb`` of a cosine run rests on it.
    """
    rng = np.random.default_rng(0)
    vectors = [" ".join("%.6f" % v for v in row) for row in rng.standard_normal((64, 64))]
    path = tmp_path / "emb.tsv"
    path.write_text(
        "".join(f"text {i}\t{vectors[i % 64]}\n" for i in range(20_000)), encoding="utf-8"
    )
    tracemalloc.start()
    try:
        scorer = CosineScorer.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scorer.matrix.shape == (20_000, 64)
    rows = sys.getsizeof(scorer.rows) + sum(map(sys.getsizeof, scorer.rows))
    assert peak < scorer.matrix.nbytes + rows + 4 * 2**20


# -- cosine scorer against the per-candidate oracle ---------------------------

# relation labels with the dots and underscores the sentence rewrites
_RELATIONS = st.sampled_from(["r", "a.b", "x_y.z", "people.person_place"])
_ENTITIES = st.sampled_from(["A", "B", "C d", "é", "中"])


def _candidate_case(data):
    """A store, its candidates (whole store or a view) and their label rows."""
    rows = data.draw(
        st.lists(st.tuples(_ENTITIES, _RELATIONS, _ENTITIES), min_size=1, max_size=25)
    )
    store = load_triples(io.StringIO("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows)))
    if data.draw(st.booleans()):
        candidates = store
    else:
        anchor = data.draw(st.sampled_from([h for h, _, _ in rows]))
        candidates = extract_subgraph(store, [anchor], data.draw(st.integers(1, 2)))
    labels = [store.triple_labels(t) for t in candidates.triples]
    return store, candidates, labels


def _vector(rng, kind, query, dim):
    if kind == "zero":
        return np.zeros(dim)
    if kind in ("parallel", "antiparallel"):
        sign = 1.0 if kind == "parallel" else -1.0
        return query * (sign * rng.uniform(0.01, 100.0))
    return rng.standard_normal(dim) * 10.0 ** rng.integers(-40, 41)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cosine_scores_equal_the_per_candidate_oracle(data):
    store, candidates, labels = _candidate_case(data)
    dim = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["random", "zero", "parallel", "antiparallel"])
    query = rng.standard_normal(dim) if data.draw(st.booleans()) else np.zeros(dim)
    table = {QUERY.question: query}
    for triple in store.triples:
        table[triple_sentence(*store.triple_labels(triple))] = _vector(
            rng, data.draw(kinds), query, dim
        )
    kept, scores = CosineScorer(table).score_candidates(QUERY, candidates)
    assert kept == slice(None)
    expected = naive_cosine_scores(table, QUERY.question, labels)
    assert scores.tolist() == expected
    # == treats 0.0 and -0.0 alike; the hex form tells every bit
    assert [score.hex() for score in scores.tolist()] == [score.hex() for score in expected]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cosine_missing_sentence_is_named_as_the_oracle_names_it(data):
    store, candidates, labels = _candidate_case(data)
    sentences = sorted({triple_sentence(*store.triple_labels(t)) for t in store.triples})
    kept = data.draw(st.lists(st.sampled_from(sentences), unique=True))
    table = {text: np.ones(3) for text in [QUERY.question, *kept]}
    scorer = CosineScorer(table)
    try:
        expected = naive_cosine_scores(table, QUERY.question, labels)
    except KeyError as missing:
        with pytest.raises(ScoringError) as err:
            scorer.score_candidates(QUERY, candidates)
        assert str(err.value) == f"no embedding for {missing.args[0]!r}"
    else:
        assert scorer.score_candidates(QUERY, candidates)[1].tolist() == expected


@pytest.mark.parametrize(
    "vector",
    [[0.33, -1.303], [0.905, 0.446, -0.537], [0.547, -0.736, -0.163, -0.482]],
)
@pytest.mark.parametrize("factor", [3.0, -3.0])
def test_cosine_clips_a_quotient_rounded_past_one(vector, factor):
    store = _store()
    query = np.array(vector)
    parallel = query * factor
    raw = np.dot(query, parallel) / (np.linalg.norm(query) * np.linalg.norm(parallel))
    assert abs(raw) > 1.0  # the case the clip exists for
    sentence = triple_sentence(*store.triple_labels(store.triples[0]))
    scorer = CosineScorer({QUERY.question: query, sentence: parallel})
    _, (score,) = scorer.score_candidates(QUERY, Subgraph(store, [0]))
    assert score == math.copysign(1.0, factor)
    assert [score] == naive_cosine_scores(
        {QUERY.question: query, sentence: parallel},
        QUERY.question,
        [store.triple_labels(store.triples[0])],
    )


def test_cosine_zero_vectors_score_zero():
    store = _store()
    labels = [store.triple_labels(t) for t in store.triples]
    sentences = [triple_sentence(*row) for row in labels]
    table = {QUERY.question: np.array([1.0, 2.0]), sentences[0]: np.zeros(2)}
    table.update({text: np.array([2.0, 4.5]) for text in sentences[1:]})
    scores = CosineScorer(table).score_candidates(QUERY, store)[1].tolist()
    assert scores[0] == 0.0 and scores[1] > 0.99
    assert scores == naive_cosine_scores(table, QUERY.question, labels)
    table[QUERY.question] = np.zeros(2)
    scores = CosineScorer(table).score_candidates(QUERY, store)[1].tolist()
    assert scores == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "query, big, named",
    [
        # the dot product and the norm product both overflow: inf / inf
        ([1e200, 1e200], 0, ("A", "r1", "B")),
        # only the norm product overflows
        ([1.0, 2.0], 1, ("B", "r2", "C")),
    ],
)
def test_cosine_overflow_is_an_error_naming_the_triple(query, big, named):
    # such a quotient was NaN, which the clip turned into a silent -1.0
    store = _store()
    sentences = [triple_sentence(*store.triple_labels(t)) for t in store.triples]
    table = {QUERY.question: np.array(query), **{text: np.ones(2) for text in sentences}}
    table[sentences[big]] = np.array([1e200, 1e200])
    scorer = CosineScorer(table)
    with pytest.raises(ScoringError, match=re.escape(str(named))):
        scorer.score_candidates(QUERY, store)
    with pytest.raises(ScoringError, match=re.escape(str(named))):
        score_triples(QUERY, store, scorer, k=3)


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
    with pytest.raises(ConfigError, match="duplicate triple"):
        TripleSequence.from_scores(store, [0, 0], [0.1, 0.2], "t")
    with pytest.raises(ConfigError, match="non-finite score"):
        TripleSequence.from_scores(store, [0], [float("nan")], "t")


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extract_and_score_triples_equal_the_naive_oracles(data):
    store, rows = small_store(data)
    if data.draw(st.booleans()):
        candidates, candidate_rows = store, rows
    else:
        anchors = data.draw(
            st.lists(st.sampled_from(sorted(store.entity_labels())), min_size=1, max_size=3)
        )
        hops = data.draw(st.integers(1, 4))
        candidates = extract_subgraph(store, anchors, hops)
        candidate_rows = naive_extract_subgraph(rows, anchors, hops)
    # few distinct scores, so ties fall to the label order; None leaves a row unscored
    values = data.draw(
        st.lists(
            st.sampled_from([None, -0.5, 0.0, 0.5, 1.0]), min_size=len(rows), max_size=len(rows)
        )
    )
    table = {(QUERY.id, *row): v for row, v in zip(rows, values) if v is not None}
    # a row outside the store names the query, so an all-None draw keeps nothing
    table[(QUERY.id, "absent", "r", "absent")] = 0.0
    scored = [
        (*row, table[(QUERY.id, *row)]) for row in candidate_rows if (QUERY.id, *row) in table
    ]
    k = data.draw(st.integers(1, 30))

    uniform = score_triples(QUERY, candidates, UniformScorer(), k)
    assert uniform.labeled_items() == naive_top_k([(*row, 1.0) for row in candidate_rows], k)
    precomputed = score_triples(QUERY, candidates, PrecomputedScorer(table), k)
    assert precomputed.labeled_items() == naive_top_k(scored, k)
    assert precomputed.store is store
    # the precomputed scorer keeps exactly the scored candidates, in order
    kept, scores = PrecomputedScorer(table).score_candidates(QUERY, candidates)
    assert [candidate_rows[i] for i in kept.tolist()] == [row[:3] for row in scored]
    assert scores.tolist() == [row[3] for row in scored]

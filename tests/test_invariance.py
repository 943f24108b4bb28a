"""End-to-end invariance: a run depends on the triple set, not on its file.

Every tie-break in the pipeline reads ``row_rank``, the label order of a
store row, directly or through the retrieval order it sets. So what
``run_pipeline`` writes (``results.jsonl`` with each prompt's sha256,
``metrics.json`` and every prompt file) must not change when the KG file
is shuffled, repeats lines or holds triples no query reaches, and no
query's row may change when the query file is reordered, nor any file
between the compiled and the Python backends.

Each property is checked for every search algorithm and selection mode,
under the ``uniform`` scorer, where every order decision in retrieval,
smoothing and selection is a tie-break, and under precomputed scores of
four values, where smoothing has scores to fold and still meets ties.
Random walks are few, so that which walks are drawn shows in the output.
"""

from __future__ import annotations

import json
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import read_tree
from pathpool import cli, pooling, selection

CONFIGS = [
    (scorer, algorithm, mode)
    for scorer in ("uniform", "precomputed")
    for algorithm in ("dijkstra", "bfs", "random_walk")
    for mode in ("rerank", "reselect")
]


def _kg_lines(seed: int = 0, n_entities: int = 300, n_triples: int = 1500) -> list[str]:
    """A small KG's lines: hubs, parallel edges and self-loops, no repeats.

    Labels such as ``E1``, ``E10`` and ``E2`` make label order differ from
    number order.
    """
    rnd = random.Random(seed)
    rows: dict[tuple[str, str, str], None] = {}
    while len(rows) < n_triples:
        # a few hubs, so that neighbourhoods overlap and the cuts bite
        head = rnd.choice((rnd.randrange(8), rnd.randrange(n_entities)))
        tail = rnd.randrange(n_entities) if rnd.random() > 0.05 else head
        rows[f"E{head}", f"r{rnd.randrange(4)}", f"E{tail}"] = None
    return [f"{h}\t{r}\t{t}\n" for h, r, t in rows]


def _query_lines(kg_lines: list[str], n_queries: int = 12) -> list[str]:
    """Queries of one or two of the KG's entities, the last with one it lacks."""
    rnd = random.Random(1)
    entities = sorted({line.split("\t")[0] for line in kg_lines})
    queries = [rnd.sample(entities, rnd.choice((1, 2))) for _ in range(n_queries - 1)]
    queries.append([entities[0], "NoSuchEntity"])  # an error row, which must hold too
    return [
        json.dumps(
            {"id": f"q{i}", "question": f"Q{i}?", "query_entities": e, "answers": ["x"]}
        )
        + "\n"
        for i, e in enumerate(queries)
    ]


def _score_text(kg_lines: list[str], query_lines: list[str]) -> str:
    """Precomputed scores over each query's two-hop neighbourhood, of four values.

    A triple that touches a query entity scores 0.75 or 1, any other 0.25
    or 0.5, so the query entities are in what is retrieved and smoothing
    has sources to search from. Each value is drawn by a hash of the query
    id and the triple, so no score depends on the order of either file.
    """
    triples = [line.rstrip("\n").split("\t") for line in kg_lines]
    lines = []
    for query in query_lines:
        record = json.loads(query)
        qid, anchors = record["id"], set(record["query_entities"])
        near = anchors.union(*({h, t} for h, _, t in triples if {h, t} & anchors))
        for h, r, t in triples:
            if {h, t} & near:
                draw = zlib.crc32(f"{qid}\t{h}\t{r}\t{t}".encode()) % 2
                score = 0.25 * (1 + draw + 2 * bool({h, t} & anchors))
                lines.append(f"{qid}\t{h}\t{r}\t{t}\t{score}\n")
    return "".join(lines)


KG = _kg_lines()
QUERIES = _query_lines(KG)
SCORES = _score_text(KG, QUERIES)


def _run(directory, kg_lines, config, query_lines=QUERIES, backend="py") -> dict:
    """The files one dry run writes, keyed by their path under its output."""
    directory.mkdir(parents=True)
    inputs = {"kg.tsv": "".join(kg_lines), "queries.jsonl": "".join(query_lines)}
    scorer, algorithm, mode = config
    if scorer == "precomputed":
        inputs["scores.tsv"] = SCORES
        scorer = f"precomputed:{directory / 'scores.tsv'}"
    for name, text in inputs.items():
        (directory / name).write_text(text, encoding="utf-8")
    cli.run_pipeline(
        cli.PipelineConfig(
            kg_path=str(directory / "kg.tsv"),
            queries_path=str(directory / "queries.jsonl"),
            scorer_spec=scorer,
            hops=2,
            pooling_cfg=pooling.PoolingConfig(search_algorithm=algorithm, walk_count=8),
            selection_cfg=selection.SelectionConfig(mode=mode, coarse_k=40, fine_k=15),
            generation_cfg=None,
            out_dir=str(directory / "out"),
            no_llm=True,
            backend=backend,
        )
    )
    return read_tree(directory / "out")


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> dict:
    """Each config's run over the KG and queries as written."""
    root = tmp_path_factory.mktemp("reference")
    return {config: _run(root / "-".join(config), KG, config) for config in CONFIGS}


def _assert_runs_match(root, kg_lines, reference, **run_args):
    for config in CONFIGS:
        run = _run(root / "-".join(config), kg_lines, config, **run_args)
        assert run == reference[config], config


def test_the_reference_runs_cut_and_fail_where_meant(reference):
    # guards the properties below against a KG too small to show anything
    statuses = ["dry_run"] * (len(QUERIES) - 1) + ["error"]
    for config, files in reference.items():
        rows = [json.loads(line) for line in files["results.jsonl"].splitlines()]
        assert [row["status"] for row in rows] == statuses, config
        kept = 15 if config[2] == "reselect" else 40
        for i in range(len(QUERIES) - 1):
            # each triple of the final user message opens a line: "\n(E..."
            assert files[f"prompts/q{i}.json"].count("\\n(E") == kept, (config, i)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_shuffled_kg_gives_the_same_run(tmp_path_factory, reference, seed):
    lines = list(KG)
    random.Random(seed).shuffle(lines)
    _assert_runs_match(tmp_path_factory.mktemp("shuffled"), lines, reference)


def test_repeated_lines_give_the_same_run(tmp_path, reference):
    # copies put ahead of their first line change the file's first-seen order
    rnd = random.Random(1)
    lines = list(KG)
    for line in rnd.sample(KG, len(KG) // 3):
        lines.insert(rnd.randrange(len(lines) + 1), line)
    _assert_runs_match(tmp_path, lines, reference)


@pytest.mark.parametrize(
    ("where", "size"), [("before", 300), ("after", 300), ("before", 2**16 + 10)]
)
def test_an_unreached_component_gives_the_same_run(tmp_path, reference, where, size):
    # a chain whose labels (E0x, E1x, ...) sort among the KG's own; the
    # largest puts the KG's entities past 2**16, which widens the id columns
    chain = [f"E{i}x\tr{i % 4}\tE{i + 1}x\n" for i in range(size)]
    lines = chain + KG if where == "before" else KG + chain
    _assert_runs_match(tmp_path, lines, reference)


def test_a_reordered_query_file_keeps_each_row(tmp_path, reference):
    order = list(range(len(QUERIES)))
    random.Random(2).shuffle(order)
    query_lines = [QUERIES[i] for i in order]
    for config in CONFIGS:
        files = _run(tmp_path / "-".join(config), KG, config, query_lines)
        rows = files.pop("results.jsonl").splitlines()
        expected = reference[config]["results.jsonl"].splitlines()
        assert rows == [expected[i] for i in order], config
        assert files == {
            name: text
            for name, text in reference[config].items()
            if name != "results.jsonl"
        }, config


def test_the_compiled_core_gives_the_same_run(compiled, tmp_path, reference):
    _assert_runs_match(tmp_path, KG, reference, backend="c")

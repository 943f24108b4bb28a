"""The input generator is a pure function of the seed."""

from dataclasses import replace

import inputs
from workloads import WORKLOADS


def test_kg_is_deterministic_and_seed_dependent():
    a = inputs.community_kg(3, 260, 2000)
    assert a == inputs.community_kg(3, 260, 2000)
    assert a != inputs.community_kg(4, 260, 2000)
    assert len(a) == len(set(a)) == 2000


def test_query_pool_has_one_absent_entity_per_block():
    triples = inputs.community_kg(0, 260, 2000)
    entities = inputs.kg_entities(triples)
    pool = inputs.query_pool(7, entities, 4 * inputs.ABSENT_BLOCK)
    assert pool == inputs.query_pool(7, entities, 4 * inputs.ABSENT_BLOCK)
    known = set(entities)
    for start in range(0, len(pool), inputs.ABSENT_BLOCK):
        block = pool[start : start + inputs.ABSENT_BLOCK]
        absent = [q for q in block if q["query_entities"][0] not in known]
        assert len(absent) == 1
    assert len({q["id"] for q in pool}) == len(pool)


def test_written_files_repeat_byte_for_byte(tmp_path):
    small = replace(
        WORKLOADS["kg12k-hop1-cosine"], n_entities=130, n_triples=900, batch=50, pool_batches=2
    )
    first = inputs.write_inputs(small, 5, tmp_path / "a")
    second = inputs.write_inputs(small, 5, tmp_path / "b")
    for name in ("kg.tsv", "batch_00.jsonl", "batch_01.jsonl", "diag.jsonl", "embeddings.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = inputs.write_inputs(small, 6, tmp_path / "c")
    assert other.kg_path.read_bytes() != first.kg_path.read_bytes()
    # the table covers every text the cosine scorer will look up
    labels = {
        line.split("\t")[0] for line in first.table_path.read_text().splitlines()
    }
    assert {inputs.triple_sentence(*t) for t in second.triples} <= labels
    assert {q["question"] for q in second.queries} <= labels

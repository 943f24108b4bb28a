"""Seeded input generation: KG TSV, query JSONL and a cosine embedding table.

This module reproduces the community model of the package's smoothing
micro-bench but does not import the package, so a change to the package
cannot change a workload's inputs. Everything is derived from the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RELATIONS = 24
COMMUNITY_SIZE = 26
CROSS_FRACTION = 0.06
EMBEDDING_DIM = 64
# Exactly one query in every block of this many names an absent entity, so
# the error share is the same in every batch of a multiple of this size.
ABSENT_BLOCK = 50
# Queries of the traced run's untimed pass that computes the layer counts
# (kernels, subgraph sizes); the first ones of batch 0, so they repeat exactly.
DIAG_QUERIES = 25


def community_kg(seed: int, n_entities: int, n_triples: int) -> list[tuple[str, str, str]]:
    """Distinct triples inside dense communities joined by sparse cross links."""
    rnd = random.Random(f"kg:{seed}")
    n_communities = n_entities // COMMUNITY_SIZE
    members = [
        [f"E{c:03d}_{i:02d}" for i in range(COMMUNITY_SIZE)]
        for c in range(n_communities)
    ]
    relations = [f"R{r:03d}" for r in range(RELATIONS)]
    triples: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()

    def add(triple: tuple[str, str, str]) -> None:
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)

    intra_target = n_triples - int(n_triples * CROSS_FRACTION)
    while len(triples) < intra_target:
        head, tail = rnd.sample(members[rnd.randrange(n_communities)], 2)
        add((head, rnd.choice(relations), tail))
    while len(triples) < n_triples:
        c1, c2 = rnd.sample(range(n_communities), 2)
        add((rnd.choice(members[c1]), rnd.choice(relations), rnd.choice(members[c2])))
    return triples


def kg_entities(triples: list[tuple[str, str, str]]) -> list[str]:
    """Entity labels in first-seen order."""
    return list(dict.fromkeys(e for h, _, t in triples for e in (h, t)))


def query_pool(seed: int, entities: list[str], count: int) -> list[dict]:
    """``count`` one-entity queries; one per ABSENT_BLOCK names no KG entity.

    The others take the KG's entities in shuffled passes.
    """
    if count % ABSENT_BLOCK:
        raise ValueError(f"query count {count} is not a multiple of {ABSENT_BLOCK}")
    rnd = random.Random(f"queries:{seed}")
    order: list[str] = []
    queries = []
    for block in range(count // ABSENT_BLOCK):
        absent_at = rnd.randrange(ABSENT_BLOCK)
        for offset in range(ABSENT_BLOCK):
            index = block * ABSENT_BLOCK + offset
            qid = f"q{index:06d}"
            if offset == absent_at:
                entity = f"absent_{index:06d}"
            else:
                if not order:
                    # every entity once per shuffled pass, so a run's queries
                    # spread over the whole KG rather than clump by chance
                    order = rnd.sample(entities, len(entities))
                entity = order.pop()
            queries.append(
                {
                    "id": qid,
                    "question": f"Which entities are linked to {entity}? ({qid})",
                    "query_entities": [entity],
                    "answers": [],
                }
            )
    return queries


def triple_sentence(head: str, relation: str, tail: str) -> str:
    """The text the cosine scorer looks up for a triple (relation dots/underscores to spaces)."""
    return f"{head} {relation.replace('.', ' ').replace('_', ' ')} {tail}"


def embedding_lines(seed: int, texts: list[str]) -> list[str]:
    """``label<TAB>components`` lines of seeded EMBEDDING_DIM-dim vectors."""
    rng = np.random.default_rng([seed, 64])
    vectors = rng.standard_normal((len(texts), EMBEDDING_DIM))
    return [
        f"{text}\t{' '.join(f'{x:.6f}' for x in row)}"
        for text, row in zip(texts, vectors.tolist())
    ]


@dataclass
class Inputs:
    """Paths of the generated files plus what the output checks need."""

    kg_path: Path
    batch_paths: list[Path]
    empty_path: Path
    diag_path: Path
    table_path: Path | None
    triples: list[tuple[str, str, str]]
    queries: list[dict]


def write_inputs(workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the workload's inputs from ``seed`` into ``work_dir``.

    The query pool is split into batch files of ``workload.batch`` queries;
    each measured round runs one batch file. ``empty.jsonl`` times set-up and
    ``diag.jsonl`` feeds the traced run's untimed counting pass.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    triples = community_kg(seed, workload.n_entities, workload.n_triples)
    queries = query_pool(
        seed, kg_entities(triples), workload.batch * workload.pool_batches
    )
    kg_path = work_dir / "kg.tsv"
    kg_path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples), encoding="utf-8")
    batch_paths = []
    for b in range(workload.pool_batches):
        path = work_dir / f"batch_{b:02d}.jsonl"
        path.write_text(
            _jsonl(queries[b * workload.batch : (b + 1) * workload.batch]),
            encoding="utf-8",
        )
        batch_paths.append(path)
    empty_path = work_dir / "empty.jsonl"
    empty_path.write_text("", encoding="utf-8")
    diag_path = work_dir / "diag.jsonl"
    diag_path.write_text(_jsonl(queries[:DIAG_QUERIES]), encoding="utf-8")
    table_path = None
    if workload.scorer == "cosine":
        texts = [triple_sentence(*t) for t in triples] + [q["question"] for q in queries]
        table_path = work_dir / "embeddings.tsv"
        table_path.write_text("\n".join(embedding_lines(seed, texts)) + "\n", encoding="utf-8")
    return Inputs(kg_path, batch_paths, empty_path, diag_path, table_path, triples, queries)


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)

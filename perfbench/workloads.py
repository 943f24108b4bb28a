"""The benchmark's workloads: KG size, pipeline settings and batch sizing.

Each workload loads a different layer of ``run --no-llm``; PERFBENCH.md
gives the reasons and the metrics each one should move.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_entities: int
    n_triples: int
    scorer: str  # "uniform" or "cosine" (over the generated table)
    hops: int
    algo: str
    mode: str
    order: str
    workers: int
    batch: int  # queries per measured round (one run_pipeline call)
    pool_batches: int  # distinct batches generated; rounds cycle over them
    coarse_k: int = 500
    fine_k: int = 100
    max_path_len: int = 4


WORKLOADS = {
    w.name: w
    for w in (
        # Extraction walks the whole 120k KG for every query: kg_store bound.
        Workload(
            "kg120k-hop2", 4800, 120_000, "uniform", 2, "dijkstra",
            "reselect", "recency", workers=1, batch=100, pool_batches=12,
        ),
        # Exhaustive BFS path enumeration over the whole 2-hop neighbourhood
        # (~840 triples, paths of up to 3 triples): pooling bound.
        Workload(
            "kg12k-bfs", 480, 12_000, "uniform", 2, "bfs",
            "reselect", "recency", workers=1, batch=50, pool_batches=16,
            coarse_k=1000, max_path_len=3,
        ),
        # Many cheap queries: per-query fixed costs, scorer setup, 2 threads.
        Workload(
            "kg12k-hop1-cosine", 480, 12_000, "cosine", 1, "dijkstra",
            "rerank", "lost_in_middle", workers=2, batch=250, pool_batches=32,
        ),
    )
}

"""Per-query latency benchmark for the smoothing stage.

Workloads are subgraphs sampled around random entities of a (possibly
synthetic) KG, so absolute numbers depend on hardware and graph shape; the
report carries an environment note and is meant for order-of-magnitude and
relative comparisons (algorithm vs algorithm, compiled vs pure Python).
"""

from __future__ import annotations

import math
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import pooling
from .errors import ConfigError
from .kg_store import TripleStore
from .scoring import TripleSequence

WARMUP_RUNS = 3
MIN_QUERIES_PER_CELL = 30


@dataclass(frozen=True)
class CellStats:
    algorithm: str
    backend: str
    triple_count: int
    queries: int
    mean_ms: float
    median_ms: float
    p95_ms: float


@dataclass(frozen=True)
class TimingReport:
    cells: list[CellStats]
    environment: str

    def cell(self, algorithm: str, triple_count: int, backend: str | None = None) -> CellStats:
        for entry in self.cells:
            if (
                entry.algorithm == algorithm
                and entry.triple_count == triple_count
                and (backend is None or entry.backend == backend)
            ):
                return entry
        raise KeyError(f"no cell for ({algorithm}, {triple_count}, {backend})")

    def render_text(self) -> str:
        header = f"{'algorithm':<12} {'backend':<8} {'triples':>8} {'queries':>8} {'mean ms':>10} {'median ms':>10} {'p95 ms':>10}"
        lines = [header, "-" * len(header)]
        for c in self.cells:
            lines.append(
                f"{c.algorithm:<12} {c.backend:<8} {c.triple_count:>8} {c.queries:>8} "
                f"{c.mean_ms:>10.3f} {c.median_ms:>10.3f} {c.p95_ms:>10.3f}"
            )
        lines.append(f"# {self.environment}")
        return "\n".join(lines)

    def csv_lines(self) -> list[str]:
        lines = ["algorithm,backend,triple_count,queries,mean_ms,median_ms,p95_ms"]
        for c in self.cells:
            lines.append(
                f"{c.algorithm},{c.backend},{c.triple_count},{c.queries},"
                f"{c.mean_ms:.6f},{c.median_ms:.6f},{c.p95_ms:.6f}"
            )
        return lines


def _environment_note() -> str:
    return (
        f"{platform.platform()}; Python {sys.version.split()[0]}; "
        f"CPU {platform.processor() or 'unknown'}; "
        f"backends available: {','.join(pooling.available_backends())}"
    )


def synthesize_store(
    seed: int,
    n_entities: int = 480,
    n_relations: int = 24,
    n_triples: int = 12000,
    community_size: int = 26,
    cross_fraction: float = 0.06,
) -> TripleStore:
    """Random KG made of dense communities joined by sparse cross links.

    Entities cluster into communities with many (often parallel-relation)
    edges inside each one, so a retrieval-sized neighborhood is a tight
    multigraph with real path branching rather than a shallow star.
    """
    rnd = random.Random(seed)
    n_communities = max(1, n_entities // community_size)
    capacity = n_communities * community_size * (community_size - 1) * n_relations
    if n_triples > capacity // 2:
        raise ConfigError(
            f"cannot place {n_triples} distinct triples in {n_communities} "
            f"communities of {community_size} entities over {n_relations} relations"
        )
    members = [
        [f"E{c:03d}_{i:02d}" for i in range(community_size)]
        for c in range(n_communities)
    ]
    store = TripleStore()
    cross_target = int(n_triples * cross_fraction) if n_communities > 1 else 0
    intra_target = n_triples - cross_target
    budget = 200 * n_triples  # duplicate draws count against this
    while store.n_triples < intra_target:
        budget -= 1
        if budget < 0:
            raise ConfigError("synthetic KG generation stalled on duplicates")
        community = members[rnd.randrange(n_communities)]
        head, tail = rnd.sample(community, 2)
        store.add(head, f"R{rnd.randrange(n_relations):03d}", tail)
    while store.n_triples < n_triples:
        budget -= 1
        if budget < 0:
            raise ConfigError("synthetic KG generation stalled on duplicates")
        c1 = rnd.randrange(n_communities)
        c2 = rnd.randrange(n_communities)
        if c1 == c2:
            continue
        head = rnd.choice(members[c1])
        tail = rnd.choice(members[c2])
        store.add(head, f"R{rnd.randrange(n_relations):03d}", tail)
    return store


def sample_workloads(
    store: TripleStore, count: int, size: int, seed: int
) -> list[tuple[TripleSequence, list[str]]]:
    """Deterministic per-query workloads: a ``size``-triple neighborhood plus anchors.

    Each workload expands an undirected ball around a random start entity,
    hopping to fresh random entities if a component runs out, and assigns
    random positive scores sorted descending (as a retriever would emit).
    """
    if store.n_triples < size:
        raise ConfigError(
            f"store has {store.n_triples} triples, workload needs {size}"
        )
    rnd = random.Random(seed)
    offsets, other, triple = store.incidence()
    workloads: list[tuple[TripleSequence, list[str]]] = []
    for _ in range(count):
        reseed_order = list(range(store.n_entities))
        rnd.shuffle(reseed_order)
        start = reseed_order[0]
        reseed_pos = 1
        picked: list[int] = []
        picked_set: set[int] = set()
        visited = {start}
        frontier = [start]
        while len(picked) < size:
            if not frontier:
                while (
                    reseed_pos < len(reseed_order)
                    and reseed_order[reseed_pos] in visited
                ):
                    reseed_pos += 1
                if reseed_pos >= len(reseed_order):
                    raise ConfigError("store exhausted before workload size reached")
                nxt = reseed_order[reseed_pos]
                visited.add(nxt)
                frontier.append(nxt)
            vertex = frontier.pop(0)
            # the vertex's headed triples, then its tailed ones
            span = slice(offsets[vertex], offsets[vertex + 1])
            for idx, end in zip(triple[span].tolist(), other[span].tolist()):
                if idx in picked_set:
                    continue
                picked.append(idx)
                picked_set.add(idx)
                if end not in visited:
                    visited.add(end)
                    frontier.append(end)
                if len(picked) >= size:
                    break
        rows = np.array(picked)
        scores = np.array([rnd.uniform(0.05, 1.0) for _ in picked])
        # descending score, ties in label order
        order = np.lexsort((store.row_rank[rows], -scores))
        sequence = TripleSequence.from_scores(
            store, rows[order], scores[order], "synthetic"
        )
        anchors = [store.entity_label(start)]
        if len(visited) > 1 and rnd.random() < 0.5:
            extra = rnd.choice(sorted(visited))
            if extra != start:
                anchors.append(store.entity_label(extra))
        workloads.append((sequence, anchors))
    return workloads


def measure_overhead(
    workloads: list[tuple[TripleSequence, list[str]]],
    algorithms: list[str],
    triple_counts: list[int],
    backends: list[str] | None = None,
    base_cfg: pooling.PoolingConfig | None = None,
) -> TimingReport:
    """Wall-clock of smooth() per query over the algorithm x size grid.

    The first WARMUP_RUNS timings of every cell are discarded; each cell must
    keep at least MIN_QUERIES_PER_CELL measurements. Everything runs on one
    thread to keep the numbers contention-free, and each query runs on every
    backend back to back, so drift in the machine's speed hits them alike.
    Cells are reported backend by backend.
    """
    if not algorithms or not triple_counts:
        raise ConfigError("benchmark grid is empty")
    measured = len(workloads) - WARMUP_RUNS
    if measured < MIN_QUERIES_PER_CELL:
        raise ConfigError(
            f"need at least {MIN_QUERIES_PER_CELL + WARMUP_RUNS} workloads per cell, "
            f"got {len(workloads)}"
        )
    if backends is None:
        backends = [pooling.DEFAULT_BACKEND]
    for backend in backends:
        pooling.backend_module(backend)  # fail fast if unavailable
    base = base_cfg or pooling.PoolingConfig()
    # per (backend, algorithm, size) index, so a repeated grid entry keeps
    # its own cell
    times_ms: dict[tuple[int, int, int], list[float]] = {}
    for a, algorithm in enumerate(algorithms):
        cfg = replace(base, search_algorithm=algorithm)
        cfg.validate()
        for c, count in enumerate(triple_counts):
            trimmed = [
                (sequence.trimmed(count), anchors) for sequence, anchors in workloads
            ]
            for sequence, _ in trimmed:
                if len(sequence) < count:
                    raise ConfigError(
                        f"workload has {len(sequence)} triples, cell needs {count}"
                    )
            for sequence, anchors in trimmed:
                for b, backend in enumerate(backends):
                    start = time.perf_counter()
                    pooling.smooth(sequence, anchors, cfg, backend=backend)
                    elapsed = (time.perf_counter() - start) * 1e3
                    times_ms.setdefault((b, a, c), []).append(elapsed)
    cells = [
        _cell_stats(algorithm, backend, count, times_ms[b, a, c])
        for b, backend in enumerate(backends)
        for a, algorithm in enumerate(algorithms)
        for c, count in enumerate(triple_counts)
    ]
    return TimingReport(cells=cells, environment=_environment_note())


def _cell_stats(
    algorithm: str, backend: str, count: int, times_ms: list[float]
) -> CellStats:
    kept = times_ms[WARMUP_RUNS:]
    kept_sorted = sorted(kept)
    p95_index = min(len(kept_sorted) - 1, math.ceil(0.95 * len(kept_sorted)) - 1)
    return CellStats(
        algorithm=algorithm,
        backend=backend,
        triple_count=count,
        queries=len(kept),
        mean_ms=statistics.fmean(kept),
        median_ms=statistics.median(kept),
        p95_ms=kept_sorted[p95_index],
    )

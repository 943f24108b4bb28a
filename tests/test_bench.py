"""Latency benchmark harness."""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

from pathpool import bench, pooling
from pathpool.errors import ConfigError


@pytest.fixture(scope="module")
def small_setup():
    store = bench.synthesize_store(
        seed=3, n_entities=120, n_relations=8, n_triples=1500
    )
    workloads = bench.sample_workloads(store, count=33, size=60, seed=3)
    return store, workloads


def test_synthesize_store_is_deterministic():
    a = bench.synthesize_store(seed=11, n_entities=60, n_triples=400)
    b = bench.synthesize_store(seed=11, n_entities=60, n_triples=400)
    assert a.id_array.tolist() == b.id_array.tolist()
    assert a.label_columns(a.id_array) == b.label_columns(b.id_array)
    assert a.n_triples == 400


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    ("kwargs", "digests"),
    [
        (
            {"seed": 0},
            (
                "de07fe3c81f29b36f9257da0c3449c23a3ca5fefc3b71ac80109958f5827e8b7",
                "853ef60550e8d8e49c0727ed4a40c092566d27f80f01915ab5427ed3d0251160",
                "33cc0e773209d198d8b7d918d3ae591ae57fd3ff3cd4547a54b2f3e9b688e21c",
            ),
        ),
        (
            {"seed": 4, "n_triples": 6000},
            (
                "b1be258a0ac11f135432ad313bcf89742f90bb1ec6a86f6b065e0a06b9570f2a",
                "07c50859d303224906a76b8188747973028b3fd83b4d2e68d47233e456570336",
                "053b3689d256e0460e208c6f82f99c104d1093209cdce9c04619e9d267e3adee",
            ),
        ),
    ],
)
def test_synthesize_store_is_pinned(kwargs, digests):
    # the little-endian id array bytes and the entity and relation labels in
    # id order, one per line; a change to the generator's draws shows here
    store = bench.synthesize_store(**kwargs)
    assert (
        _sha256(store.id_array.astype("<i8").tobytes()),
        _sha256("\n".join(store._entity_labels).encode("utf-8")),
        _sha256("\n".join(store._relation_labels).encode("utf-8")),
    ) == digests


def test_sample_workloads_deterministic_and_sized(small_setup):
    store, _ = small_setup
    first = bench.sample_workloads(store, count=4, size=50, seed=9)
    second = bench.sample_workloads(store, count=4, size=50, seed=9)
    for (seq_a, anchors_a), (seq_b, anchors_b) in zip(first, second):
        assert seq_a.labeled_items() == seq_b.labeled_items()
        assert anchors_a == anchors_b
        assert len(seq_a) == 50
        scores = seq_a.score_array.tolist()
        assert scores == sorted(scores, reverse=True)


def test_measure_overhead_shapes_and_counts(small_setup):
    _, workloads = small_setup
    report = bench.measure_overhead(workloads, ["dijkstra"], [25, 60])
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.queries == 30
        assert cell.mean_ms > 0
        assert cell.p95_ms >= cell.median_ms > 0
    assert report.cell("dijkstra", 25).triple_count == 25


def test_measure_overhead_rejects_empty_grid(small_setup):
    _, workloads = small_setup
    with pytest.raises(ConfigError):
        bench.measure_overhead(workloads, [], [25])
    with pytest.raises(ConfigError):
        bench.measure_overhead(workloads, ["dijkstra"], [])


def test_measure_overhead_requires_enough_workloads(small_setup):
    _, workloads = small_setup
    with pytest.raises(ConfigError):
        bench.measure_overhead(workloads[:20], ["dijkstra"], [25])


def test_measure_overhead_rejects_undersized_workloads(small_setup):
    _, workloads = small_setup
    with pytest.raises(ConfigError):
        bench.measure_overhead(workloads, ["dijkstra"], [10_000])


def test_workload_generation_needs_enough_triples():
    store = bench.synthesize_store(seed=2, n_entities=40, n_triples=100)
    with pytest.raises(ConfigError):
        bench.sample_workloads(store, count=1, size=500, seed=0)


def test_report_rendering(small_setup):
    _, workloads = small_setup
    report = bench.measure_overhead(workloads, ["dijkstra"], [25])
    text = report.render_text()
    assert "algorithm" in text and "mean ms" in text and "dijkstra" in text
    csv_lines = report.csv_lines()
    assert csv_lines[0].startswith("algorithm,backend,")
    assert len(csv_lines) == 2


def test_backend_comparison_rows(small_setup):
    _, workloads = small_setup
    backends = list(pooling.available_backends())
    report = bench.measure_overhead(
        workloads, ["dijkstra"], [25], backends=backends
    )
    assert {cell.backend for cell in report.cells} == set(backends)


def test_a_stalled_call_does_not_count(small_setup, monkeypatch):
    # on a fake clock every call takes 1 ms, but one of each back-to-back
    # pair stalls for a second, the first or the second in turn
    _, workloads = small_setup
    clock = {"now": 0.0, "calls": 0}

    def smooth(sequence, anchors, cfg, backend):
        pair, second = divmod(clock["calls"], 2)
        clock["calls"] += 1
        clock["now"] += 1.0 if second == pair % 2 else 1e-3

    monkeypatch.setattr(pooling, "smooth", smooth)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock["now"]))
    report = bench.measure_overhead(workloads, ["dijkstra"], [25, 60])
    assert clock["calls"] == 2 * bench.CALLS_PER_TIMING * len(workloads)
    for cell in report.cells:
        stats = (cell.mean_ms, cell.median_ms, cell.p95_ms)
        assert stats == pytest.approx((1.0, 1.0, 1.0)), cell


def test_each_query_runs_on_every_backend_back_to_back(small_setup, monkeypatch):
    _, workloads = small_setup
    calls = []

    def smooth(sequence, anchors, cfg, backend):
        calls.append((cfg.search_algorithm, len(sequence), anchors, backend))

    monkeypatch.setattr(pooling, "smooth", smooth)
    backends = ["py", "py"]
    report = bench.measure_overhead(workloads, ["dijkstra", "bfs"], [25, 60], backends)
    expected = [
        (algorithm, count, anchors, backend)
        for algorithm in ("dijkstra", "bfs")
        for _, anchors in workloads
        for count in (25, 60)
        for backend in backends
        for _ in range(bench.CALLS_PER_TIMING)
    ]
    assert calls == expected
    cells = [(c.backend, c.algorithm, c.triple_count) for c in report.cells]
    assert cells == [
        (backend, algorithm, count)
        for backend in backends
        for algorithm in ("dijkstra", "bfs")
        for count in (25, 60)
    ]
    assert {c.queries for c in report.cells} == {len(workloads) - bench.WARMUP_RUNS}

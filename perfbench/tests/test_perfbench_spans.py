"""Span bookkeeping of the tracer and the per-layer arithmetic built on it."""

import threading
from types import SimpleNamespace

import pytest

from perlayer import layer_metrics
from spans import Tracer


def _fake_layers():
    calls = SimpleNamespace()

    def extract(store, entities, hops):
        if entities == ("missing",):
            raise LookupError("missing")
        return SimpleNamespace(n_triples=3)

    class Bundle:
        def sha256(self):
            return "0" * 64

    calls.cli = SimpleNamespace(extract_subgraph=extract, build_scorer=lambda spec: spec)
    calls.generation = SimpleNamespace(PromptBundle=Bundle)
    return calls


def test_query_spans_share_an_id_and_close_on_error():
    layers = _fake_layers()
    tracer = Tracer()
    tracer.wrap(layers.cli, "build_scorer", "scoring.build")
    tracer.wrap(layers.cli, "extract_subgraph", "kg_store.extract")
    tracer.wrap(layers.generation.PromptBundle, "sha256", "generation.sha256")

    def pipeline():
        layers.cli.build_scorer("uniform")

        def query(entities):
            try:
                layers.cli.extract_subgraph(None, entities, 2)
            except LookupError:
                return
            layers.generation.PromptBundle().sha256()

        threads = [threading.Thread(target=query, args=(e,)) for e in [("a",), ("missing",)]]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    tracer.root(pipeline)
    tracer.restore()
    assert layers.generation.PromptBundle.sha256.__name__ == "sha256"

    (root,) = [s for s in tracer.spans if s.name == "cli.run_pipeline"]
    queries = [s for s in tracer.spans if s.name == "cli.query"]
    assert sorted(q.ok for q in queries) == [False, True]
    for q in queries:
        assert q.parent == root.span_id
        members = [s for s in tracer.spans if s.query == q.span_id and s is not q]
        assert all(s.parent == q.span_id for s in members)
        assert all(q.start <= s.start and s.end <= q.end for s in members)
    (ok,) = [q for q in queries if q.ok]
    names = {s.name for s in tracer.spans if s.query == ok.span_id and s is not ok}
    assert names == {"kg_store.extract", "generation.sha256"}
    (build,) = [s for s in tracer.spans if s.name == "scoring.build"]
    assert build.parent == root.span_id and build.query is None


def _span(i, parent, query, name, start, end, ok=True, attrs=None):
    return {
        "id": i, "parent": parent, "query": query, "name": name,
        "start": start, "end": end, "ok": ok, "attrs": attrs or {},
    }


def test_cli_self_time_is_query_phase_minus_child_coverage():
    spans = [
        _span(1, None, None, "cli.run_pipeline", 0.0, 10.0),
        _span(2, 1, None, "kg_store.load", 0.0, 0.5),
        _span(3, 1, None, "scoring.build", 0.5, 1.0),
        _span(4, 1, 4, "cli.query", 1.0, 9.0),
        _span(5, 4, 4, "kg_store.extract", 1.0, 4.0),
        _span(6, 4, 4, "scoring.score", 4.0, 5.0),
        _span(7, 4, 4, "pooling.smooth", 5.0, 8.0),
        _span(8, 4, 4, "generation.sha256", 8.5, 9.0),
    ]
    diag = [
        _span(9, None, None, "kg_store.extract", 0, 1, attrs={"triples": 4}),
        _span(10, None, None, "scoring.score", 0, 1, attrs={"candidates": 4, "kept": 2}),
        _span(11, None, None, "pooling.smooth", 0, 1,
              attrs={"triples": 2, "kernels": 1, "singletons": 1, "anchored": True}),
        _span(12, None, None, "generation.assemble", 0, 1, attrs={"prompt_bytes": 2048}),
    ]
    m = layer_metrics(spans, diag, workers=1)
    # query phase [1, 10] is 9 s; its children cover 3 + 1 + 3 + 0.5 s
    assert m["cli.self_ms_per_query"].value == pytest.approx(1500.0)
    assert m["kg_store.extract_share"].value == pytest.approx(3.0 / 8.0)
    assert m["pooling.smooth_share"].value == pytest.approx(3.0 / 8.0)
    assert m["cli.worker_busy_share"].value == pytest.approx(8.0 / 9.0)
    assert m["scoring.kept_share"].value == 0.5
    assert m["pooling.singleton_share"].value == 0.5
    assert m["generation.prompt_kb_mean"].value == 2.0

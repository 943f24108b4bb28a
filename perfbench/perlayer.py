"""Per-layer metrics from the spans of a traced run (see spans.py for how they are taken)."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from statistics import median

from stats import percentile, self_time, tail_percentile

# span name -> layer step it is charged to within a query
STEPS = {
    "kg_store.extract": "extract",
    "scoring.score": "score",
    "pooling.smooth": "smooth",
    "selection.reselect": "select",
    "selection.rerank": "select",
    "selection.top_k": "select",
    "generation.assemble": "prompt",
    "generation.sha256": "prompt",
}


@dataclass
class Metric:
    """One reported number, with its sample count and a note on how it was taken."""

    value: float
    unit: str
    n: int
    note: str = ""


def timing(values_s: list[float], q: float) -> Metric:
    """The q-th percentile in ms; a tail above the median drops to the highest
    percentile with ten samples beyond it when there are too few samples."""
    n = len(values_s)
    if q > 50.0:
        q = tail_percentile(n, ceiling=q) or 50.0
    return Metric(percentile(values_s, q) * 1e3, "ms", n, f"p{q:g}")


def layer_metrics(spans: list[dict], diag_spans: list[dict], workers: int) -> dict[str, Metric]:
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["name"] == "cli.run_pipeline"]
    queries = [s for s in spans if s["name"] == "cli.query"]
    ok_queries = {s["id"] for s in queries if s["ok"]}
    steps: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        step = STEPS.get(s["name"])
        if step is None:
            continue
        root_id = by_id[s["query"]]["parent"]
        children[root_id].append((s["start"], s["end"]))
        if s["query"] in ok_queries:
            steps[s["query"]][step] += s["end"] - s["start"]

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def per_query(step: str) -> list[float]:
        return [steps[q][step] for q in sorted(ok_queries)]

    query_s = [s["end"] - s["start"] for s in queries if s["ok"]]
    total_query_s = sum(query_s)

    def share(step: str) -> Metric:
        return Metric(sum(per_query(step)) / total_query_s, "ratio", len(query_s))

    phase_s = 0.0
    cli_self_s = 0.0
    for root in roots:
        # the query phase starts when the scorer is built
        (built,) = [s for s in spans if s["name"] == "scoring.build" and s["parent"] == root["id"]]
        phase = (built["end"], root["end"])
        phase_s += phase[1] - phase[0]
        cli_self_s += self_time(phase, children[root["id"]])

    load = durations("kg_store.load")
    build = durations("scoring.build")
    metrics = {
        "kg_store.load_s": Metric(median(load), "s", len(load)),
        "kg_store.extract_ms_p50": timing(per_query("extract"), 50),
        "kg_store.extract_ms_p95": timing(per_query("extract"), 95),
        "kg_store.extract_share": share("extract"),
        "scoring.build_s": Metric(median(build), "s", len(build)),
        "scoring.score_ms_p50": timing(per_query("score"), 50),
        "scoring.score_ms_p95": timing(per_query("score"), 95),
        "pooling.smooth_ms_p50": timing(per_query("smooth"), 50),
        "pooling.smooth_ms_p95": timing(per_query("smooth"), 95),
        "pooling.smooth_share": share("smooth"),
        "selection.select_ms_p50": timing(per_query("select"), 50),
        "generation.prompt_ms_p50": timing(per_query("prompt"), 50),
        "cli.query_ms_p50": timing(query_s, 50),
        "cli.query_ms_p95": timing(query_s, 95),
        "cli.self_ms_per_query": Metric(cli_self_s / len(queries) * 1e3, "ms", len(queries)),
        "cli.worker_busy_share": Metric(
            sum(s["end"] - s["start"] for s in queries) / (workers * phase_s), "ratio", len(roots)
        ),
        "cli.error_rows": Metric(len(queries) - len(ok_queries), "count", len(queries)),
    }
    metrics.update(diag_metrics(diag_spans))
    return metrics


def diag_metrics(diag_spans: list[dict]) -> dict[str, Metric]:
    """Counts from the untimed pass over the fixed diagnostic queries."""

    def attrs(name: str) -> list[dict]:
        return [s["attrs"] for s in diag_spans if s["name"] == name and s["ok"]]

    extract, score, smooth, prompt = (
        attrs(n)
        for n in ("kg_store.extract", "scoring.score", "pooling.smooth", "generation.assemble")
    )
    return {
        "kg_store.subgraph_triples_mean": Metric(
            sum(a["triples"] for a in extract) / len(extract), "count", len(extract)
        ),
        "scoring.kept_share": Metric(
            sum(a["kept"] for a in score) / sum(a["candidates"] for a in score), "ratio", len(score)
        ),
        "pooling.kernels_mean": Metric(
            sum(a["kernels"] for a in smooth) / len(smooth), "count", len(smooth)
        ),
        "pooling.singleton_share": Metric(
            sum(a["singletons"] for a in smooth) / sum(a["triples"] for a in smooth),
            "ratio",
            len(smooth),
        ),
        "pooling.anchor_found_share": Metric(
            sum(a["anchored"] for a in smooth) / len(smooth), "ratio", len(smooth)
        ),
        "generation.prompt_kb_mean": Metric(
            sum(a["prompt_bytes"] for a in prompt) / len(prompt) / 1024, "KiB", len(prompt)
        ),
    }


def multiset_failures(diag_spans: list[dict]) -> int:
    """smooth() calls whose output was not a permutation of their input."""
    return sum(
        1 for s in diag_spans if s["name"] == "pooling.smooth" and not s["attrs"].get("multiset_ok", True)
    )

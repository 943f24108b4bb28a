"""Child process of the benchmark: runs ``cli.run_pipeline`` (``no_llm=True``) in rounds.

Usage: ``python3 perfbench/pipeline.py CONFIG.json`` from the checkout root.
The config names the generated input files, the workload and the time
budget; the child imports ``pathpool`` from the checkout's ``src/`` and writes
a JSON report (round wall times, set-up times, peak RSS, environment and, when
traced, the spans) to the path the config gives.

Untraced: set-up is timed repeatedly as the same call over an empty query
file, then one batch file per round until the budget is spent. Traced:
the same, but each batch runs both untraced and traced (the order
alternating from batch to batch), so the tracing overhead compares the same
queries; a final traced pass over a small fixed query file computes the
layer counts outside the timed spans. The machine-speed reference job
(machine.py, in a helper process) is timed before and after the set-up
repetitions and after every round.
"""

from __future__ import annotations

import collections
import contextlib
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

from machine import Reference
from spans import Tracer

# set-up is timed at least this often and for at least this long
SETUP_REPS = 5
SETUP_MIN_S = 2.0


def _import_pathpool(root: Path):
    sys.path.insert(0, str(root / "src"))
    import pathpool
    from pathpool import cli, generation, pooling, selection

    location = Path(pathpool.__file__).resolve()
    if not location.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"pathpool imported from {location}, not from the checkout")
    return cli, generation, pooling, selection


def _smooth_diag(pooling):
    def diag(args, kwargs, result):
        sequence, entities, cfg = args
        before = collections.Counter(item.triple for item in sequence.items)
        after = collections.Counter(item.triple for item in result.items)
        graph = pooling.build_scored_subgraph(sequence)
        kernels = pooling.search_path_kernels(
            graph, entities, cfg, backend=kwargs.get("backend", "auto")
        )
        singletons = sum(1 for k in kernels if k.direction == "singleton")
        return {
            "triples": len(sequence),
            "kernels": len(kernels) - singletons,
            "singletons": singletons,
            "anchored": bool(graph.vertices_for_labels(entities)),
            "multiset_ok": before == after,
        }

    return diag


@contextlib.contextmanager
def _instrumented(tracer: Tracer, cli, generation, pooling, selection):
    """Wrap the names ``cli.run_pipeline`` calls through, one span per call."""
    tracer.wrap(cli, "load_triples", "kg_store.load")
    tracer.wrap(cli, "load_queries", "kg_store.load_queries")
    tracer.wrap(cli, "build_scorer", "scoring.build")
    tracer.wrap(
        cli, "extract_subgraph", "kg_store.extract",
        diag=lambda a, kw, r: {"triples": r.n_triples},
    )
    tracer.wrap(
        cli, "score_triples", "scoring.score",
        diag=lambda a, kw, r: {"candidates": a[1].n_triples, "kept": len(r)},
    )
    tracer.wrap(pooling, "smooth", "pooling.smooth", diag=_smooth_diag(pooling))
    for name in ("reselect", "rerank", "top_k"):
        tracer.wrap(selection, name, f"selection.{name}")
    tracer.wrap(
        generation, "assemble_prompt", "generation.assemble",
        diag=lambda a, kw, r: {
            "prompt_bytes": len(
                (json.dumps(r.messages(), ensure_ascii=False, indent=2) + "\n").encode()
            )
        },
    )
    tracer.wrap(generation.PromptBundle, "sha256", "generation.sha256")
    try:
        yield
    finally:
        tracer.restore()


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    root = Path(config["root"])
    cli, generation, pooling, selection = _import_pathpool(root)
    # the same handler set-up as ``pathpool run``
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    w = config["workload"]
    out_root = Path(config["out_dir"])

    def pipeline_config(queries_path: str, out: str):
        return cli.PipelineConfig(
            kg_path=config["kg_path"],
            queries_path=queries_path,
            scorer_spec=config["scorer_spec"],
            hops=w["hops"],
            pooling_cfg=pooling.PoolingConfig(
                search_algorithm=w["algo"], max_path_len=w["max_path_len"]
            ),
            selection_cfg=selection.SelectionConfig(
                mode=w["mode"], order=w["order"], coarse_k=w["coarse_k"], fine_k=w["fine_k"]
            ),
            generation_cfg=None,
            out_dir=str(out_root / out),
            no_llm=True,
            workers=w["workers"],
            backend="auto",
        )

    def timed(queries_path: str, out: str, tracer: Tracer | None = None) -> tuple[float, float]:
        """Wall time of one ``run_pipeline`` call, and of its query phase.

        The query phase starts when ``build_scorer``, the last set-up step,
        returns: one timestamp per call, nothing on the per-query path.
        """
        cfg = pipeline_config(queries_path, out)
        build_scorer = cli.build_scorer
        marks = []

        def marking_build_scorer(spec):
            scorer = build_scorer(spec)
            marks.append(time.perf_counter())
            return scorer

        cli.build_scorer = marking_build_scorer
        try:
            start = time.perf_counter()
            if tracer is None:
                cli.run_pipeline(cfg)
            else:
                tracer.root(cli.run_pipeline, cfg)
            end = time.perf_counter()
        finally:
            cli.build_scorer = build_scorer
        return end - start, end - marks[-1]

    tracer = Tracer() if config["trace"] else None
    batches = config["batch_paths"]
    rounds = []
    with Reference() as reference:
        setup_reference = [reference.seconds()]
        setup_s: list[float] = []
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
            setup_s.append(timed(config["empty_path"], "setup")[0])
        before = reference.seconds()
        setup_reference.append(before)

        deadline = time.perf_counter() + config["seconds"]
        i = 0
        # A traced run times each batch twice, untraced and traced, in alternating
        # order, and stops only after both halves of a pair.
        while i < 2 or time.perf_counter() < deadline or (tracer is not None and i % 2):
            batch = i % len(batches) if tracer is None else (i // 2) % len(batches)
            traced = tracer is not None and (i % 2) != (i // 2) % 2
            if traced:
                with _instrumented(tracer, cli, generation, pooling, selection):
                    wall, query = timed(batches[batch], f"round_{i:03d}", tracer)
            else:
                wall, query = timed(batches[batch], f"round_{i:03d}")
            after = reference.seconds()
            rounds.append(
                {
                    "batch": batch,
                    "traced": traced,
                    "wall_s": wall,
                    "query_s": query,
                    "reference_s": (before + after) / 2,
                    "out": f"round_{i:03d}",
                }
            )
            before = after
            i += 1

    report = {
        "setup_s": setup_s,
        "setup_reference_s": sum(setup_reference) / 2,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": {
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "backend_auto": pooling.DEFAULT_BACKEND,
            "backends_available": list(pooling.available_backends()),
        },
    }
    if tracer is not None:
        timed_spans = len(tracer.spans)
        tracer.diagnose = True
        with _instrumented(tracer, cli, generation, pooling, selection):
            timed(config["diag_path"], "diag", tracer)
        report["spans"] = [s.as_dict() for s in tracer.spans[:timed_spans]]
        report["diag_spans"] = [s.as_dict() for s in tracer.spans[timed_spans:]]
    Path(config["report_path"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

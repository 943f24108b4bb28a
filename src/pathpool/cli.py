"""Command-line pipeline: each stage is a subcommand, end-to-end is ``run``.

Stages exchange a line-per-query JSONL artifact carrying the query fields and
the current triple sequence, so intermediate results are inspectable files:

    {"id": ..., "question": ..., "query_entities": [...], "answers": [...],
     "provenance": ..., "triples": [[head, relation, tail, score], ...]}

``run`` and the subcommands call the same stage functions. A query or row
that fails in any stage becomes an error row, ``{"id": ..., "error": ...}``
(``run`` adds ``"status": "error"`` and counts it in ``n_errors``), and the
command goes on with the next one; only configuration problems and
unreadable input files abort. ``run`` checks its settings, an endpoint's
http(s) URL too, before it loads anything, and exits 1 on any error row.

Every stage runs on the calling thread; threads only wait on I/O. ``run``
writes the prompt files on one pool thread under ``--no-llm``; with an
endpoint, ``--workers`` pool threads write, call the endpoint and evaluate.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import logging
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import bench as bench_mod
from . import generation, pooling, selection
from ._bulk import utf8_errors
from .errors import ConfigError, ParseError, PathPoolError
from .kg_store import (
    QueryRecord,
    TripleStore,
    _list_field,
    check_query_id,
    extract_subgraph,
    load_queries,
    load_triples,
    read_label,
)
from .scoring import TripleSequence, build_scorer, score_triples

logger = logging.getLogger(__name__)

_ALGO_FLAGS = {"dijkstra": "dijkstra", "bfs": "bfs", "random-walk": "random_walk"}
_POOLING_FLAGS = {"avg": "average", "max": "max"}
_ORDER_FLAGS = {"recency": "recency", "lost-in-middle": "lost_in_middle"}

# queries whose I/O tail may be queued or running at once, per pool thread of
# ``run_pipeline``; it bounds the prompt texts held for any query file length
IN_FLIGHT_PER_IO_THREAD = 8


# -- artifact helpers ----------------------------------------------------


def _write_text_atomic(path: Path, text: str) -> None:
    """Write via ``<name>.tmp`` and a rename; a failed write leaves no ``.tmp``.

    The UTF-8 bytes are written with ``os.open``, ``os.write`` and
    ``os.close``: four system calls with the rename, where a file object
    makes about eight, each of which the I/O thread must retake the GIL
    after. ``os.write`` may write only part of the bytes, so it loops.
    """
    data = memoryview(text.encode("utf-8"))
    tmp = path.with_name(path.name + ".tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _write_jsonl_atomic(path: Path, rows: list[dict]) -> None:
    _write_text_atomic(
        path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    )


def _read_jsonl(path: Path) -> list[dict]:
    """The JSON objects of a JSONL file; any other line, or a file that is
    not UTF-8, raises ParseError."""
    rows = []
    with utf8_errors(path), open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"invalid JSON in {path}: {exc.msg}", line=lineno
                ) from None
            if not isinstance(row, dict):
                raise ParseError(f"row of {path} is not a JSON object", line=lineno)
            rows.append(row)
    return rows


def _artifact_row(record: QueryRecord, sequence: TripleSequence) -> dict:
    return {
        "id": record.id,
        "question": record.question,
        "query_entities": list(record.query_entities),
        "answers": list(record.gold_answers),
        "provenance": sequence.provenance,
        "triples": list(map(list, sequence.labeled_items())),
    }


def _artifact_sequence(row: dict) -> tuple[QueryRecord, TripleSequence]:
    """The record and sequence of an artifact row.

    Every label is read by ``read_label`` and every score must be a JSON
    number. The store holds the row's distinct triples in first-seen order,
    so an entry's store row is the number of distinct triples before its
    first occurrence.
    """
    record = QueryRecord(
        id=check_query_id(row.get("id", "")),
        question=read_label(row.get("question"), "question"),
        query_entities=tuple(
            read_label(e, "query entity") for e in _list_field(row, "query_entities")
        ),
        gold_answers=tuple(read_label(a, "answer") for a in _list_field(row, "answers")),
    )
    distinct: dict[tuple[str, str, str], int] = {}
    rows, scores = [], []
    for entry in _list_field(row, "triples"):
        try:
            head, relation, tail, score = entry
            labels = (
                read_label(head, "head"),
                read_label(relation, "relation"),
                read_label(tail, "tail"),
            )
            if isinstance(score, bool) or not isinstance(score, (int, float)):
                raise TypeError
        except (TypeError, ValueError):
            raise ParseError(f"malformed triple entry in artifact: {entry!r}") from None
        rows.append(distinct.setdefault(labels, len(distinct)))
        scores.append(score)
    sequence = TripleSequence.from_scores(
        TripleStore(distinct), rows, scores, str(row.get("provenance", "artifact"))
    )
    return record, sequence


def _isolated(row_id, work, item, **error_fields) -> dict:
    """``work(item)`` behind the per-row fault boundary that every command shares.

    A row whose work raises costs only itself: it becomes
    ``{"id": row_id, **error_fields, "error": ...}``. A PathPoolError or
    OSError is recorded as its message; any other exception as
    ``"<TypeName>: <message>"``, with its traceback logged.
    """
    try:
        return work(item)
    except (PathPoolError, OSError) as exc:
        logger.warning("query %s failed: %s", row_id, exc)
        error = str(exc)
    except Exception as exc:
        logger.exception("query %s failed", row_id)
        error = f"{type(exc).__name__}: {exc}"
    return {"id": row_id, **error_fields, "error": error}


# -- config assembly -------------------------------------------------------


def _pooling_config(args, algo: str | None = None) -> pooling.PoolingConfig:
    """The config the pooling flags name; ``algo`` stands in for ``--algo``."""
    cfg = pooling.PoolingConfig(
        search_algorithm=_ALGO_FLAGS[algo or args.algo],
        pooling=_POOLING_FLAGS[args.pooling],
        positional_divisor=args.a,
        max_path_len=args.max_path_len,
        walk_count=args.walk_count,
        rng_seed=args.seed,
    )
    cfg.validate()
    return cfg


def _selection_config(args) -> selection.SelectionConfig:
    """The config the selection flags name; ``select`` reads no ``--coarse-k``."""
    coarse = {"coarse_k": args.coarse_k} if "coarse_k" in args else {}
    cfg = selection.SelectionConfig(
        mode=args.mode, order=_ORDER_FLAGS[args.order], fine_k=args.fine_k, **coarse
    )
    cfg.validate()
    return cfg


def _check_retrieval(hops: int, coarse_k: int) -> None:
    """Reject retrieval settings that would fail every query, before any output."""
    for name, value in (("hops", hops), ("coarse_k", coarse_k)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


# -- stages ----------------------------------------------------------------
# ``run_pipeline`` and the subcommands share these. They call through module
# attributes (``extract_subgraph``, ``selection.rerank``, ...), which tests
# and perfbench's tracer patch.


def _retrieve(
    store: TripleStore, record: QueryRecord, scorer, hops: int, coarse_k: int
) -> TripleSequence:
    if not record.query_entities:
        raise ConfigError("query has no query entities")
    subgraph = extract_subgraph(store, record.query_entities, hops)
    return score_triples(record, subgraph, scorer, coarse_k)


def _smooth(
    record: QueryRecord,
    sequence: TripleSequence,
    cfg: pooling.PoolingConfig,
    backend: str,
) -> TripleSequence:
    """The smoothed sequence; an empty retrieval has nothing to smooth and passes."""
    if len(sequence) == 0:
        return sequence
    return pooling.smooth(sequence, record.query_entities, cfg, backend=backend)


def _select(sequence: TripleSequence, cfg: selection.SelectionConfig) -> TripleSequence:
    if cfg.mode == "rerank":
        return selection.rerank(sequence, cfg.order)
    return selection.reselect(sequence, cfg.fine_k, cfg.order)


def _prompt(
    record: QueryRecord, sequence: TripleSequence
) -> tuple[generation.PromptBundle, str, dict]:
    """The bundle, the text of its ``<id>.json`` and its ``prompt_sha256`` row."""
    bundle = generation.assemble_prompt(record, sequence)
    text = bundle.file_text()
    return bundle, text, {"id": record.id, "prompt_sha256": bundle.sha256()}


def _evaluate(predictions: list[str], gold: tuple[str, ...]) -> dict:
    """The predictions and ``EvalResult`` fields of one evaluated row."""
    result = generation.evaluate(predictions, gold)
    return {"predictions": predictions, **asdict(result)}


def _eval_metrics(rows: list[dict]) -> dict:
    """``generation.aggregate`` over the rows that ``_evaluate`` filled."""
    names = [field.name for field in fields(generation.EvalResult)]
    results = [
        generation.EvalResult(**{n: row[n] for n in names})
        for row in rows
        if "hit" in row
    ]
    return generation.aggregate(results)


@dataclass
class PipelineConfig:
    kg_path: str
    queries_path: str
    scorer_spec: str
    hops: int
    pooling_cfg: pooling.PoolingConfig
    selection_cfg: selection.SelectionConfig
    generation_cfg: generation.GenerationConfig | None
    out_dir: str
    no_llm: bool = False
    baseline: bool = False
    workers: int = 4
    backend: str = "auto"


def _final_sequence(
    cfg: PipelineConfig, record: QueryRecord, retrieved: TripleSequence
) -> TripleSequence:
    sel = cfg.selection_cfg
    if cfg.baseline:
        # unenhanced path: the retriever's descending order, budget-matched
        budget = sel.fine_k if sel.mode == "reselect" else sel.coarse_k
        return selection.top_k(retrieved, budget)
    smoothed = _smooth(record, retrieved, cfg.pooling_cfg, cfg.backend)
    return _select(smoothed, sel)


def _check_run(cfg: PipelineConfig) -> None:
    """Reject a run config that would fail every query, before anything is loaded."""
    sel = cfg.selection_cfg
    _check_retrieval(cfg.hops, sel.coarse_k)
    sel.validate()
    cfg.pooling_cfg.validate()
    if sel.fine_k > sel.coarse_k:
        raise ConfigError(
            f"fine_k ({sel.fine_k}) must not exceed coarse_k ({sel.coarse_k})"
        )
    if not cfg.no_llm:
        if cfg.generation_cfg is None:
            raise ConfigError("an endpoint is required unless --no-llm is given")
        cfg.generation_cfg.validate()
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    pooling.backend_module(cfg.backend)


def _settled(outcome: Future | dict) -> dict:
    """The row of a query whose I/O tail was submitted, or its error row."""
    return outcome.result() if isinstance(outcome, Future) else outcome


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Retrieve, smooth, select, prompt, and (unless dry) generate + evaluate.

    The calling thread runs each query's stages, up to its prompt text and
    digest, in query order. The I/O tail of each query (the prompt write
    and, unless dry, the endpoint call, the completion write and the
    evaluation) runs on a pool: one thread under ``no_llm``, else
    ``workers`` threads. At most ``IN_FLIGHT_PER_IO_THREAD`` queries per
    pool thread are in flight; past that, the calling thread waits for the
    oldest. A query that fails in either half, including a prompt or
    completion file that cannot be written, becomes an error row counted in
    ``n_errors``, and the run continues; only configuration problems and
    unreadable inputs abort. Rows keep query order.
    """
    _check_run(cfg)
    store = load_triples(cfg.kg_path)
    queries = load_queries(cfg.queries_path)
    scorer = build_scorer(cfg.scorer_spec)
    out_dir = Path(cfg.out_dir)
    prompts_dir = out_dir / "prompts"
    prompts_dir.mkdir(parents=True, exist_ok=True)
    completions_dir = out_dir / "completions"
    if not cfg.no_llm:
        completions_dir.mkdir(parents=True, exist_ok=True)
    io_threads = 1 if cfg.no_llm else cfg.workers

    def io_tail(
        record: QueryRecord, bundle: generation.PromptBundle, text: str, row: dict
    ) -> dict:
        _write_text_atomic(prompts_dir / f"{record.id}.json", text)
        if cfg.no_llm:
            row["status"] = "dry_run"
            return row
        completion = generation.call_llm(bundle, cfg.generation_cfg)
        _write_text_atomic(completions_dir / f"{record.id}.txt", completion)
        predictions = generation.parse_answers(completion)
        row.update(status="ok", **_evaluate(predictions, record.gold_answers))
        return row

    def start(record: QueryRecord) -> Future:
        """Run the CPU stages here, then hand the query's I/O tail to the pool."""
        coarse_k = cfg.selection_cfg.coarse_k
        retrieved = _retrieve(store, record, scorer, cfg.hops, coarse_k)
        final = _final_sequence(cfg, record, retrieved)
        bundle, text, row = _prompt(record, final)
        tail = functools.partial(io_tail, record, bundle, text)
        return pool.submit(_isolated, record.id, tail, row, status="error")

    rows = []
    in_flight: collections.deque[Future | dict] = collections.deque()
    with ThreadPoolExecutor(max_workers=io_threads) as pool:
        for record in queries:
            if len(in_flight) >= IN_FLIGHT_PER_IO_THREAD * io_threads:
                rows.append(_settled(in_flight.popleft()))
            in_flight.append(_isolated(record.id, start, record, status="error"))
        rows.extend(map(_settled, in_flight))

    _write_jsonl_atomic(out_dir / "results.jsonl", rows)
    metrics = _eval_metrics(rows)
    metrics["n_queries"] = len(queries)
    metrics["n_errors"] = sum(1 for row in rows if row.get("status") == "error")
    metrics["dry_run"] = cfg.no_llm
    _write_text_atomic(
        out_dir / "metrics.json", json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )
    return metrics


# -- subcommands -----------------------------------------------------------


def cmd_load_check(args) -> int:
    store = load_triples(args.kg)
    print(
        f"kg: {store.n_triples} triples, {store.n_entities} entities, "
        f"{store.n_relations} relations"
    )
    if args.queries:
        queries = load_queries(args.queries)
        unresolved = 0
        for record in queries:
            missing = [e for e in record.query_entities if not store.has_entity(e)]
            if missing:
                unresolved += 1
                print(f"query {record.id}: unknown entities {missing}")
        print(f"queries: {len(queries)} loaded, {unresolved} with unknown entities")
    return 0


def cmd_retrieve(args) -> int:
    _check_retrieval(args.hops, args.coarse_k)
    store = load_triples(args.kg)
    queries = load_queries(args.queries)
    scorer = build_scorer(args.scorer)

    def retrieve(record: QueryRecord) -> dict:
        sequence = _retrieve(store, record, scorer, args.hops, args.coarse_k)
        return _artifact_row(record, sequence)

    rows = [_isolated(record.id, retrieve, record) for record in queries]
    _write_jsonl_atomic(Path(args.out), rows)
    print(f"retrieve: wrote {len(rows)} records to {args.out}")
    return 0


def _transform_artifacts(in_path: str, out_path: str, transform) -> int:
    def apply(row: dict) -> dict:
        if "error" in row:
            return row
        record, sequence = _artifact_sequence(row)
        return _artifact_row(record, transform(record, sequence))

    rows = _read_jsonl(Path(in_path))
    rows_out = [_isolated(row.get("id"), apply, row) for row in rows]
    _write_jsonl_atomic(Path(out_path), rows_out)
    return len(rows_out)


def cmd_pool(args) -> int:
    cfg = _pooling_config(args)
    pooling.backend_module(args.backend)
    n = _transform_artifacts(
        args.infile,
        args.out,
        lambda record, sequence: _smooth(record, sequence, cfg, args.backend),
    )
    print(f"pool: wrote {n} records to {args.out}")
    return 0


def cmd_select(args) -> int:
    cfg = _selection_config(args)
    n = _transform_artifacts(
        args.infile, args.out, lambda record, sequence: _select(sequence, cfg)
    )
    print(f"select: wrote {n} records to {args.out}")
    return 0


def cmd_prompt(args) -> int:
    rows = _read_jsonl(Path(args.infile))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seen_ids: set[str] = set()

    def prompt(row: dict) -> dict:
        if "error" in row:
            return row
        record, sequence = _artifact_sequence(row)
        # a repeated id would overwrite the earlier row's prompt file
        if record.id in seen_ids:
            raise ParseError(f"duplicate id {record.id!r}")
        seen_ids.add(record.id)
        _, text, manifest_row = _prompt(record, sequence)
        _write_text_atomic(out_dir / f"{record.id}.json", text)
        return manifest_row

    manifest = [_isolated(row.get("id"), prompt, row) for row in rows]
    _write_jsonl_atomic(out_dir / "manifest.jsonl", manifest)
    print(f"prompt: wrote {len(manifest)} prompts to {args.out}")
    return 0


def cmd_run(args) -> int:
    gen_cfg = None
    if args.endpoint:
        gen_cfg = generation.GenerationConfig(
            endpoint=args.endpoint,
            model=args.model,
            temperature=args.temperature,
            max_tokens=args.max_tokens,
            timeout=args.timeout,
            retries=args.retries,
        )
    cfg = PipelineConfig(
        kg_path=args.kg,
        queries_path=args.queries,
        scorer_spec=args.scorer,
        hops=args.hops,
        pooling_cfg=_pooling_config(args),
        selection_cfg=_selection_config(args),
        generation_cfg=gen_cfg,
        out_dir=args.out,
        no_llm=args.no_llm,
        baseline=args.baseline,
        workers=args.workers,
        backend=args.backend,
    )
    metrics = run_pipeline(cfg)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    # every output is written; a failed query still fails the command
    return 1 if metrics["n_errors"] else 0


def _bench_sizes(text: str) -> list[int]:
    """The triple counts ``--sizes`` lists, comma-separated; each must be >= 1."""
    sizes = []
    for item in text.split(","):
        try:
            size = int(item)
        except ValueError:
            size = 0
        if size < 1:
            raise ConfigError(f"--sizes takes positive triple counts, got {item!r}")
        sizes.append(size)
    return sizes


def cmd_bench(args) -> int:
    if args.queries_per_cell < bench_mod.MIN_QUERIES_PER_CELL:
        raise ConfigError(
            f"--queries-per-cell must be at least {bench_mod.MIN_QUERIES_PER_CELL}, "
            f"got {args.queries_per_cell}"
        )
    sizes = _bench_sizes(args.sizes)
    base = _pooling_config(args, "dijkstra")  # each cell sets its algorithm
    names = [name for name in args.algos.split(",") if name]
    for name in names:
        if name not in _ALGO_FLAGS:
            raise ConfigError(f"--algos takes {', '.join(_ALGO_FLAGS)}, got {name!r}")
    algorithms = [_ALGO_FLAGS[name] for name in names]
    if args.kg:
        store = load_triples(args.kg)
    else:
        store = bench_mod.synthesize_store(seed=args.seed)
    count = args.queries_per_cell + bench_mod.WARMUP_RUNS
    workloads = bench_mod.sample_workloads(store, count, max(sizes), seed=args.seed)
    if args.backend == "both":
        backends = list(pooling.available_backends())
    elif args.backend == "auto":
        backends = [pooling.DEFAULT_BACKEND]
    else:
        backends = [args.backend]
    report = bench_mod.measure_overhead(
        workloads, algorithms, sizes, backends=backends, base_cfg=base
    )
    print(report.render_text())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_text_atomic(out_dir / "bench.txt", report.render_text() + "\n")
        _write_text_atomic(out_dir / "bench.csv", "\n".join(report.csv_lines()) + "\n")
        print(f"bench: wrote report to {args.out}")
    return 0


def cmd_eval(args) -> int:
    queries = {record.id: record for record in load_queries(args.queries)}
    seen_ids: set[str] = set()

    def score(row: dict) -> dict:
        qid = check_query_id(row.get("id"))
        record = queries.get(qid)
        if record is None:
            raise ParseError("unknown query id")
        # only the first completion of a query counts
        if qid in seen_ids:
            raise ParseError(f"duplicate id {qid!r}")
        seen_ids.add(qid)
        completion = row.get("completion")
        # a lost completion is no empty answer: it must not count in ``n``
        if not isinstance(completion, str):
            raise ParseError("completion is missing or not a string")
        predictions = generation.parse_answers(completion)
        return {"id": qid, **_evaluate(predictions, record.gold_answers)}

    rows = [
        _isolated(row.get("id"), score, row)
        for row in _read_jsonl(Path(args.completions))
    ]
    metrics = _eval_metrics(rows)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_jsonl_atomic(out_dir / "eval.jsonl", rows)
        _write_text_atomic(
            out_dir / "metrics.json",
            json.dumps(metrics, indent=2, sort_keys=True) + "\n",
        )
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------


def _add_smoothing_flags(parser: argparse.ArgumentParser) -> None:
    """The ``PoolingConfig`` flags that ``pool``, ``run`` and ``bench`` share."""
    parser.add_argument("--pooling", choices=sorted(_POOLING_FLAGS), default="avg")
    parser.add_argument(
        "--a",
        type=float,
        default=10.0,
        help="positional score divisor (term is min_score / (position * a))",
    )
    parser.add_argument("--max-path-len", type=int, default=4)
    parser.add_argument("--walk-count", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)


def _add_pooling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", choices=sorted(_ALGO_FLAGS), default="dijkstra")
    _add_smoothing_flags(parser)
    parser.add_argument(
        "--backend",
        choices=("auto", "py", "c"),
        default="auto",
        help="smoothing backend (auto prefers the compiled core)",
    )


def _add_selection_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``select`` and ``run`` share; ``run`` adds ``--coarse-k``."""
    parser.add_argument("--mode", choices=sorted(selection.MODES), default="reselect")
    parser.add_argument("--order", choices=sorted(_ORDER_FLAGS), default="recency")
    parser.add_argument("--fine-k", type=int, default=100)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathpool",
        description="Path-based score smoothing and reranking for triple-based KG-RAG",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load-check", help="validate a KG (and optional query) file")
    p.add_argument("--kg", required=True)
    p.add_argument("--queries")
    p.set_defaults(func=cmd_load_check)

    p = sub.add_parser("retrieve", help="extract subgraphs and score top-k triples")
    p.add_argument("--kg", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--scorer", default="uniform")
    p.add_argument("--hops", type=int, default=4)
    p.add_argument("--coarse-k", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("pool", help="smooth scores along path kernels")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_pooling_flags(p)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("select", help="rerank or reselect a smoothed sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_selection_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("prompt", help="assemble prompts from a sequence artifact")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("run", help="full pipeline: retrieve, pool, select, generate")
    p.add_argument("--kg", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--scorer", default="uniform")
    p.add_argument("--hops", type=int, default=4)
    _add_pooling_flags(p)
    _add_selection_flags(p)
    p.add_argument("--coarse-k", type=int, default=500)
    p.add_argument("--endpoint", help="chat-completions URL")
    p.add_argument("--model", default="local-model")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", type=int, default=4000)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--no-llm", action="store_true", help="stop after prompt assembly")
    p.add_argument(
        "--baseline",
        action="store_true",
        help="skip pooling; prompt the retriever's descending top-k directly",
    )
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time the smoothing stage per query")
    p.add_argument("--kg", help="KG to sample; synthetic when omitted")
    p.add_argument("--sizes", default="25,50,100,200,500")
    p.add_argument("--algos", default="dijkstra,bfs,random-walk")
    p.add_argument("--queries-per-cell", type=int, default=30)
    _add_smoothing_flags(p)
    p.add_argument("--backend", choices=("auto", "py", "c", "both"), default="auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="score completions against gold answers")
    p.add_argument("--queries", required=True)
    p.add_argument("--completions", required=True, help="JSONL of {id, completion}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (PathPoolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

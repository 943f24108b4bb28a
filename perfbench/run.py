"""End-to-end benchmark of ``pathpool run --no-llm``: one workload per fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kg120k-hop2 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The benchmark generates the workload's inputs from ``--seed`` under
``.perfbench-work/``, runs ``perfbench/pipeline.py`` in a child process
(which imports ``pathpool`` from the checkout's ``src/``), checks every output
the pipeline wrote, and prints each metric with its unit and sample count.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs with spans around each layer and
reports the per-layer metrics and the tracing overhead. A failed output
check exits non-zero and reports no metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median

import inputs
import machine
from checks import Checker, digest
from perlayer import Metric, layer_metrics, multiset_failures
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DIGEST_SEED = 0
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark could not run or the program's outputs were wrong."""


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the paths and bytes of every file under ``src/`` (caches excluded)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(config: dict, work: Path, deadline: float) -> dict:
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    log_path = work / "child.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "pipeline.py"), str(config_path)],
                cwd=config["root"],
                stdout=log,
                stderr=log,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"pipeline did not finish in time; see {log_path}") from None
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        raise BenchError(f"pipeline exited with {proc.returncode}:\n" + "\n".join(tail))
    return json.loads(Path(config["report_path"]).read_text(encoding="utf-8"))


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    w = WORKLOADS[name]
    work = root / ".perfbench-work" / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    gen_start = time.perf_counter()
    data = inputs.write_inputs(w, seed, work / "inputs")
    gen_s = time.perf_counter() - gen_start
    scorer = "uniform" if w.scorer == "uniform" else f"cosine:{data.table_path}"
    config = {
        "root": str(root),
        "workload": asdict(w),
        "kg_path": str(data.kg_path),
        "scorer_spec": scorer,
        "batch_paths": [str(p) for p in data.batch_paths],
        "empty_path": str(data.empty_path),
        "diag_path": str(data.diag_path),
        "seconds": seconds,
        "trace": trace,
        "out_dir": str(work / "out"),
        "report_path": str(work / "report.json"),
    }
    report = run_child(config, work, started + TIME_LIMIT_S)

    checker = Checker(data.triples, w.hops, w.fine_k if w.mode == "reselect" else w.coarse_k)
    batches = [data.queries[b * w.batch : (b + 1) * w.batch] for b in range(w.pool_batches)]
    problems: list[str] = []
    attempted = errors = 0
    for r in report["rounds"]:
        queries = batches[r["batch"]]
        found, shas = checker.check(work / "out" / r["out"], queries)
        problems += found
        attempted += len(queries)
        errors += len(queries) - len(shas)
        if r["out"] == "round_000" and seed == DIGEST_SEED:
            expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name)
            if digest(shas) != expected:
                problems.append(f"prompt digest {digest(shas)} != recorded {expected}")
    if trace:
        found, _ = checker.check(work / "out" / "diag", data.queries[: inputs.DIAG_QUERIES])
        problems += found
        bad = multiset_failures(report["diag_spans"])
        if bad:
            problems.append(f"{bad} smooth() calls changed the triple multiset")

    # set-up time at the nominal machine speed, as for the rounds below
    setup_s = median(report["setup_s"]) * machine.NOMINAL_S / report["setup_reference_s"]

    def scaled_query_s(r: dict) -> float:
        """A round's query-phase wall time at the nominal machine speed."""
        return r["query_s"] * machine.NOMINAL_S / r["reference_s"]

    if trace:
        metrics = layer_metrics(report["spans"], report["diag_spans"], w.workers)
        untraced = [r for r in report["rounds"] if not r["traced"]]
        traced = [r for r in report["rounds"] if r["traced"]]
        metrics["trace.overhead_share"] = Metric(
            sum(map(scaled_query_s, traced)) / sum(map(scaled_query_s, untraced)) - 1.0,
            "ratio",
            len(traced),
        )
    else:
        qps = [w.batch / scaled_query_s(r) for r in report["rounds"]]
        raw = median(w.batch / r["query_s"] for r in report["rounds"])
        metrics = {
            "throughput_qps": Metric(
                median(qps), "1/s", len(qps), f"median of rounds at nominal speed; raw {raw:.4g}"
            ),
            "setup_s": Metric(
                setup_s,
                "s",
                len(report["setup_s"]),
                f"median at nominal speed; raw {median(report['setup_s']):.4g}",
            ),
            "peak_rss_mb": Metric(report["peak_rss_kb"] / 1024, "MB", 1),
            "error_rate": Metric(errors / attempted, "ratio", attempted),
        }
    environment = dict(
        report["environment"],
        git_commit=git_commit(root),
        source_sha256=source_digest(root),
    )
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment,
        "generate_s": gen_s,
        "rounds": report["rounds"],
        "setup_reps_s": report["setup_s"],
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: vars(m) for k, m in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    if not problems:
        shutil.rmtree(work / "inputs")
        shutil.rmtree(work / "out")
    return result


def print_result(result: dict) -> None:
    env = result["environment"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
        f"python {env['python']}, nproc {env['nproc']}, backend auto={env['backend_auto']}, "
        f"commit {env['git_commit'] or 'n/a'}, src sha256 {env['source_sha256'][:12]}"
    )
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if result["problems"]:
        return
    for key, m in result["metrics"].items():
        note = f", {m['note']}" if m["note"] else ""
        print(f"{key:32s} {m['value']:14.6g} {m['unit']:6s} (n={m['n']}{note})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "pathpool" / "__init__.py").is_file():
        print("error: run from the root of a pathpool checkout (no src/pathpool)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(result)
        results.append(result)

    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in results[0]["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
            for r in results
            for k, m in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

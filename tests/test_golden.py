"""Golden digests of ``pathpool run --no-llm`` on the bundled toy data.

Every prompt's sha256 is pinned, per query, for each ``--algo`` x ``--mode``
and for ``--baseline``, under the ``uniform`` scorer (every order is decided
by label ties), the ``precomputed`` toy scores and the ``cosine`` scorer
over a seeded toy embedding table (``toy_embeddings``). ``--coarse-k 20`` and
``--fine-k 8`` cut the toy neighbourhoods, so the retrieval cut and the
selection cut both show in the digests. The sha256 of each run's
``results.jsonl`` and ``metrics.json`` is pinned too, so their bytes, row
order included, are held as well. A refactor that must not change
behaviour leaves ``golden_prompts.json`` and ``golden_outputs.json`` as
they are.

The artifact stage chain ``retrieve`` -> ``pool`` -> ``select`` ->
``prompt`` is pinned the same way in ``golden_stages.json``: per ``--algo``
x ``--mode``, under the ``uniform`` scorer and the ``precomputed`` toy
scores, the sha256 of each stage's JSONL file and of the prompt
``manifest.jsonl``. Each stage after ``retrieve`` rebuilds its sequences
from the artifact rows, so these digests hold that path as well.

``python tests/test_golden.py PROMPTS.json OUTPUTS.json STAGES.json`` writes
the digests of the current code to those three files in the same formats.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pathpool import cli

DATA = Path(cli.__file__).parent / "data"
GOLDEN = Path(__file__).with_name("golden_prompts.json")
GOLDEN_OUTPUTS = Path(__file__).with_name("golden_outputs.json")
GOLDEN_STAGES = Path(__file__).with_name("golden_stages.json")
OUTPUT_FILES = ("results.jsonl", "metrics.json")

SCORERS = ("uniform", "precomputed", "cosine")
RUNS = {
    **{
        f"{algo}-{mode}": ["--algo", algo, "--mode", mode]
        for algo in ("dijkstra", "bfs", "random-walk")
        for mode in ("rerank", "reselect")
    },
    **{f"baseline-{mode}": ["--baseline", "--mode", mode] for mode in ("rerank", "reselect")},
}
CASES = [f"{scorer}-{run}" for scorer in SCORERS for run in RUNS]
STAGE_RUNS = {
    f"{scorer}-{algo}-{mode}": (scorer, algo, mode)
    for scorer in ("uniform", "precomputed")
    for algo in ("dijkstra", "bfs", "random-walk")
    for mode in ("rerank", "reselect")
}


def toy_embeddings() -> str:
    """A seeded 8-dim ``label<TAB>components`` table for the toy data.

    One line per distinct toy triple sentence (``head relation tail``, the
    relation's dots and underscores turned into spaces) and toy question,
    in first-seen order, with standard normal components formatted ``%.6f``.
    """
    texts: dict[str, None] = {}
    for line in (DATA / "toy_kg.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            head, relation, tail = line.split("\t")
            texts[f"{head} {relation.replace('.', ' ').replace('_', ' ')} {tail}"] = None
    for line in (DATA / "toy_queries.jsonl").read_text(encoding="utf-8").splitlines():
        texts[json.loads(line)["question"]] = None
    values = np.random.default_rng(0).standard_normal((len(texts), 8))
    return "".join(
        f"{text}\t{' '.join('%.6f' % v for v in row)}\n"
        for text, row in zip(texts, values.tolist())
    )


def _scorer_spec(scorer: str, out: Path) -> str:
    """The ``--scorer`` of ``scorer``; a cosine table is written into ``out``."""
    if scorer == "precomputed":
        return f"precomputed:{DATA / 'toy_scores.tsv'}"
    if scorer == "cosine":
        table = out / "toy_embeddings.tsv"
        out.mkdir(parents=True, exist_ok=True)
        table.write_text(toy_embeddings(), encoding="utf-8")
        return f"cosine:{table}"
    return scorer


def _run(case: str, out: Path) -> Path:
    """One dry run of ``case`` into ``out``."""
    scorer, run = case.split("-", 1)
    argv = [
        "run",
        "--kg", str(DATA / "toy_kg.tsv"),
        "--queries", str(DATA / "toy_queries.jsonl"),
        "--scorer", _scorer_spec(scorer, out),
        "--coarse-k", "20",
        "--fine-k", "8",
        "--seed", "0",
        "--workers", "1",
        "--no-llm",
        "--out", str(out),
        *RUNS[run],
    ]
    assert cli.main(argv) == 0
    return out


def _digests(out: Path) -> list[list[str]]:
    """The ``(id, prompt_sha256)`` rows of one dry run, in query order."""
    rows = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    return [[row["id"], row["prompt_sha256"]] for row in map(json.loads, rows)]


def _output_digests(out: Path) -> dict[str, str]:
    """The sha256 of each file of ``OUTPUT_FILES`` that one dry run wrote."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}


def _stage_chain(case: str, out: Path) -> dict[str, str]:
    """The stage chain of ``case`` into ``out``; the sha256 of each file it wrote."""
    scorer, algo, mode = STAGE_RUNS[case]
    out.mkdir(parents=True, exist_ok=True)
    retrieved, pooled, selected = (
        out / f"{stage}.jsonl" for stage in ("retrieve", "pool", "select")
    )
    commands = [
        [
            "retrieve",
            "--kg", str(DATA / "toy_kg.tsv"),
            "--queries", str(DATA / "toy_queries.jsonl"),
            "--scorer", _scorer_spec(scorer, out),
            "--coarse-k", "20",
            "--out", str(retrieved),
        ],
        ["pool", "--in", str(retrieved), "--algo", algo, "--seed", "0", "--out", str(pooled)],
        ["select", "--in", str(pooled), "--mode", mode, "--fine-k", "8", "--out", str(selected)],
        ["prompt", "--in", str(selected), "--out", str(out / "prompts")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
    files = (retrieved, pooled, selected, out / "prompts" / "manifest.jsonl")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
    }


@pytest.mark.parametrize("case", CASES)
def test_toy_run_prompt_digests(case, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digests(_run(case, tmp_path)) == golden[case]


@pytest.mark.parametrize("case", CASES)
def test_toy_run_output_digests(case, tmp_path):
    golden = json.loads(GOLDEN_OUTPUTS.read_text(encoding="utf-8"))
    assert _output_digests(_run(case, tmp_path)) == golden[case]


@pytest.mark.parametrize("case", STAGE_RUNS)
def test_toy_stage_chain_digests(case, tmp_path):
    golden = json.loads(GOLDEN_STAGES.read_text(encoding="utf-8"))
    assert _stage_chain(case, tmp_path) == golden[case]


if __name__ == "__main__":
    prompts, outputs, stages = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out = _run(case, Path(tmp) / case)
            prompts[case] = _digests(out)
            outputs[case] = _output_digests(out)
        for case in STAGE_RUNS:
            stages[case] = _stage_chain(case, Path(tmp) / "stages" / case)
    for path, digests in zip(sys.argv[1:4], (prompts, outputs, stages)):
        Path(path).write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")

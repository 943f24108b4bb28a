"""Golden digests of ``pathpool run --no-llm`` on the bundled toy data.

Every prompt's sha256 is pinned, per query, for each ``--algo`` x ``--mode``
and for ``--baseline``, under the ``uniform`` scorer (every order is decided
by label ties) and the ``precomputed`` toy scores. ``--coarse-k 20`` and
``--fine-k 8`` cut the toy neighbourhoods, so the retrieval cut and the
selection cut both show in the digests. The sha256 of each run's
``results.jsonl`` and ``metrics.json`` is pinned too, so their bytes, row
order included, are held as well. A refactor that must not change
behaviour leaves ``golden_prompts.json`` and ``golden_outputs.json`` as
they are.

``python tests/test_golden.py PROMPTS.json OUTPUTS.json`` writes the digests
of the current code to those two files in the same formats.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pathpool import cli

DATA = Path(cli.__file__).parent / "data"
GOLDEN = Path(__file__).with_name("golden_prompts.json")
GOLDEN_OUTPUTS = Path(__file__).with_name("golden_outputs.json")
OUTPUT_FILES = ("results.jsonl", "metrics.json")

SCORERS = {"uniform": "uniform", "precomputed": f"precomputed:{DATA / 'toy_scores.tsv'}"}
RUNS = {
    **{
        f"{algo}-{mode}": ["--algo", algo, "--mode", mode]
        for algo in ("dijkstra", "bfs", "random-walk")
        for mode in ("rerank", "reselect")
    },
    **{f"baseline-{mode}": ["--baseline", "--mode", mode] for mode in ("rerank", "reselect")},
}
CASES = [f"{scorer}-{run}" for scorer in SCORERS for run in RUNS]


def _run(case: str, out: Path) -> Path:
    """One dry run of ``case`` into ``out``."""
    scorer, run = case.split("-", 1)
    argv = [
        "run",
        "--kg", str(DATA / "toy_kg.tsv"),
        "--queries", str(DATA / "toy_queries.jsonl"),
        "--scorer", SCORERS[scorer],
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


@pytest.mark.parametrize("case", CASES)
def test_toy_run_prompt_digests(case, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digests(_run(case, tmp_path)) == golden[case]


@pytest.mark.parametrize("case", CASES)
def test_toy_run_output_digests(case, tmp_path):
    golden = json.loads(GOLDEN_OUTPUTS.read_text(encoding="utf-8"))
    assert _output_digests(_run(case, tmp_path)) == golden[case]


if __name__ == "__main__":
    prompts, outputs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out = _run(case, Path(tmp) / case)
            prompts[case] = _digests(out)
            outputs[case] = _output_digests(out)
    Path(sys.argv[1]).write_text(json.dumps(prompts, indent=1) + "\n", encoding="utf-8")
    Path(sys.argv[2]).write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")

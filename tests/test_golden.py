"""Golden prompt digests of ``pathpool run --no-llm`` on the bundled toy data.

Every prompt's sha256 is pinned, per query, for each ``--algo`` x ``--mode``
and for ``--baseline``, under the ``uniform`` scorer (every order is decided
by label ties) and the ``precomputed`` toy scores. ``--coarse-k 20`` and
``--fine-k 8`` cut the toy neighbourhoods, so the retrieval cut and the
selection cut both show in the digests. A refactor that must not change
behaviour leaves ``golden_prompts.json`` as it is.

``python tests/test_golden.py OUT.json`` writes the digests of the current
code to ``OUT.json`` in the same format.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from pathpool import cli

DATA = Path(cli.__file__).parent / "data"
GOLDEN = Path(__file__).with_name("golden_prompts.json")

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


def _digests(case: str, out: Path) -> list[list[str]]:
    """The ``(id, prompt_sha256)`` rows of one dry run, in query order."""
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
    rows = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    return [[row["id"], row["prompt_sha256"]] for row in map(json.loads, rows)]


@pytest.mark.parametrize("case", CASES)
def test_toy_run_prompt_digests(case, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digests(case, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = {case: _digests(case, Path(tmp) / case) for case in CASES}
    Path(sys.argv[1]).write_text(json.dumps(found, indent=1) + "\n", encoding="utf-8")

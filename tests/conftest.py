"""Shared fixtures; the helpers they build on are in ``cases.py``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from cases import MockChatServer, c_compiler_found, make_sequence

from pathpool import pooling
from pathpool.kg_store import QueryRecord
from pathpool.scoring import TripleSequence


@pytest.fixture
def example_sequence() -> TripleSequence:
    """The three-triple hand example: A->B 0.9, B->C 0.3, D->E 0.5."""
    return make_sequence(
        [("A", "r1", "B", 0.9), ("B", "r2", "C", 0.3), ("D", "r3", "E", 0.5)]
    )


@pytest.fixture
def mock_llm():
    server = MockChatServer()
    yield server
    server.close()


@pytest.fixture
def lou_seal_query() -> QueryRecord:
    return QueryRecord(
        id="exemplar",
        question="What year did the team with mascot named Lou Seal win the World Series?",
        query_entities=("Lou Seal",),
        gold_answers=("2010 World Series", "2012 World Series", "2014 World Series"),
    )


@pytest.fixture(scope="session")
def built_core(tmp_path_factory) -> Path:
    """Directory that holds the library ``setup.py build_ext`` freshly built.

    It is built into a temporary directory, the same build an install runs,
    so nothing is written under ``src/``.
    """
    if not c_compiler_found():
        pytest.skip("no C compiler found")
    out = tmp_path_factory.mktemp("build")
    subprocess.run(
        [
            sys.executable,
            "setup.py",
            "build_ext",
            "--build-lib",
            str(out),
            "--build-temp",
            str(out / "temp"),
        ],
        cwd=Path(__file__).resolve().parents[1],
        check=True,
        capture_output=True,
    )
    return out / "pathpool" / "pooling"


@pytest.fixture(scope="session")
def core(built_core):
    """The freshly built library's ``smooth_scores``."""
    loaded = pooling._load_core(built_core)
    assert loaded is not None, f"setup.py built no loadable core in {built_core}"
    return loaded


@pytest.fixture
def compiled(core, monkeypatch):
    """Make ``backend="c"`` run the freshly built library."""
    monkeypatch.setattr(pooling, "_core", core)
    assert pooling.available_backends() == ("py", "c")

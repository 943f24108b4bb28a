"""Shared fixtures; the helpers they build on are in ``cases.py``."""

from __future__ import annotations

import pytest
from cases import MockChatServer, make_sequence

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

"""Prompt assembly, the chat client, answer parsing, and metrics."""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import make_sequence
from pathpool.errors import ConfigError, EndpointError, TransportError
from pathpool.generation import (
    EXAMPLE_ASSISTANT,
    EXAMPLE_QUESTION,
    EXAMPLE_TRIPLES,
    EXAMPLE_USER,
    SYSTEM_PROMPT,
    GenerationConfig,
    PromptBundle,
    aggregate,
    assemble_prompt,
    call_llm,
    evaluate,
    parse_answers,
    render_user_message,
)
from pathpool.kg_store import QueryRecord


def _query(question="Q?"):
    return QueryRecord(id="t", question=question, query_entities=(), gold_answers=("x",))


def _cfg(url, **kwargs):
    defaults = dict(
        endpoint=url, model="test-model", timeout=5.0, retries=2, backoff_base=0.01
    )
    defaults.update(kwargs)
    return GenerationConfig(**defaults)


# -- prompt assembly ----------------------------------------------------------


def test_single_triple_prompt_layout():
    seq = make_sequence([("A", "r", "B", 0.5)])
    bundle = assemble_prompt(_query(), seq)
    assert bundle.user == "Triplets:\n(A, r, B)\nQuestion:\nQ?"


def test_prompt_preserves_given_order():
    seq = make_sequence(
        [("C", "r", "X", 0.1), ("B", "r", "X", 0.2), ("A", "r", "X", 0.9)]
    )
    bundle = assemble_prompt(_query(), seq)
    lines = bundle.user.splitlines()
    assert lines[1:4] == ["(C, r, X)", "(B, r, X)", "(A, r, X)"]


def test_empty_sequence_allowed(caplog):
    from pathpool.kg_store import TripleStore
    from pathpool.scoring import TripleSequence

    seq = TripleSequence.from_scores(TripleStore([]), [], [], "empty")
    with caplog.at_level("WARNING"):
        bundle = assemble_prompt(_query(), seq)
    assert bundle.user == "Triplets:\nQuestion:\nQ?"
    assert any("empty triplet block" in rec.message for rec in caplog.records)


def test_prompt_bundle_is_deterministic():
    seq = make_sequence([("A", "r", "B", 0.5)])
    first = assemble_prompt(_query(), seq)
    second = assemble_prompt(_query(), seq)
    assert first == second
    assert first.sha256() == second.sha256()


# -- prompt encoding ----------------------------------------------------------

_AWKWARD_USERS = [
    "",
    'Triplets:\n(A "quoted", r, B\\C)\nQuestion:\nWhat is "it"?',
    '""',
    "controls \x00\x01\x07\x08\t\x0b\x0c\r\x1b\x1f\x7f end",
    "separators \u2028 and \u2029, escapes \\u2028 \\n",
    "non-BMP \U0001F600 \U00010348 \U0010FFFF, CJK 中文, é, \ufeff",
]


def _compact_sha256(bundle: PromptBundle) -> str:
    payload = json.dumps(bundle.messages(), ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _assert_encoded_as_json_dumps(bundle: PromptBundle) -> None:
    expected = json.dumps(bundle.messages(), ensure_ascii=False, indent=2) + "\n"
    assert bundle.file_text() == expected
    assert bundle.sha256() == _compact_sha256(bundle)


@pytest.mark.parametrize("user", _AWKWARD_USERS)
def test_prompt_encoding_equals_json_dumps(user):
    _assert_encoded_as_json_dumps(
        PromptBundle(SYSTEM_PROMPT, EXAMPLE_USER, EXAMPLE_ASSISTANT, user)
    )


@pytest.mark.parametrize("user", _AWKWARD_USERS)
def test_prompt_encoding_equals_json_dumps_with_other_exemplars(user):
    exemplars = [
        ("", "", ""),
        ('""', 'a "b"\n\u2028', "\U0001F600\\"),
        tuple(_AWKWARD_USERS[3:]),
    ]
    for system, example_user, example_assistant in exemplars:
        _assert_encoded_as_json_dumps(
            PromptBundle(system, example_user, example_assistant, user)
        )


@settings(max_examples=200, deadline=None)
@given(st.text(), st.text(), st.text(), st.text())
def test_prompt_encoding_equals_json_dumps_for_any_text(
    system, example_user, example_assistant, user
):
    _assert_encoded_as_json_dumps(
        PromptBundle(system, example_user, example_assistant, user)
    )


def test_prompt_with_a_lone_surrogate_cannot_be_encoded():
    bundle = PromptBundle(SYSTEM_PROMPT, EXAMPLE_USER, EXAMPLE_ASSISTANT, "Q \ud800?")
    with pytest.raises(UnicodeEncodeError):
        bundle.sha256()
    with pytest.raises(UnicodeEncodeError):
        bundle.file_text().encode("utf-8")


def test_exemplar_user_matches_template():
    assert render_user_message(EXAMPLE_TRIPLES, EXAMPLE_QUESTION).startswith(
        "Triplets:\n(m.011zsc4_, organization.leadership.organization, San Francisco Giants)\n"
    )


# -- answer parsing -----------------------------------------------------------


def test_parse_answers_exemplar():
    assert parse_answers(EXAMPLE_ASSISTANT) == [
        "2014 World Series",
        "2012 World Series",
        "2010 World Series",
    ]


def test_parse_answers_no_match():
    assert parse_answers("no answers here") == []


def test_parse_answers_dedup_normalized():
    assert parse_answers("ans: X\nans: x") == ["X"]


def test_parse_answers_case_and_spacing():
    text = "ANS: Alpha\n  ans:Beta\nAns: gamma.\nans:\nanswer: nope"
    assert parse_answers(text) == ["Alpha", "Beta", "gamma."]


def test_parse_answers_ordered_and_count():
    text = "\n".join(f"ans: a{i}" for i in range(5))
    assert parse_answers(text) == [f"a{i}" for i in range(5)]


# -- evaluation ---------------------------------------------------------------


def test_evaluate_perfect_match():
    preds = ["2014 World Series", "2012 World Series", "2010 World Series"]
    gold = ["2010 World Series", "2012 World Series", "2014 World Series"]
    result = evaluate(preds, gold)
    assert result.hit == 1
    assert result.f1 == pytest.approx(1.0)


def test_evaluate_disjoint():
    result = evaluate(["x"], ["y"])
    assert result.hit == 0
    assert result.f1 == 0.0


def test_evaluate_formula():
    result = evaluate(["a", "b"], ["a", "c", "d"])
    assert result.precision == pytest.approx(0.5)
    assert result.recall == pytest.approx(1 / 3)
    assert result.f1 == pytest.approx(0.4)


def test_evaluate_normalization():
    result = evaluate(['  "The Answer" '], ["the answer"])
    assert result.hit == 1
    assert result.f1 == pytest.approx(1.0)


def test_evaluate_no_predictions():
    result = evaluate([], ["a"])
    assert (result.hit, result.hit_any) == (0, 0)
    assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)


def test_evaluate_requires_gold():
    with pytest.raises(ConfigError):
        evaluate(["a"], [])


def test_hit_strict_first_vs_any():
    result = evaluate(["wrong", "right"], ["right"])
    assert result.hit == 0
    assert result.hit_any == 1


def test_aggregate_means():
    r1 = evaluate(["a"], ["a"])
    r2 = evaluate(["b"], ["a"])
    summary = aggregate([r1, r2])
    assert summary["hit_at_1"] == pytest.approx(0.5)
    assert summary["macro_f1"] == pytest.approx(0.5)
    assert summary["n"] == 2


# -- chat client --------------------------------------------------------------


def test_call_llm_echo(mock_llm):
    mock_llm.script.append(
        (200, json.dumps({"choices": [{"message": {"content": "ans: 42"}}]}))
    )
    bundle = assemble_prompt(_query(), make_sequence([("A", "r", "B", 0.5)]))
    assert call_llm(bundle, _cfg(mock_llm.url)) == "ans: 42"
    payload = mock_llm.requests[0]["payload"]
    assert [m["role"] for m in payload["messages"]] == [
        "system",
        "user",
        "assistant",
        "user",
    ]
    assert payload["temperature"] == 0.0
    assert payload["max_tokens"] == 4000


def test_call_llm_sends_api_key(mock_llm, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sekrit")
    mock_llm.answers["Q?"] = ["fine"]
    bundle = assemble_prompt(_query(), make_sequence([("A", "r", "B", 0.5)]))
    call_llm(bundle, _cfg(mock_llm.url))
    assert mock_llm.requests[0]["headers"].get("Authorization") == "Bearer sekrit"


def test_call_llm_unreachable_retries_then_transport_error():
    bundle = assemble_prompt(_query(), make_sequence([("A", "r", "B", 0.5)]))
    cfg = _cfg("http://127.0.0.1:9/nothing", retries=2, timeout=0.2)
    started = time.perf_counter()
    with pytest.raises(TransportError) as err:
        call_llm(bundle, cfg)
    assert "3 attempts" in str(err.value)
    assert time.perf_counter() - started < 5.0


def test_call_llm_recovers_after_transient_failure(mock_llm, monkeypatch):
    # first attempt hits a refused port, then we fail over to the live mock;
    # patched post() lets the retry loop drive both
    import requests as requests_mod

    calls = {"n": 0}
    real_post = requests_mod.post

    def flaky_post(url, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise requests_mod.ConnectionError("boom")
        return real_post(url, **kwargs)

    monkeypatch.setattr("pathpool.generation.requests.post", flaky_post)
    mock_llm.answers["Q?"] = ["ok"]
    bundle = assemble_prompt(_query(), make_sequence([("A", "r", "B", 0.5)]))
    assert call_llm(bundle, _cfg(mock_llm.url)) == "ans: ok"
    assert calls["n"] == 2


def test_call_llm_non_2xx_is_endpoint_error(mock_llm):
    mock_llm.script.append((400, json.dumps({"error": "prompt too large"})))
    bundle = assemble_prompt(_query(), make_sequence([("A", "r", "B", 0.5)]))
    with pytest.raises(EndpointError) as err:
        call_llm(bundle, _cfg(mock_llm.url))
    assert err.value.status == 400
    assert len(mock_llm.requests) == 1  # not retried


def test_call_llm_malformed_body(mock_llm):
    mock_llm.script.append((200, json.dumps({"unexpected": True})))
    bundle = assemble_prompt(_query(), make_sequence([("A", "r", "B", 0.5)]))
    with pytest.raises(EndpointError):
        call_llm(bundle, _cfg(mock_llm.url))


class _NullContentResponse:
    status_code = 200
    text = '{"choices": [{"message": {"content": null}}]}'

    def json(self):
        return json.loads(self.text)


def test_call_llm_non_string_content_is_endpoint_error(monkeypatch):
    calls = []

    def post(url, **kwargs):
        calls.append(url)
        return _NullContentResponse()

    monkeypatch.setattr("pathpool.generation.requests.post", post)
    bundle = assemble_prompt(_query(), make_sequence([("A", "r", "B", 0.5)]))
    with pytest.raises(EndpointError, match="malformed completion body"):
        call_llm(bundle, _cfg("http://mock.invalid/v1/chat/completions"))
    assert len(calls) == 1  # not retried


def test_generation_config_validation():
    with pytest.raises(ConfigError):
        GenerationConfig(endpoint="", model="m").validate()
    with pytest.raises(ConfigError):
        GenerationConfig(endpoint="x", model="m", temperature=-1).validate()
    with pytest.raises(ConfigError):
        GenerationConfig(endpoint="x", model="m", max_tokens=0).validate()
    for timeout in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="timeout must be > 0"):
            GenerationConfig(endpoint="x", model="m", timeout=timeout).validate()

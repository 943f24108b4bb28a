"""One-shot prompting, chat-endpoint client, answer parsing, and QA metrics.

The prompt is a fixed four-message chat: a system instruction, a one-shot
exemplar (user turn with triplets and question, assistant turn with worked
reasoning and ``ans:`` lines), and the final user turn. Answers are parsed
back out of ``ans:``-prefixed lines and scored as Hit@1 / Macro-F1 against
the gold answer set. ``call_llm`` posts with ``urllib.request``, imported only
there, so code that never posts loads no HTTP module.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Iterable, NamedTuple, Sequence
from urllib.parse import urlsplit

from .errors import ConfigError, EndpointError, TransportError
from .kg_store import QueryRecord
from .scoring import TripleSequence
from .textnorm import normalize_answer

logger = logging.getLogger(__name__)

SYSTEM_PROMPT = (
    "Based on the triplets retrieved from a knowledge graph, please answer the "
    'question. Please return formatted answers as a list, each prefixed with "ans:".'
)

EXAMPLE_TRIPLES: tuple[tuple[str, str, str], ...] = (
    ("m.011zsc4_", "organization.leadership.organization", "San Francisco Giants"),
    ("m.0crtd80", "sports.sports_league_participation.league", "National League West"),
    ("San Francisco Giants", "time.participant.event", "2014 Major League Baseball season"),
    ("San Francisco Giants", "time.participant.event", "2012 Major League Baseball season"),
    ("AT&T Park", "location.location.events", "2010 World Series"),
    ("San Francisco Giants", "sports.professional_sports_team.owner_s", "Bill Neukom"),
    ("San Francisco Giants", "time.participant.event", "2010 Major League Baseball season"),
    ("San Francisco Giants", "sports.sports_team.championships", "2010 World Series"),
    ("San Francisco Giants", "time.participant.event", "2012 World Series"),
    ("Crazy Crab", "sports.mascot.team", "San Francisco Giants"),
    ("San Francisco Giants", "time.participant.event", "2010 World Series"),
    ("San Francisco Giants", "sports.sports_team.championships", "2012 World Series"),
    ("San Francisco Giants", "sports.sports_team.team_mascot", "Crazy Crab"),
    ("San Francisco Giants", "sports.sports_team.championships", "2014 World Series"),
    ("Lou Seal", "sports.mascot.team", "San Francisco Giants"),
)

EXAMPLE_QUESTION = (
    "What year did the team with mascot named Lou Seal win the World Series?"
)

EXAMPLE_ASSISTANT = (
    "To find the year the team with mascot named Lou Seal won the World Series, "
    "we need to find the team with mascot named Lou Seal and then find the year "
    "they won the World Series. From the triplets, we can see that Lou Seal is "
    "the mascot of the San Francisco Giants. Now, we need to find the year the "
    "San Francisco Giants won the World Series. From the triplets, we can see "
    "that San Francisco Giants won the 2010 World Series and 2012 World Series "
    "and 2014 World Series. So, the team with mascot named Lou Seal (San "
    "Francisco Giants) won the World Series in 2010, 2012, and 2014. Therefore, "
    "the formatted answers are: \n"
    "ans: 2014 World Series\n"
    "ans: 2012 World Series\n"
    "ans: 2010 World Series"
)


def render_user_message(
    triples: Iterable[tuple[str, str, str]], question: str
) -> str:
    """User turn: one ``(head, relation, tail)`` line per triple, then the question."""
    block = "".join(f"({h}, {r}, {t})\n" for h, r, t in triples)
    return f"Triplets:\n{block}Question:\n{question}"


EXAMPLE_USER = render_user_message(EXAMPLE_TRIPLES, EXAMPLE_QUESTION)


@dataclass(frozen=True)
class PromptBundle:
    """The four chat messages sent for one query."""

    system: str
    example_user: str
    example_assistant: str
    user: str

    def messages(self) -> list[dict[str, str]]:
        return [
            {"role": "system", "content": self.system},
            {"role": "user", "content": self.example_user},
            {"role": "assistant", "content": self.example_assistant},
            {"role": "user", "content": self.user},
        ]

    @functools.cached_property
    def _user_json(self) -> str:
        """The final user content as both JSON forms encode it, encoded once."""
        return encode_basestring(self.user)

    def sha256(self) -> str:
        """sha256 of the messages' compact JSON (``separators=(",", ":")``)."""
        frames = _frames(self.system, self.example_user, self.example_assistant)
        digest = frames.compact_prefix.copy()
        digest.update((self._user_json + frames.compact_suffix).encode("utf-8"))
        return digest.hexdigest()

    def file_text(self) -> str:
        """The messages' ``indent=2`` JSON plus a newline: a prompt file's text."""
        frames = _frames(self.system, self.example_user, self.example_assistant)
        return frames.file_prefix + self._user_json + frames.file_suffix


class _Frames(NamedTuple):
    compact_prefix: "hashlib._Hash"
    compact_suffix: str
    file_prefix: str
    file_suffix: str


@functools.lru_cache(maxsize=8)
def _frames(system: str, example_user: str, example_assistant: str) -> _Frames:
    """The JSON around the final user content, encoded once per set of fixed messages.

    ``json.dumps(..., ensure_ascii=False)`` encodes every string with
    ``encode_basestring``, in both the compact and the indented form, so a
    frame's prefix, the encoded content and its suffix join into exactly
    the dump of the whole list. The compact prefix is kept as a sha256
    already fed with it.
    """
    messages = PromptBundle(system, example_user, example_assistant, "").messages()
    empty = encode_basestring("")

    def split(**layout) -> tuple[str, str]:
        text = json.dumps(messages, ensure_ascii=False, **layout)
        prefix, _, suffix = text.rpartition(empty)
        return prefix, suffix

    compact_prefix, compact_suffix = split(separators=(",", ":"))
    file_prefix, file_suffix = split(indent=2)
    return _Frames(
        hashlib.sha256(compact_prefix.encode("utf-8")),
        compact_suffix,
        file_prefix,
        file_suffix + "\n",
    )


def assemble_prompt(query: QueryRecord, triples: TripleSequence) -> PromptBundle:
    """Prompt for one query; the triple order is taken as given, not re-sorted."""
    if len(triples) == 0:
        logger.warning("query %s: assembling prompt with empty triplet block", query.id)
    rendered = triples.label_rows()
    return PromptBundle(
        system=SYSTEM_PROMPT,
        example_user=EXAMPLE_USER,
        example_assistant=EXAMPLE_ASSISTANT,
        user=render_user_message(rendered, query.question),
    )


API_KEY_ENV = "LLM_API_KEY"  # its value, when set, is sent as a bearer token
BACKOFF_BASE_S = 0.5  # the first retry's wait; each later wait doubles


@dataclass(frozen=True)
class GenerationConfig:
    endpoint: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 4000
    timeout: float = 60.0
    retries: int = 2

    def validate(self) -> None:
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        # JSON has no NaN or infinity, and a socket no infinite deadline
        if not math.isfinite(self.temperature):
            raise ConfigError("temperature must be finite")
        if self.max_tokens <= 0:
            raise ConfigError("max_tokens must be > 0")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if not self.timeout > 0:  # NaN too
            raise ConfigError("timeout must be > 0")
        if self.timeout == math.inf:
            raise ConfigError("timeout must be finite")
        # urlopen would read a file:// endpoint from disk as a "completion";
        # it sends no user:password@ credentials, and http.client refuses a
        # space, a control character or non-ASCII in the URL
        try:
            url = urlsplit(self.endpoint)
            url.port  # raises ValueError unless the port is a number in range
            is_http = url.scheme in ("http", "https")
            sendable = is_http and bool(url.hostname) and "@" not in url.netloc
        except ValueError:
            sendable = False
        printable = all(" " < char < "\x7f" for char in self.endpoint)
        if not (sendable and printable):
            raise ConfigError(f"endpoint is not an http(s) URL: {self.endpoint!r}")


def call_llm(bundle: PromptBundle, cfg: GenerationConfig) -> str:
    """POST the chat request and return the completion text.

    A failure to connect, or to send or read a reply (OSError or
    ``http.client.HTTPException``), is retried ``cfg.retries`` times with
    exponential backoff, then raises TransportError. A reply that is not
    2xx, or that holds no string completion, raises EndpointError at once.
    """
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    cfg.validate()
    payload = {
        "model": cfg.model,
        "messages": bundle.messages(),
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    data = json.dumps(payload).encode("utf-8")
    request = Request(cfg.endpoint, data, {"Content-Type": "application/json"}, method="POST")
    if api_key := os.environ.get(API_KEY_ENV):
        # an unredirected header is not copied to a 301-303 redirect's GET,
        # so the key never reaches the host that a Location names
        request.add_unredirected_header("Authorization", f"Bearer {api_key}")
    for attempt in range(cfg.retries + 1):
        try:
            try:
                with urlopen(request, timeout=cfg.timeout) as response:
                    status, body = response.status, response.read()
            except HTTPError as exc:  # not 2xx, or a 307/308 redirect of the POST
                with exc:  # inside the outer try, so a failed read is retried
                    raise EndpointError(exc.code, exc.read().decode("utf-8", "replace"))
            break
        except (OSError, HTTPException) as exc:
            if attempt == cfg.retries:
                raise TransportError(
                    f"endpoint unreachable after {attempt + 1} attempts: {exc}"
                ) from exc
            delay = BACKOFF_BASE_S * 2**attempt
            logger.warning("LLM call failed (%s); retrying in %.2fs", exc, delay)
            time.sleep(delay)
    text = body.decode("utf-8", "replace")
    try:
        content = json.loads(text)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError):
        content = None
    if not isinstance(content, str):
        raise EndpointError(status, f"malformed completion body: {text}")
    return content


def parse_answers(completion: str) -> list[str]:
    """Answers from ``ans:``-prefixed lines, in order, deduplicated.

    The prefix match is case-insensitive; duplicates are detected on the
    normalized form and the first spelling wins. Lines with nothing after
    the prefix are ignored.
    """
    answers: list[str] = []
    seen: set[str] = set()
    for line in completion.splitlines():
        stripped = line.strip()
        if stripped[:4].lower() != "ans:":
            continue
        rest = stripped[4:].strip()
        if rest and (key := normalize_answer(rest)) not in seen:
            seen.add(key)
            answers.append(rest)
    return answers


@dataclass(frozen=True)
class EvalResult:
    """Per-query scores; ``hit`` credits only the first parsed answer."""

    hit: int
    hit_any: int
    precision: float
    recall: float
    f1: float


def evaluate(predictions: Sequence[str], gold: Sequence[str]) -> EvalResult:
    """Set-based precision/recall/F1 plus strict-first Hit@1 on normalized strings."""
    if not gold:
        raise ConfigError("gold answers must be non-empty")
    gold_set = {normalize_answer(answer) for answer in gold}
    pred_list = [normalize_answer(p) for p in predictions]
    pred_set = set(pred_list)
    overlap = len(pred_set & gold_set)
    precision = overlap / len(pred_set) if pred_set else 0.0
    recall = overlap / len(gold_set)
    f1 = 2 * precision * recall / (precision + recall) if overlap else 0.0
    hit = 1 if pred_list and pred_list[0] in gold_set else 0
    hit_any = 1 if overlap > 0 else 0
    return EvalResult(hit=hit, hit_any=hit_any, precision=precision, recall=recall, f1=f1)


def aggregate(results: Sequence[EvalResult]) -> dict[str, float]:
    """Run-level means: Hit@1 and Macro-F1 (plus any-answer hit as a side metric)."""
    n = len(results)
    if n == 0:
        return {"n": 0, "hit_at_1": 0.0, "macro_f1": 0.0, "hit_any_at_1": 0.0}
    return {
        "n": n,
        "hit_at_1": sum(r.hit for r in results) / n,
        "macro_f1": sum(r.f1 for r in results) / n,
        "hit_any_at_1": sum(r.hit_any for r in results) / n,
    }

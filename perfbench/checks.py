"""Output checks for one pipeline call's out dir, against the generated inputs.

The checks use only the benchmark's own view of the inputs (the generated
triples and queries), never the package, so a change to the package cannot
change what counts as correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict, deque
from pathlib import Path


class Checker:
    """Checks ``results.jsonl``, ``metrics.json`` and the prompt files of one call."""

    def __init__(self, triples: list[tuple[str, str, str]], hops: int, budget: int):
        self.hops = hops
        self.budget = budget
        self._incident: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
        for triple in triples:
            self._incident[triple[0]].append(triple)
            if triple[2] != triple[0]:
                self._incident[triple[2]].append(triple)

    def ball(self, entity: str) -> set[tuple[str, str, str]]:
        """Triples with an endpoint within ``hops - 1`` undirected steps of ``entity``."""
        dist = {entity: 0}
        frontier = deque([entity])
        while frontier:
            current = frontier.popleft()
            if dist[current] >= self.hops - 1:
                continue
            for head, _, tail in self._incident[current]:
                for other in (head, tail):
                    if other not in dist:
                        dist[other] = dist[current] + 1
                        frontier.append(other)
        return {t for e in dist for t in self._incident[e]}

    def check(self, out_dir: Path, queries: list[dict]) -> tuple[list[str], list[tuple[str, str]]]:
        """Problems found (empty when correct) and the ordered ``(id, prompt_sha256)`` list."""
        problems: list[str] = []
        rows = [
            json.loads(line)
            for line in (out_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        if [r.get("id") for r in rows] != [q["id"] for q in queries]:
            return [f"{out_dir.name}: results.jsonl ids differ from the query file"], []
        errors = sum(1 for r in rows if r.get("status") == "error")
        if metrics.get("n_queries") != len(queries) or metrics.get("n_errors") != errors:
            problems.append(
                f"{out_dir.name}: metrics.json n_queries/n_errors "
                f"{metrics.get('n_queries')}/{metrics.get('n_errors')} != {len(queries)}/{errors}"
            )
        shas = []
        for row, query in zip(rows, queries):
            (entity,) = query["query_entities"]
            absent = entity not in self._incident
            if absent != (row.get("status") == "error"):
                problems.append(f"{row['id']}: status {row.get('status')!r}, absent={absent}")
                continue
            if absent:
                continue
            if row.get("status") != "dry_run":
                problems.append(f"{row['id']}: status {row.get('status')!r}")
                continue
            shas.append((row["id"], row["prompt_sha256"]))
            problem = self._check_prompt(out_dir / "prompts" / f"{row['id']}.json", row, query)
            if problem:
                problems.append(f"{row['id']}: {problem}")
        return problems, shas

    def _check_prompt(self, path: Path, row: dict, query: dict) -> str | None:
        messages = json.loads(path.read_text(encoding="utf-8"))
        payload = json.dumps(messages, ensure_ascii=False, separators=(",", ":"))
        if hashlib.sha256(payload.encode("utf-8")).hexdigest() != row["prompt_sha256"]:
            return "prompt file does not hash to prompt_sha256"
        block, sep, question = messages[-1]["content"].partition("\nQuestion:\n")
        if not sep or question != query["question"] or not block.startswith("Triplets:"):
            return "final user message is not the triplet block plus the question"
        listed = [tuple(line[1:-1].split(", ")) for line in block.split("\n")[1:]]
        if any(len(t) != 3 for t in listed):
            return "a triplet line is not '(head, relation, tail)'"
        ball = self.ball(query["query_entities"][0])
        if len(set(listed)) != len(listed):
            return "prompt lists a triple twice"
        if not set(listed) <= ball:
            return f"prompt lists triples outside {self.hops} hops of the query entity"
        if len(listed) != min(self.budget, len(ball)):
            return f"prompt lists {len(listed)} triples, expected {min(self.budget, len(ball))}"
        return None


def digest(shas: list[tuple[str, str]]) -> str:
    """sha256 over the ordered ``id<TAB>prompt_sha256`` lines."""
    text = "".join(f"{qid}\t{sha}\n" for qid, sha in shas)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from cases import make_sequence
from naive_ref import naive_smooth
from pathpool import bench, cli, generation, pooling, selection
from pathpool.kg_store import TripleStore, load_queries
from pathpool.pooling import PoolingConfig, build_scored_subgraph, smooth
from pathpool.scoring import TripleSequence

DATA = Path(cli.__file__).parent / "data"


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


def _random_graph(seed: int, dyadic: bool, max_vertices=12, max_edges=20):
    """Random scored multigraph; dyadic scores keep every search sum exact."""
    rnd = random.Random(seed)
    nv = rnd.randint(2, max_vertices)
    labels = [f"N{i}" for i in range(nv)]
    # each distinct row with the score of its first draw, in first-seen order
    edges: dict[tuple[str, str, str], float] = {}
    for _ in range(rnd.randint(1, max_edges)):
        head, tail = rnd.choice(labels), rnd.choice(labels)
        relation = f"rel{rnd.randint(0, 6)}"
        score = rnd.randrange(1, 1025) / 1024.0 if dyadic else rnd.uniform(1e-3, 1.0)
        edges.setdefault((head, relation, tail), score)
    sequence = TripleSequence.from_scores(
        TripleStore(edges), range(len(edges)), list(edges.values()), "acceptance"
    )
    queries = rnd.sample(labels, rnd.randint(0, min(3, nv)))
    return sequence, queries


# -- criterion: oracle equivalence -------------------------------------------


def test_oracle_equivalence_200_random_subgraphs():
    started = time.perf_counter()
    for seed in range(200):
        sequence, queries = _random_graph(seed, dyadic=True)
        strategy = "average" if seed % 2 == 0 else "max"
        cfg = PoolingConfig(search_algorithm="dijkstra", pooling=strategy)
        expected = naive_smooth(
            sequence.labeled_items(),
            queries,
            algorithm="dijkstra",
            pooling=strategy,
        )
        got = smooth(sequence, queries, cfg).labeled_items()
        assert got == expected, f"seed {seed}"  # bit-identical rows, same order
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("oracle-equivalence", f"200 graphs, {elapsed:.2f}s")


# -- criterion: worked-example fidelity ---------------------------------------


def test_worked_example_fidelity():
    sequence = make_sequence(
        [("A", "r1", "B", 0.9), ("B", "r2", "C", 0.3), ("D", "r3", "E", 0.5)]
    )
    out = smooth(sequence, ["A"], PoolingConfig())
    rows = out.labeled_items()
    assert [row[:3] for row in rows] == [
        ("A", "r1", "B"),
        ("B", "r2", "C"),
        ("D", "r3", "E"),
    ]
    for got, want in zip((row[3] for row in rows), (0.93, 0.615, 0.53)):
        assert got == pytest.approx(want, abs=1e-9)
    _report("worked-example", "s' = 0.93 / 0.615 / 0.53")


# -- criterion: invariant suite (>= 1000 random cases each) -------------------

CASES = 1000


def test_invariant_multiset_preservation():
    for seed in range(CASES):
        sequence, queries = _random_graph(seed, dyadic=False, max_edges=8)
        smoothed = smooth(sequence, queries, PoolingConfig())
        reranked = selection.rerank(smoothed, "recency" if seed % 2 else "lost_in_middle")
        want = sorted(item.triple for item in sequence.items)
        assert sorted(item.triple for item in smoothed.items) == want
        assert sorted(item.triple for item in reranked.items) == want
    _report("invariant-multiset", f"{CASES} cases")


def test_invariant_singleton_law():
    cfg = PoolingConfig()
    for seed in range(CASES):
        sequence, queries = _random_graph(seed, dyadic=False, max_edges=8)
        g = build_scored_subgraph(sequence)
        kernels = pooling.search_path_kernels(g, queries, cfg)
        in_multi_edge_kernel = set()
        for kernel in kernels:
            if len(kernel) > 1:
                in_multi_edge_kernel.update(kernel.edge_indices)
        scores = [item.score for item in sequence.items]
        s_min = min(scores)
        out = {item.rank: item.score for item in smooth(sequence, queries, cfg).items}
        for e, score in enumerate(scores):
            if e not in in_multi_edge_kernel:
                assert out[e] == score + s_min / cfg.positional_divisor
    _report("invariant-singleton-law", f"{CASES} cases")


def test_invariant_base_score_sharing_and_max_aggregation():
    # every triple's smoothed score must be exactly the max over its kernels
    # of (shared pooled score + positional term) -- the executable statement
    # of base-score sharing within a kernel
    for seed in range(CASES):
        sequence, queries = _random_graph(seed, dyadic=False, max_edges=8)
        algorithm = ("dijkstra", "bfs", "random_walk")[seed % 3]
        cfg = PoolingConfig(
            search_algorithm=algorithm,
            pooling="average" if seed % 2 else "max",
            rng_seed=seed,
        )
        g = build_scored_subgraph(sequence)
        scores = [item.score for item in sequence.items]
        s_min = min(scores)
        expected: dict[int, float] = {}
        for kernel in pooling.search_path_kernels(g, queries, cfg):
            pooled = kernel.pooled_score
            for position, e in enumerate(kernel.edge_indices, start=1):
                value = pooled + s_min / (position * cfg.positional_divisor)
                if e not in expected or value > expected[e]:
                    expected[e] = value
        got = {item.rank: item.score for item in smooth(sequence, queries, cfg).items}
        assert got == expected, (seed, algorithm)
    _report("invariant-base-score-sharing", f"{CASES} cases")


def test_invariant_recency_non_decreasing():
    for seed in range(CASES):
        sequence, queries = _random_graph(seed, dyadic=False, max_edges=8)
        smoothed = smooth(sequence, queries, PoolingConfig())
        scores = selection.rerank(smoothed, "recency").scores()
        assert scores == sorted(scores)
    _report("invariant-recency-order", f"{CASES} cases")


def test_invariant_reselect_equals_rerank_of_topk():
    for seed in range(CASES):
        sequence, queries = _random_graph(seed, dyadic=False, max_edges=8)
        smoothed = smooth(sequence, queries, PoolingConfig())
        fine_k = max(1, len(smoothed) // 2)
        order = "recency" if seed % 2 else "lost_in_middle"
        left = selection.reselect(smoothed, fine_k, order).labeled_items()
        right = selection.rerank(
            selection.top_k(smoothed, fine_k), order
        ).labeled_items()
        assert left == right
    _report("invariant-reselect-composition", f"{CASES} cases")


def test_invariant_positive_shift_ranking():
    # the smoothing shift: pre-shifting a non-positive sequence by the same
    # (eps - min) constant the smoother applies internally must not change
    # the output (ranking or values); this is the sense in which only
    # ordering flows downstream. The literal "any positive constant" reading
    # is unsatisfiable: positional terms scale with the sequence minimum, so
    # a large uniform lift reorders near-ties (see decisions ledger).
    checked = 0
    seed = 0
    while checked < CASES:
        rnd = random.Random(10_000 + seed)
        seed += 1
        sequence, queries = _random_graph(10_000 + seed, dyadic=False, max_edges=8)
        flipped = make_sequence(
            [
                (h, r, t, s - rnd.uniform(0.0, 1.5))
                for h, r, t, s in sequence.labeled_items()
            ]
        )
        raw = [row[3] for row in flipped.labeled_items()]
        if min(raw) > 0:
            continue
        checked += 1
        shift = pooling.SCORE_SHIFT_EPS - min(raw)
        pre_shifted = make_sequence(
            [(h, r, t, s + shift) for h, r, t, s in flipped.labeled_items()]
        )
        cfg = PoolingConfig(pooling="average")
        assert (
            smooth(flipped, queries, cfg).labeled_items()
            == smooth(pre_shifted, queries, cfg).labeled_items()
        )
    _report("invariant-shift-consistency", f"{CASES} cases")


def test_invariant_seeded_determinism():
    for seed in range(CASES):
        sequence, queries = _random_graph(seed, dyadic=False, max_edges=8)
        algorithm = ("dijkstra", "bfs", "random_walk")[seed % 3]
        cfg = PoolingConfig(search_algorithm=algorithm, rng_seed=seed)
        first = smooth(sequence, queries, cfg).labeled_items()
        second = smooth(sequence, queries, cfg).labeled_items()
        assert first == second
    _report("invariant-determinism", f"{CASES} cases")


# -- criterion: pooling-ablation sanity ---------------------------------------


def test_pooling_ablation_uniform_scores():
    for seed in range(200):
        sequence, queries = _random_graph(seed, dyadic=False, max_edges=10)
        uniform = make_sequence(
            [(h, r, t, 0.5) for h, r, t, _ in sequence.labeled_items()]
        )
        avg = smooth(uniform, queries, PoolingConfig(pooling="average"))
        mx = smooth(uniform, queries, PoolingConfig(pooling="max"))
        assert avg.labeled_items() == mx.labeled_items()
    _report("pooling-ablation", "average == max on uniform scores")


# -- criterion: timing shape ---------------------------------------------------


def test_timing_shape():
    started = time.perf_counter()
    store = bench.synthesize_store(seed=0)
    workloads = bench.sample_workloads(store, count=33, size=500, seed=0)
    sizes = [25, 50, 100, 200, 500]
    dijkstra_report = bench.measure_overhead(workloads, ["dijkstra"], sizes)
    bfs_report = bench.measure_overhead(workloads, ["bfs"], [500])
    elapsed = time.perf_counter() - started

    means = [dijkstra_report.cell("dijkstra", size).mean_ms for size in sizes]
    dijkstra_500 = means[-1]
    bfs_500 = bfs_report.cell("bfs", 500).mean_ms
    assert dijkstra_500 <= 50.0
    assert bfs_500 / dijkstra_500 >= 3.0
    # cost rises with size: strictly on the kernel edges searched, a count
    # machine noise cannot move, and in wall-clock time across the range
    # (adjacent sizes can sit within that noise)
    cfg = PoolingConfig(search_algorithm="dijkstra")
    kernel_edges = [
        sum(
            len(kernel)
            for sequence, anchors in workloads
            for kernel in pooling.search_path_kernels(
                build_scored_subgraph(sequence.trimmed(size)), anchors, cfg
            )
        )
        for size in sizes
    ]
    assert all(a < b for a, b in zip(kernel_edges, kernel_edges[1:])), kernel_edges
    assert means[0] < means[-1], f"dijkstra means: {means}"
    assert elapsed < 300.0
    _report(
        "timing-shape",
        f"dijkstra@500 {dijkstra_500:.2f} ms, bfs/dijkstra {bfs_500 / dijkstra_500:.1f}x, "
        f"means {['%.2f' % m for m in means]}, kernel edges {kernel_edges}, "
        f"bench {elapsed:.1f}s",
    )


# -- criterion: prompt fidelity -------------------------------------------------

EXPECTED_EXEMPLAR_USER = (
    "Triplets:\n"
    "(m.011zsc4_, organization.leadership.organization, San Francisco Giants)\n"
    "(m.0crtd80, sports.sports_league_participation.league, National League West)\n"
    "(San Francisco Giants, time.participant.event, 2014 Major League Baseball season)\n"
    "(San Francisco Giants, time.participant.event, 2012 Major League Baseball season)\n"
    "(AT&T Park, location.location.events, 2010 World Series)\n"
    "(San Francisco Giants, sports.professional_sports_team.owner_s, Bill Neukom)\n"
    "(San Francisco Giants, time.participant.event, 2010 Major League Baseball season)\n"
    "(San Francisco Giants, sports.sports_team.championships, 2010 World Series)\n"
    "(San Francisco Giants, time.participant.event, 2012 World Series)\n"
    "(Crazy Crab, sports.mascot.team, San Francisco Giants)\n"
    "(San Francisco Giants, time.participant.event, 2010 World Series)\n"
    "(San Francisco Giants, sports.sports_team.championships, 2012 World Series)\n"
    "(San Francisco Giants, sports.sports_team.team_mascot, Crazy Crab)\n"
    "(San Francisco Giants, sports.sports_team.championships, 2014 World Series)\n"
    "(Lou Seal, sports.mascot.team, San Francisco Giants)\n"
    "Question:\n"
    "What year did the team with mascot named Lou Seal win the World Series?"
)

EXPECTED_SYSTEM = (
    "Based on the triplets retrieved from a knowledge graph, please answer the "
    'question. Please return formatted answers as a list, each prefixed with "ans:".'
)


def test_prompt_fidelity_lou_seal(lou_seal_query):
    sequence = make_sequence(
        [(h, r, t, 1.0 - 0.01 * i) for i, (h, r, t) in enumerate(generation.EXAMPLE_TRIPLES)]
    )
    bundle = generation.assemble_prompt(lou_seal_query, sequence)
    assert bundle.system == EXPECTED_SYSTEM
    assert bundle.example_user == EXPECTED_EXEMPLAR_USER
    assert bundle.user == EXPECTED_EXEMPLAR_USER  # same triples, same question

    answers = generation.parse_answers(bundle.example_assistant)
    assert answers == ["2014 World Series", "2012 World Series", "2010 World Series"]

    result = generation.evaluate(answers, list(lou_seal_query.gold_answers))
    assert result.hit == 1
    assert result.f1 == pytest.approx(1.0)
    _report("prompt-fidelity", "byte-for-byte exemplar, 3 answers, hit=1 f1=1.0")


# -- criterion: end-to-end dry run ----------------------------------------------


def _tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): p.read_text(encoding="utf-8")
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_end_to_end_toy_pipeline(tmp_path, mock_llm):
    kg = str(DATA / "toy_kg.tsv")
    queries_path = str(DATA / "toy_queries.jsonl")
    scorer = f"precomputed:{DATA / 'toy_scores.tsv'}"
    common = [
        "run",
        "--kg", kg,
        "--queries", queries_path,
        "--scorer", scorer,
        "--mode", "reselect",
        "--fine-k", "10",
        "--seed", "0",
    ]

    # deterministic dry runs
    dry_a, dry_b = tmp_path / "dry_a", tmp_path / "dry_b"
    assert cli.main([*common, "--no-llm", "--out", str(dry_a)]) == 0
    assert cli.main([*common, "--no-llm", "--out", str(dry_b)]) == 0
    assert _tree(dry_a) == _tree(dry_b)

    # baseline ordering differs from reselect ordering, and both are stable
    base_a, base_b = tmp_path / "base_a", tmp_path / "base_b"
    assert cli.main([*common, "--baseline", "--no-llm", "--out", str(base_a)]) == 0
    assert cli.main([*common, "--baseline", "--no-llm", "--out", str(base_b)]) == 0
    assert _tree(base_a) == _tree(base_b)
    assert any(
        (dry_a / "prompts" / f"q{i}.json").read_text()
        != (base_a / "prompts" / f"q{i}.json").read_text()
        for i in range(1, 6)
    )

    # mock endpoint returns the gold answers; metrics must be perfect
    for record in load_queries(queries_path):
        mock_llm.answers[record.question] = list(record.gold_answers)
    full = tmp_path / "full"
    assert cli.main(
        [*common, "--endpoint", mock_llm.url, "--out", str(full)]
    ) == 0
    metrics = json.loads((full / "metrics.json").read_text())
    assert metrics["n_queries"] == 5
    assert metrics["n_errors"] == 0
    assert metrics["hit_at_1"] == 1.0
    assert metrics["macro_f1"] == 1.0
    _report(
        "end-to-end",
        "deterministic dry run, baseline != reselect, mock LLM hit@1=1.0 f1=1.0",
    )

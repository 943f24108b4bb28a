"""Compiled core vs pure-Python backend: results must match to the bit.

The compiled ``smooth_scores`` is built once per test run with ``setup.py
build_ext`` into a temporary directory, the same build an install runs, so
nothing is written under ``src/``. It is loaded through the package's own
loader. The tests skip only when no C compiler is found.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from cases import (
    WALK_SEEDS,
    branching_star,
    c_compiler,
    c_compiler_found,
    crowded_end_vertices,
    deep_tied_chain,
    edge_shapes,
    flat_args,
    make_sequence,
    random_case,
    tree_graphs,
)
from pathpool import bench, pooling
from pathpool.errors import ConfigError
from pathpool.pooling import PoolingConfig, _kernels_py, build_scored_subgraph
from pathpool.pooling._kernels_py import ALG_BFS, ALG_DIJKSTRA, ALG_RANDOM_WALK

ROOT = Path(__file__).resolve().parents[1]
ALGORITHMS = ("dijkstra", "bfs", "random_walk")


def test_compiled_core_compiles_clean_under_strict_warnings():
    # every warning is an error, so a slip in the work-buffer layout that a
    # compiler only warns about (a sign change or a narrowing of the doubled
    # graph's sizes, an unused or shadowed name) fails here rather than in a
    # bit-identity test
    if not c_compiler_found():
        pytest.skip("no C compiler found")
    source = ROOT / "src" / "pathpool" / "pooling" / "_kernels_c.c"
    flags = ["-std=c99", "-Wall", "-Wextra", "-pedantic", "-Wconversion", "-Wshadow"]
    flags += ["-Werror", "-fsyntax-only"]
    result = subprocess.run(
        [*c_compiler(), *flags, str(source)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def _runtime(name: str) -> str | None:
    """Path of the runtime library ``name`` the C compiler links, or None."""
    found = subprocess.run(
        [*c_compiler(), f"-print-file-name={name}"], capture_output=True, text=True
    ).stdout.strip()
    return found if os.path.isabs(found) and os.path.isfile(found) else None


def test_bit_identity_holds_under_address_and_undefined_behaviour_sanitizers(
    tmp_path,
):
    # a child pytest runs every other test of this file but the syntax check
    # on a core that setup.py builds with the sanitizers (setuptools adds
    # CFLAGS and LDFLAGS), with their runtimes preloaded into Python; any
    # report aborts. Tests are left out by node id, so a renamed test stays
    # in, and the child must pass all that the selection collects. Python's
    # own flags hold -fwrapv, which defines signed overflow and so turns
    # UBSan's check of it off; -fno-wrapv, given last, turns it on
    if not c_compiler_found():
        pytest.skip("no C compiler found")
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        path = _runtime(name)
        if path is None:
            pytest.skip(f"{c_compiler()[0]} has no {name}")
        runtimes.append(path)
    sanitize = "-fsanitize=address,undefined"
    env = {
        **os.environ,
        "CFLAGS": f"{sanitize} -fno-sanitize-recover=all -g -fno-wrapv",
        "LDFLAGS": sanitize,
        "LD_PRELOAD": " ".join(runtimes),
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    left_out = (
        test_bit_identity_holds_under_address_and_undefined_behaviour_sanitizers,
        test_compiled_core_compiles_clean_under_strict_warnings,
    )
    here = Path(__file__).relative_to(ROOT).as_posix()  # pytest's node-id prefix
    pytest_argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    pytest_argv += [here, *(f"--deselect={here}::{test.__name__}" for test in left_out)]
    collected = subprocess.run(
        [*pytest_argv, "--collect-only"], cwd=ROOT, capture_output=True, text=True
    ).stdout
    assert not any(test.__name__ in collected for test in left_out), collected
    selected = sum("::" in line for line in collected.splitlines())
    child = subprocess.run(
        # -s: a sanitizer report is written just before the child exits
        [*pytest_argv, "-s", f"--basetemp={tmp_path}"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    summary = child.stdout.strip().splitlines()[-1]
    assert selected and summary.startswith(f"{selected} passed"), (selected, summary)
    assert "skipped" not in summary
    built = tmp_path.glob("build*/pathpool/pooling/_kernels_c*")
    (library,) = {path.resolve() for path in built}  # build0 and its link
    binary = library.read_bytes()
    assert b"__asan_init" in binary and b"__ubsan_handle_add_overflow" in binary


def assert_backends_agree(seq, queries, cfg, context):
    py = pooling.smooth(seq, queries, cfg, backend="py").labeled_items()
    cc = pooling.smooth(seq, queries, cfg, backend="c").labeled_items()
    assert py == cc, context


def test_smooth_identical_across_backends(compiled):
    for seed in range(150):
        seq, queries = random_case(seed, max_edges=24, positive=False)
        for algorithm in ALGORITHMS:
            for strategy in ("average", "max"):
                cfg = PoolingConfig(
                    search_algorithm=algorithm, pooling=strategy, rng_seed=seed
                )
                assert_backends_agree(seq, queries, cfg, (seed, algorithm, strategy))


def test_smooth_identical_across_path_lengths(compiled):
    # max_path_len 2**40 exceeds every edge count and the C int range: the
    # compiled core clamps it to n_edges, which must change no kernel
    for seed in range(150):
        seq, queries = random_case(seed, max_edges=24, positive=False)
        for algorithm in ALGORITHMS:
            for max_path_len in (1, 3, 2**40):
                cfg = PoolingConfig(
                    search_algorithm=algorithm,
                    max_path_len=max_path_len,
                    positional_divisor=0.5 + seed % 7,
                    rng_seed=seed,
                )
                assert_backends_agree(seq, queries, cfg, (seed, algorithm, max_path_len))


def test_smooth_identical_on_whole_graph_paths(compiled):
    # a chain of n edges holds a kernel with every edge: the longest path any
    # work buffer has to hold, reached with max_path_len == n and above
    for n in (1, 2, 5):
        seq = make_sequence([(f"V{i}", "r", f"V{i + 1}", 0.1 + i / 8) for i in range(n)])
        for anchor in ("V0", f"V{n}"):
            for algorithm in ALGORITHMS:
                for max_path_len in (n, n + 1, 2**40):
                    cfg = PoolingConfig(
                        search_algorithm=algorithm, max_path_len=max_path_len
                    )
                    assert_backends_agree(seq, [anchor], cfg, (n, anchor, algorithm))


def test_bfs_identical_across_backends_on_dense_bench_graphs(compiled):
    # bench sequences are dense community multigraphs with many parallel
    # edges: per anchor, about 20,000 simple paths of four triples and over
    # 120,000 of five
    store = bench.synthesize_store(seed=0)
    for sequence, anchors in bench.sample_workloads(store, 2, 200, seed=1):
        first = anchors[0]
        other = next(h for h, _, _ in sequence.label_rows()[::-1] if h != first)
        for anchor_set in ([first], [first, other]):
            for max_path_len in (4, 5):
                for strategy in ("average", "max"):
                    cfg = PoolingConfig(
                        search_algorithm="bfs",
                        pooling=strategy,
                        max_path_len=max_path_len,
                    )
                    context = (anchor_set, max_path_len, strategy)
                    assert_backends_agree(sequence, anchor_set, cfg, context)


def test_dijkstra_tie_breaks_identical_across_backends(compiled):
    # with one score for every triple (the uniform scorer's case) equal-hop
    # paths tie on score, and the edge-rank order picks the tree path
    for seed in range(150):
        seq, queries = random_case(seed, max_edges=24)
        flat = make_sequence([(h, r, t, 0.5) for h, r, t, _ in seq.labeled_items()])
        cfg = PoolingConfig(search_algorithm="dijkstra")
        assert_backends_agree(flat, queries, cfg, seed)


@pytest.mark.parametrize("max_path_len", [2, 3, 4, 5])
def test_bfs_identical_across_backends_behind_crowded_out_edges(core, max_path_len):
    # the longest prefix's one free out-edge scores below max_path_len + 2
    # parallel edges or self-loops that all lead back onto the prefix
    for context, n_vertices, edges, scores in crowded_end_vertices(max_path_len):
        args = flat_args(n_vertices, edges, scores)
        for pooling_code in (0, 1):
            tail = ([0], ALG_BFS, max_path_len, 1, 0, pooling_code)
            tail += (min(scores), 10.0)
            py = _kernels_py.smooth_scores(*args, *tail)
            assert py.tobytes() == core.smooth_scores(*args, *tail).tobytes(), context


def _assert_tree_folds_agree(core, n_vertices, edges, scores, rank, sources):
    args = flat_args(n_vertices, edges, scores, rank)
    s_min = min(scores)
    for pooling_code in (0, 1):
        for divisor in (10.0, 0.75):
            tail = (sources, 0, 1, 1, 0, pooling_code, s_min, divisor)
            py = _kernels_py.smooth_scores(*args, *tail)
            assert py.tobytes() == core.smooth_scores(*args, *tail).tobytes()


@settings(max_examples=400, deadline=None)
@given(graph=tree_graphs())
def test_dijkstra_fold_identical_to_the_compiled_core(core, graph):
    # parallel edges, self-loops, all-equal scores, several sources and
    # chains up to 11 levels deep, on flat graphs with shuffled edge ranks
    _assert_tree_folds_agree(core, *graph)


def test_dijkstra_fold_identical_to_the_compiled_core_on_a_deep_tied_chain(core):
    n_vertices, edges, scores, rank = deep_tied_chain()
    for sources in ([0], [n_vertices - 1], [0, 5], [4]):
        _assert_tree_folds_agree(core, n_vertices, edges, scores, rank, sources)


def test_identical_across_backends_on_edge_shapes(core):
    for context, n_vertices, edges, sources, lengths, walk_count in edge_shapes():
        scores = [0.25 + (e * 37 % 101) / 128 for e in range(len(edges))]
        args = flat_args(n_vertices, edges, scores)
        for algorithm in (ALG_DIJKSTRA, ALG_BFS, ALG_RANDOM_WALK):
            for max_path_len in lengths:
                for pooling_code in (0, 1):
                    tail = (sources, algorithm, max_path_len, walk_count, 7)
                    tail += (pooling_code, min(scores), 10.0)
                    py = _kernels_py.smooth_scores(*args, *tail)
                    cc = core.smooth_scores(*args, *tail)
                    assert py.tobytes() == cc.tobytes(), (context, algorithm, max_path_len)


def test_walk_counter_draws_identical_across_seeds(compiled):
    # long walk budgets take thousands of counter draws; any divergence in a
    # walk's key, a step's counter or the rejection sampling changes which
    # paths become kernels
    seq, queries = random_case(5, max_edges=20)
    if not queries:
        queries = [seq.label_rows()[0][0]]
    for seed in WALK_SEEDS:
        cfg = PoolingConfig(search_algorithm="random_walk", walk_count=2048, rng_seed=seed)
        assert_backends_agree(seq, queries, cfg, seed)
    # on a 48-branch star (draws below 48 reject masked values of 48..63) a
    # few walks leave most branches unwalked, so each draw shows in the scores
    star, anchors = branching_star(48)
    for seed in WALK_SEEDS:
        for walk_count in (1, 5, 20):
            cfg = PoolingConfig(
                search_algorithm="random_walk", walk_count=walk_count, rng_seed=seed
            )
            assert_backends_agree(star, anchors, cfg, (seed, walk_count))


def test_search_path_kernels_checks_backend_and_runs_in_python(compiled):
    seq, queries = random_case(3, max_edges=24)
    g = build_scored_subgraph(seq)
    cfg = PoolingConfig(search_algorithm="bfs")
    py = pooling.search_path_kernels(g, queries, cfg, backend="py")
    assert pooling.search_path_kernels(g, queries, cfg, backend="c") == py
    with pytest.raises(ConfigError):
        pooling.search_path_kernels(g, queries, cfg, backend="fortran")


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        pooling.backend_module("fortran")


@pytest.mark.parametrize("library", ["none", "built", "corrupt"])
def test_auto_resolves_to_c_exactly_when_the_library_loads(
    built_core, tmp_path, library
):
    package = tmp_path / "pathpool"
    shutil.copytree(
        ROOT / "src" / "pathpool",
        package,
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"),
    )
    if library != "none":
        (built_so,) = built_core.glob("_kernels_c.*")
        target = package / "pooling" / built_so.name
        if library == "built":
            shutil.copy(built_so, target)
        else:
            target.write_bytes(b"not a shared library")
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "from pathpool import pooling; "
            "print(pooling.DEFAULT_BACKEND, *pooling.available_backends())",
        ],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True,
        text=True,
        check=True,
    )
    expected = "c py c" if library == "built" else "py py"
    assert probe.stdout.split() == expected.split()

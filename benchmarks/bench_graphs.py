"""Graph construction: random regular graphs and the complete graph.

Every expander experiment (E2, E5, E9, E12, E13, E15, E17–E19) and the
perfbench scenario legs build random ``d``-regular graphs, and E2, E8
and E10 build ``K_n``; construction is numpy end to end, with only the
repair swaps in Python.  Each bench also checks the graph it built, so
a fast wrong graph cannot pass.  The arrays themselves are pinned bit
for bit by ``tests/test_graph_build.py``.
"""

import pytest

from repro.graphs import complete_graph, random_regular_graph


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_random_regular_build(benchmark, n):
    benchmark.extra_info.update(family="random_regular", n=n, d=10)
    graph = benchmark.pedantic(
        lambda: random_regular_graph(n, 10, rng=0), rounds=3, iterations=1
    )
    assert graph.m == 5 * n and graph.is_regular()


def test_complete_graph_build(benchmark):
    benchmark.extra_info.update(family="complete", n=1000)
    graph = benchmark.pedantic(lambda: complete_graph(1000), rounds=3, iterations=1)
    assert graph.m == 1000 * 999 // 2

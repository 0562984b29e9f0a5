"""Execution-kernel throughput: loop vs block vs compiled (steps/s).

The acceptance bars: the block kernel at least 3× the sequential
loop's single-run engine throughput on a random regular expander with
n ≥ 10⁴ under DIV, and the compiled kernel (where numba is installed)
beating the block kernel on the same workload.  All backends are
bit-for-bit equivalent (see ``tests/test_kernels.py`` and
``docs/kernels.md``), so these benchmarks are purely about wall-clock;
a run to consensus under each backend asserts equal step counts as a
cheap sanity check.  The compiled benches skip without numba — the
backend would silently resolve to ``block`` and measure nothing new.

The per-layer rows time the block kernel's two constant costs per
8192-pair block: one ``solve_block`` (int32 event keys at n = 10⁴,
int64 at n = 10⁵) and one scheduler draw of each neutral process.
"""

import numpy as np
import pytest

from repro.analysis import uniform_random_opinions
from repro.core import IncrementalVoting, OpinionState, run_dynamics
from repro.core.kernels import NUMBA_AVAILABLE, solve_block
from repro.core.schedulers import EdgeScheduler, VertexScheduler
from repro.graphs import random_regular_graph

_N = 10_000
_D = 10
_STEPS = 2_000_000
#: Paper-scale size for the large-n sweep (ROADMAP: million-node runs).
_N_LARGE = 100_000
#: The kernels' default block size.
_BLOCK = 8192


def _run(graph, scheduler_cls, kernel, stop="never", max_steps=_STEPS):
    opinions = uniform_random_opinions(graph.n, 5, rng=0)
    state = OpinionState(graph, opinions)
    result = run_dynamics(
        state,
        scheduler_cls(graph),
        IncrementalVoting(),
        stop=stop,
        rng=1,
        max_steps=max_steps,
        kernel=kernel,
    )
    assert result.kernel == kernel
    return result


def _bench_kernel(benchmark, kernel, scheduler_cls, process, n=_N):
    graph = random_regular_graph(n, _D, rng=0)
    benchmark.extra_info.update(
        engine="generic",
        kernel=kernel,
        process=process,
        n=n,
        d=_D,
        steps=_STEPS,
    )
    benchmark.pedantic(
        lambda: _run(graph, scheduler_cls, kernel), rounds=3, iterations=1
    )


def test_loop_kernel_vertex_throughput(benchmark):
    _bench_kernel(benchmark, "loop", VertexScheduler, "vertex")


def test_block_kernel_vertex_throughput(benchmark):
    _bench_kernel(benchmark, "block", VertexScheduler, "vertex")


def test_loop_kernel_edge_throughput(benchmark):
    _bench_kernel(benchmark, "loop", EdgeScheduler, "edge")


def test_block_kernel_edge_throughput(benchmark):
    _bench_kernel(benchmark, "block", EdgeScheduler, "edge")


def test_block_kernel_large_n_throughput(benchmark):
    _bench_kernel(benchmark, "block", VertexScheduler, "vertex", n=_N_LARGE)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_compiled_kernel_vertex_throughput(benchmark):
    _bench_kernel(benchmark, "compiled", VertexScheduler, "vertex")


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_compiled_kernel_edge_throughput(benchmark):
    _bench_kernel(benchmark, "compiled", EdgeScheduler, "edge")


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_compiled_kernel_large_n_throughput(benchmark):
    _bench_kernel(benchmark, "compiled", VertexScheduler, "vertex", n=_N_LARGE)


def test_kernels_agree_to_consensus(benchmark):
    """Consensus run under both kernels: equal steps, block wall-clock."""
    graph = random_regular_graph(_N, _D, rng=0)
    loop = _run(graph, VertexScheduler, "loop", stop="consensus", max_steps=None)
    benchmark.extra_info.update(
        engine="generic",
        kernel="block",
        process="vertex",
        n=_N,
        d=_D,
        stop="consensus",
        steps=loop.steps,
    )

    def run_block():
        block = _run(
            graph, VertexScheduler, "block", stop="consensus", max_steps=None
        )
        assert block.steps == loop.steps
        assert block.stop_reason == loop.stop_reason
        np.testing.assert_array_equal(block.state.values, loop.state.values)
        return block

    benchmark.pedantic(run_block, rounds=3, iterations=1)


@pytest.mark.parametrize("n", [_N, _N_LARGE])
def test_solve_block(benchmark, n):
    """One DIV solve of an 8192-pair vertex-process block."""
    graph = random_regular_graph(n, _D, rng=0)
    values = uniform_random_opinions(n, 5, rng=0)
    v, w = VertexScheduler(graph).draw_block(np.random.default_rng(1), _BLOCK)
    rule = IncrementalVoting().step_block
    benchmark.extra_info.update(
        layer="solve_block",
        n=n,
        d=_D,
        pairs=_BLOCK,
        keys="int32" if n << (2 * _BLOCK).bit_length() < 2**31 else "int64",
    )
    _, _, after, _, _ = benchmark.pedantic(
        lambda: solve_block(rule, True, values, v, w), rounds=30, iterations=5
    )
    opinions = values.tolist()
    expected = []
    for a, b in zip(v.tolist(), w.tolist()):
        x, y = opinions[a], opinions[b]
        opinions[a] = x + (y > x) - (y < x)
        expected.append(opinions[a])
    assert after.tolist() == expected


@pytest.mark.parametrize(
    "scheduler_cls, process", [(VertexScheduler, "vertex"), (EdgeScheduler, "edge")]
)
def test_draw_block(benchmark, scheduler_cls, process):
    """One 8192-pair scheduler draw on RR(10⁴, 10)."""
    graph = random_regular_graph(_N, _D, rng=0)
    scheduler = scheduler_cls(graph)
    generator = np.random.default_rng(1)
    benchmark.extra_info.update(
        layer="draw_block", process=process, n=_N, d=_D, pairs=_BLOCK
    )
    v, w = benchmark.pedantic(
        lambda: scheduler.draw_block(generator, _BLOCK), rounds=30, iterations=10
    )
    assert v.shape == w.shape == (_BLOCK,)
    assert all(graph.has_edge(a, b) for a, b in zip(v[:200].tolist(), w[:200].tolist()))

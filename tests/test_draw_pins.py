"""Scheduler draws pinned bit for bit.

The digests below were recorded at commit 6df2c4f, before the regular
graphs' offsets were drawn with a scalar bound and the edge process
gathered its endpoints from the flat edge array.  Each pins the pairs
of consecutive ``draw_block`` calls of sizes 1, 37 and 8192 from one
generator, then the generator's full state (its buffered 32-bit half
included) and one further ``generator.integers`` draw, so a change to
any drawn pair or to the generator state a block leaves behind shows up
here before it shows up as a changed report.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis import uniform_random_opinions
from repro.core import (
    AdversarialScheduler,
    BiasedScheduler,
    EdgeScheduler,
    OpinionState,
    VertexScheduler,
)
from repro.graphs import (
    complete_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)

SIZES = (1, 37, 8192)

GRAPHS = {
    "rr": lambda: random_regular_graph(200, 10, rng=0),
    "complete": lambda: complete_graph(50),
    "torus": lambda: grid_graph(8, 8, periodic=True),
    "hypercube": lambda: hypercube_graph(6),
    "star": lambda: star_graph(30),
    "lollipop": lambda: lollipop_graph(8, 12),
    "path": lambda: path_graph(40),
}


def _scheduler(kind: str, graph):
    if kind == "vertex":
        return VertexScheduler(graph)
    if kind == "edge":
        return EdgeScheduler(graph)
    state = OpinionState(graph, uniform_random_opinions(graph.n, 5, rng=3))
    if kind == "biased":
        return BiasedScheduler(graph, state, bias=-0.8)
    return AdversarialScheduler(graph, state, strength=0.3)


def _digest(kind: str, family: str) -> str:
    scheduler = _scheduler(kind, GRAPHS[family]())
    generator = np.random.default_rng(11)
    sha = hashlib.sha1()
    for size in SIZES:
        v, w = scheduler.draw_block(generator, size)
        assert v.dtype == w.dtype == np.int64
        assert v.shape == w.shape == (size,)
        sha.update(v.tobytes())
        sha.update(w.tobytes())
    sha.update(repr(generator.bit_generator.state).encode())
    sha.update(str(int(generator.integers(0, 2**62))).encode())
    return sha.hexdigest()[:16]


#: (scheduler, graph) -> digest of the draws, the state and the next integer.
PINS = {
    ("vertex", "rr"): "8798c2f35fdf2c3d",
    ("vertex", "complete"): "0b755fa4d6c9fa40",
    ("vertex", "torus"): "181360016257654a",
    ("vertex", "hypercube"): "ded6696754773855",
    ("vertex", "star"): "bc2b747fd4b7146d",
    ("vertex", "lollipop"): "0e605a62f3061b99",
    ("vertex", "path"): "0c3ba5a31e61d06e",
    ("edge", "rr"): "a0caf05e467a2719",
    ("edge", "complete"): "742cdd1b5c351db7",
    ("edge", "torus"): "6278755a96e245a7",
    ("edge", "hypercube"): "56862fe47b721a4e",
    ("edge", "star"): "221c4a2737544d78",
    ("edge", "lollipop"): "c1b0123851d21b3d",
    ("edge", "path"): "fc15fd345b7f0b5b",
    ("biased", "rr"): "b0575f78edf1c765",
    ("biased", "complete"): "ea1d7b96bfc4f2de",
    ("biased", "torus"): "1211df65ab4def5a",
    ("biased", "hypercube"): "90b95d557a4e840e",
    ("biased", "star"): "6922ee5ca104a383",
    ("biased", "lollipop"): "0b98932be2e3d90b",
    ("biased", "path"): "b9b0d8e49f18660a",
    ("adversarial", "rr"): "a1ed9b696d54de6f",
    ("adversarial", "complete"): "0dc6325a7107a105",
    ("adversarial", "torus"): "03acbf8c0f38ed4a",
    ("adversarial", "hypercube"): "b615a7f368a1e692",
    ("adversarial", "star"): "fe33cdc9be1c80e3",
    ("adversarial", "lollipop"): "579b01ee4bd00a83",
    ("adversarial", "path"): "678eb66e90c85edf",
}


@pytest.mark.parametrize("kind, family", sorted(PINS))
def test_draws_and_generator_state_pinned(kind, family):
    assert _digest(kind, family) == PINS[kind, family]


def test_pins_cover_both_offset_bounds():
    """The regular graphs draw offsets with a scalar bound, the others
    with the per-vertex degrees: the pins hold both."""
    scalar = {
        family
        for family, build in GRAPHS.items()
        if VertexScheduler(build())._degree is not None
    }
    assert scalar == {"rr", "complete", "torus", "hypercube"}

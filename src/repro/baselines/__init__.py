"""Baseline dynamics the paper compares DIV against.

The plain comparison rules (pull, push, median, best-of-two,
best-of-three) need no wrapper: pass their name to
:func:`repro.core.div.run_div` as ``dynamics=``. The functions here add
logic of their own: a step budget, a different stop or process, or a
result type of their own.
"""

from repro.baselines.continuous_gossip import (
    GossipResult,
    run_continuous_gossip,
    spread_trace,
)
from repro.baselines.load_balancing import is_locally_balanced, run_load_balancing
from repro.baselines.majority import run_local_majority
from repro.baselines.two_opinion import (
    TwoOpinionResult,
    opinions_from_set,
    run_two_opinion_voting,
)

__all__ = [
    "GossipResult",
    "TwoOpinionResult",
    "is_locally_balanced",
    "opinions_from_set",
    "run_continuous_gossip",
    "run_load_balancing",
    "run_local_majority",
    "run_two_opinion_voting",
    "spread_trace",
]

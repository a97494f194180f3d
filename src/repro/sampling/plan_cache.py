"""LRU cache of compiled message-passing plans for sampled subgraphs.

Full-graph training compiles its :class:`~repro.gnn.MessagePassingPlan`
once per fit; sampled training would naively recompile per *batch*
(CSR casts plus transpose materializations for the backward pass).
This cache keys plans on the subgraph's structural content hash
(:meth:`SampledSubgraph.signature`), so recurring local structure —
guaranteed for every batch under an unbounded fanout, common for hot
shapes under finite fanouts — reuses the compiled operators.

Content keying (not shape keying) is what makes reuse *correct*: a
plan is exactly a function of the local CSR arrays, and two subgraphs
sharing a hash share those arrays byte-for-byte.  Which global nodes
the local ids map to is irrelevant — the feature gather uses
``SampledSubgraph.nodes`` separately.
"""

from __future__ import annotations

from collections import OrderedDict

from ..gnn import MessagePassingPlan
from ..telemetry import counter
from .sampler import SampledSubgraph

__all__ = ["SubgraphPlanCache"]

_HITS = counter("sampling.plan.hits", "sampled-subgraph plan cache hits")
_MISSES = counter("sampling.plan.misses",
                  "sampled-subgraph plan compilations")


class SubgraphPlanCache:
    """Bounded LRU mapping subgraph signatures to compiled plans.

    Parameters
    ----------
    capacity:
        Maximum retained plans; least-recently-used entries are
        evicted.  Sized for the working set of recurring batch shapes,
        not the whole epoch.
    dtype:
        Dtype handed to :class:`~repro.gnn.MessagePassingPlan` (default:
        engine default).
    """

    def __init__(self, capacity: int = 16, dtype=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dtype = dtype
        self.hits = 0
        self.misses = 0
        self._plans: "OrderedDict[str, MessagePassingPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, subgraph: SampledSubgraph) -> MessagePassingPlan:
        """The compiled plan for ``subgraph``, compiling on miss."""
        key = subgraph.signature()
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            _HITS.inc()
            self._plans.move_to_end(key)
            return plan
        self.misses += 1
        _MISSES.inc()
        plan = MessagePassingPlan(subgraph.adjacencies, dtype=self.dtype)
        self._plans[key] = plan
        if len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
        return plan

    def stats(self) -> dict[str, int]:
        """Hit/miss/size snapshot for telemetry and tests."""
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._plans)}

"""Minibatch neighbor-sampled training over the quasi-bipartite graph.

Layer 11: everything needed to train GRIMP on tables 10-100x larger
than one dense full-graph epoch can hold, by running each optimizer
step over a *sampled subgraph* instead of the whole graph (the
minibatched-GNN regime of GRAPE, arXiv:2010.16418, and EGG-GAE,
arXiv:2210.10446, brought to the paper's RID/cell/attribute graph):

* :class:`FrozenGraph` — an immutable per-edge-type CSR snapshot of
  the row-normalized heterograph adjacencies, with per-edge *search
  keys* in the batched-searchsorted layout pioneered by
  :mod:`repro.embeddings.walk_kernel`;
* :class:`NeighborSampler` / :class:`SampledSubgraph` — fanout-based
  neighborhood expansion where ONE vectorized ``np.searchsorted``
  advances every seed's frontier per hop, producing a compact
  relabeled subgraph whose rows reproduce full-graph message passing
  exactly when the fanout is unbounded;
* :class:`MinibatchIterator` — a deterministic batch schedule seeded
  via :func:`repro.parallel.spawn_seeds`: bit-identical batch order
  for a given seed.

:mod:`repro.core.trainer` threads these together behind
``GrimpConfig(batch_size=..., fanout=...)``.  Each batch goes sample ->
compile -> step: :func:`repro.core.step.sampled_inputs` draws the
subgraph, then :meth:`SampledSubgraph.compile` assembles every edge
type's CSR operator (and, for training batches, its transpose) in one
vectorized pass, straight into the
:class:`~repro.gnn.MessagePassingPlan` the step multiplies by — no
scipy format conversion per batch.
"""

from .frozen import FrozenGraph
from .minibatch import Minibatch, MinibatchIterator, contiguous_batches
from .sampler import NeighborSampler, SampledSubgraph

__all__ = [
    "FrozenGraph",
    "NeighborSampler",
    "SampledSubgraph",
    "Minibatch",
    "MinibatchIterator",
    "contiguous_batches",
]

"""Random walks over the table graph (the EmbDI corpus generator).

Includes the paper's null-extension (§3.4): for each missing cell
``t_i[A_j]``, "possible imputation" edges connect the tuple's node to
every value in ``Dom(A_j)``, weighted proportionally to the value's
frequency in the attribute, so walks can traverse plausible values.
"""

from __future__ import annotations

import numpy as np

from ..data import MISSING, Table
from ..graph import TableGraph
from ..parallel import spawn_seeds
from .walk_kernel import FrozenWalkGraph, walk_shard, walks_to_lists

__all__ = ["WalkGraph", "build_walk_graph", "generate_walks",
           "generate_walk_matrix"]

#: Start nodes per shard.  Each shard draws from its own spawned seed;
#: the shards exist only so the walk corpus keeps the bits it had when
#: they were also the unit of pooled scheduling.
WALK_SHARD_SIZE = 2048


class WalkGraph:
    """Weighted adjacency lists with cumulative-probability sampling."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self._neighbors: list[list[int]] = [[] for _ in range(n_nodes)]
        self._weights: list[list[float]] = [[] for _ in range(n_nodes)]
        self._cumulative: list[np.ndarray | None] = [None] * n_nodes
        self._frozen: FrozenWalkGraph | None = None

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add a directed weighted edge (call twice for undirected)."""
        if weight <= 0:
            raise ValueError("edge weight must be positive")
        self._neighbors[u].append(v)
        self._weights[u].append(weight)
        self._cumulative[u] = None
        self._frozen = None

    def freeze(self) -> FrozenWalkGraph:
        """CSR snapshot for the batched kernel (cached until edited)."""
        if self._frozen is None:
            self._frozen = FrozenWalkGraph.freeze(self)
        return self._frozen

    def neighbors(self, node: int) -> list[int]:
        """Neighbor list of a node."""
        return self._neighbors[node]

    def sample_neighbor(self, node: int, rng: np.random.Generator) -> int | None:
        """Weighted random neighbor, or ``None`` for isolated nodes."""
        neighbors = self._neighbors[node]
        if not neighbors:
            return None
        cumulative = self._cumulative[node]
        if cumulative is None:
            weights = np.asarray(self._weights[node])
            cumulative = np.cumsum(weights / weights.sum())
            self._cumulative[node] = cumulative
        position = int(np.searchsorted(cumulative, rng.random(), side="right"))
        return neighbors[min(position, len(neighbors) - 1)]


def build_walk_graph(table_graph: TableGraph, table: Table,
                     null_extension: bool = True) -> WalkGraph:
    """Turn a :class:`TableGraph` into a weighted walk graph.

    Regular table edges get weight 1.  With ``null_extension``, each
    missing cell contributes edges from its tuple's RID node to every
    cell node of the attribute's domain, weighted by value frequency.
    """
    graph = table_graph.graph
    walk_graph = WalkGraph(graph.n_nodes)
    for edge_type in graph.edge_types:
        for u, v in graph.edges(edge_type):
            walk_graph.add_edge(u, v, 1.0)
            walk_graph.add_edge(v, u, 1.0)
    if not null_extension:
        return walk_graph

    for column in table.column_names:
        counts = table.value_counts(column)
        if not counts:
            continue
        domain_nodes = table_graph.column_cell_nodes(column)
        values = table.column(column)
        for row in range(table.n_rows):
            if values[row] is not MISSING:
                continue
            rid = table_graph.rid_nodes[row]
            for value, node in domain_nodes.items():
                frequency = counts.get(value, 0)
                if frequency <= 0:
                    continue
                walk_graph.add_edge(rid, node, float(frequency))
                walk_graph.add_edge(node, rid, float(frequency))
    return walk_graph


def generate_walk_matrix(walk_graph: WalkGraph, walks_per_node: int,
                         walk_length: int, rng: np.random.Generator,
                         start_nodes: list[int] | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Generate walks as a padded matrix via the batched CSR kernel.

    Returns ``(matrix, lengths)``: ``matrix`` is
    ``(walks_per_node * n_starts, walk_length)`` int64 with ``-1``
    padding after early stops at isolated nodes, rows ordered by
    (repetition, start) exactly like the historical list output.

    Work is split into fixed-size start ranges (``WALK_SHARD_SIZE``)
    per repetition; each shard draws from its own seed spawned off
    ``rng``.
    """
    if walk_length < 1:
        raise ValueError("walk_length must be at least 1")
    starts = np.arange(walk_graph.n_nodes, dtype=np.int64) \
        if start_nodes is None \
        else np.asarray(start_nodes, dtype=np.int64)
    frozen = walk_graph.freeze()

    boundaries = list(range(0, max(starts.shape[0], 1), WALK_SHARD_SIZE))
    seeds = spawn_seeds(rng, walks_per_node * len(boundaries))
    shards = [walk_shard(frozen, starts[lo:lo + WALK_SHARD_SIZE],
                         walk_length, seed)
              for seed, lo in zip(seeds, boundaries * walks_per_node)]
    if not shards:
        empty = np.empty((0, walk_length), dtype=np.int64)
        return empty, np.empty(0, dtype=np.int64)
    matrix = np.concatenate([shard_matrix for shard_matrix, _ in shards])
    lengths = np.concatenate([shard_lengths for _, shard_lengths in shards])
    return matrix, lengths


def generate_walks(walk_graph: WalkGraph, walks_per_node: int,
                   walk_length: int, rng: np.random.Generator,
                   start_nodes: list[int] | None = None) -> list[list[int]]:
    """Generate uniform-start weighted random walks.

    Walks stop early at isolated nodes; single-node "walks" from
    isolated starts are kept so every node appears in the corpus.
    Ragged-list façade over :func:`generate_walk_matrix` — prefer the
    matrix form when feeding :meth:`SkipGram.pairs_from_matrix`.
    """
    matrix, lengths = generate_walk_matrix(
        walk_graph, walks_per_node, walk_length, rng,
        start_nodes=start_nodes)
    return walks_to_lists(matrix, lengths)

"""Heterogeneous quasi-bipartite graph encoding a relational table (§3.2).

The graph has two node kinds — one *RID node* per tuple and one *cell
node* per unique ``(attribute, value)`` pair — and one edge type per
attribute.  A typed edge connects a tuple's RID node to the cell node of
its value in that attribute; missing cells contribute no edges.  Values
appearing in multiple attributes are disambiguated into distinct nodes
(one per attribute), and self-loops are supported when materializing
adjacency, following the paper.
"""

from __future__ import annotations

from array import array

import numpy as np
from scipy import sparse

__all__ = ["HeteroGraph", "RID", "CELL"]

#: Node-kind constants.
RID = "rid"
CELL = "cell"


class HeteroGraph:
    """Typed multigraph over RID and cell nodes.

    Nodes are dense integers.  Edges are grouped by type (one type per
    table attribute) and stored as undirected pairs, flat in one int64
    array per type (``u0, v0, u1, v1, ...``: 16 bytes an edge instead
    of a tuple object); adjacency matrices materialize both directions.
    """

    def __init__(self):
        self._node_kind: list[str] = []
        self._node_label: list[tuple] = []
        self._node_index: dict[tuple, int] = {}
        self._edges: dict[str, array] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, kind: str, label: tuple) -> int:
        """Add (or look up) a node identified by ``label``; returns id.

        ``label`` is ``("rid", row)`` for tuple nodes and
        ``("cell", attribute, value)`` for value nodes — the attribute in
        the label is what disambiguates equal values across attributes.
        """
        if label in self._node_index:
            return self._node_index[label]
        node = len(self._node_kind)
        self._node_kind.append(kind)
        self._node_label.append(label)
        self._node_index[label] = node
        return node

    def add_edge(self, edge_type: str, u: int, v: int) -> None:
        """Add an undirected edge of the given type between ``u``, ``v``."""
        n = self.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references unknown nodes")
        pairs = self._edges.get(edge_type)
        if pairs is None:
            pairs = self._edges[edge_type] = array("q")
        pairs.append(u)
        pairs.append(v)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of nodes."""
        return len(self._node_kind)

    @property
    def edge_types(self) -> list[str]:
        """All edge types present (insertion order)."""
        return list(self._edges)

    def n_edges(self, edge_type: str | None = None) -> int:
        """Number of undirected edges, optionally of one type."""
        if edge_type is not None:
            return len(self._edges.get(edge_type, ())) // 2
        return sum(len(pairs) for pairs in self._edges.values()) // 2

    def node_kind(self, node: int) -> str:
        """Kind (``"rid"`` or ``"cell"``) of a node."""
        return self._node_kind[node]

    def node_label(self, node: int) -> tuple:
        """Identifying label of a node."""
        return self._node_label[node]

    def find_node(self, label: tuple) -> int | None:
        """Node id for ``label`` or ``None`` if absent."""
        return self._node_index.get(label)

    def nodes_of_kind(self, kind: str) -> list[int]:
        """All node ids of the given kind."""
        return [node for node in range(self.n_nodes)
                if self._node_kind[node] == kind]

    def edges(self, edge_type: str) -> list[tuple[int, int]]:
        """Undirected edge list of one type, as ``(u, v)`` pairs."""
        pairs = self._edges.get(edge_type, ())
        return list(zip(pairs[0::2], pairs[1::2]))

    def degree(self, node: int, edge_type: str | None = None) -> int:
        """Number of incident edge endpoints for ``node``."""
        types = [edge_type] if edge_type is not None else self.edge_types
        return sum(self._edges.get(name, ()).count(node) for name in types)

    # ------------------------------------------------------------------
    # Adjacency materialization
    # ------------------------------------------------------------------
    def adjacency(self, edge_type: str, normalize: str | None = "row",
                  self_loops: bool = True) -> sparse.csr_matrix:
        """Sparse adjacency of one edge type over *all* nodes.

        Parameters
        ----------
        normalize:
            ``"row"`` for mean aggregation (GraphSAGE), ``"sym"`` for the
            symmetric GCN normalization, or ``None`` for raw 0/1.
        self_loops:
            Include the identity, as the paper's graph does (§3.2).

        Nodes with no incident edges of this type get only their
        self-loop (or an all-zero row when ``self_loops`` is false) so
        message passing never divides by zero.
        """
        pairs = self._edges.get(edge_type)
        n = self.n_nodes
        if pairs:
            u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
        else:
            rows = np.array([], dtype=np.int64)
            cols = np.array([], dtype=np.int64)
        if self_loops:
            eye = np.arange(n, dtype=np.int64)
            rows = np.concatenate([rows, eye])
            cols = np.concatenate([cols, eye])
        data = np.ones(rows.shape[0])
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
        # Collapse parallel edges.
        matrix.data[:] = 1.0
        matrix.sum_duplicates()
        matrix.data[:] = np.minimum(matrix.data, 1.0)

        if normalize is None:
            return matrix
        degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
        if normalize == "row":
            inverse = np.divide(1.0, degrees, out=np.zeros_like(degrees),
                                where=degrees > 0)
            return sparse.diags(inverse) @ matrix
        if normalize == "sym":
            inverse_sqrt = np.divide(1.0, np.sqrt(degrees),
                                     out=np.zeros_like(degrees),
                                     where=degrees > 0)
            diagonal = sparse.diags(inverse_sqrt)
            return (diagonal @ matrix @ diagonal).tocsr()
        raise ValueError(f"unknown normalization {normalize!r}")

    def __repr__(self) -> str:
        return (f"HeteroGraph(nodes={self.n_nodes}, "
                f"edge_types={len(self.edge_types)}, edges={self.n_edges()})")

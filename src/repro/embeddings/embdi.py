"""EmbDI-style local relational embeddings (the GRIMP-E initializer).

Faithful small-scale reimplementation of EmbDI [11]: a tripartite-ish
graph of the table is flattened into random-walk sentences which train a
skip-gram model; every graph node (tuple or cell value) receives a
vector.  The paper extends the EmbDI graph with weighted
possible-imputation edges for null cells (§3.4), implemented in
:mod:`repro.embeddings.walks`.
"""

from __future__ import annotations

import numpy as np

from ..data import Table
from ..graph import TableGraph, build_table_graph
from ..tensor import get_default_dtype
from ..telemetry import span
from .cache import EmbeddingCache, embedding_cache_key
from .sgns import SkipGram
from .walks import build_walk_graph, generate_walk_matrix

__all__ = ["EmbdiEmbedder"]


class EmbdiEmbedder:
    """Learn node embeddings for a table with walks + SGNS.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    walks_per_node, walk_length, window:
        Corpus-generation parameters.
    epochs, negatives:
        SGNS training parameters.
    null_extension:
        Enable the paper's weighted possible-imputation edges.
    cache_dir:
        Embedding-cache directory (``None`` defers to
        ``REPRO_EMBED_CACHE``; unset disables caching).
    """

    def __init__(self, dim: int = 32, walks_per_node: int = 5,
                 walk_length: int = 12, window: int = 3, epochs: int = 2,
                 negatives: int = 5, null_extension: bool = True,
                 seed: int = 0, cache_dir: str | None = None):
        for name, value in (("dim", dim), ("walks_per_node", walks_per_node),
                            ("walk_length", walk_length), ("window", window)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.dim = dim
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.negatives = negatives
        self.null_extension = null_extension
        self.seed = seed
        self.cache_dir = cache_dir
        self._table_graph: TableGraph | None = None
        self._vectors: np.ndarray | None = None

    def _config_key(self) -> dict:
        """The hyper-parameters the cache key must capture."""
        return {"dim": self.dim, "walks_per_node": self.walks_per_node,
                "walk_length": self.walk_length, "window": self.window,
                "epochs": self.epochs, "negatives": self.negatives,
                "null_extension": self.null_extension, "seed": self.seed,
                "dtype": np.dtype(get_default_dtype()).str}

    def fit(self, table: Table,
            table_graph: TableGraph | None = None) -> "EmbdiEmbedder":
        """Build the graph (unless given), generate walks, train SGNS.

        A content-hash cache hit (table values + walk graph + config)
        skips the walk and SGNS stages entirely.
        """
        rng = np.random.default_rng(self.seed)
        self._table_graph = table_graph if table_graph is not None \
            else build_table_graph(table)
        walk_graph = build_walk_graph(self._table_graph, table,
                                      null_extension=self.null_extension)
        frozen = walk_graph.freeze()
        cache = EmbeddingCache(self.cache_dir)
        key = embedding_cache_key(table, frozen, self._config_key())
        cached = cache.load(key)
        if cached is not None:
            self._vectors = cached
            return self
        with span("embed"):
            with span("walks"):
                matrix, lengths = generate_walk_matrix(
                    walk_graph, self.walks_per_node, self.walk_length, rng)
            with span("sgns"):
                pairs = SkipGram.pairs_from_matrix(matrix, lengths,
                                                   window=self.window)
                model = SkipGram(self._table_graph.graph.n_nodes,
                                 dim=self.dim, negatives=self.negatives,
                                 seed=self.seed)
                model.train(pairs, epochs=self.epochs)
        self._vectors = model.vectors()
        cache.store(key, self._vectors)
        return self

    def _require_fitted(self) -> np.ndarray:
        if self._vectors is None:
            raise RuntimeError("embedder must be fitted before use")
        return self._vectors

    @property
    def table_graph(self) -> TableGraph:
        """The graph the embeddings were trained over."""
        if self._table_graph is None:
            raise RuntimeError("embedder must be fitted before use")
        return self._table_graph

    def node_vectors(self) -> np.ndarray:
        """Embedding matrix indexed by graph node id: ``(n_nodes, dim)``."""
        return self._require_fitted()

    def value_vector(self, column: str, value) -> np.ndarray:
        """Embedding of a cell value in a column (zeros when absent)."""
        vectors = self._require_fitted()
        node = self.table_graph.cell_node(column, value)
        if node is None:
            return np.zeros(self.dim, dtype=vectors.dtype)
        return vectors[node]

    def tuple_vector(self, row: int) -> np.ndarray:
        """Embedding of a tuple's RID node."""
        vectors = self._require_fitted()
        return vectors[self.table_graph.rid_nodes[row]]

"""Configuration for the GRIMP imputer (paper defaults in §4.1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..embeddings import FEATURE_STRATEGIES
from ..fd import FunctionalDependency
from .tasks import K_STRATEGIES

__all__ = ["GrimpConfig"]


@dataclass
class GrimpConfig:
    """Hyper-parameters of GRIMP.

    Paper defaults: attention tasks with the weak-diagonal K strategy,
    300 epochs with early termination when the validation error
    increases, two GNN layers of width 64, two shared merge layers of
    width 128, and a 20% validation hold-out.  The reproduction's
    defaults shrink dimensions slightly (numpy substrate) but keep every
    structural choice; benchmarks document the profile they use.
    """

    #: Node-feature initialization: "fasttext" (GRIMP-FT), "embdi"
    #: (GRIMP-E), or "random".
    feature_strategy: str = "fasttext"
    #: Dimensionality of the initial node features.
    feature_dim: int = 32
    #: Refine the pre-trained node features during training (the GNN
    #: then *refines* rather than merely consumes them, §3.4).
    train_features: bool = True
    #: Hidden/output widths of the two GNN layers (#P_GNN in Table 1).
    gnn_dim: int = 64
    #: Width of the shared merge layers (#P_Lin in Table 1).
    merge_dim: int = 64
    #: Task heads: "attention" (paper default) or "linear".
    task_kind: str = "attention"
    #: K-matrix strategy for attention tasks (Figure 7).
    k_strategy: str = "weak_diagonal"
    #: Functional dependencies for the weak_diagonal_fd strategy.
    fds: tuple[FunctionalDependency, ...] = field(default_factory=tuple)
    #: Augment the graph with direct premise->conclusion FD edges
    #: (§3.2's "easily augmented" hook); requires ``fds``.
    augment_fd_edges: bool = False
    #: Categorical loss: "cross_entropy" or "focal" (§3.6).
    categorical_loss: str = "cross_entropy"
    #: Maximum training epochs (paper: 300).
    epochs: int = 60
    #: Early-stopping patience on the validation loss.
    patience: int = 5
    #: Fraction of training samples held out for validation (§3.6: 20%).
    validation_fraction: float = 0.2
    #: Fraction of the remaining training samples actually used — the
    #: training-data-reduction efficiency knob of §7 (1.0 = all).
    corpus_fraction: float = 1.0
    #: Adam learning rate.
    lr: float = 5e-3
    #: Training samples per step within each task; ``None`` = full-graph
    #: training.  Minibatches always run on the sampled path
    #: (:mod:`repro.sampling`), which bounds per-step memory on
    #: paper-size tables.
    batch_size: int | None = None
    #: Neighbors sampled per node per edge type per hop.  ``None`` and
    #: ``0`` both minibatch over *exact* (unbounded) neighborhoods — bit
    #: for bit the full-graph forward and gradient at float64;
    #: ``k >= 1`` draws ``k`` weighted neighbors per hop, bounding
    #: per-step memory independently of table size.  Requires
    #: ``batch_size``.
    fanout: int | None = None
    #: GNN sub-module type for every column ("sage" or "gcn").
    gnn_layer_type: str = "sage"
    #: Training dtype: "float32" (default, ~2x faster on the dense hot
    #: path) or "float64" (bit-compatible with the original engine).
    dtype: str = "float32"
    #: Random seed for initialization, splits, and feature init.
    seed: int = 0
    #: Extra keyword arguments for the EmbDI embedder (GRIMP-E).
    embdi_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.feature_strategy not in FEATURE_STRATEGIES:
            raise ValueError(f"unknown feature strategy "
                             f"{self.feature_strategy!r}")
        if self.task_kind not in ("attention", "linear"):
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        if self.k_strategy not in K_STRATEGIES:
            raise ValueError(f"unknown K strategy {self.k_strategy!r}")
        if self.categorical_loss not in ("cross_entropy", "focal"):
            raise ValueError(f"unknown categorical loss "
                             f"{self.categorical_loss!r}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if not 0.0 < self.corpus_fraction <= 1.0:
            raise ValueError("corpus_fraction must be in (0, 1]")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when set")
        if self.fanout is not None:
            if self.fanout < 0:
                raise ValueError("fanout must be >= 0 when set")
            if self.batch_size is None:
                raise ValueError("fanout requires batch_size (sampled "
                                 "training is minibatched)")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}; "
                             f"choose float32 or float64")

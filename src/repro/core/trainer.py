"""End-to-end GRIMP training and imputation (Algorithm 1).

Pipeline: normalize numericals -> build graph + self-supervised corpus
(20% validation hold-out, hold-out edges removed from the graph) ->
initialize node features -> train the multi-task model with the summed
dual loss and early stopping -> impute every missing cell with its
attribute's task (§3.7).
"""

from __future__ import annotations

import time

import numpy as np

from ..data import NumericNormalizer, Table, TableEncoder
from ..embeddings import initialize_node_features
from ..gnn import (MessagePassingPlan, build_gather_operator,
                   column_adjacencies, conversion_counts)
from ..graph import augment_with_fd_edges, build_table_graph
from ..imputation import Imputer
from ..nn import Adam, EarlyStopping
from ..sampling import (FrozenGraph, MinibatchIterator, NeighborSampler,
                        contiguous_batches)
from ..telemetry import Tracer
from ..tensor import Tensor, no_grad
from .config import GrimpConfig
from .corpus import build_training_corpus, samples_by_task, split_corpus
from .fill import Predict, fill_missing
from .model import (GrimpModel, build_node_index_matrix,
                    build_sample_indices, fd_related_columns)
from .step import evaluate, sampled_inputs, step

__all__ = ["GrimpImputer", "FittedArtifacts"]


class FittedArtifacts:
    """Everything a trained GRIMP run needs to impute new tuples.

    :mod:`repro.serve.checkpoint` serializes exactly this bundle (plus
    the config), so a reloaded imputer answers :meth:`GrimpImputer.
    impute_new_rows` identically to the process that trained it.
    """

    def __init__(self, model, table_graph, adjacencies, feature_tensor,
                 encoders, normalizer, columns, kinds):
        self.model = model
        self.table_graph = table_graph
        self.adjacencies = adjacencies
        self.feature_tensor = feature_tensor
        self.encoders = encoders
        self.normalizer = normalizer
        self.columns = columns
        self.kinds = kinds


class _TaskData:
    """Precomputed index matrices and targets for one task's samples."""

    def __init__(self, indices: np.ndarray, targets: np.ndarray,
                 gather=None):
        self.indices = indices
        self.targets = targets
        #: Optional precompiled gather operator (full-batch hot path).
        self.gather = gather

    @property
    def n(self) -> int:
        return self.indices.shape[0]


class GrimpImputer(Imputer):
    """The paper's system: graph + heterogeneous GNN + multi-task heads.

    Parameters mirror :class:`~repro.core.GrimpConfig`; keyword
    overrides are applied on top of a default config, e.g.
    ``GrimpImputer(task_kind="linear", epochs=30)``.

    After :meth:`impute`, diagnostics are available on the instance:
    ``history_`` (per-epoch train/validation losses), ``model_`` (the
    trained :class:`GrimpModel`), ``train_seconds_``, ``trace_`` (the
    full :class:`~repro.telemetry.Tracer` of the fit — spans down to
    per-epoch granularity, and to layer/sparse-dispatch granularity
    when telemetry is enabled), and ``timings_`` (the aggregated
    per-path wall-clock report derived from the trace).
    """

    NAME = "grimp"

    #: Span paths every fit reports in ``timings_`` (padded with zero
    #: totals so the key set is stable across code paths/epoch counts).
    PHASE_KEYS = (
        "fit",
        "fit/normalize",
        "fit/corpus",
        "fit/graph",
        "fit/features",
        "fit/plan",
        "fit/freeze",
        "fit/index",
        "fit/train",
        "fit/train/epoch",
        "fit/train/epoch/forward",
        "fit/train/epoch/backward",
        "fit/train/epoch/step",
        "fit/train/epoch/batch",
        "fit/train/epoch/batch/sample",
        "fit/train/epoch/batch/compile",
        "fit/train/epoch/batch/forward",
        "fit/train/epoch/batch/backward",
        "fit/train/epoch/batch/step",
        "fit/train/epoch/validate",
        "fit/fill",
    )

    def __init__(self, config: GrimpConfig | None = None, **overrides):
        if config is None:
            config = GrimpConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides, "
                             "not both")
        self.config = config
        self.history_: list[dict[str, float]] = []
        self.model_: GrimpModel | None = None
        self.train_seconds_: float = 0.0
        self.timings_: dict[str, dict[str, float]] = {}
        self.trace_: Tracer | None = None
        self._artifacts: FittedArtifacts | None = None

    @property
    def name(self) -> str:
        suffix = "ft" if self.config.feature_strategy == "fasttext" else \
            self.config.feature_strategy
        kind = "a" if self.config.task_kind == "attention" else "l"
        return f"grimp-{suffix}-{kind}"

    # ------------------------------------------------------------------
    def impute(self, dirty: Table) -> Table:
        """Train on the dirty table itself and fill every missing cell."""
        return self._fit_and_fill(dirty)

    def _fit_and_fill(self, dirty: Table,
                      scores: dict[tuple[int, str], float] | None = None
                      ) -> Table:
        """Fit on ``dirty`` and fill it (see :func:`fill_missing` for
        ``scores``).

        Two training paths: full-graph (``batch_size`` unset) and
        sampled minibatch (``batch_size`` set; without ``fanout`` the
        neighborhoods are exact, i.e. ``fanout=0``).
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        dtype = np.dtype(config.dtype)
        started = time.perf_counter()
        tracer = Tracer()
        self.trace_ = tracer
        use_sampling = config.batch_size is not None
        fanout = 0 if config.fanout is None else config.fanout
        meta: dict[str, object] = {"dtype": config.dtype}
        if use_sampling:
            meta["sampling"] = {"fanout": fanout,
                                "batch_size": config.batch_size}

        # Activating the tracer routes detail spans (GNN layers, sparse
        # dispatch) recorded by lower layers into this fit's trace when
        # telemetry is enabled; the coarse spans below are always on.
        with tracer.activate(), tracer.span("fit"):
            with tracer.span("normalize"):
                normalizer = NumericNormalizer()
                normalized = normalizer.fit_transform(dirty)
            with tracer.span("corpus"):
                corpus = build_training_corpus(normalized)
                train_samples, validation_samples = split_corpus(
                    corpus, config.validation_fraction, rng)
                if config.corpus_fraction < 1.0:
                    # §7 efficiency knob: train on a random sample subset.
                    keep = max(1, int(round(len(train_samples) *
                                            config.corpus_fraction)))
                    chosen = rng.choice(len(train_samples), size=keep,
                                        replace=False)
                    train_samples = [train_samples[position]
                                     for position in chosen]
                validation_cells = {sample.cell
                                    for sample in validation_samples}

            with tracer.span("graph"):
                table_graph = build_table_graph(
                    normalized, exclude_cells=validation_cells)
                edge_types = list(normalized.column_names)
                if config.augment_fd_edges and config.fds:
                    edge_types += augment_with_fd_edges(
                        table_graph, normalized, config.fds)
            with tracer.span("features"):
                features = initialize_node_features(
                    table_graph, normalized,
                    strategy=config.feature_strategy,
                    dim=config.feature_dim, seed=config.seed,
                    embdi_kwargs=config.embdi_kwargs or None)
            with tracer.span("plan"):
                raw_adjacencies = column_adjacencies(table_graph,
                                                     normalization="row",
                                                     edge_types=edge_types)
                # Compile every constant sparse operator once; the epoch
                # loop below then runs conversion-free.  In sampled mode
                # the full-graph plan only serves post-fit inference, so
                # its transposes are left to lazy construction.
                adjacencies = MessagePassingPlan(
                    raw_adjacencies, dtype=dtype,
                    build_backward=not use_sampling)
            sampler = None
            if use_sampling:
                with tracer.span("freeze"):
                    sampler = NeighborSampler(
                        FrozenGraph.freeze(raw_adjacencies, dtype=dtype),
                        fanout=fanout)

            encoders = TableEncoder(normalized)
            cardinalities = {column: encoders.cardinality(column)
                             for column in normalized.categorical_columns}
            fd_related = fd_related_columns(config.fds,
                                            normalized.column_names)
            model = GrimpModel(normalized.column_names, normalized.kinds,
                               cardinalities, features.attribute_vectors,
                               config, rng, fd_related=fd_related,
                               gnn_edge_types=edge_types)
            # With train_features the pre-trained features are refined
            # end-to-end (§3.4) as a model parameter, so checkpointing
            # and the optimizer see them.
            feature_tensor = model.attach_features(features.node_vectors,
                                                   dtype)
            self.model_ = model

            with tracer.span("index"):
                node_matrix = build_node_index_matrix(normalized,
                                                      table_graph)
                # Gather operators pay off only when the same index
                # matrix is replayed every epoch (full-batch training).
                gather_rows = None if use_sampling \
                    else table_graph.graph.n_nodes + 1
                train_data = self._task_data(
                    normalized, table_graph, encoders, train_samples,
                    node_matrix=node_matrix, gather_rows=gather_rows,
                    dtype=dtype)
                validation_data = self._task_data(
                    normalized, table_graph, encoders, validation_samples,
                    node_matrix=node_matrix, gather_rows=gather_rows,
                    dtype=dtype)

            optimizer = Adam(model.parameters(), lr=config.lr)
            stopper = EarlyStopping(patience=config.patience)
            self.history_ = []

            null_index = table_graph.graph.n_nodes
            iterator = None
            if use_sampling:
                # Scheduling derives every seed from one SeedSequence
                # tree — bit-identical batches for a given config.seed.
                iterator = MinibatchIterator(
                    [train_data[column].n for column in train_data],
                    config.batch_size,
                    np.random.SeedSequence([config.seed, 0x5A3B]))

            conversions_before = conversion_counts()
            best_state = self._train_loop(
                model, optimizer, sampler, adjacencies, feature_tensor,
                train_data, validation_data, iterator, null_index, stopper,
                tracer)
            conversions_after = conversion_counts()
            meta["train_conversions"] = {
                kind: conversions_after[kind] - conversions_before[kind]
                for kind in conversions_after}
            if use_sampling:
                meta["sampling"]["n_batches"] = iterator.n_batches

            model.load_state_dict(best_state)
            self._artifacts = FittedArtifacts(
                model=model, table_graph=table_graph,
                adjacencies=adjacencies, feature_tensor=feature_tensor,
                encoders=encoders, normalizer=normalizer,
                columns=list(dirty.column_names), kinds=dict(dirty.kinds))
            with tracer.span("fill"):
                if use_sampling:
                    predict = self._sampled_predict(model, sampler,
                                                    feature_tensor,
                                                    null_index)
                else:
                    predict = _graph_predict(model, adjacencies,
                                             feature_tensor)
                imputed = fill_missing(dirty, node_matrix, predict,
                                       encoders, normalizer, scores)
        self.train_seconds_ = time.perf_counter() - started
        report = {path: {"seconds": entry["seconds"],
                         "count": entry["count"]}
                  for path, entry in tracer.aggregate().items()}
        for path in self.PHASE_KEYS:
            report.setdefault(path, {"seconds": 0.0, "count": 0})
        report["meta"] = dict(meta)
        self.timings_ = report
        return imputed

    def _train_loop(self, model, optimizer, sampler, adjacencies,
                    feature_tensor, train_data, validation_data, iterator,
                    null_index, stopper, tracer) -> dict:
        """The epoch loop shared by both training paths; returns the
        state with the best validation loss.

        A full-graph epoch is one :func:`~repro.core.step.step` over
        every task; a sampled epoch one step per batch.
        """
        config = self.config
        best_state = model.state_dict()
        best_validation = float("inf")
        train_parts = _parts(train_data)
        graph_validation = [(1, [(1, adjacencies, feature_tensor,
                                  _parts(validation_data))])] \
            if validation_data else []
        with tracer.span("train"):
            # A table with no observed cell has no training sample: run
            # no epoch, so the fill leaves every cell missing.
            for epoch in range(config.epochs if train_parts else 0):
                model.train()
                with tracer.span("epoch", epoch=epoch) as epoch_span:
                    if sampler is not None:
                        epoch_loss = self._sampled_epoch(
                            model, optimizer, sampler, feature_tensor,
                            train_data, iterator, epoch, null_index,
                            tracer)
                    else:
                        epoch_loss = step(model, optimizer, adjacencies,
                                          feature_tensor, train_parts,
                                          config.categorical_loss, tracer)

                    with tracer.span("validate"):
                        groups = graph_validation if sampler is None \
                            else self._sampled_validation(
                                model, sampler, feature_tensor,
                                validation_data, null_index)
                        validation_loss = self._validate(model, groups)
                    epoch_span.set(train_loss=epoch_loss,
                                   validation_loss=validation_loss)
                self.history_.append({
                    "epoch": epoch,
                    "train_loss": epoch_loss,
                    "validation_loss": validation_loss,
                })
                metric = validation_loss \
                    if np.isfinite(validation_loss) else epoch_loss
                if metric < best_validation:
                    best_validation = metric
                    best_state = model.state_dict()
                if stopper.update(metric, epoch):
                    break
        return best_state

    def _validate(self, model: GrimpModel, groups) -> float:
        """Validation loss: the sum over tasks of each task's mean loss.

        ``groups`` holds ``(n, chunks)``: a group adds the sum of its
        ``(rows, operators, features, parts)`` chunks' losses times
        ``rows``, divided by ``n``.  Full-graph validation is one group
        of one chunk with every task (weights 1); sampled validation
        one group per task.  No groups: ``inf``.
        """
        if not groups:
            return float("inf")
        model.eval()
        total = 0.0
        with no_grad():
            for n, chunks in groups:
                group_total = 0.0
                for rows, operators, features, parts in chunks:
                    group_total += evaluate(
                        model, operators, features, parts,
                        self.config.categorical_loss) * rows
                total += group_total / n
        return total

    @property
    def train_conversions_(self) -> dict[str, int]:
        """Sparse-format conversions that ran inside the last epoch loop.

        ``{"tocsr": 0, "transpose": 0}`` on both training paths: the
        full-graph plan compiles every operator before the loop, and
        the sampler assembles each batch's operators (and, for
        training batches, their transposes) without a conversion."""
        meta = self.timings_.get("meta", {})
        return dict(meta.get("train_conversions", {}))

    def impute_with_scores(self, dirty: Table
                           ) -> tuple[Table, dict[tuple[int, str], float]]:
        """Impute and also return a confidence per filled cell.

        Categorical confidence is the softmax probability of the written
        value; numerical cells report 1.0 (point regression has no
        calibrated uncertainty).  The scores come from the same fill
        pass that wrote the cells.  Useful for "review the
        low-confidence imputations" workflows.
        """
        scores: dict[tuple[int, str], float] = {}
        imputed = self._fit_and_fill(dirty, scores)
        return imputed, scores

    # ------------------------------------------------------------------
    # Inductive reuse (§3.4: GNN representations are inductive; §7 lists
    # cross-dataset reuse as future work).  After one impute() run the
    # trained model can fill missing cells of *new* tuples over the same
    # schema: imputation vectors are assembled purely from cell-node
    # representations, so any new tuple whose observed values were seen
    # during training gets a meaningful context (unseen values fall back
    # to the null vector).
    # ------------------------------------------------------------------
    def impute_new_rows(self, new_dirty: Table) -> Table:
        """Impute a new table of the same schema with the fitted model.

        Must be called after :meth:`impute`.  Raises when the schema
        (column names and kinds) differs from the training table.
        """
        artifacts = getattr(self, "_artifacts", None)
        if artifacts is None:
            raise RuntimeError("impute() must run before impute_new_rows()")
        if list(new_dirty.column_names) != artifacts.columns or \
                dict(new_dirty.kinds) != artifacts.kinds:
            raise ValueError("schema mismatch with the training table")

        normalized = artifacts.normalizer.transform(new_dirty)
        node_matrix = build_node_index_matrix(normalized,
                                              artifacts.table_graph)
        predict = _graph_predict(artifacts.model, artifacts.adjacencies,
                                 artifacts.feature_tensor)
        return fill_missing(new_dirty, node_matrix, predict,
                            artifacts.encoders, artifacts.normalizer)

    # ------------------------------------------------------------------
    # Checkpointing (implemented in repro.serve.checkpoint; imported
    # lazily so the core package keeps zero serving dependencies).
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Persist the fitted state so a fresh process can serve it.

        Must be called after :meth:`impute`.  See
        :func:`repro.serve.save_checkpoint` for the on-disk format.
        """
        from ..serve.checkpoint import save_checkpoint
        save_checkpoint(self, path)

    @classmethod
    def from_checkpoint(cls, path) -> "GrimpImputer":
        """Load a fitted imputer saved by :meth:`save_checkpoint`.

        The returned instance supports :meth:`impute_new_rows`
        immediately (no re-fit) and produces byte-identical imputations
        to the instance that was saved.
        """
        from ..serve.checkpoint import load_imputer
        return load_imputer(path)

    # ------------------------------------------------------------------
    def _task_data(self, table: Table, table_graph, encoders: TableEncoder,
                   samples, node_matrix: np.ndarray | None = None,
                   gather_rows: int | None = None,
                   dtype=np.float64) -> dict[str, _TaskData]:
        grouped = samples_by_task(samples, table.column_names)
        data: dict[str, _TaskData] = {}
        for column, task_samples in grouped.items():
            if not task_samples:
                continue
            indices = build_sample_indices(table, table_graph, task_samples,
                                           node_matrix=node_matrix)
            if table.is_categorical(column):
                targets = np.array(
                    [encoders[column].encode(sample.target_value)
                     for sample in task_samples], dtype=np.int64)
            else:
                targets = np.array(
                    [float(sample.target_value) for sample in task_samples],
                    dtype=dtype)
            gather = build_gather_operator(indices, gather_rows,
                                           dtype=dtype) \
                if gather_rows is not None else None
            data[column] = _TaskData(indices, targets, gather=gather)
        return data

    # ------------------------------------------------------------------
    # Sampled training (repro.sampling): each step runs message passing
    # over a compact sampled subgraph instead of the whole graph, so
    # per-step activation memory scales with the batch neighborhood,
    # not the table.  The step itself lives in repro.core.step and is
    # shared verbatim with full-graph epochs.
    # ------------------------------------------------------------------
    def _sampled_epoch(self, model: GrimpModel, optimizer: Adam,
                       sampler: NeighborSampler, feature_tensor: Tensor,
                       data: dict[str, _TaskData],
                       iterator: MinibatchIterator, epoch: int,
                       null_index: int, tracer: Tracer) -> float:
        """One epoch of neighbor-sampled minibatch steps.

        Every scheduled batch steps, even one whose context is entirely
        masked: it trains on zero vectors rather than being skipped.
        The returned loss matches full-graph semantics: the sum over
        tasks of each task's sample-weighted mean batch loss (a
        full-graph step sums per-task means).
        """
        task_columns = list(data)
        sums = [0.0] * len(task_columns)
        n_layers = model.shared.gnn.n_layers
        for task, rows, seed in iterator.epoch(epoch):
            column = task_columns[task]
            task_data = data[column]
            with tracer.span("batch"):
                operators, features, local = sampled_inputs(
                    sampler, n_layers, feature_tensor, task_data.indices[rows],
                    null_index, np.random.default_rng(seed), tracer)
                loss = step(model, optimizer, operators, features,
                            [(column, local, None, task_data.targets[rows])],
                            self.config.categorical_loss, tracer)
                sums[task] += loss * rows.size
        return sum(sums[task] / data[column].n
                   for task, column in enumerate(task_columns)
                   if data[column].n)

    def _sampled_chunks(self, model: GrimpModel, sampler: NeighborSampler,
                        feature_tensor: Tensor, null_index: int,
                        seed_root: np.random.SeedSequence):
        """The chunk generator of sampled validation and fill.

        Returns ``chunks(indices)``, which walks an index matrix in
        ``batch_size`` chunks — sample -> plan -> local indices — and
        yields ``(chunk, operators, features, local_indices)``.  Chunk
        seeds spawn from ``seed_root`` in visit order, so a fixed root
        replays the identical subgraphs.
        """
        silent = Tracer()
        n_layers = model.shared.gnn.n_layers

        def chunks(indices: np.ndarray):
            for chunk in contiguous_batches(indices.shape[0],
                                            self.config.batch_size):
                (chunk_seed,) = seed_root.spawn(1)
                yield (chunk, *sampled_inputs(
                    sampler, n_layers, feature_tensor, indices[chunk],
                    null_index, np.random.default_rng(chunk_seed), silent,
                    build_backward=False))

        return chunks

    def _sampled_validation(self, model: GrimpModel,
                            sampler: NeighborSampler, feature_tensor: Tensor,
                            data: dict[str, _TaskData], null_index: int):
        """Sampled validation groups for :meth:`_validate`.

        Seeds derive from a fixed root (not the training schedule), so
        every epoch evaluates the identical subgraphs — the metric is
        comparable across epochs and early stopping stays stable.
        """
        chunks = self._sampled_chunks(
            model, sampler, feature_tensor, null_index,
            np.random.SeedSequence([self.config.seed, 0x56A1]))

        def task_chunks(column: str, task_data: _TaskData):
            for chunk, operators, features, local in chunks(
                    task_data.indices):
                yield chunk.size, operators, features, [
                    (column, local, None, task_data.targets[chunk])]

        return [(task_data.n, task_chunks(column, task_data))
                for column, task_data in data.items()]

    def _sampled_predict(self, model: GrimpModel, sampler: NeighborSampler,
                         feature_tensor: Tensor, null_index: int) -> Predict:
        """``predict`` through batched sampled subgraphs.

        Never materializes a full-graph forward pass — imputation stays
        within the same memory envelope as sampled training.  Chunk
        seeds spawn from a fixed root in fill order, so the fill is
        deterministic for a given ``config.seed``.
        """
        model.eval()
        chunks = self._sampled_chunks(
            model, sampler, feature_tensor, null_index,
            np.random.SeedSequence([self.config.seed, 0xF111]))

        def predict(column: str, indices: np.ndarray) -> np.ndarray:
            outputs = []
            for _, operators, features, local in chunks(indices):
                h_extended = model.node_representations(operators,
                                                        features)
                vectors = model.training_vectors(h_extended, local)
                outputs.append(model.task_output(column, vectors).data)
            return np.concatenate(outputs, axis=0)

        return predict


def _parts(data: dict[str, _TaskData]) -> list[tuple]:
    """Every task's ``(column, indices, gather, targets)`` step part."""
    return [(column, task_data.indices, task_data.gather, task_data.targets)
            for column, task_data in data.items()]


def _graph_predict(model: GrimpModel, adjacencies,
                   feature_tensor: Tensor) -> Predict:
    """``predict`` over one full-graph forward, run on first use."""
    model.eval()
    pinned: list[Tensor] = []

    def predict(column: str, indices: np.ndarray) -> np.ndarray:
        if not pinned:
            pinned.append(model.node_representations(adjacencies,
                                                     feature_tensor))
        vectors = model.training_vectors(pinned[0], indices)
        return model.task_output(column, vectors).data

    return predict

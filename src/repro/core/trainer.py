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
                    fd_related_columns, masked_sample_rows)
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
    """One task's samples as arrays: each sample's table row, the
    target column's position, and the encoded targets.

    A sample's ``(C,)`` index row is its table row of the fit's node
    index matrix with the target cell masked; :meth:`indices` builds
    those rows for whichever samples a step or batch needs, so no
    per-sample objects and no whole-task index matrix outlive the
    corpus.
    """

    def __init__(self, rows: np.ndarray, position: int,
                 targets: np.ndarray):
        self.rows = rows
        self.position = position
        self.targets = targets

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def indices(self, node_matrix: np.ndarray, null_index: int,
                select=slice(None)) -> np.ndarray:
        """The ``(n, C)`` index matrix of the ``select``-ed samples
        (masked target cells and missing cells point at
        ``null_index``)."""
        return masked_sample_rows(node_matrix, self.rows[select],
                                  self.position, null_index)


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

        Each phase hands on only what the next ones read, so the
        corpus objects, the float64 features and the scipy adjacencies
        are gone before training starts.  In sampled mode the frozen
        graph is the one full-graph copy held during training; the
        fill/checkpoint plan is built from the table graph afterwards.
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
            encoders = TableEncoder(normalized)
            with tracer.span("corpus"):
                train_tasks, validation_tasks = self._corpus_tasks(
                    normalized, encoders, rng, dtype)

            with tracer.span("graph"):
                table_graph = build_table_graph(
                    normalized,
                    exclude_cells=_held_out_cells(validation_tasks))
                edge_types = list(normalized.column_names)
                if config.augment_fd_edges and config.fds:
                    edge_types += augment_with_fd_edges(
                        table_graph, normalized, config.fds)
            model, feature_tensor = self._build_model(
                normalized, table_graph, encoders, edge_types, rng, dtype,
                tracer)
            self.model_ = model
            adjacencies, sampler = self._operators(
                table_graph, edge_types, dtype, fanout, use_sampling,
                tracer)

            null_index = table_graph.graph.n_nodes
            with tracer.span("index"):
                node_matrix = build_node_index_matrix(normalized,
                                                      table_graph)
                if sampler is None:
                    # Gather operators pay off only when the same index
                    # matrix is replayed every epoch (full-batch).
                    train_parts = _graph_parts(train_tasks, node_matrix,
                                               null_index, dtype)
                    validation_parts = _graph_parts(
                        validation_tasks, node_matrix, null_index, dtype)

            self.history_ = []
            if sampler is None:
                def epoch_loss(optimizer, epoch):
                    return step(model, optimizer, adjacencies,
                                feature_tensor, train_parts,
                                config.categorical_loss, tracer)

                graph_validation = [(1, [(1, adjacencies, feature_tensor,
                                          validation_parts)])] \
                    if validation_parts else []

                def validation_groups():
                    return graph_validation
            else:
                # Scheduling derives every seed from one SeedSequence
                # tree — bit-identical batches for a given config.seed.
                iterator = MinibatchIterator(
                    [task.n for task in train_tasks.values()],
                    config.batch_size,
                    np.random.SeedSequence([config.seed, 0x5A3B]))
                meta["sampling"]["n_batches"] = iterator.n_batches

                def epoch_loss(optimizer, epoch):
                    return self._sampled_epoch(
                        model, optimizer, sampler, feature_tensor,
                        train_tasks, node_matrix, iterator, epoch,
                        null_index, tracer)

                def validation_groups():
                    return self._sampled_validation(
                        model, sampler, feature_tensor, validation_tasks,
                        node_matrix, null_index)

            conversions_before = conversion_counts()
            # A table with no observed cell has no training sample: run
            # no epoch, so the fill leaves every cell missing.
            self._train_loop(model, epoch_loss, validation_groups,
                             config.epochs if train_tasks else 0, tracer)
            conversions_after = conversion_counts()
            meta["train_conversions"] = {
                kind: conversions_after[kind] - conversions_before[kind]
                for kind in conversions_after}

            with tracer.span("fill"):
                if sampler is not None:
                    # Built after training, so the full-graph operators
                    # are never resident beside the frozen graph.
                    adjacencies = MessagePassingPlan(
                        column_adjacencies(table_graph, normalization="row",
                                           edge_types=edge_types),
                        dtype=dtype, build_backward=False)
                    predict = self._sampled_predict(model, sampler,
                                                    feature_tensor,
                                                    null_index)
                else:
                    predict = _graph_predict(model, adjacencies,
                                             feature_tensor)
                self._artifacts = FittedArtifacts(
                    model=model, table_graph=table_graph,
                    adjacencies=adjacencies, feature_tensor=feature_tensor,
                    encoders=encoders, normalizer=normalizer,
                    columns=list(dirty.column_names),
                    kinds=dict(dirty.kinds))
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

    def _corpus_tasks(self, table: Table, encoders: TableEncoder,
                      rng: np.random.Generator, dtype
                      ) -> tuple[dict[str, _TaskData], dict[str, _TaskData]]:
        """Build and split the self-supervised corpus (§3.3) into
        per-task sample arrays; the sample objects die here."""
        config = self.config
        corpus = build_training_corpus(table)
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
        return (_task_data(table, encoders, train_samples, dtype),
                _task_data(table, encoders, validation_samples, dtype))

    def _build_model(self, table: Table, table_graph, encoders: TableEncoder,
                     edge_types: list[str], rng: np.random.Generator, dtype,
                     tracer: Tracer) -> tuple[GrimpModel, Tensor]:
        """Initialize the node features and build the model around
        them; returns the model and its feature tensor in ``dtype``."""
        config = self.config
        with tracer.span("features"):
            features = initialize_node_features(
                table_graph, table, strategy=config.feature_strategy,
                dim=config.feature_dim, seed=config.seed,
                embdi_kwargs=config.embdi_kwargs or None)
        cardinalities = {column: encoders.cardinality(column)
                         for column in table.categorical_columns}
        fd_related = fd_related_columns(config.fds, table.column_names)
        model = GrimpModel(table.column_names, table.kinds, cardinalities,
                           features.attribute_vectors, config, rng,
                           fd_related=fd_related, gnn_edge_types=edge_types)
        # With train_features the pre-trained features are refined
        # end-to-end (§3.4) as a model parameter, so checkpointing and
        # the optimizer see them.
        return model, model.attach_features(features.node_vectors, dtype)

    def _operators(self, table_graph, edge_types: list[str], dtype,
                   fanout: int, use_sampling: bool, tracer: Tracer):
        """``(plan, None)`` for full-graph training, ``(None, sampler)``
        for sampled training.

        The full-graph plan compiles every constant sparse operator and
        its transpose once, so the epoch loop runs conversion-free.  In
        sampled mode the normalized adjacencies are frozen into the
        sampler's CSR arrays and no plan is compiled.
        """
        with tracer.span("plan"):
            adjacencies = column_adjacencies(table_graph,
                                             normalization="row",
                                             edge_types=edge_types)
            if not use_sampling:
                return MessagePassingPlan(adjacencies, dtype=dtype), None
        with tracer.span("freeze"):
            return None, NeighborSampler(
                FrozenGraph.freeze(adjacencies, dtype=dtype), fanout=fanout)

    def _train_loop(self, model: GrimpModel, epoch_loss, validation_groups,
                    epochs: int, tracer: Tracer) -> None:
        """The epoch loop shared by both training paths: trains
        ``model`` in place and leaves it at the state with the best
        validation loss; the optimizer state dies on return.

        ``epoch_loss(optimizer, epoch)`` trains one epoch and returns
        its loss (a full-graph epoch is one
        :func:`~repro.core.step.step` over every task; a sampled epoch
        one step per batch); ``validation_groups()`` gives the groups
        :meth:`_validate` scores.
        """
        optimizer = Adam(model.parameters(), lr=self.config.lr)
        stopper = EarlyStopping(patience=self.config.patience)
        best_state = model.state_dict()
        best_validation = float("inf")
        with tracer.span("train"):
            for epoch in range(epochs):
                model.train()
                with tracer.span("epoch", epoch=epoch) as epoch_span:
                    loss = epoch_loss(optimizer, epoch)
                    with tracer.span("validate"):
                        validation_loss = self._validate(
                            model, validation_groups())
                    epoch_span.set(train_loss=loss,
                                   validation_loss=validation_loss)
                self.history_.append({
                    "epoch": epoch,
                    "train_loss": loss,
                    "validation_loss": validation_loss,
                })
                metric = validation_loss \
                    if np.isfinite(validation_loss) else loss
                if metric < best_validation:
                    best_validation = metric
                    best_state = model.state_dict()
                if stopper.update(metric, epoch):
                    break
        model.load_state_dict(best_state)

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
    # Sampled training (repro.sampling): each step runs message passing
    # over a compact sampled subgraph instead of the whole graph, so
    # per-step activation memory scales with the batch neighborhood,
    # not the table.  The step itself lives in repro.core.step and is
    # shared verbatim with full-graph epochs.
    # ------------------------------------------------------------------
    def _sampled_epoch(self, model: GrimpModel, optimizer: Adam,
                       sampler: NeighborSampler, feature_tensor: Tensor,
                       data: dict[str, _TaskData], node_matrix: np.ndarray,
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
                    sampler, n_layers, feature_tensor,
                    task_data.indices(node_matrix, null_index, rows),
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

        Returns ``chunks(n, take)``, which walks ``n`` index rows in
        ``batch_size`` chunks — ``take(chunk)`` -> sample -> plan ->
        local indices — and yields ``(chunk, operators, features,
        local_indices)``.  Chunk seeds spawn from ``seed_root`` in visit
        order, so a fixed root replays the identical subgraphs.
        """
        silent = Tracer()
        n_layers = model.shared.gnn.n_layers

        def chunks(n: int, take):
            for chunk in contiguous_batches(n, self.config.batch_size):
                (chunk_seed,) = seed_root.spawn(1)
                yield (chunk, *sampled_inputs(
                    sampler, n_layers, feature_tensor, take(chunk),
                    null_index, np.random.default_rng(chunk_seed), silent,
                    build_backward=False))

        return chunks

    def _sampled_validation(self, model: GrimpModel,
                            sampler: NeighborSampler, feature_tensor: Tensor,
                            data: dict[str, _TaskData],
                            node_matrix: np.ndarray, null_index: int):
        """Sampled validation groups for :meth:`_validate`.

        Seeds derive from a fixed root (not the training schedule), so
        every epoch evaluates the identical subgraphs — the metric is
        comparable across epochs and early stopping stays stable.
        """
        chunks = self._sampled_chunks(
            model, sampler, feature_tensor, null_index,
            np.random.SeedSequence([self.config.seed, 0x56A1]))

        def task_chunks(column: str, task_data: _TaskData):
            def take(chunk):
                return task_data.indices(node_matrix, null_index, chunk)

            for chunk, operators, features, local in chunks(task_data.n,
                                                            take):
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
            for _, operators, features, local in chunks(
                    indices.shape[0], indices.__getitem__):
                h_extended = model.node_representations(operators,
                                                        features)
                vectors = model.training_vectors(h_extended, local)
                outputs.append(model.task_output(column, vectors).data)
            return np.concatenate(outputs, axis=0)

        return predict


def _task_data(table: Table, encoders: TableEncoder, samples,
               dtype) -> dict[str, _TaskData]:
    """Group ``samples`` by task into :class:`_TaskData` arrays; tasks
    without samples are left out."""
    data: dict[str, _TaskData] = {}
    grouped = samples_by_task(samples, table.column_names)
    for position, (column, task_samples) in enumerate(grouped.items()):
        if not task_samples:
            continue
        rows = np.fromiter((sample.row for sample in task_samples),
                           dtype=np.int64, count=len(task_samples))
        if table.is_categorical(column):
            targets = np.array(
                [encoders[column].encode(sample.target_value)
                 for sample in task_samples], dtype=np.int64)
        else:
            targets = np.array(
                [float(sample.target_value) for sample in task_samples],
                dtype=dtype)
        data[column] = _TaskData(rows, position, targets)
    return data


def _held_out_cells(data: dict[str, _TaskData]) -> set[tuple[int, str]]:
    """The ``(row, column)`` cells of every sample in ``data``."""
    return {(row, column) for column, task_data in data.items()
            for row in task_data.rows.tolist()}


def _graph_parts(data: dict[str, _TaskData], node_matrix: np.ndarray,
                 null_index: int, dtype) -> list[tuple]:
    """Every task's full-graph step part ``(column, indices, gather,
    targets)``, its gather operator compiled once."""
    parts = []
    for column, task_data in data.items():
        indices = task_data.indices(node_matrix, null_index)
        parts.append((column, indices,
                      build_gather_operator(indices, null_index + 1,
                                            dtype=dtype),
                      task_data.targets))
    return parts


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

"""Tests for `repro.sampling`: minibatch neighbor-sampled training.

Four layers of guarantees, bottom-up:

* `FrozenGraph` snapshots are faithful (rows match the scipy matrices,
  search keys stay float64 and sorted).
* `NeighborSampler` is exact at fanout 0 (full-graph rows verbatim)
  and a bounded, deterministic, unbiased estimator at finite fanouts;
  the operators it assembles equal scipy's COO -> CSR build array for
  array.
* The minibatch schedule is bit-identical across runs, with chunk
  contents fixed across epochs.
* The trainer integration holds the golden parity: a fanout-0
  minibatch reproduces full-graph forward outputs *and gradients* to
  float64 round-off, and sampled fits are deterministic end-to-end.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.data import NumericNormalizer, Table, TableEncoder
from repro.sampling import (FrozenGraph, Minibatch, MinibatchIterator,
                            NeighborSampler, contiguous_batches)


def random_adjacencies(n_nodes=30, edge_types=("a", "b"), seed=0,
                       dtype=np.float32):
    """Row-normalized random CSR matrices, one per edge type."""
    rng = np.random.default_rng(seed)
    out = {}
    for offset, edge_type in enumerate(edge_types):
        dense = (rng.random((n_nodes, n_nodes)) < 0.15).astype(dtype)
        np.fill_diagonal(dense, 1.0)  # self-loops keep every row occupied
        dense /= dense.sum(axis=1, keepdims=True)
        out[edge_type] = sparse.csr_matrix(dense)
    return out


def forward_operators(subgraph):
    """Each edge type's local forward CSR of a sampled subgraph."""
    return {edge_type: operator.forward
            for edge_type, operator in subgraph.compile().items()}


def same_csr(left, right):
    """Whether two CSR matrices carry identical arrays and dtypes."""
    return (np.array_equal(left.indptr, right.indptr)
            and np.array_equal(left.indices, right.indices)
            and np.array_equal(left.data, right.data)
            and left.data.dtype == right.data.dtype
            and left.indices.dtype == right.indices.dtype
            and left.indptr.dtype == right.indptr.dtype)


def same_adjacencies(first, second):
    """Whether two subgraphs carry identical local CSR arrays."""
    left, right = forward_operators(first), forward_operators(second)
    if list(left) != list(right):
        return False
    return all(same_csr(left[edge_type], right[edge_type])
               for edge_type in left)


def structured_table(n_rows=40, seed=0):
    rng = np.random.default_rng(seed)
    cities = ["paris", "rome", "berlin"]
    country_of = {"paris": "france", "rome": "italy", "berlin": "germany"}
    chosen = [cities[index] for index in rng.integers(0, 3, n_rows)]
    return Table({
        "city": chosen,
        "country": [country_of[city] for city in chosen],
        "population": [float(index % 7) for index in range(n_rows)],
    })


class TestFrozenGraph:
    def test_rows_match_scipy(self):
        adjacencies = random_adjacencies()
        frozen = FrozenGraph.freeze(adjacencies)
        assert frozen.n_nodes == 30
        for edge_type, matrix in adjacencies.items():
            indptr, indices, weights, _keys = frozen.csr[edge_type]
            np.testing.assert_array_equal(indptr, matrix.indptr)
            np.testing.assert_array_equal(indices, matrix.indices)
            np.testing.assert_allclose(weights, matrix.data)

    def test_keys_float64_sorted_and_end_on_owner_plus_one(self):
        frozen = FrozenGraph.freeze(random_adjacencies(dtype=np.float32),
                                    dtype=np.float32)
        for edge_type in frozen.edge_types:
            indptr, _indices, weights, keys = frozen.csr[edge_type]
            assert weights.dtype == np.float32
            assert keys.dtype == np.float64  # never the storage dtype
            assert np.all(np.diff(keys) > 0)  # globally sorted
            ends = indptr[1:][np.diff(indptr) > 0] - 1
            owners = np.arange(frozen.n_nodes)[np.diff(indptr) > 0]
            np.testing.assert_allclose(keys[ends], owners + 1.0,
                                       rtol=0, atol=1e-12)

    def test_weights_stored_in_requested_dtype(self):
        adjacencies = random_adjacencies(dtype=np.float64)
        frozen = FrozenGraph.freeze(adjacencies, dtype=np.float32)
        for edge_type in frozen.edge_types:
            assert frozen.csr[edge_type][2].dtype == np.float32

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FrozenGraph.freeze({})

    def test_mismatched_shapes_rejected(self):
        adjacencies = {"a": sparse.eye(4, format="csr"),
                       "b": sparse.eye(5, format="csr")}
        with pytest.raises(ValueError, match="disagree"):
            FrozenGraph.freeze(adjacencies)


class TestNeighborSampler:
    def test_exact_rows_are_full_graph_rows(self):
        adjacencies = random_adjacencies(seed=3)
        sampler = NeighborSampler(FrozenGraph.freeze(adjacencies),
                                  fanout=0)
        assert sampler.exact
        subgraph = sampler.sample(np.array([0, 7, 19]), n_hops=2)
        nodes = subgraph.nodes
        assert np.all(np.diff(nodes) > 0)  # sorted, unique
        operators = forward_operators(subgraph)
        # Every materialized (non-empty) local row must equal the
        # global row verbatim: same neighbors, same normalized weights.
        for edge_type, matrix in adjacencies.items():
            local = operators[edge_type]
            for position in range(subgraph.n_local):
                row = local.getrow(position)
                if row.nnz == 0:
                    continue  # outer-shell node: features only
                full = matrix.getrow(int(nodes[position]))
                np.testing.assert_array_equal(nodes[row.indices],
                                              np.sort(full.indices))
                order = np.argsort(full.indices)
                np.testing.assert_allclose(row.data, full.data[order])

    def test_seed_rows_always_materialized(self):
        sampler = NeighborSampler(FrozenGraph.freeze(random_adjacencies()),
                                  fanout=0)
        seeds = np.array([2, 11])
        subgraph = sampler.sample(seeds, n_hops=2)
        local_seeds = np.searchsorted(subgraph.nodes, seeds)
        for matrix in forward_operators(subgraph).values():
            for position in local_seeds:
                assert matrix.getrow(int(position)).nnz > 0

    def test_finite_fanout_deterministic_in_rng_state(self):
        frozen = FrozenGraph.freeze(random_adjacencies(seed=5))
        sampler = NeighborSampler(frozen, fanout=3)
        seeds = np.array([1, 4, 9])
        first = sampler.sample(seeds, 2, np.random.default_rng(42))
        second = sampler.sample(seeds, 2, np.random.default_rng(42))
        np.testing.assert_array_equal(first.nodes, second.nodes)
        assert same_adjacencies(first, second)
        third = sampler.sample(seeds, 2, np.random.default_rng(43))
        assert (third.n_local != first.n_local
                or not same_adjacencies(first, third))

    def test_finite_fanout_rows_bounded_and_sum_to_one(self):
        frozen = FrozenGraph.freeze(random_adjacencies(n_nodes=40, seed=7))
        k = 4
        sampler = NeighborSampler(frozen, fanout=k)
        subgraph = sampler.sample(np.arange(6), 2,
                                  np.random.default_rng(0))
        for matrix in forward_operators(subgraph).values():
            counts = np.diff(matrix.indptr)
            assert counts.max() <= k  # duplicates can only merge
            sums = np.asarray(matrix.sum(axis=1)).reshape(-1)
            occupied = counts > 0
            # k draws at weight 1/k: every materialized row sums to 1.
            np.testing.assert_allclose(sums[occupied], 1.0, rtol=1e-6)

    def test_finite_fanout_requires_rng(self):
        sampler = NeighborSampler(FrozenGraph.freeze(random_adjacencies()),
                                  fanout=2)
        with pytest.raises(ValueError, match="rng"):
            sampler.sample(np.array([0]), 1)

    def test_negative_fanout_rejected(self):
        with pytest.raises(ValueError, match="fanout"):
            NeighborSampler(FrozenGraph.freeze(random_adjacencies()),
                            fanout=-1)

    def test_seed_validation(self):
        sampler = NeighborSampler(FrozenGraph.freeze(random_adjacencies()))
        with pytest.raises(ValueError, match="zero seeds"):
            sampler.sample(np.array([], dtype=np.int64), 1)
        with pytest.raises(ValueError, match="out of range"):
            sampler.sample(np.array([999]), 1)

    def test_local_indices_maps_null_to_n_local(self):
        sampler = NeighborSampler(FrozenGraph.freeze(random_adjacencies()))
        subgraph = sampler.sample(np.array([3, 8]), 1)
        null_index = 30
        real = subgraph.nodes[[0, subgraph.n_local - 1]]
        matrix = np.array([[real[0], null_index], [null_index, real[1]]])
        local = subgraph.local_indices(matrix, null_index)
        assert local[0, 1] == subgraph.n_local
        assert local[1, 0] == subgraph.n_local
        assert subgraph.nodes[local[0, 0]] == real[0]
        assert subgraph.nodes[local[1, 1]] == real[1]

    def test_local_indices_rejects_foreign_nodes(self):
        sampler = NeighborSampler(FrozenGraph.freeze(random_adjacencies()))
        subgraph = sampler.sample(np.array([3]), 1)
        outside = np.setdiff1d(np.arange(30), subgraph.nodes)
        if outside.size == 0:
            pytest.skip("one hop covered the whole graph")
        with pytest.raises(ValueError, match="outside"):
            subgraph.local_indices(np.array([[outside[0]]]), 30)


def scipy_reference(sampler, seeds, n_hops, rng):
    """The sampled operators as scipy's COO -> CSR build makes them.

    Replays the sampler's draws (same ``_rows`` calls in the same
    order, so the same rng stream) with set operations for the
    frontier, then builds each edge type with ``coo_matrix(...)
    .tocsr()`` + ``sum_duplicates()`` and its transpose with
    ``.T.tocsr()``.  Returns ``(nodes, {edge type: (forward,
    backward)})``.
    """
    frozen = sampler.frozen
    blocks = {edge_type: [] for edge_type in frozen.edge_types}
    known = frontier = np.unique(seeds)
    for _hop in range(n_hops):
        if frontier.size == 0:
            break
        discovered = []
        for edge_type in frozen.edge_types:
            rows, cols, vals = sampler._rows(edge_type, frontier, rng)
            if rows.size:
                blocks[edge_type].append((rows, cols, vals))
                discovered.append(cols)
        if not discovered:
            break
        frontier = np.setdiff1d(np.unique(np.concatenate(discovered)),
                                known, assume_unique=True)
        known = np.union1d(known, frontier)
    s = known.shape[0]
    operators = {}
    for edge_type, parts in blocks.items():
        if parts:
            rows, cols, vals = (np.concatenate(field)
                                for field in zip(*parts))
            forward = sparse.coo_matrix(
                (vals, (np.searchsorted(known, rows),
                        np.searchsorted(known, cols))),
                shape=(s, s)).tocsr()
            forward.sum_duplicates()
        else:
            forward = sparse.csr_matrix(
                (s, s), dtype=frozen.csr[edge_type][2].dtype)
        operators[edge_type] = (forward, forward.T.tocsr())
    return known, operators


def oracle_adjacencies(dtype):
    """Sparse random rows (so small fanouts draw duplicates), plus an
    edge type with no entries at all."""
    adjacencies = random_adjacencies(n_nodes=40, edge_types=("a", "b"),
                                     seed=11, dtype=dtype)
    adjacencies["empty"] = sparse.csr_matrix((40, 40), dtype=dtype)
    return adjacencies


class TestOperatorOracle:
    """The sampler's one-pass operators equal scipy's build exactly:
    same ``indptr``, ``indices`` and ``data``, same dtypes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fanout", [0, 1, 2, 5, 9])
    def test_matches_scipy_build(self, fanout, dtype):
        sampler = NeighborSampler(
            FrozenGraph.freeze(oracle_adjacencies(dtype), dtype=dtype),
            fanout=fanout)
        merged = 0
        for trial in range(4):
            seeds = np.random.default_rng(trial).choice(40, 3,
                                                        replace=False)
            nodes, reference = scipy_reference(
                sampler, seeds, 2, np.random.default_rng(trial))
            subgraph = sampler.sample(seeds, 2,
                                      np.random.default_rng(trial))
            np.testing.assert_array_equal(subgraph.nodes, nodes)
            plan = subgraph.compile()
            assert plan.dtype == dtype
            for edge_type, (forward, backward) in reference.items():
                operator = plan[edge_type]
                assert operator.has_backward
                assert same_csr(operator.forward, forward)
                assert same_csr(operator.backward, backward)
            assert plan["empty"].forward.nnz == 0
            # Nodes first found on the last hop keep empty rows.
            occupied = sum(np.diff(operator.forward.indptr) > 0
                           for operator in plan.values())
            assert np.any(occupied == 0)
            if fanout:
                merged += sum(int(np.sum(operator.forward.data
                                         > 1.5 / fanout))
                              for operator in plan.values())
        if fanout >= 2:
            assert merged > 0  # some duplicate draws were merged

    @pytest.mark.parametrize("fanout", [0, 2])
    def test_eval_operators_build_transposes_lazily(self, fanout):
        sampler = NeighborSampler(
            FrozenGraph.freeze(oracle_adjacencies(np.float32),
                               dtype=np.float32), fanout=fanout)
        seeds = np.array([1, 5, 22])
        eager = sampler.sample(seeds, 2, np.random.default_rng(3)) \
            .compile()
        lazy = sampler.sample(seeds, 2, np.random.default_rng(3)) \
            .compile(build_backward=False)
        for edge_type, operator in lazy.items():
            assert not operator.has_backward
            assert same_csr(operator.forward, eager[edge_type].forward)
            assert same_csr(operator.backward, eager[edge_type].backward)


class TestMinibatchIterator:
    def test_epoch_partitions_every_task(self):
        iterator = MinibatchIterator([10, 7], batch_size=4, seed=0)
        batches = iterator.epoch(0)
        assert len(batches) == iterator.n_batches == 3 + 2
        for task, size in ((0, 10), (1, 7)):
            rows = np.concatenate([batch.rows for batch in batches
                                   if batch.task == task])
            np.testing.assert_array_equal(np.sort(rows), np.arange(size))

    def test_bit_identical_across_instances(self):
        first = MinibatchIterator([20, 13], 5, seed=123)
        second = MinibatchIterator([20, 13], 5, seed=123)
        for epoch in range(3):
            for a, b in zip(first.epoch(epoch), second.epoch(epoch)):
                assert a.task == b.task
                np.testing.assert_array_equal(a.rows, b.rows)
                assert a.seed.entropy == b.seed.entropy
                assert a.seed.spawn_key == b.seed.spawn_key

    def test_chunk_contents_fixed_order_shuffled(self):
        iterator = MinibatchIterator([24], 6, seed=1)

        def contents(epoch):
            return {tuple(batch.rows.tolist())
                    for batch in iterator.epoch(epoch)}

        def order(epoch):
            return [tuple(batch.rows.tolist())
                    for batch in iterator.epoch(epoch)]

        assert contents(0) == contents(1) == contents(5)
        assert any(order(0) != order(epoch) for epoch in range(1, 6))

    def test_batch_seed_tied_to_chunk_not_visit_order(self):
        iterator = MinibatchIterator([24], 6, seed=1)
        by_rows = {}
        for epoch in (0, 1):
            for batch in iterator.epoch(epoch):
                by_rows.setdefault(tuple(batch.rows.tolist()),
                                   []).append(batch.seed.spawn_key)
        # Same chunk, different epochs: different seeds (fresh draws),
        # but derived deterministically (checked above); distinct chunks
        # never share a seed within an epoch.
        for keys in by_rows.values():
            assert len(keys) == 2 and keys[0] != keys[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            MinibatchIterator([4], 0, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            MinibatchIterator([-1], 2, seed=0)
        with pytest.raises(ValueError, match="epoch"):
            MinibatchIterator([4], 2, seed=0).epoch(-1)

    def test_contiguous_batches(self):
        chunks = list(contiguous_batches(7, 3))
        assert [chunk.tolist() for chunk in chunks] == \
            [[0, 1, 2], [3, 4, 5], [6]]
        with pytest.raises(ValueError, match="batch_size"):
            list(contiguous_batches(7, 0))


class TestGoldenParity:
    """fanout=0 minibatch == full graph at float64.

    Sampled rows hold their entries in ascending column order.  Against
    full-graph operators in that same order, the minibatch forward
    (vectors, loss) and backward (every parameter and feature gradient)
    are bit-for-bit equal.  The fit's own plan keeps the graph
    builder's column order within each row, so its row sums add the
    same terms in another order: there, vectors, loss and gradients
    agree to about one ulp (a few 1e-18 on this problem), checked at
    ``atol=1e-12`` for the forward and ``atol=1e-10`` for gradients.
    """

    def setup_problem(self):
        from repro.core.corpus import build_training_corpus, split_corpus
        from repro.core.model import (GrimpModel, build_node_index_matrix,
                                      build_sample_indices)
        from repro.embeddings import initialize_node_features
        from repro.gnn import MessagePassingPlan, column_adjacencies
        from repro.graph import build_table_graph

        table = structured_table()
        config = GrimpConfig(feature_dim=12, gnn_dim=16, merge_dim=16,
                             seed=0, dtype="float64")
        normalized = NumericNormalizer().fit_transform(table)
        corpus = build_training_corpus(normalized)
        train, _validation = split_corpus(corpus, 0.2,
                                          np.random.default_rng(0))
        graph = build_table_graph(normalized)
        features = initialize_node_features(graph, normalized,
                                            strategy="fasttext", dim=12,
                                            seed=0)
        adjacencies = column_adjacencies(graph, normalization="row")
        encoders = TableEncoder(normalized)
        cardinalities = {column: encoders.cardinality(column)
                         for column in normalized.categorical_columns}
        node_matrix = build_node_index_matrix(normalized, graph)
        samples = [sample for sample in train
                   if sample.target_column == "city"][:8]
        indices = build_sample_indices(normalized, graph, samples,
                                       node_matrix=node_matrix)
        targets = np.array([encoders["city"].encode(sample.target_value)
                            for sample in samples])

        def build_model():
            model = GrimpModel(normalized.column_names, normalized.kinds,
                               cardinalities, features.attribute_vectors,
                               config, np.random.default_rng(0))
            model.astype(np.float64)
            return model

        plan = MessagePassingPlan(adjacencies, dtype=np.float64)
        return (build_model, features, adjacencies, plan, indices,
                targets, graph.graph.n_nodes)

    def test_forward_and_gradient_parity(self):
        from repro.gnn import MessagePassingPlan
        from repro.nn import Parameter
        from repro.tensor import cross_entropy

        (build_model, features, adjacencies, plan, indices, targets,
         null_index) = self.setup_problem()
        frozen = FrozenGraph.freeze(adjacencies, dtype=np.float64)
        sampler = NeighborSampler(frozen, fanout=0)
        reference_model = build_model()
        seeds = indices[indices != null_index]
        subgraph = sampler.sample(seeds,
                                  reference_model.shared.gnn.n_layers)
        operators = subgraph.compile()
        local = subgraph.local_indices(indices, null_index)

        canonical = MessagePassingPlan(
            {edge_type: matrix.sorted_indices()
             for edge_type, matrix in adjacencies.items()},
            dtype=np.float64)

        def run(operators, use_subgraph):
            model = build_model()
            feature_parameter = Parameter(
                features.node_vectors.astype(np.float64))
            if use_subgraph:
                h = model.node_representations(
                    operators, feature_parameter[subgraph.nodes])
                vectors = model.training_vectors(h, local)
            else:
                h = model.node_representations(operators, feature_parameter)
                vectors = model.training_vectors(h, indices)
            loss = cross_entropy(model.task_output("city", vectors),
                                 targets)
            loss.backward()
            return (vectors.data.copy(), loss.item(),
                    [None if p.grad is None else p.grad.copy()
                     for p in model.parameters()]
                    + [feature_parameter.grad.copy()])

        sub_vectors, sub_loss, sub_grads = run(operators, True)
        exact_vectors, exact_loss, exact_grads = run(canonical, False)
        np.testing.assert_array_equal(sub_vectors, exact_vectors)
        assert sub_loss == exact_loss
        for exact_grad, sub_grad in zip(exact_grads, sub_grads):
            if exact_grad is None:
                assert sub_grad is None or np.abs(sub_grad).max() == 0.0
            else:
                np.testing.assert_array_equal(sub_grad, exact_grad)

        full_vectors, full_loss, full_grads = run(plan, False)
        np.testing.assert_allclose(sub_vectors, full_vectors, rtol=0,
                                   atol=1e-12)
        assert sub_loss == pytest.approx(full_loss, abs=1e-12)
        for full_grad, sub_grad in zip(full_grads, sub_grads):
            if full_grad is None:
                assert sub_grad is None or np.abs(sub_grad).max() == 0.0
                continue
            np.testing.assert_allclose(sub_grad, full_grad, rtol=0,
                                       atol=1e-10)


SAMPLED = GrimpConfig(feature_dim=12, gnn_dim=16, merge_dim=16, epochs=8,
                      patience=4, lr=1e-2, seed=0, batch_size=16,
                      fanout=2)


class TestSampledTraining:
    def corruption(self):
        return inject_mcar(structured_table(), 0.2,
                           np.random.default_rng(1))

    def test_fills_every_missing_cell(self):
        imputer = GrimpImputer(SAMPLED)
        imputed = imputer.impute(self.corruption().dirty)
        assert imputed.missing_fraction() == 0.0
        meta = imputer.timings_["meta"]["sampling"]
        assert meta["fanout"] == 2 and meta["batch_size"] == 16
        assert meta["n_batches"] >= 1

    def test_deterministic_across_runs_and_workers(self):
        def run():
            imputer = GrimpImputer(SAMPLED)
            imputed = imputer.impute(self.corruption().dirty)
            cells = [imputed.get(row, column)
                     for column in imputed.column_names
                     for row in range(imputed.n_rows)]
            return imputer.history_, cells

        history, cells = run()
        repeat_history, repeat_cells = run()
        assert repeat_history == history and repeat_cells == cells

    def test_checkpoint_round_trip_imputes_new_rows_identically(
            self, tmp_path):
        """A sampled fit builds its fill/checkpoint plan after training,
        for inference only; a reloaded checkpoint imputes new rows
        exactly as the fitted imputer does."""
        imputer = GrimpImputer(SAMPLED)
        imputer.impute(self.corruption().dirty)
        plan = imputer._artifacts.adjacencies
        assert not any(plan[edge_type].has_backward for edge_type in plan)
        imputer.save_checkpoint(tmp_path / "sampled")
        loaded = GrimpImputer.from_checkpoint(tmp_path / "sampled")
        new_rows = inject_mcar(structured_table(n_rows=25, seed=3), 0.3,
                               np.random.default_rng(4)).dirty
        assert loaded.impute_new_rows(new_rows).to_rows() == \
            imputer.impute_new_rows(new_rows).to_rows()

    def test_sampled_phase_spans_recorded(self):
        imputer = GrimpImputer(SAMPLED)
        imputer.impute(self.corruption().dirty)
        timings = imputer.timings_
        for phase in ("sample", "compile", "forward", "backward", "step"):
            entry = timings[f"fit/train/epoch/batch/{phase}"]
            assert entry["count"] >= 1

    def test_exact_minibatch_is_fanout_zero(self):
        """batch_size without fanout trains exactly as fanout=0: same
        loss history and every imputed cell, bit for bit, at float64."""
        def run(fanout):
            config = GrimpConfig(feature_dim=12, gnn_dim=16, merge_dim=16,
                                 epochs=4, patience=4, lr=1e-2, seed=0,
                                 batch_size=16, fanout=fanout,
                                 dtype="float64")
            imputer = GrimpImputer(config)
            imputed = imputer.impute(self.corruption().dirty)
            cells = [repr(imputed.get(row, column))
                     for column in imputed.column_names
                     for row in range(imputed.n_rows)]
            return imputer.history_, cells

        history, cells = run(None)
        zero_history, zero_cells = run(0)
        assert history == zero_history
        assert cells == zero_cells

    def test_scores_belong_to_the_written_values(self, monkeypatch):
        """impute_with_scores on a sampled fit: each categorical score
        is the softmax probability of the value written into the cell,
        taken from the same sampled outputs."""
        import repro.core.trainer as trainer_module

        outputs: dict[str, np.ndarray] = {}
        real_fill = trainer_module.fill_missing

        def recording_fill(dirty, node_matrix, predict, *args, **kwargs):
            def recording_predict(column, indices):
                outputs[column] = predict(column, indices)
                return outputs[column]
            return real_fill(dirty, node_matrix, recording_predict,
                             *args, **kwargs)

        monkeypatch.setattr(trainer_module, "fill_missing", recording_fill)
        dirty = self.corruption().dirty
        imputer = GrimpImputer(SAMPLED)
        imputed, scores = imputer.impute_with_scores(dirty)
        encoders = imputer._artifacts.encoders
        rows_of: dict[str, list[int]] = {}
        for row, column in dirty.missing_cells():
            rows_of.setdefault(column, []).append(row)
        checked = 0
        for column, rows in rows_of.items():
            if not dirty.is_categorical(column):
                continue
            logits = outputs[column]
            probabilities = np.exp(logits - logits.max(axis=1,
                                                       keepdims=True))
            probabilities /= probabilities.sum(axis=1, keepdims=True)
            for position, row in enumerate(rows):
                code = encoders[column].encode(imputed.get(row, column))
                assert scores[(row, column)] == pytest.approx(
                    probabilities[position, code], rel=1e-12, abs=0.0)
                checked += 1
        assert checked > 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="requires batch_size"):
            GrimpConfig(fanout=2)
        with pytest.raises(ValueError, match="fanout"):
            GrimpConfig(fanout=-1, batch_size=8)


class TestCLI:
    def test_parser_accepts_batch_size_and_fanout(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["impute", "in.csv", "out.csv", "--batch-size", "32",
             "--fanout", "4"])
        assert args.batch_size == 32 and args.fanout == 4
        defaults = build_parser().parse_args(["impute", "in.csv",
                                              "out.csv"])
        assert defaults.batch_size is None and defaults.fanout is None

    def test_fanout_without_batch_size_fails_cleanly(self, tmp_path,
                                                     capsys):
        from repro.cli import main
        from repro.data import write_csv
        dirty = inject_mcar(structured_table(), 0.2,
                            np.random.default_rng(1)).dirty
        path = tmp_path / "dirty.csv"
        write_csv(dirty, path)
        code = main(["impute", str(path), str(tmp_path / "out.csv"),
                     "--fanout", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_flags_rejected_for_non_grimp_algorithms(self, tmp_path,
                                                     capsys):
        from repro.cli import main
        from repro.data import write_csv
        dirty = inject_mcar(structured_table(), 0.2,
                            np.random.default_rng(1)).dirty
        path = tmp_path / "dirty.csv"
        write_csv(dirty, path)
        code = main(["impute", str(path), str(tmp_path / "out.csv"),
                     "--algorithm", "mode", "--batch-size", "8"])
        assert code == 1
        assert "grimp" in capsys.readouterr().err

    @pytest.mark.slow
    def test_sampled_impute_end_to_end(self, tmp_path):
        from repro.cli import main
        from repro.data import read_csv, write_csv
        dirty = inject_mcar(structured_table(), 0.2,
                            np.random.default_rng(1)).dirty
        dirty_path = tmp_path / "dirty.csv"
        out_path = tmp_path / "imputed.csv"
        write_csv(dirty, dirty_path)
        assert main(["impute", str(dirty_path), str(out_path),
                     "--algorithm", "grimp-ft", "--batch-size", "16",
                     "--fanout", "2", "--seed", "0"]) == 0
        assert read_csv(out_path).missing_fraction() == 0.0

"""Tests for the workspace arena (Layer 13, ``repro.tensor.arena``).

Three layers of guarantees:

* the :class:`Workspace` pool itself — rent/reset semantics, hit/miss
  accounting, stale-shape trimming, telemetry flush;
* the pooled kernels — fused ``linear``/``layer_norm`` gradcheck, and
  the bit-identity contract: arena-on and arena-off runs produce the
  *same bits* end to end on every training path (serial full-graph,
  minibatch, sampled, data-parallel shards);
* the interaction with the ``REPRO_ANOMALY`` sanitizer — buffer reuse
  must neither mis-attribute the first bad value nor manufacture
  spurious findings from stale NaN left in returned pool buffers.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import AnomalyError, detect_anomalies
from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.data import Table
from repro.sampling import FrozenGraph, NeighborSampler, SubgraphPlanCache
from repro.telemetry.registry import counter
from repro.tensor import (
    Tensor,
    WORKSPACE,
    Workspace,
    arena_enabled,
    gradcheck,
    linear,
    layer_norm,
    set_arena_enabled,
    use_workspace,
)
from repro.tensor.arena import _env_enabled


@pytest.fixture(autouse=True)
def arena_default():
    """Every test starts and ends with the arena enabled (the default)
    and no workspace active."""
    set_arena_enabled(True)
    WORKSPACE.active = None
    yield
    set_arena_enabled(True)
    WORKSPACE.active = None


class TestWorkspace:
    def test_rent_returns_exact_shape_and_dtype(self):
        workspace = Workspace()
        array = workspace.rent((3, 4), np.dtype("float32"))
        assert array.shape == (3, 4)
        assert array.dtype == np.float32

    def test_reset_recycles_buffers(self):
        workspace = Workspace()
        first = workspace.rent((8,), np.dtype("float32"))
        workspace.reset()
        second = workspace.rent((8,), np.dtype("float32"))
        assert second is first
        stats = workspace.stats()
        assert stats["pool_hits"] == 1
        assert stats["pool_misses"] == 1

    def test_no_double_handout_within_one_scope(self):
        workspace = Workspace()
        first = workspace.rent((4,), np.dtype("float32"))
        second = workspace.rent((4,), np.dtype("float32"))
        assert first is not second

    def test_distinct_keys_never_alias(self):
        workspace = Workspace()
        a = workspace.rent((4,), np.dtype("float32"))
        b = workspace.rent((4,), np.dtype("float64"))
        c = workspace.rent((2, 2), np.dtype("float32"))
        assert {id(a), id(b), id(c)} == {id(a)} | {id(b)} | {id(c)}

    def test_bytes_requested_accumulates(self):
        workspace = Workspace()
        workspace.rent((4,), np.dtype("float32"))
        workspace.reset()
        workspace.rent((4,), np.dtype("float32"))
        assert workspace.stats()["bytes_requested"] == 32

    def test_peak_bytes_tracks_held_high_water(self):
        workspace = Workspace()
        workspace.rent((256,), np.dtype("float32"))
        workspace.rent((256,), np.dtype("float32"))
        workspace.reset()
        # Steady state re-rents the same two buffers: peak is flat.
        workspace.rent((256,), np.dtype("float32"))
        workspace.rent((256,), np.dtype("float32"))
        workspace.reset()
        assert workspace.stats()["peak_bytes"] == 2 * 1024

    def test_stale_shapes_trimmed_after_horizon(self):
        workspace = Workspace(trim_after=2)
        stale = workspace.rent((16,), np.dtype("float32"))
        workspace.reset()
        for _ in range(3):
            workspace.rent((8,), np.dtype("float32"))
            workspace.reset()
        fresh = workspace.rent((16,), np.dtype("float32"))
        assert fresh is not stale  # the old pool was released
        # The recurring shape is still pooled.
        recurring = workspace.rent((8,), np.dtype("float32"))
        assert workspace.stats()["pool_hits"] >= 3
        assert recurring.shape == (8,)

    def test_recurring_shape_survives_trim(self):
        workspace = Workspace(trim_after=2)
        kept = workspace.rent((16,), np.dtype("float32"))
        workspace.reset()
        for _ in range(6):
            assert workspace.rent((16,), np.dtype("float32")) is kept
            workspace.reset()

    def test_reset_flushes_global_telemetry(self):
        hits = counter("arena.pool_hits")
        misses = counter("arena.pool_misses")
        requested = counter("arena.bytes_requested")
        before = (hits.value, misses.value, requested.value)
        workspace = Workspace()
        workspace.rent((4,), np.dtype("float32"))
        workspace.reset()
        workspace.rent((4,), np.dtype("float32"))
        # Pending tallies flush at reset, not per rent.
        assert (hits.value, misses.value, requested.value) == \
            (before[0], before[1] + 1, before[2] + 16)
        workspace.reset()
        assert (hits.value, misses.value, requested.value) == \
            (before[0] + 1, before[1] + 1, before[2] + 32)


class TestUseWorkspace:
    def test_activates_and_restores(self):
        workspace = Workspace()
        assert WORKSPACE.active is None
        with use_workspace(workspace):
            assert WORKSPACE.active is workspace
        assert WORKSPACE.active is None

    def test_none_is_a_no_op(self):
        outer = Workspace()
        WORKSPACE.active = outer
        with use_workspace(None):
            assert WORKSPACE.active is outer
        assert WORKSPACE.active is outer

    def test_nesting_restores_the_outer_workspace(self):
        outer, inner = Workspace(), Workspace()
        with use_workspace(outer):
            with use_workspace(inner):
                assert WORKSPACE.active is inner
            assert WORKSPACE.active is outer
        assert WORKSPACE.active is None

    def test_restores_on_exception(self):
        workspace = Workspace()
        with pytest.raises(RuntimeError):
            with use_workspace(workspace):
                raise RuntimeError("boom")
        assert WORKSPACE.active is None

    def test_env_parsing(self):
        assert _env_enabled(None)  # default on
        assert _env_enabled("1")
        assert not _env_enabled("0")
        assert not _env_enabled("")
        assert not _env_enabled("false")

    def test_set_enabled_round_trip(self):
        assert arena_enabled()
        set_arena_enabled(False)
        assert not arena_enabled()
        set_arena_enabled(True)
        assert arena_enabled()


class TestFusedKernels:
    def test_linear_gradcheck(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert gradcheck(
            lambda a, w, b: (linear(a, w, b) ** 2).sum(),
            [x, weight, bias])

    def test_linear_matches_composed(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(6, 3)).astype(np.float32)
        w = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4,)).astype(np.float32)

        def run(fused):
            x = Tensor(data.copy(), requires_grad=True)
            weight = Tensor(w.copy(), requires_grad=True)
            bias = Tensor(b.copy(), requires_grad=True)
            if fused:
                out = linear(x, weight, bias)
            else:
                out = x @ weight + bias
            (out ** 2).sum().backward()
            return out.data, x.grad, weight.grad, bias.grad

        for fused_part, composed_part in zip(run(True), run(False)):
            assert np.array_equal(fused_part, composed_part)

    def test_layer_norm_gradcheck(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(6,)), requires_grad=True)
        beta = Tensor(rng.normal(size=(6,)), requires_grad=True)
        assert gradcheck(
            lambda a, g, b: (layer_norm(a, g, b) ** 2).sum(),
            [x, gamma, beta])

    def test_pooled_step_is_bit_identical(self):
        """One optimizer-style loop with and without a workspace must
        produce identical bits — the single-code-path contract."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=(8, 5)).astype(np.float32)
        w = rng.normal(size=(5, 4)).astype(np.float32)

        def run(workspace):
            x = Tensor(data.copy(), requires_grad=True)
            weight = Tensor(w.copy(), requires_grad=True)
            grads = []
            for _ in range(3):
                with use_workspace(workspace):
                    out = (x @ weight).relu()
                    loss = (out ** 2).sum()
                    loss.backward()
                    grads.append((x.grad.copy(), weight.grad.copy(),
                                  float(loss.data)))
                    x.zero_grad()
                    weight.zero_grad()
                if workspace is not None:
                    workspace.reset()
            return grads

        pooled = run(Workspace())
        fresh = run(None)
        for (gx_a, gw_a, loss_a), (gx_b, gw_b, loss_b) in zip(pooled,
                                                              fresh):
            assert np.array_equal(gx_a, gx_b)
            assert np.array_equal(gw_a, gw_b)
            assert loss_a == loss_b


class TestPlanCacheArenas:
    def _subgraphs(self):
        from scipy import sparse

        rng = np.random.default_rng(0)
        dense = (rng.random((12, 12)) < 0.3).astype(np.float32)
        np.fill_diagonal(dense, 1.0)
        dense /= dense.sum(axis=1, keepdims=True)
        frozen = FrozenGraph.freeze({"a": sparse.csr_matrix(dense)})
        sampler = NeighborSampler(frozen, fanout=0)
        return [sampler.sample(np.array([seed]), 1)
                for seed in (0, 1, 0)]

    def test_arena_attached_on_first_hit_not_on_compile(self):
        first, second, repeat = self._subgraphs()
        cache = SubgraphPlanCache(capacity=4)
        plan = cache.get(first)
        assert getattr(plan, "arena", None) is None  # compile-once
        cache.get(second)
        hit = cache.get(repeat)
        assert hit is plan
        assert isinstance(plan.arena, Workspace)

    def test_arenas_flag_disables_attachment(self):
        # The process-wide arena switch, read when the cache is built.
        first, _, repeat = self._subgraphs()
        set_arena_enabled(False)
        cache = SubgraphPlanCache(capacity=4)
        set_arena_enabled(True)
        cache.get(first)
        plan = cache.get(repeat)
        assert getattr(plan, "arena", None) is None

    def test_arena_stats_sums_cached_entries(self):
        first, second, repeat = self._subgraphs()
        cache = SubgraphPlanCache(capacity=4)
        cache.get(first)
        cache.get(second)
        plan = cache.get(repeat)
        plan.arena.rent((4,), np.dtype("float32"))
        plan.arena.reset()
        totals = cache.arena_stats()
        assert totals["pool_misses"] == 1
        assert totals["bytes_requested"] == 16


def structured_table(n_rows=48, seed=0):
    rng = np.random.default_rng(seed)
    cities = ["paris", "rome", "berlin"]
    country_of = {"paris": "france", "rome": "italy", "berlin": "germany"}
    population_of = {"paris": 2.1, "rome": 2.8, "berlin": 3.6}
    chosen = [cities[index] for index in rng.integers(0, 3, n_rows)]
    return Table({
        "city": chosen,
        "country": [country_of[city] for city in chosen],
        "population": [population_of[city] + rng.normal(0, 0.05)
                       for city in chosen],
    })


BASE = GrimpConfig(feature_dim=8, gnn_dim=12, merge_dim=12, epochs=4,
                   patience=4, lr=1e-2, seed=0)


def _fit(config):
    corruption = inject_mcar(structured_table(), 0.2,
                             np.random.default_rng(1))
    imputer = GrimpImputer(config)
    imputed = imputer.impute(corruption.dirty)
    history = [(entry["train_loss"], entry["validation_loss"])
               for entry in imputer.history_]
    cells = [imputed.get(row, column)
             for column in imputed.column_names
             for row in range(imputed.n_rows)]
    return history, cells, imputer


def _assert_on_off_identical(config):
    set_arena_enabled(True)
    history_on, cells_on, imputer = _fit(config)
    set_arena_enabled(False)
    history_off, cells_off, _ = _fit(config)
    set_arena_enabled(True)
    assert history_on == history_off
    assert cells_on == cells_off
    return imputer


class TestBitIdentityGoldens:
    """Arena-on and arena-off runs must match to the last bit on every
    training path — loss history and every imputed cell."""

    def test_serial_full_graph(self):
        imputer = _assert_on_off_identical(BASE)
        stats = imputer.timings_["meta"]["arena"]["fit"]
        assert stats["pool_hits"] > stats["pool_misses"]

    def test_minibatch(self):
        # batch_size without a fanout trains exactly as fanout=0.
        imputer = _assert_on_off_identical(
            dataclasses.replace(BASE, batch_size=16))
        totals = imputer.plan_cache_.arena_stats()
        assert totals["pool_hits"] > 0

    def test_sampled(self):
        # fanout=0 keeps whole neighborhoods: subgraph signatures
        # recur across epochs, so plan-cache arenas actually engage.
        imputer = _assert_on_off_identical(
            dataclasses.replace(BASE, batch_size=16, fanout=0))
        totals = imputer.plan_cache_.arena_stats()
        assert totals["pool_hits"] > 0

    def test_sampled_finite_fanout(self):
        _assert_on_off_identical(
            dataclasses.replace(BASE, batch_size=16, fanout=3))

    def test_dp_shards(self):
        _assert_on_off_identical(
            dataclasses.replace(BASE, epochs=2, batch_size=16, fanout=3,
                                dp_shards=2))


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.filterwarnings("ignore:invalid value")
class TestArenaAnomalyInteraction:
    def test_backward_inf_attributed_with_pooled_buffers(self):
        """First-bad-value attribution survives buffer reuse: the op
        named is still the producer, not a later pooled consumer."""
        workspace = Workspace()
        # Warm the pool so the failing step runs entirely on reuse.
        with use_workspace(workspace):
            x = Tensor(np.array([4.0]), requires_grad=True)
            x.sqrt().sum().backward()
        workspace.reset()
        with use_workspace(workspace):
            x = Tensor(np.array([0.0]), requires_grad=True)
            y = x.sqrt().sum()
            with detect_anomalies():
                with pytest.raises(AnomalyError) as excinfo:
                    y.backward()
        workspace.reset()
        assert excinfo.value.phase == "backward"
        assert excinfo.value.op == "pow"
        assert excinfo.value.kind == "inf"

    def test_stale_nan_in_pool_causes_no_spurious_error(self):
        """A NaN-poisoned step must not leak NaN into the next step
        through the pool: every kernel fully overwrites its buffer."""
        workspace = Workspace()
        with use_workspace(workspace):
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            (x * float("nan")).sum().backward()  # poison the buffers
        workspace.reset()
        with use_workspace(workspace):
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            with detect_anomalies():
                loss = (x * 3.0).sum()
                loss.backward()  # must reuse buffers and stay silent
        workspace.reset()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_forward_nan_attributed_under_workspace(self):
        with use_workspace(Workspace()):
            x = Tensor([1.0, 2.0], requires_grad=True)
            with detect_anomalies():
                with pytest.raises(AnomalyError) as excinfo:
                    x * float("nan")
        assert excinfo.value.op == "mul"
        assert excinfo.value.phase == "forward"

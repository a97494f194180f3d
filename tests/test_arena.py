"""Tests for the fused kernels and for freed buffers kept in the heap.

The first training step of a process calls
:func:`repro.core.step.keep_freed_pages`, so freed buffers stay
mapped in the heap and the next ``np.empty`` of a similar size hands
one back with whatever its last owner left in it.  Guarantees:

* the fused ``linear``/``layer_norm`` kernels pass gradcheck and match
  the composed ops bit for bit;
* bit identity — a training run on a heap full of freed NaN pages
  produces the *same bits* as a run before it, on every training path
  (full-graph, minibatch, sampled): no
  kernel reads a buffer before it writes it;
* the ``REPRO_ANOMALY`` sanitizer still names the op that produced the
  first bad value, and stale NaN left in freed memory never becomes a
  spurious finding.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import AnomalyError, detect_anomalies
from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.data import Table
from repro.core.step import keep_freed_pages
from repro.tensor import Tensor, gradcheck, layer_norm, linear


@pytest.fixture(autouse=True)
def freed_pages_kept():
    """Every test runs with freed pages kept, as training does."""
    keep_freed_pages()


def poison_heap(max_bytes=1 << 22):
    """Allocate NaN-filled buffers of many sizes, then free them all, so
    later allocations are likely to reuse NaN-filled memory."""
    buffers = []
    size = 8
    while size <= max_bytes:
        for _ in range(4):
            buffers.append(np.full(size // 8, np.nan))
        size *= 2
    del buffers


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
        """One optimizer-style loop on a poisoned heap must produce the
        same bits as the same loop on a fresh one."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=(8, 5)).astype(np.float32)
        w = rng.normal(size=(5, 4)).astype(np.float32)

        def run(poison):
            x = Tensor(data.copy(), requires_grad=True)
            weight = Tensor(w.copy(), requires_grad=True)
            grads = []
            for _ in range(3):
                if poison:
                    poison_heap()
                out = (x @ weight).relu()
                loss = (out ** 2).sum()
                loss.backward()
                grads.append((x.grad.copy(), weight.grad.copy(),
                              float(loss.data)))
                x.zero_grad()
                weight.zero_grad()
            return grads

        fresh = run(False)
        poisoned = run(True)
        for (gx_a, gw_a, loss_a), (gx_b, gw_b, loss_b) in zip(poisoned,
                                                              fresh):
            assert np.array_equal(gx_a, gx_b)
            assert np.array_equal(gw_a, gw_b)
            assert loss_a == loss_b


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
    return history, cells


def _assert_poisoned_heap_identical(config):
    history_a, cells_a = _fit(config)
    poison_heap()
    history_b, cells_b = _fit(config)
    assert history_a
    assert history_a == history_b
    assert cells_a == cells_b


class TestBitIdentityGoldens:
    """A fit on a heap of freed NaN pages must match the fit before it
    to the last bit on every training path — loss history and every
    imputed cell."""

    def test_serial_full_graph(self):
        _assert_poisoned_heap_identical(BASE)

    def test_minibatch(self):
        # batch_size without a fanout trains exactly as fanout=0.
        _assert_poisoned_heap_identical(
            dataclasses.replace(BASE, batch_size=16))

    def test_sampled(self):
        # fanout=0 spelled out: whole neighborhoods, no draws.
        _assert_poisoned_heap_identical(
            dataclasses.replace(BASE, batch_size=16, fanout=0))

    def test_sampled_finite_fanout(self):
        _assert_poisoned_heap_identical(
            dataclasses.replace(BASE, batch_size=16, fanout=3))


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.filterwarnings("ignore:invalid value")
class TestArenaAnomalyInteraction:
    def test_backward_inf_attributed_with_pooled_buffers(self):
        """First-bad-value attribution survives buffer reuse: the op
        named is still the producer, not a later consumer that got a
        recycled buffer."""
        # Warm the heap so the failing step runs on recycled memory.
        x = Tensor(np.array([4.0]), requires_grad=True)
        x.sqrt().sum().backward()
        del x
        x = Tensor(np.array([0.0]), requires_grad=True)
        y = x.sqrt().sum()
        with detect_anomalies():
            with pytest.raises(AnomalyError) as excinfo:
                y.backward()
        assert excinfo.value.phase == "backward"
        assert excinfo.value.op == "pow"
        assert excinfo.value.kind == "inf"

    def test_stale_nan_in_pool_causes_no_spurious_error(self):
        """A NaN-poisoned step must not leak NaN into the next step
        through freed memory: every kernel fully overwrites its
        buffer."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * float("nan")).sum().backward()  # poison the buffers
        del x
        poison_heap()
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with detect_anomalies():
            loss = (x * 3.0).sum()
            loss.backward()  # runs on recycled memory and stays silent
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_forward_nan_attributed_under_workspace(self):
        poison_heap()
        x = Tensor([1.0, 2.0], requires_grad=True)
        with detect_anomalies():
            with pytest.raises(AnomalyError) as excinfo:
                x * float("nan")
        assert excinfo.value.op == "mul"
        assert excinfo.value.phase == "forward"

"""Embedding pre-compute benchmark: CSR walk kernel + vectorized SGNS.

Times the EmbDI pre-compute (random walks + skip-gram training) three
ways on the same corrupted dataset:

* ``seed``       — the historical serial path: one Python loop step per
  walk hop (``WalkGraph.sample_neighbor``), triple-loop pair
  extraction, ``rng.choice(p=noise)`` negative sampling, full
  ``(vocab, dim)`` ``np.add.at`` scatters, and hard-coded float64
  (reproduced inline below);
* ``vec64``      — the batched CSR kernel + alias/bincount SGNS under
  float64 (pure vectorization, same precision);
* ``vec32``      — the same at the engine's training default dtype,
  float32 (what production fits actually run; the seed path ignored
  the configured dtype, which is what the RPR001 scope widening
  fixed) — this is the gated headline speedup.

A fourth measurement reruns the ``vectorized`` fit against a warm
content-hash cache, which must skip the pre-compute entirely.

Embedding *quality* is scored by nearest-neighbour imputation: each
injected-missing categorical cell is filled with the domain value whose
vector is most cosine-similar to its tuple's vector, and the report
carries accuracy per variant (the kernels reorder RNG consumption, so
vectors differ draw-for-draw while accuracy must not regress).

Emits ``BENCH_embed.json`` plus a schema-versioned
``BENCH_embed_manifest.json`` whose flat metrics feed the CI gate
(``scripts/check_bench_regression.py`` against
``benchmarks/baselines/embed.json``).

Usage::

    PYTHONPATH=src python benchmarks/bench_embed.py            # full
    PYTHONPATH=src python benchmarks/bench_embed.py --smoke    # <30 s
    PYTHONPATH=src python benchmarks/bench_embed.py --out path.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.corruption import inject_mcar
from repro.data import MISSING
from repro.datasets import load
from repro.embeddings import EmbdiEmbedder, SkipGram, build_walk_graph
from repro.graph import build_table_graph
from repro.telemetry import build_manifest, get_registry, write_manifest
from repro.tensor import default_dtype

PROFILES = {
    "full": {"dataset": "flare", "n_rows": 200, "error_rate": 0.2,
             "dim": 32, "walks_per_node": 5, "walk_length": 12,
             "window": 3, "epochs": 2},
    "smoke": {"dataset": "flare", "n_rows": 80, "error_rate": 0.2,
              "dim": 16, "walks_per_node": 2, "walk_length": 8,
              "window": 3, "epochs": 1},
}


# ---------------------------------------------------------------------------
# The historical serial pre-compute, reproduced verbatim so the speedup
# is measured against real seed behaviour, not a strawman.
# ---------------------------------------------------------------------------

def seed_generate_walks(walk_graph, walks_per_node, walk_length, rng):
    starts = list(range(walk_graph.n_nodes))
    walks = []
    for _ in range(walks_per_node):
        for start in starts:
            walk = [start]
            current = start
            for _ in range(walk_length - 1):
                nxt = walk_graph.sample_neighbor(current, rng)
                if nxt is None:
                    break
                walk.append(nxt)
                current = nxt
            walks.append(walk)
    return walks


def seed_pairs_from_walks(walks, window=3):
    pairs = []
    for walk in walks:
        for position, center in enumerate(walk):
            start = max(0, position - window)
            stop = min(len(walk), position + window + 1)
            for other in range(start, stop):
                if other != position:
                    pairs.append((center, walk[other]))
    return np.array(pairs, dtype=np.int64) if pairs \
        else np.empty((0, 2), dtype=np.int64)


class SeedSkipGram(SkipGram):
    """The pre-kernel trainer: choice(p=...) negatives, add.at scatter."""

    def train(self, pairs, epochs=3, lr=0.05, batch_size=512, **_ignored):
        if pairs.size == 0:
            return self
        counts = np.bincount(pairs[:, 1], minlength=self.vocab_size)
        noise = self._noise_distribution(counts)
        n_pairs = pairs.shape[0]
        total_steps = max(
            1, epochs * ((n_pairs + batch_size - 1) // batch_size))
        step = 0
        for _ in range(epochs):
            order = self._rng.permutation(n_pairs)
            for start in range(0, n_pairs, batch_size):
                batch = pairs[order[start:start + batch_size]]
                rate = lr * max(0.1, 1.0 - step / total_steps)
                self._seed_update_batch(batch, noise, rate)
                step += 1
        return self

    def _seed_update_batch(self, batch, noise, lr):
        centers, contexts = batch[:, 0], batch[:, 1]
        b = centers.shape[0]
        negatives = self._rng.choice(self.vocab_size,
                                     size=(b, self.negatives), p=noise)
        v = self.in_vectors[centers]
        u_pos = self.out_vectors[contexts]
        u_neg = self.out_vectors[negatives]
        score_pos = 1.0 / (1.0 + np.exp(-np.clip(
            np.einsum("bd,bd->b", v, u_pos), -30.0, 30.0)))
        score_neg = 1.0 / (1.0 + np.exp(-np.clip(
            np.einsum("bd,bkd->bk", v, u_neg), -30.0, 30.0)))
        grad_pos = (score_pos - 1.0)[:, None]
        grad_neg = score_neg[:, :, None]
        grad_v = grad_pos * u_pos + (grad_neg * u_neg).sum(axis=1)
        grad_u_pos = grad_pos * v
        grad_u_neg = grad_neg * v[:, None, :]
        self._seed_apply(self.in_vectors, centers, grad_v, lr)
        self._seed_apply(self.out_vectors, contexts, grad_u_pos, lr)
        self._seed_apply(self.out_vectors, negatives.reshape(-1),
                         grad_u_neg.reshape(-1, self.dim), lr)

    @staticmethod
    def _seed_apply(matrix, rows, grads, lr):
        accumulated = np.zeros_like(matrix)
        np.add.at(accumulated, rows, grads)
        counts = np.bincount(rows, minlength=matrix.shape[0]).astype(float)
        counts[counts == 0] = 1.0
        matrix -= (lr * accumulated / counts[:, None]).astype(
            matrix.dtype, copy=False)


# ---------------------------------------------------------------------------
# Variant runners and scoring
# ---------------------------------------------------------------------------

def nn_impute_accuracy(embedder: EmbdiEmbedder, corruption) -> float:
    """Nearest-neighbour categorical imputation accuracy.

    Each injected-missing categorical cell is imputed with the domain
    value whose embedding maximizes cosine similarity to the tuple's
    embedding; the score is exact-match accuracy on those cells.
    """
    clean, dirty = corruption.clean, corruption.dirty
    correct = total = 0
    for row, column in corruption.injected:
        if dirty.kinds[column] != "categorical":
            continue
        truth = clean.get(row, column)
        if truth is MISSING:
            continue
        domain = [value for value in set(clean.column(column))
                  if value is not MISSING]
        if not domain:
            continue
        tuple_vec = embedder.tuple_vector(row)
        norm = np.linalg.norm(tuple_vec)
        if norm == 0:
            continue
        best_value, best_score = None, -np.inf
        for value in domain:
            vec = embedder.value_vector(column, value)
            denom = np.linalg.norm(vec) * norm
            score = float(vec @ tuple_vec / denom) if denom else -np.inf
            if score > best_score:
                best_value, best_score = value, score
        total += 1
        correct += int(best_value == truth)
    return correct / total if total else float("nan")


def run_seed(profile: dict, corruption, seed: int) -> tuple[dict, float]:
    """Time the historical path; returns (timings, accuracy)."""
    dirty = corruption.dirty
    table_graph = build_table_graph(dirty)
    walk_graph = build_walk_graph(table_graph, dirty)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    walks = seed_generate_walks(walk_graph, profile["walks_per_node"],
                                profile["walk_length"], rng)
    t1 = time.perf_counter()
    pairs = seed_pairs_from_walks(walks, window=profile["window"])
    model = SeedSkipGram(table_graph.graph.n_nodes, dim=profile["dim"],
                         seed=seed)
    model.train(pairs, epochs=profile["epochs"])
    t2 = time.perf_counter()
    embedder = EmbdiEmbedder(dim=profile["dim"])
    embedder._table_graph = table_graph
    embedder._vectors = model.vectors()
    timings = {"walks_seconds": t1 - t0, "sgns_seconds": t2 - t1,
               "total_seconds": t2 - t0, "n_pairs": int(pairs.shape[0])}
    return timings, nn_impute_accuracy(embedder, corruption)


def run_kernel(profile: dict, corruption, seed: int,
               dtype: str = "float32",
               cache_dir: str | None = None) -> tuple[dict, float]:
    """Time the kernel path at an engine dtype."""
    dirty = corruption.dirty
    embedder = EmbdiEmbedder(
        dim=profile["dim"], walks_per_node=profile["walks_per_node"],
        walk_length=profile["walk_length"], window=profile["window"],
        epochs=profile["epochs"], seed=seed, cache_dir=cache_dir)
    with default_dtype(dtype):
        t0 = time.perf_counter()
        embedder.fit(dirty)
        t1 = time.perf_counter()
    timings = {"total_seconds": t1 - t0, "dtype": dtype}
    return timings, nn_impute_accuracy(embedder, corruption)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config that finishes in well under 30 s")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default: BENCH_embed.json "
                             "in the repository root)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    profile_name = "smoke" if args.smoke else "full"
    profile = PROFILES[profile_name]
    out_path = args.out if args.out is not None else \
        Path(__file__).resolve().parent.parent / "BENCH_embed.json"

    clean = load(profile["dataset"], n_rows=profile["n_rows"],
                 seed=args.seed)
    corruption = inject_mcar(clean, profile["error_rate"],
                             np.random.default_rng(args.seed + 1))

    seed_timings, seed_accuracy = run_seed(profile, corruption, args.seed)
    print(f"seed      total={seed_timings['total_seconds'] * 1e3:8.1f} ms"
          f"  acc={seed_accuracy:.3f}")

    vec64_timings, vec64_accuracy = run_kernel(
        profile, corruption, args.seed, dtype="float64")
    print(f"vec64     total={vec64_timings['total_seconds'] * 1e3:8.1f} ms"
          f"  acc={vec64_accuracy:.3f}")

    vec_timings, vec_accuracy = run_kernel(profile, corruption, args.seed)
    print(f"vec32     total={vec_timings['total_seconds'] * 1e3:8.1f} ms"
          f"  acc={vec_accuracy:.3f}")

    with tempfile.TemporaryDirectory() as cache_dir:
        cold_timings, _ = run_kernel(profile, corruption, args.seed,
                                     cache_dir=cache_dir)
        warm_timings, warm_accuracy = run_kernel(
            profile, corruption, args.seed, cache_dir=cache_dir)
    cache_hits = get_registry().counter("embed.cache.hits").value
    cache_speedup = cold_timings["total_seconds"] / \
        max(warm_timings["total_seconds"], 1e-9)
    print(f"cache       cold={cold_timings['total_seconds'] * 1e3:8.1f} ms"
          f"  warm={warm_timings['total_seconds'] * 1e3:8.1f} ms"
          f"  ({cache_speedup:.1f}x, hits={cache_hits})")

    report = {
        "benchmark": "embed",
        "profile": profile_name,
        "seed": args.seed,
        "python": platform.python_version(),
        "runs": {
            "seed": {**seed_timings, "accuracy": seed_accuracy},
            "vec64": {**vec64_timings, "accuracy": vec64_accuracy},
            "vec32": {**vec_timings, "accuracy": vec_accuracy},
            "cache_cold": cold_timings,
            "cache_warm": {**warm_timings, "accuracy": warm_accuracy},
        },
        "speedup": {
            "vec64": seed_timings["total_seconds"]
            / max(vec64_timings["total_seconds"], 1e-9),
            "vec32": seed_timings["total_seconds"]
            / max(vec_timings["total_seconds"], 1e-9),
            "cache": cache_speedup,
        },
        "accuracy_delta_vs_seed": {
            "vec64": vec64_accuracy - seed_accuracy,
            "vec32": vec_accuracy - seed_accuracy,
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    # Ratios and accuracy are machine-portable and gated; absolute wall
    # times stay informational.
    metrics = {
        "speedup.vec64": report["speedup"]["vec64"],
        "speedup.vec32": report["speedup"]["vec32"],
        "speedup.cache": cache_speedup,
        "cache.hits": float(cache_hits),
        "accuracy.seed": seed_accuracy,
        "accuracy.vec64": vec64_accuracy,
        "accuracy.vec32": vec_accuracy,
        "total_ms.seed": seed_timings["total_seconds"] * 1e3,
        "total_ms.vec64": vec64_timings["total_seconds"] * 1e3,
        "total_ms.vec32": vec_timings["total_seconds"] * 1e3,
        "total_ms.cache_warm": warm_timings["total_seconds"] * 1e3,
    }
    manifest_path = out_path.with_name(out_path.stem + "_manifest.json")
    write_manifest(build_manifest(
        {"kind": "bench", "benchmark": "embed",
         "profile": profile_name, "seed": args.seed},
        metrics=metrics), manifest_path)

    print(f"\nspeedup   vec64={report['speedup']['vec64']:.2f}x"
          f"  vec32={report['speedup']['vec32']:.2f}x"
          f"  cache={cache_speedup:.1f}x")
    print(f"wrote {out_path}")
    print(f"wrote {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

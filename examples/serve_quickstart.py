"""Serving quickstart: train once, checkpoint, impute over HTTP.

1. Train GRIMP on a small dirty table (self-supervised, as in
   ``quickstart.py``).
2. Save the fitted model as a versioned checkpoint directory.
3. Restore it into an :class:`~repro.serve.InferenceEngine` — exactly
   what ``repro serve model.ckpt`` does — and start the threaded HTTP
   server on a free port.
4. Impute new rows through ``POST /impute`` from several concurrent
   clients; rows that queue while a batch computes are coalesced into
   the next one.  Then read the live ``GET /metrics`` counters.

Run:  python examples/serve_quickstart.py
"""

import json
import tempfile
import threading  # repro: noqa[RPR004] -- walkthrough runs the demo server on a background thread
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import GrimpConfig, GrimpImputer
from repro.corruption import inject_mcar
from repro.datasets import load
from repro.serve import ImputationServer, InferenceEngine


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    # --- 1. train ----------------------------------------------------
    clean = load("adult", n_rows=120, seed=0)
    corruption = inject_mcar(clean, 0.2, np.random.default_rng(1))
    config = GrimpConfig(feature_dim=12, gnn_dim=16, merge_dim=24,
                         epochs=15, patience=15, seed=0)
    imputer = GrimpImputer(config)
    imputer.impute(corruption.dirty)
    print(f"trained on {corruption.dirty.n_rows} dirty rows")

    # --- 2. checkpoint -----------------------------------------------
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    ckpt = workdir / "model.ckpt"
    imputer.save_checkpoint(ckpt)
    n_bytes = sum(file.stat().st_size for file in ckpt.iterdir())
    print(f"saved checkpoint to {ckpt} ({n_bytes / 1024:.0f} KiB)")

    # --- 3. restore + serve ------------------------------------------
    engine = InferenceEngine.from_checkpoint(ckpt)
    server = ImputationServer(engine, port=0, max_batch_size=16).start()
    print(f"serving at {server.url} (micro-batch <=16 rows, flushed "
          f"when idle)")

    # --- 4. impute over HTTP -----------------------------------------
    single = post(server.url + "/impute", {
        "row": {"workclass": "private", "education": None,
                "hours_per_week": 40}})
    print(f"single row -> education={single['row']['education']!r} "
          f"({single['latency_ms']:.1f} ms)")

    incoming = load("adult", n_rows=160, seed=3).select_rows(range(120, 160))
    dirty_batch = inject_mcar(incoming, 0.25,
                              np.random.default_rng(2)).dirty
    rows = [{column: (None if dirty_batch.is_missing(row, column)
                      else dirty_batch.get(row, column))
             for column in dirty_batch.column_names}
            for row in range(dirty_batch.n_rows)]

    answers = [None] * 4
    shares = [rows[index::4] for index in range(4)]

    def client(index):
        answers[index] = post(server.url + "/impute",
                              {"rows": shares[index]})

    clients = [threading.Thread(target=client, args=(index,))
               for index in range(4)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    imputed = sum(len(answer["rows"]) for answer in answers)
    print(f"imputed {imputed} rows from 4 concurrent clients")

    metrics = json.loads(urllib.request.urlopen(
        server.url + "/metrics", timeout=10).read())
    print(f"metrics: {metrics['requests']} requests, "
          f"{metrics['rows_imputed']} rows, "
          f"p50 {metrics['latency_ms']['p50']:.1f} ms, "
          f"mean batch {metrics['mean_batch_size']:.1f} "
          f"(histogram {metrics['batch_size_histogram']})")

    server.stop()
    print("server stopped")


if __name__ == "__main__":
    main()

"""GRIMP benchmark: one command, three workloads, named metrics.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload fit_full --seed 1 --seconds 20 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``fit_full``
    CSV -> filled CSV with ``grimp-ft`` and full-graph training.
``fit_sampled``
    CSV -> filled CSV with ``grimp-e`` (EmbDI walks + SGNS features)
    and neighbor-sampled minibatch training.
``serve_mixed``
    ``repro serve`` in a child process under an open-loop mix of
    single-row and 32-row ``POST /impute`` requests at three rates.

The seed makes the inputs (synthetic ``adult`` rows, MCAR corruption,
request schedule); the program only ever sees the CSV or JSON.  Every
fit runs in a fresh interpreter (``perfbench/fit_child.py``) and the
server is a child process, so memory is read from ``os.wait4``.  With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; ``--trace 1`` switches ``REPRO_TELEMETRY=1`` on in
the children and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Every child and the server must be done by then (seconds after start).
RUN_BUDGET_S = 165.0
#: Single-row latency limit (ms) for a rate to count as sustained.
LATENCY_LIMIT_MS = 100.0
#: A rate's numbers are invalid when the generator's own p99 wake-up lag
#: exceeds this (ms), or it used more than this share of a core: then the
#: generator, not the server, fell behind.
GENERATOR_LAG_LIMIT_MS = 10.0
GENERATOR_CPU_LIMIT = 0.5
#: The model's own seed (``repro impute --seed``), the same in every
#: run: the workload seed varies the data, not the training recipe.
TRAIN_SEED = 0
#: Share of each open-loop window's time given to the low/mid/high rate.
WINDOW_SHARES = (0.6, 0.2, 0.2)
# ``fit_s`` is the fastest fit of a run.  The fits are single-threaded
# and deterministic, and other tenants of a shared host only ever add
# time to them, so the fastest one varies least between runs (the
# ``timeit`` convention); the median and the slowest fit are reported
# too, as ``impute_p50_ms`` and ``impute_tail_ms`` on the fit workloads.

#: Workload settings at the measured size and at the smoke-test size.
SIZES = {
    "full": {
        "fit_full": {"rows": 1000, "epochs": 30, "algorithm": "grimp-ft",
                     "batch_size": None, "fanout": None, "min_fits": 3,
                     "min_accuracy": 0.45, "max_nrmse": 1.5,
                     "min_coverage": 0.95},
        "fit_sampled": {"rows": 2000, "epochs": 2, "algorithm": "grimp-e",
                        "batch_size": 256, "fanout": 2, "min_fits": 3,
                        "min_accuracy": 0.35, "max_nrmse": 1.5,
                        "min_coverage": 0.95},
        "serve_mixed": {"rows": 500, "epochs": 20, "algorithm": "grimp-ft",
                        "batch_size": None, "fanout": None, "setups": 5,
                        "pool": 600, "bulk_rows": 32, "bulk_every": 10,
                        "rates": (16.0, 36.0, 64.0), "verify": 24,
                        "min_accuracy": 0.35, "max_nrmse": 1.5},
    },
    "tiny": {
        "fit_full": {"rows": 80, "epochs": 2, "algorithm": "grimp-ft",
                     "batch_size": None, "fanout": None, "min_fits": 1,
                     "min_accuracy": 0.0, "max_nrmse": 100.0,
                     "min_coverage": 0.5},
        "fit_sampled": {"rows": 120, "epochs": 1, "algorithm": "grimp-e",
                        "batch_size": 64, "fanout": 2, "min_fits": 1,
                        "min_accuracy": 0.0, "max_nrmse": 100.0,
                        "min_coverage": 0.5},
        "serve_mixed": {"rows": 80, "epochs": 2, "algorithm": "grimp-ft",
                        "batch_size": None, "fanout": None, "setups": 1,
                        "pool": 48, "bulk_rows": 8, "bulk_every": 10,
                        "rates": (10.0, 20.0, 40.0), "verify": 3,
                        "min_accuracy": 0.0, "max_nrmse": 100.0},
    },
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With ten samples or fewer no
    such percentile exists and the slowest sample stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env(trace: bool) -> dict[str, str]:
    """The environment every child runs with.

    ``REPRO_*`` settings of the caller are dropped so only the flags
    chosen here apply, and BLAS is held to one thread so that two
    processes sharing two cores do not oversubscribe them.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONUNBUFFERED="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if trace:
        env["REPRO_TELEMETRY"] = "1"
    return env


def reap(proc: subprocess.Popen, deadline: float) -> tuple[int | None, float]:
    """Wait for ``proc`` until ``deadline``; return (exit code, peak MB).

    A child still running at the deadline is killed and reported with
    exit code ``None``.
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage.ru_maxrss / 1024.0
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_fit(ctx: dict, csv_in: Path, tag: str, trace: bool,
            checkpoint: Path | None = None) -> dict | None:
    """Fit once in a fresh interpreter; ``None`` when the child failed."""
    cfg, work = ctx["cfg"], ctx["work"]
    spec_path, result_path = work / f"{tag}.spec.json", \
        work / f"{tag}.result.json"
    output = work / f"{tag}.out.csv"
    spawned_at = time.monotonic()
    spec_path.write_text(json.dumps({
        "input": str(csv_in), "output": str(output),
        "algorithm": cfg["algorithm"], "seed": TRAIN_SEED,
        "epochs": cfg["epochs"], "batch_size": cfg["batch_size"],
        "fanout": cfg["fanout"],
        "checkpoint": str(checkpoint) if checkpoint else None,
        "spawned_at": spawned_at}))
    with open(work / f"{tag}.stderr", "w") as errors:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "fit_child.py"), str(spec_path),
             str(result_path)],
            env=child_env(trace), stdout=subprocess.DEVNULL, stderr=errors)
        ctx["children"].append(proc)
        code, peak_mb = reap(proc, ctx["deadline"])
        ctx["children"].remove(proc)
    if code != 0 or not result_path.is_file():
        log(f"fit {tag} failed (exit {code}): "
            f"{(work / f'{tag}.stderr').read_text()[-2000:]}")
        return None
    result = json.loads(result_path.read_text())
    result["peak_rss_mb"] = peak_mb
    result["output"] = output
    return result


def score_table(corruption, imputed) -> dict:
    """``evaluate_imputation`` plus a scale-free numerical error.

    ``nrmse`` is the mean over numerical columns of the column's RMSE
    divided by the column's standard deviation in the clean table, so
    one heavy-tailed column (``capital_gain``) cannot swamp it.
    """
    import numpy as np

    from repro.metrics import evaluate_imputation

    score = evaluate_imputation(corruption, imputed)
    ratios = []
    for column, rmse in score.per_column_rmse.items():
        spread = float(np.nanstd(corruption.clean.numeric_matrix([column])))
        if spread > 0:
            ratios.append(rmse / spread)
    return {"accuracy": score.accuracy, "fill_rate": score.fill_rate,
            "nrmse": float(np.mean(ratios)) if ratios else 0.0}


def quality_ok(cfg: dict, quality: dict) -> bool:
    return (quality["fill_rate"] == 1.0
            and quality["accuracy"] >= cfg["min_accuracy"]
            and quality["nrmse"] <= cfg["max_nrmse"])


# ----------------------------------------------------------------------
# Per-layer metrics of one traced fit
# ----------------------------------------------------------------------
FIT_PHASES = ("normalize", "corpus", "graph", "features", "plan", "freeze",
              "dp_setup", "index", "train", "fill")


def _span_sum(spans: dict, last: str, under: str = "fit/") -> float:
    """Seconds of every span path under ``under`` ending in ``last``."""
    return sum(entry["seconds"] for path, entry in spans.items()
               if path.startswith(under)
               and path.rsplit("/", 1)[-1] == last)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def fit_layers(result: dict) -> dict[str, float]:
    spans, counters = result["spans"], result["counters"]
    fit_seconds = spans["fit"]["seconds"]
    covered = sum(spans.get(f"fit/{phase}", {"seconds": 0.0})["seconds"]
                  for phase in FIT_PHASES)
    hits = counters.get("arena.pool_hits", 0)
    misses = counters.get("arena.pool_misses", 0)
    plan_hits = counters.get("sampling.plan.hits", 0)
    plan_misses = counters.get("sampling.plan.misses", 0)
    return {
        "data.read_csv_s": result["read_csv_s"],
        "data.write_csv_s": result["write_csv_s"],
        "data.normalize_s": spans["fit/normalize"]["seconds"],
        "corpus.build_s": spans["fit/corpus"]["seconds"],
        "graph.build_s": spans["fit/graph"]["seconds"],
        "gnn.plan_s": spans["fit/plan"]["seconds"],
        "index_s": spans["fit/index"]["seconds"],
        "embeddings.features_s": spans["fit/features"]["seconds"],
        "embeddings.walks_s": _span_sum(spans, "walks"),
        "embeddings.sgns_s": _span_sum(spans, "sgns"),
        "train.forward_s": _span_sum(spans, "forward", "fit/train/"),
        "train.backward_s": _span_sum(spans, "backward", "fit/train/"),
        "train.step_s": _span_sum(spans, "step", "fit/train/"),
        "train.validate_s": spans["fit/train/epoch/validate"]["seconds"],
        "train.epochs": spans["fit/train/epoch"]["count"],
        "gnn.layer0_s": _span_sum(spans, "layer[0]"),
        "gnn.layer1_s": _span_sum(spans, "layer[1]"),
        "gnn.dispatch.planned": counters.get("plan.dispatch.planned", 0),
        "gnn.plan.compiles": counters.get("plan.compile", 0),
        "gnn.conversions": counters.get("plan.conversions.tocsr", 0)
        + counters.get("plan.conversions.transpose", 0),
        "tensor.ops": result["tensor_ops"]["ops"],
        "tensor.bytes": result["tensor_ops"]["bytes"],
        "arena.pool_hits": hits,
        "arena.pool_misses": misses,
        "arena.hit_rate": _ratio(hits, misses),
        "arena.peak_bytes": counters.get("arena.peak_bytes", 0),
        "sampling.sample_s": _span_sum(spans, "sample", "fit/train/"),
        "sampling.compile_s": _span_sum(spans, "compile", "fit/train/"),
        "sampling.plan.hits": plan_hits,
        "sampling.plan.misses": plan_misses,
        "sampling.plan.hit_rate": _ratio(plan_hits, plan_misses),
        "trace.span_coverage": covered / fit_seconds,
    }


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------
def fit_workload(ctx: dict) -> tuple[bool, int, int, dict]:
    import numpy as np

    from repro.corruption import inject_mcar
    from repro.data import read_csv, write_csv
    from repro.datasets import load

    cfg, trace = ctx["cfg"], ctx["trace"]
    clean = load("adult", n_rows=cfg["rows"], seed=ctx["seed"])
    corruption = inject_mcar(clean, 0.2,
                             np.random.default_rng([ctx["seed"], 1]))
    csv_in = ctx["work"] / "dirty.csv"
    write_csv(corruption.dirty, csv_in)

    plain, traced, failed, attempted = [], [], 0, 0
    measured = 0.0
    # Fit until --seconds of fitting are measured.  A traced run
    # alternates untraced and traced fits, so the trace overhead compares
    # fits made under the same conditions.
    while time.monotonic() < ctx["deadline"] - 30:
        if measured >= ctx["seconds"] and len(plain) >= cfg["min_fits"] \
                and (not trace or len(traced) >= cfg["min_fits"]):
            break
        with_trace = trace and attempted % 2 == 1
        result = run_fit(ctx, csv_in, f"fit{attempted}", with_trace)
        attempted += 1
        if result is None:
            failed += 1
            continue
        imputed = read_csv(result["output"], kinds=dict(clean.kinds))
        quality = score_table(corruption, imputed)
        if not quality_ok(ctx["cfg"], quality):
            log(f"fit quality out of bounds: {quality}")
            failed += 1
            continue
        result["quality"] = quality
        measured += result["fit_s"]
        (traced if with_trace else plain).append(result)
    if not plain or (trace and not traced):
        raise RuntimeError("no fit succeeded")

    if trace:
        layers = [fit_layers(result) for result in traced]
        metrics = {name: median([layer[name] for layer in layers])
                   for name in layers[0]}
        metrics["trace.overhead"] = \
            median([r["fit_s"] for r in traced]) / \
            median([r["fit_s"] for r in plain])
        # The phase spans must account for the fit, or a layer is
        # missing from the breakdown.
        covered = metrics["trace.span_coverage"] >= cfg["min_coverage"]
        if not covered:
            log(f"fit spans cover only {metrics['trace.span_coverage']:.3f}"
                f" of the fit")
        return failed == 0 and covered, attempted, failed, metrics

    fit_s = [r["fit_s"] for r in plain]
    quality = plain[0]["quality"]
    log(f"fit_s {[round(s, 3) for s in fit_s]} quality {quality}")
    return failed == 0, attempted, failed, {
        "setup_s": median([r["setup_s"] for r in plain]),
        "fit_s": min(fit_s),
        "impute_p50_ms": median(fit_s) * 1e3,
        "impute_tail_ms": tail([s * 1e3 for s in fit_s])[0],
        "rows_per_s": cfg["rows"] / min(fit_s),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "accuracy": quality["accuracy"],
        "nrmse": quality["nrmse"],
        "fill_rate": quality["fill_rate"],
        "ok_share": (attempted - failed) / attempted,
    }


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def http_json(url: str, timeout: float = 5.0) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, {}


def start_server(ctx: dict, checkpoint: Path, tag: str
                 ) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` on a free port; return it once it is ready."""
    log_path = ctx["work"] / f"{tag}.log"
    with open(log_path, "w") as output:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(checkpoint),
             "--port", "0"],
            env=child_env(ctx["trace"]), stdout=output,
            stderr=subprocess.STDOUT)
    ctx["children"].append(proc)
    url = None
    while time.monotonic() < ctx["deadline"]:
        if url is None:
            found = re.search(r"at (http://[\d.]+:\d+)", log_path.read_text())
            url = found.group(1) if found else None
        if url is not None:
            try:
                if http_json(f"{url}/healthz")[0] == 200:
                    return proc, url
            except OSError:
                pass
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    raise RuntimeError(f"server did not become ready: "
                       f"{log_path.read_text()[-2000:]}")


def stop_server(ctx: dict, proc: subprocess.Popen) -> float:
    """SIGTERM (graceful drain), wait, and return the peak RSS in MB."""
    proc.terminate()
    code, peak_mb = reap(proc, time.monotonic() + 15)
    ctx["children"].remove(proc)
    if code is None:
        log("server ignored SIGTERM and was killed")
    return peak_mb


def check_response(outcome, rows: list[dict]) -> list[dict] | None:
    """The imputed rows of a good reply to ``rows``, else ``None``.

    A good reply is a 200 with one row per requested row, no cell left
    missing, and every observed cell returned unchanged.
    """
    if outcome.status != 200 or outcome.payload is None:
        return None
    body = json.loads(outcome.payload)
    served = [body["row"]] if "row" in body else body.get("rows", [])
    if len(served) != len(rows):
        return None
    for asked, answered in zip(rows, served):
        if any(value is None for value in answered.values()) or any(
                value is not None and answered.get(column) != value
                for column, value in asked.items()):
            return None
    return served


def make_schedule(ctx: dict, rate: float, duration: float, salt: int,
                  records: list[dict]) -> tuple[list, list, list]:
    """Arrival offsets, request bodies and the pool rows of each body.

    The request count is fixed by rate and duration, and every
    ``bulk_every``-th request is a bulk one, so a window's work is the
    same for every seed; the seed draws arrival gaps and rows.
    """
    import numpy as np

    from loadgen import poisson_offsets

    cfg = ctx["cfg"]
    rng = np.random.default_rng([ctx["seed"], salt])
    offsets = poisson_offsets(rng, rate, max(1, round(rate * duration)))
    # Single rows walk a shuffled pool, so the scored rows spread over
    # all of it rather than repeating a few.
    order = [int(row) for row in rng.permutation(len(records))]
    bodies, picks = [], []
    for index in range(len(offsets)):
        if index % cfg["bulk_every"] == cfg["bulk_every"] - 1:
            start = int(rng.integers(0, len(records) - cfg["bulk_rows"]))
            rows = list(range(start, start + cfg["bulk_rows"]))
            bodies.append(json.dumps(
                {"rows": [records[row] for row in rows]}).encode())
        else:
            rows = [order[index % len(order)]]
            bodies.append(json.dumps({"row": records[rows[0]]}).encode())
        picks.append(rows)
    return offsets, bodies, picks


def serve_workload(ctx: dict) -> tuple[bool, int, int, dict]:
    import numpy as np

    from loadgen import run_open_loop
    from repro.corruption import Corruption, inject_mcar
    from repro.data import write_csv
    from repro.datasets import load
    from repro.serve import InferenceEngine, load_imputer
    from repro.serve.engine import table_to_records

    cfg, work, seed = ctx["cfg"], ctx["work"], ctx["seed"]
    table = load("adult", n_rows=cfg["rows"] + cfg["pool"], seed=seed)
    train = table.select_rows(range(cfg["rows"]))
    pool = inject_mcar(table.select_rows(range(cfg["rows"], table.n_rows)),
                       0.2, np.random.default_rng([seed, 2]))
    csv_in = work / "dirty.csv"
    write_csv(inject_mcar(train, 0.2,
                          np.random.default_rng([seed, 1])).dirty, csv_in)
    records = table_to_records(pool.dirty)
    checkpoint = work / "model.ckpt"

    # Set-up, several times: fit + checkpoint in a fresh interpreter,
    # then start the server and wait until /healthz says ready.  The
    # last server stays up for the measurement.
    setups, proc, url = [], None, None
    for attempt in range(cfg["setups"]):
        if proc is not None:
            stop_server(ctx, proc)
        began = time.monotonic()
        fit = run_fit(ctx, csv_in, f"setup{attempt}", False, checkpoint)
        if fit is None:
            raise RuntimeError("the set-up fit failed")
        proc, url = start_server(ctx, checkpoint, f"server{attempt}")
        setups.append({"setup_s": time.monotonic() - began,
                       "fit_s": fit["fit_s"],
                       "save_s": fit["checkpoint_save_s"]})
    host, port = url[len("http://"):].rsplit(":", 1)

    loading = time.perf_counter()
    engine = InferenceEngine(load_imputer(checkpoint))
    load_s = time.perf_counter() - loading

    # Warm-up, not measured: one bulk and a few single rows.
    run_open_loop(host, int(port), [0.0, 0.01, 0.02, 0.03],
                  [json.dumps({"rows": records[:cfg["bulk_rows"]]}).encode()]
                  + [json.dumps({"row": records[i]}).encode()
                     for i in range(3)], 1)

    connections = max(1, min(2, os.cpu_count() or 1))
    windows = []
    for salt, (rate, share) in enumerate(zip(cfg["rates"], WINDOW_SHARES)):
        before = http_json(f"{url}/metrics")[1]
        offsets, bodies, picks = make_schedule(
            ctx, rate, ctx["seconds"] * share, 10 + salt, records)
        outcomes, cpu_s = run_open_loop(host, int(port), offsets, bodies,
                                        connections)
        after = http_json(f"{url}/metrics")[1]
        windows.append({"rate": rate, "picks": picks, "outcomes": outcomes,
                        "cpu_s": cpu_s, "before": before, "after": after})

    # Fixed sample of single rows, one at a time (a batch of one on the
    # server), compared with the in-process engine on the same batch.
    rng = np.random.default_rng([seed, 99])
    sample = [int(i) for i in rng.choice(len(records), cfg["verify"],
                                         replace=False)]
    verify_outcomes, _ = run_open_loop(
        host, int(port), [0.0] * len(sample),
        [json.dumps({"row": records[i]}).encode() for i in sample], 1)
    pin_s = http_json(f"{url}/metrics")[1]["engine"]["phases"]["pin"][
        "seconds"]
    peak_mb = stop_server(ctx, proc)

    attempted, failed = 0, 0
    imputed = pool.dirty.copy()
    served_rows: set[int] = set()
    for window in windows:
        window["good"] = []
        for outcome, rows in zip(window["outcomes"], window["picks"]):
            attempted += 1
            served = check_response(outcome, [records[i] for i in rows])
            window["good"].append(served is not None)
            if served is None:
                if not failed:
                    log(f"first failed request: status {outcome.status}, "
                        f"{outcome.error or outcome.payload[:300]}")
                failed += 1
                continue
            for row, values in zip(rows, served):
                if row not in served_rows:
                    served_rows.add(row)
                    for column, value in values.items():
                        imputed.set(row, column, value)
    keepalive_gaps = []
    for outcome, row in zip(verify_outcomes, sample):
        attempted += 1
        served = check_response(outcome, [records[row]])
        expected = json.loads(json.dumps(
            engine.impute_records([records[row]])))
        if served != expected:
            log(f"served row {row} differs from the in-process engine")
            failed += 1
            continue
        keepalive_gaps.append((outcome.done - outcome.sent) * 1e3
                              - json.loads(outcome.payload)["latency_ms"])

    quality = score_table(Corruption(
        dirty=pool.dirty, clean=pool.clean,
        injected=[cell for cell in pool.injected
                  if cell[0] in served_rows]), imputed)
    quality_good = quality_ok(cfg, quality)
    if not quality_good:
        log(f"served quality out of bounds: {quality}")

    stats = [window_stats(window) for window in windows]
    low, high = stats[0], stats[-1]
    sustained = [s["rate"] for s in stats if s["valid"] and s["meets"]]
    log("windows: " + "; ".join(
        f"{s['rate']:g}/s n={s['n']} p50={s['p50_ms']:.1f} "
        f"tail={s['tail_ms']:.1f}@p{s['tail_pct']:.0f} "
        f"bulk_p50={s['bulk_p50_ms']:.1f} lag99={s['lag_p99_ms']:.2f} "
        f"backlog={s['backlog_ms']:.1f} valid={s['valid']}" for s in stats))
    log(f"setups {setups} quality {quality}")
    if ctx["trace"]:
        metrics = {
            "serve.http_ms": low["server_p50_ms"],
            "serve.transport_ms": low["p50_ms"] - low["server_p50_ms"],
            "serve.keepalive_transport_ms": median(keepalive_gaps),
            "serve.engine_ms": low["engine_ms"],
            "serve.queue_wait_ms": low["queue_wait_ms"],
            "serve.batch_size_mean": low["batch_size_mean"],
            "serve.bulk_p50_ms": low["bulk_p50_ms"],
            "serve.tail_percentile": low["tail_pct"],
            "serve.tail_samples": low["n"],
            "serve.tail_high_ms": high["tail_ms"],
            "serve.max_rate_rps": max(sustained, default=0.0),
            "serve.invalid_rates": sum(not s["valid"] for s in stats),
            "serve.generator_lag_ms": max(s["lag_p99_ms"] for s in stats),
            "serve.generator_cpu_s": sum(s["cpu_s"] for s in stats),
            "checkpoint.save_s": median([s["save_s"] for s in setups]),
            "checkpoint.load_s": load_s,
            "serve.pin_s": pin_s,
        }
        return failed == 0 and quality_good, attempted, failed, metrics
    return failed == 0 and quality_good, attempted, failed, {
        "setup_s": median([s["setup_s"] for s in setups]),
        "fit_s": min(s["fit_s"] for s in setups),
        "impute_p50_ms": low["p50_ms"],
        "impute_tail_ms": low["tail_ms"],
        "rows_per_s": high["rows_per_s"],
        "peak_rss_mb": peak_mb,
        "accuracy": quality["accuracy"],
        "nrmse": quality["nrmse"],
        "fill_rate": quality["fill_rate"],
        "ok_share": (attempted - failed) / attempted,
    }


def _span(snapshot: dict, path: str) -> tuple[float, int]:
    entry = snapshot.get("telemetry", {}).get("spans", {}).get(
        path, {"seconds": 0.0, "count": 0})
    return entry["seconds"], entry["count"]


def _per_entry_ms(before: dict, after: dict, path: str) -> float:
    seconds = _span(after, path)[0] - _span(before, path)[0]
    count = _span(after, path)[1] - _span(before, path)[1]
    return seconds / count * 1e3 if count else 0.0


def window_stats(window: dict) -> dict:
    """Client and server figures of one open-loop window."""
    outcomes, good = window["outcomes"], window["good"]
    single = [o for o, rows, ok in zip(outcomes, window["picks"], good)
              if ok and len(rows) == 1]
    bulk = [o for o, rows, ok in zip(outcomes, window["picks"], good)
            if ok and len(rows) > 1]
    latencies = [o.latency_ms for o in single]
    tail_ms, tail_pct, n = tail(latencies)
    lags = [(o.sent - o.due) * 1e3 for o in outcomes if o.idle]
    lag_p99 = sorted(lags)[int(0.99 * (len(lags) - 1))] if lags else 0.0
    # Backlog: how long requests in the last third of the window waited
    # for a free connection, beyond those in the first third.
    third = max(1, len(outcomes) // 3)
    waits = [(o.sent - o.due) * 1e3 for o in outcomes]
    backlog = median(waits[-third:]) - median(waits[:third])
    before, after = window["before"], window["after"]
    engine = after["engine"]["phases"]["batch"]
    engine_before = before["engine"]["phases"]["batch"]
    batches = engine["count"] - engine_before["count"]
    rows = sum(len(rows) for rows, ok in zip(window["picks"], good) if ok)
    span_s = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    server_ms = [json.loads(o.payload)["latency_ms"] for o in single]
    valid = lag_p99 <= GENERATOR_LAG_LIMIT_MS and \
        window["cpu_s"] <= GENERATOR_CPU_LIMIT * span_s
    return {
        "rate": window["rate"], "n": n, "tail_pct": tail_pct,
        "p50_ms": median(latencies), "tail_ms": tail_ms,
        "bulk_p50_ms": median([o.latency_ms for o in bulk]),
        "server_p50_ms": median(server_ms),
        "engine_ms": (engine["seconds"] - engine_before["seconds"])
        / batches * 1e3 if batches else 0.0,
        "queue_wait_ms": _per_entry_ms(before, after, "http.impute")
        - _per_entry_ms(before, after, "batcher.flush"),
        "batch_size_mean": rows / batches if batches else 0.0,
        "lag_p99_ms": lag_p99, "cpu_s": window["cpu_s"],
        "backlog_ms": backlog, "valid": valid,
        "meets": all(good) and tail_ms <= LATENCY_LIMIT_MS
        and backlog <= LATENCY_LIMIT_MS / 2,
        "rows_per_s": rows / span_s if span_s > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = {"fit_full": fit_workload, "fit_sampled": fit_workload,
             "serve_mixed": serve_workload}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds, not minutes)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no program to measure: {SRC / 'repro'} is missing; "
            f"run from the root of a checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    sys.path[:0] = [str(SRC), str(HERE)]
    # Byte-compile once, untimed, so the first run's set-up does not pay
    # for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    ctx = {"cfg": SIZES["tiny" if args.tiny else "full"][args.workload],
           "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "work": work, "children": [],
           "deadline": time.monotonic() + RUN_BUDGET_S}
    try:
        correct, attempted, failed, metrics = WORKLOADS[args.workload](ctx)
    finally:
        for proc in list(ctx["children"]):
            proc.kill()
            reap(proc, time.monotonic() + 10)
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        # Layers a workload does not exercise report 0.
        metrics = {**dict.fromkeys(units, 0.0), **metrics}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

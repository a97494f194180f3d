"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.corruption import inject_mcar
from repro.data import Table, read_csv, write_csv


@pytest.fixture
def clean_csv(tmp_path):
    rng = np.random.default_rng(0)
    cities = ["paris", "rome", "berlin"]
    country = {"paris": "france", "rome": "italy", "berlin": "germany"}
    chosen = [cities[i] for i in rng.integers(0, 3, 40)]
    table = Table({
        "city": chosen,
        "country": [country[c] for c in chosen],
        "population": list(rng.uniform(0.5, 4.0, 40)),
    })
    path = tmp_path / "clean.csv"
    write_csv(table, path)
    return path, table


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_impute_defaults(self):
        args = build_parser().parse_args(["impute", "in.csv", "out.csv"])
        assert args.algorithm == "grimp-ft"
        assert args.profile == "fast"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["impute", "a.csv", "b.csv", "--algorithm", "chatgpt"])

    def test_impute_accepts_dtype_seed_and_checkpoint(self):
        args = build_parser().parse_args(
            ["impute", "in.csv", "out.csv", "--dtype", "float64",
             "--seed", "7", "--checkpoint", "model.ckpt"])
        assert args.dtype == "float64"
        assert args.seed == 7
        assert args.checkpoint == "model.ckpt"

    def test_impute_rejects_unknown_dtype(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["impute", "in.csv", "out.csv", "--dtype", "float16"])

    def test_impute_accepts_workers_and_embed_cache(self):
        args = build_parser().parse_args(
            ["impute", "in.csv", "out.csv", "--embed-cache", ".embed"])
        assert args.embed_cache == ".embed"
        defaults = build_parser().parse_args(["impute", "in.csv", "out.csv"])
        assert defaults.embed_cache is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "model.ckpt"])
        assert args.port == 8080
        assert args.max_batch_size == 32

    @pytest.mark.parametrize("flag", ["--max-delay-ms", "--serve-workers",
                                      "--max-queue-depth"])
    def test_serve_has_one_tier(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "model.ckpt", flag, "1"])

    @pytest.mark.parametrize("flag, keyword", [
        ("--dp-shards", "dp_shards"), ("--dp-workers", "dp_workers"),
        ("--workers", "workers")])
    def test_sampled_training_has_one_path(self, flag, keyword):
        from repro.experiments import make_imputer
        with pytest.raises(SystemExit):
            build_parser().parse_args(["impute", "in.csv", "out.csv",
                                       "--batch-size", "32", flag, "2"])
        with pytest.raises(TypeError):
            make_imputer("grimp-e", batch_size=32, **{keyword: 2})

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.dataset == "flare"
        assert args.epochs == 3
        assert args.replay is None


class TestCommands:
    def test_corrupt_then_impute_then_evaluate(self, tmp_path, clean_csv,
                                               capsys):
        clean_path, _ = clean_csv
        dirty_path = tmp_path / "dirty.csv"
        imputed_path = tmp_path / "imputed.csv"

        assert main(["corrupt", str(clean_path), str(dirty_path),
                     "--fraction", "0.2", "--seed", "1"]) == 0
        dirty = read_csv(dirty_path)
        assert dirty.missing_fraction() == pytest.approx(0.2, abs=0.01)

        assert main(["impute", str(dirty_path), str(imputed_path),
                     "--algorithm", "mode"]) == 0
        imputed = read_csv(imputed_path)
        assert imputed.missing_fraction() == 0.0

        assert main(["evaluate", str(clean_path), str(dirty_path),
                     str(imputed_path)]) == 0
        output = capsys.readouterr().out
        assert "accuracy:" in output
        assert "rmse:" in output

    def test_impute_with_fd_discovery(self, tmp_path, clean_csv):
        clean_path, _ = clean_csv
        dirty_path = tmp_path / "dirty.csv"
        imputed_path = tmp_path / "imputed.csv"
        main(["corrupt", str(clean_path), str(dirty_path),
              "--fraction", "0.15"])
        assert main(["impute", str(dirty_path), str(imputed_path),
                     "--algorithm", "fd-repair", "--discover-fds"]) == 0
        imputed = read_csv(imputed_path)
        # city -> country is discoverable, so some cells get repaired.
        dirty = read_csv(dirty_path)
        assert len(imputed.missing_cells()) < len(dirty.missing_cells())

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "adult" in output and "tictactoe" in output

    def test_stats_on_csv(self, clean_csv, capsys):
        clean_path, _ = clean_csv
        assert main(["stats", str(clean_path)]) == 0
        output = capsys.readouterr().out
        assert "F+_avg" in output

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "repro", "datasets"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "mammogram" in result.stdout


class TestCompareCommand:
    def test_compare_runs_and_prints_ranking(self, capsys):
        assert main(["compare", "--datasets", "flare",
                     "--algorithms", "mode,knn", "--rates", "0.2",
                     "--rows", "40"]) == 0
        output = capsys.readouterr().out
        assert "Average rank" in output
        assert "mode" in output and "knn" in output

    def test_compare_rejects_unknown_dataset(self, capsys):
        assert main(["compare", "--datasets", "nonexistent",
                     "--algorithms", "mode"]) == 2

    def test_compare_rejects_unknown_algorithm(self, capsys):
        assert main(["compare", "--datasets", "flare",
                     "--algorithms", "superimputer"]) == 2


class TestServeAndCheckpointFlags:
    def test_checkpoint_requires_grimp_algorithm(self, clean_csv, tmp_path,
                                                 capsys):
        clean_path, _ = clean_csv
        assert main(["impute", str(clean_path),
                     str(tmp_path / "out.csv"), "--algorithm", "mode",
                     "--checkpoint", str(tmp_path / "m.ckpt")]) == 2
        assert "grimp" in capsys.readouterr().err

    def test_dtype_requires_grimp_algorithm(self, clean_csv, tmp_path,
                                            capsys):
        clean_path, _ = clean_csv
        assert main(["impute", str(clean_path),
                     str(tmp_path / "out.csv"), "--algorithm", "mode",
                     "--dtype", "float64"]) == 1
        assert "dtype" in capsys.readouterr().err

    def test_serve_missing_checkpoint_prints_one_line_error(
            self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.ckpt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestTraceCommand:
    def test_traced_fit_renders_tree_and_writes_artifacts(
            self, tmp_path, capsys):
        from repro.telemetry import load_manifest, set_enabled

        events_path = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        try:
            assert main(["trace", "--dataset", "flare", "--rows", "40",
                         "--epochs", "2",
                         "--events", str(events_path),
                         "--manifest", str(manifest_path)]) == 0
        finally:
            set_enabled(False)   # the command enables detail telemetry
        output = capsys.readouterr().out
        # The tree must cover epoch -> layer -> plan-dispatch levels.
        assert "epoch" in output
        assert "layer[0]" in output
        assert "spmm.plan" in output
        manifest = load_manifest(manifest_path)
        assert manifest["run"]["kind"] == "trace"
        assert manifest["spans"]["fit/train/epoch"]["count"] >= 1

        # Replaying the event log renders the identical tree.
        capsys.readouterr()
        assert main(["trace", "--replay", str(events_path)]) == 0
        replayed = capsys.readouterr().out
        live_tree = output.split("\n", 1)[1] \
            .split("wrote event log")[0].rstrip("\n")
        assert replayed.rstrip("\n") == live_tree

    def test_replay_missing_file_prints_one_line_error(self, capsys):
        assert main(["trace", "--replay", "/nonexistent.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err


class TestErrorHandling:
    def test_missing_file_prints_one_line_error(self, capsys):
        assert main(["stats", "/nonexistent/file.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_csv_prints_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["corrupt", str(path), str(tmp_path / "out.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestLintCommand:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.rules is None
        assert args.format == "text"
        assert args.output is None
        assert args.check_plans is None
        assert args.interprocedural is True
        assert args.cache is None

    def test_no_interprocedural_flag_disables_project_rules(self,
                                                            tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        source = package / "leak.py"
        source.write_text(
            "from repro.parallel import SharedArrays\n"
            "def run(arrays):\n"
            "    pack = SharedArrays(arrays)\n"
            "    return 1\n")
        assert main(["lint", str(source)]) == 1  # RPR010 fires
        assert main(["lint", "--no-interprocedural", str(source)]) == 0

    def test_clean_source_exits_zero(self, tmp_path, capsys):
        source = tmp_path / "clean.py"
        source.write_text("import itertools\nx = 1\n")
        assert main(["lint", str(source)]) == 0
        assert "clean: no lint findings" in capsys.readouterr().out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        package = tmp_path / "repro" / "tensor"
        package.mkdir(parents=True)
        source = package / "bad.py"
        source.write_text("x = np.float64(1.0)\n")
        assert main(["lint", str(source)]) == 1
        output = capsys.readouterr().out
        assert "RPR001" in output
        assert "1 error(s)" in output

    def test_rules_filter_and_unknown_rule(self, tmp_path, capsys):
        package = tmp_path / "repro" / "tensor"
        package.mkdir(parents=True)
        source = package / "bad.py"
        source.write_text("import threading\nx = np.float64(1.0)\n")
        assert main(["lint", "--rules", "rpr004", str(source)]) == 1
        output = capsys.readouterr().out
        assert "RPR004" in output and "RPR001" not in output
        assert main(["lint", "--rules", "RPR999", str(source)]) == 2
        assert "unknown lint rules" in capsys.readouterr().err

    def test_json_format_and_report_file(self, tmp_path, capsys):
        import json as json_module

        package = tmp_path / "repro" / "nn"
        package.mkdir(parents=True)
        source = package / "bad.py"
        source.write_text("a = np.zeros(3)\n")
        report_path = tmp_path / "report.json"
        assert main(["lint", "--format", "json", "--output",
                     str(report_path), str(source)]) == 1
        printed = json_module.loads(capsys.readouterr().out)
        written = json_module.loads(report_path.read_text())
        assert printed == written
        assert written["schema"] == "repro.lint-report/2"
        assert written["counts"]["error"] == 1
        assert written["findings"][0]["rule"] == "RPR001"
        assert written["cache"] == {"files": 1, "parsed": 1, "cached": 0}

    def test_github_format_emits_workflow_annotations(self, tmp_path,
                                                      capsys):
        package = tmp_path / "repro" / "nn"
        package.mkdir(parents=True)
        source = package / "bad.py"
        source.write_text("a = np.zeros(3)\n")
        assert main(["lint", "--format", "github", str(source)]) == 1
        output = capsys.readouterr().out
        assert f"::error file={source},line=1,col=5,title=RPR001::" \
            in output
        assert "1 error(s), 0 warning(s)" in output

    def test_lint_installed_package_by_default(self, capsys):
        # The committed tree is the default target and must be clean —
        # the same invariant `make lint` and the CI step enforce.
        assert main(["lint"]) == 0
        assert "clean: no lint findings" in capsys.readouterr().out

    def test_missing_path_prints_one_line_error(self, capsys):
        assert main(["lint", "/nonexistent/tree"]) == 1
        assert "error:" in capsys.readouterr().err

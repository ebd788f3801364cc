"""End-to-end checks of the command-line surface and its exit codes."""

import base64
import json

import numpy as np
import pytest

from gme.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


@pytest.fixture(scope="module")
def market_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("market")
    code = main(["synth", "--n", "90", "--days", "14", "--seed", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, market_dir):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--projects", str(market_dir / "projects.jsonl"),
                 "--investments", str(market_dir / "investments.jsonl"),
                 "--epochs", "2", "--hidden", "8", "--out", str(out)])
    assert code == EXIT_OK
    return out


def _data_flags(market_dir):
    return ["--projects", str(market_dir / "projects.jsonl"),
            "--investments", str(market_dir / "investments.jsonl")]


class TestSynth:
    def test_writes_market_files_and_echo(self, market_dir):
        for name in ("projects.jsonl", "investments.jsonl", "trace.jsonl",
                     "config_echo.json"):
            assert (market_dir / name).exists(), name
        echo = json.loads((market_dir / "config_echo.json").read_text())
        assert echo["command"] == "synth"
        assert echo["config"]["n_projects"] == 90
        assert echo["config"]["seed"] == 3

    def test_same_seed_same_bytes(self, tmp_path, market_dir):
        out = tmp_path / "again"
        assert main(["synth", "--n", "90", "--days", "14", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        for name in ("projects.jsonl", "investments.jsonl", "trace.jsonl"):
            assert (out / name).read_bytes() == (market_dir / name).read_bytes()


class TestTrain:
    def test_writes_all_artifacts(self, trained_dir):
        for name in ("checkpoint.json", "encoder.json", "loss_history.csv",
                     "eval_report.json", "config_echo.json"):
            assert (trained_dir / name).exists(), name

    def test_loss_history_layout(self, trained_dir):
        lines = (trained_dir / "loss_history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss_p,loss_l,seconds"
        assert len(lines) == 3  # header + 2 epochs
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(float(cell) >= 0 for cell in first[1:])

    def test_checkpoint_meta_carries_config(self, trained_dir):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        assert doc["meta"]["config"]["epochs"] == 2
        assert doc["meta"]["config"]["hidden"] == 8
        assert doc["meta"]["feature_dim"] > 0

    def test_rerun_is_byte_identical(self, tmp_path, market_dir, trained_dir):
        out = tmp_path / "again"
        code = main(["train", *_data_flags(market_dir), "--epochs", "2",
                     "--hidden", "8", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("checkpoint.json", "eval_report.json", "encoder.json"):
            assert (out / name).read_bytes() == (trained_dir / name).read_bytes()

    def test_report_metrics_match_predictions(self, trained_dir):
        report = json.loads((trained_dir / "eval_report.json").read_text())
        y = np.asarray([r["truth"] for r in report["predictions"]])
        yp = np.asarray([r["pred"] for r in report["predictions"]])
        assert report["mae"] == pytest.approx(float(np.mean(np.abs(y - yp))))
        assert report["n_targets"] == len(report["predictions"])


class TestEval:
    def test_roundtrip_report_is_byte_identical(self, tmp_path, market_dir,
                                                trained_dir):
        out = tmp_path / "evalrun"
        code = main(["eval", *_data_flags(market_dir),
                     "--checkpoint", str(trained_dir / "checkpoint.json"),
                     "--encoder", str(trained_dir / "encoder.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "eval_report.json").read_bytes() == \
            (trained_dir / "eval_report.json").read_bytes()

    def test_mismatched_encoder_is_data_error(self, tmp_path, market_dir,
                                              trained_dir, capsys):
        doc = json.loads((trained_dir / "encoder.json").read_text())
        doc["text_dim"] = 10  # narrower features than the checkpoint was fit on
        narrow = tmp_path / "narrow_encoder.json"
        narrow.write_text(json.dumps(doc))
        code = main(["eval", *_data_flags(market_dir),
                     "--checkpoint", str(trained_dir / "checkpoint.json"),
                     "--encoder", str(narrow),
                     "--out", str(tmp_path / "bad")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    def test_non_finite_checkpoint_is_data_error(self, tmp_path, market_dir,
                                                 trained_dir, capsys, command):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        entry = next(e for e in doc["parameters"] if e["name"] == "head.out.b")
        entry["data"] = base64.b64encode(np.asarray([np.nan], dtype="<f8").tobytes()).decode()
        poisoned = tmp_path / "nan_checkpoint.json"
        poisoned.write_text(json.dumps(doc))
        code = main([command, *_data_flags(market_dir),
                     "--checkpoint", str(poisoned),
                     "--encoder", str(trained_dir / "encoder.json"),
                     "--out", str(tmp_path / "bad")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "head.out.b" in err and "non-finite" in err


class TestDumpTree:
    def test_trees_respect_gap_bounds(self, tmp_path, market_dir):
        out = tmp_path / "trees"
        code = main(["dump-tree", *_data_flags(market_dir), "--tau", "24",
                     "--t-h", "4", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "tree.json").read_text())
        assert doc["sets"]
        edges = 0
        for entry in doc["sets"]:
            depth = {n["id"]: n["depth"] for n in entry["nodes"]}
            for e in entry["edges"]:
                assert 24.0 < e["gap_hours"] < 48.0
                assert depth[e["child"]] == depth[e["parent"]] + 1
                edges += 1
        assert edges > 0

    def test_unknown_label_is_data_error(self, tmp_path, market_dir, capsys):
        code = main(["dump-tree", *_data_flags(market_dir),
                     "--set", "d0s0", "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA
        assert "no target set labelled" in capsys.readouterr().err


class TestInspectAttention:
    def test_weights_normalized_per_target(self, tmp_path, market_dir,
                                           trained_dir):
        out = tmp_path / "att"
        code = main(["inspect-attention", *_data_flags(market_dir),
                     "--checkpoint", str(trained_dir / "checkpoint.json"),
                     "--encoder", str(trained_dir / "encoder.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "attention.json").read_text())
        checked = 0
        for entry in doc["sets"]:
            for target in entry["targets"]:
                if target["weights"]:
                    total = sum(w["alpha"] for w in target["weights"])
                    assert total == pytest.approx(1.0, abs=1e-9)
                    checked += 1
        assert checked > 0


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--projects", str(tmp_path / "nope.jsonl"),
                     "--investments", str(tmp_path / "nope2.jsonl"),
                     "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_malformed_record_names_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"a","published_time":1}\n{not json\n')
        inv = tmp_path / "inv.jsonl"
        inv.write_text("")
        code = main(["dump-tree", "--projects", str(bad),
                     "--investments", str(inv), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert f"{bad}:1" in capsys.readouterr().err

    def test_bad_flag_values_are_usage_errors(self, tmp_path, market_dir):
        with pytest.raises(SystemExit) as exc:
            main(["train", *_data_flags(market_dir), "--t-h", "0",
                  "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        code = main(["train", *_data_flags(market_dir), "--eta", "1.5",
                     "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_unknown_flag_rejected(self, tmp_path, market_dir):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--frobnicate", "1", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE


class TestAblate:
    def test_report_covers_variants_and_baselines(self, tmp_path, market_dir):
        out = tmp_path / "ablate"
        code = main(["ablate", *_data_flags(market_dir), "--epochs", "1",
                     "--hidden", "8", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "ablation_report.json").read_text())
        assert set(doc["variants"]) == {"full", "pcm-only", "met-only"}
        assert set(doc["baselines"]) == {"mean", "linear", "mlp"}
        for row in (*doc["variants"].values(), *doc["baselines"].values()):
            assert row["rmse"] >= row["mae"] >= 0

"""End-to-end checks of the command-line surface and its exit codes."""

import argparse
import base64
import contextlib
import dataclasses
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gme.cli import EXIT_DATA, EXIT_OK, EXIT_TRAIN, EXIT_USAGE, build_parser, main
from gme.data import InvestmentEvent, Market
from gme.model import TrainConfig
from gme.training import build_contexts


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


def _repeat_aux_bias(doc):
    """A second `head.aux.b` entry, holding 7.0, after every other parameter."""
    entry = next(e for e in doc["parameters"] if e["name"] == "head.aux.b")
    seven = base64.b64encode(np.asarray([7.0], dtype="<f8").tobytes()).decode()
    return {**doc, "parameters": [*doc["parameters"], {**entry, "data": seven}]}


def _data_flags(market_dir):
    return ["--projects", str(market_dir / "projects.jsonl"),
            "--investments", str(market_dir / "investments.jsonl")]


FUZZ_T0 = 1_700_000_000
# Six projects in six launch buckets over three days, each with two pledges:
# refusing any one record still leaves a market of at least two target sets.
FUZZ_PROJECTS = [{"id": f"p{k}", "published_time": FUZZ_T0 + k * 13 * 3600, "category": "art",
                  "creator_type": "individual", "currency": "USD", "duration_days": 3,
                  "goal": 100.0 * (k + 1), "text": f"project {k}"} for k in range(6)]
FUZZ_EVENTS = [{"project_id": f"p{k}", "timestamp": FUZZ_T0 + k * 13 * 3600 + h * 3600,
                "amount": 2.5 * (h + 1)} for k in range(6) for h in (1, 30)]


def _write_fuzz_market(folder, projects, events, newline="\n"):
    paths = {"projects": folder / "projects.jsonl", "investments": folder / "investments.jsonl"}
    for name, records in (("projects", projects), ("investments", events)):
        lines = [json.dumps(r, separators=(",", ":")) for r in records]
        paths[name].write_bytes("".join(line + newline for line in lines).encode("utf-8"))
    return paths


class TestSynth:
    def test_writes_market_files_and_echo(self, market_dir):
        for name in ("projects.jsonl", "investments.jsonl", "trace.jsonl",
                     "config_echo.json"):
            assert (market_dir / name).exists(), name
        echo = json.loads((market_dir / "config_echo.json").read_text())
        assert echo["command"] == "synth"
        assert echo["config"]["n_projects"] == 90
        assert echo["config"]["seed"] == 3

    def test_echo_records_blas_thread_settings(self, tmp_path, monkeypatch):
        """The BLAS thread settings, which change output bits, are echoed as the
        process saw them, None where unset."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        assert main(["synth", "--n", "60", "--days", "5", "--out", str(tmp_path)]) == EXIT_OK
        echo = json.loads((tmp_path / "config_echo.json").read_text())
        assert echo["threads"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
                                   "MKL_NUM_THREADS": ""}

    def test_same_seed_same_bytes(self, tmp_path, market_dir):
        out = tmp_path / "again"
        assert main(["synth", "--n", "90", "--days", "14", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        for name in ("projects.jsonl", "investments.jsonl", "trace.jsonl"):
            assert (out / name).read_bytes() == (market_dir / name).read_bytes()

    @pytest.mark.parametrize("flags, digests", [
        (["--n", "200", "--days", "30", "--seed", "4", "--noise", "0.3"],
         ["a296955d5fcacdfffb6453677a90a053757e86e7db9e58ba670da070e42d5ddb",
          "a72755b48405b2313795140ec04029e2ab441f1df9bd929f2da94269798a6f82",
          "39d5d1bf83bf9378f3ff905b8e07753920cb6cdc3573013a3a1102270cabae08"]),
        (["--n", "60", "--days", "10", "--seed", "1"],
         ["bd21ede848a2ca9d545a0dcf17ead44ddc4e413abd5d8dac6f6bce86cb39a6b8",
          "96231be911a54b45c735cd3a94de21d86845b1e05738b8df8b6f4628eb9f176c",
          "f1a7ea55de20381b136a241cca85a70d057cccc3fb2998336ca0e2fc1c7be65e"]),
    ], ids=["noise", "no-noise"])
    def test_writes_pinned_bytes_without_investment_events(self, tmp_path, monkeypatch, flags,
                                                           digests):
        """The market files keep the bytes the record-by-record writer gave, and no
        InvestmentEvent is built on the way."""
        def refuse(*args, **kwargs):
            raise AssertionError("gme synth built an InvestmentEvent")

        monkeypatch.setattr(InvestmentEvent, "__init__", refuse)
        assert main(["synth", *flags, "--out", str(tmp_path)]) == EXIT_OK
        assert [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("projects.jsonl", "investments.jsonl", "trace.jsonl")] == digests

    @pytest.mark.parametrize("flag, value", [
        ("--kappa", "nan"), ("--kappa", "inf"), ("--noise", "inf"), ("--noise", "1e200"),
        pytest.param("--kappa", "1e308", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    ])
    def test_market_that_would_not_load_is_usage_error(self, tmp_path, capsys, flag, value):
        """A value refused by the config, or whose pledges are not positive and finite,
        writes no market, and a kappa that overflows the crowding divisor warns of nothing."""
        code = main(["synth", "--n", "60", "--days", "5", flag, value, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: SynthConfig")
        assert not (tmp_path / "investments.jsonl").exists()


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

    @pytest.mark.parametrize("synth,hidden,warned", [(["--n", "60", "--days", "6", "--seed", "0"], "50", True),
                                                     (["--n", "90", "--days", "14", "--seed", "3"], "8", False)])
    def test_summary_reports_the_share_of_test_predictions_at_zero(self, tmp_path, capsys, synth, hidden,
                                                                   warned):
        """The summary line gives the dead-zone share that eval_report.json's predictions
        show; 90% or more adds one warning line on stderr."""
        market, out = tmp_path / "market", tmp_path / "trained"
        assert main(["synth", *synth, "--out", str(market)]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", *_data_flags(market), "--quantifier", "prior-mlp", "--epochs", "2",
                     "--hidden", hidden, "--out", str(out)]) == EXIT_OK
        preds = [row["pred"] for row in json.loads((out / "eval_report.json").read_text())["predictions"]]
        share = sum(p == 0.0 for p in preds) / len(preds)
        assert (share >= 0.9) == warned and (share == 1.0 or share == 0.0)
        captured = capsys.readouterr()
        assert f"; {share:.1%} of test predictions at 0; artifacts in {out}\n" in captured.out
        warning = (f"warning: {share:.1%} of test predictions are exactly 0, in the output "
                   f"rectifier's dead zone\n")
        assert captured.err == (warning if warned else "")


class TestEval:
    def test_summary_reports_the_share_of_predictions_at_zero(self, tmp_path, market_dir,
                                                              trained_dir, capsys):
        code = main(["eval", *_data_flags(market_dir),
                     "--checkpoint", str(trained_dir / "checkpoint.json"),
                     "--encoder", str(trained_dir / "encoder.json"), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "eval_report.json").read_text())
        share = sum(row["pred"] == 0.0 for row in report["predictions"]) / report["n_targets"]
        assert f"; {share:.1%} of predictions at 0; report in {tmp_path}\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    def test_encoder_width_is_checked_against_the_checkpoint(self, tmp_path, market_dir,
                                                             trained_dir, capsys, command):
        doc = json.loads((trained_dir / "encoder.json").read_text())
        doc["categories"].append("one more")  # one more feature than the checkpoint was fit on
        wider = tmp_path / "wider_encoder.json"
        wider.write_text(json.dumps(doc))
        checkpoint = trained_dir / "checkpoint.json"
        width = json.loads(checkpoint.read_text())["meta"]["feature_dim"]
        code = main([command, *_data_flags(market_dir), "--checkpoint", str(checkpoint),
                     "--encoder", str(wider), "--out", str(tmp_path / "bad")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (f"data error: {checkpoint} was fit on {width} "
                                           f"features, but {wider} encodes {width + 1}\n")

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

    @pytest.mark.parametrize("artifact, edit", [
        ("checkpoint.json", lambda doc: [doc]),
        ("checkpoint.json", lambda doc: {**doc, "parameters": {"head.out.b": [0.0]}}),
        ("checkpoint.json", lambda doc: {**doc, "parameters": [5, *doc["parameters"][1:]]}),
        ("checkpoint.json", lambda doc: _edit_first_parameter(doc, shape="8")),
        ("checkpoint.json", lambda doc: _edit_first_parameter(doc, data=5)),
        ("encoder.json", lambda doc: {**doc, "text_dim": "50"}),
        ("encoder.json", lambda doc: {**doc, "goal_log2_edges": ["7", "8"]}),
        ("encoder.json", lambda doc: {**doc, "text_mode": 5}),
        ("encoder.json", lambda doc: {**doc, "goal_log2_edges": [7.0, 10**400]}),
        ("checkpoint.json", lambda doc: {**doc, "version": True}),
        ("checkpoint.json", _repeat_aux_bias),
        ("checkpoint.json", lambda doc: _edit_config(doc, t_h=1.5)),
        ("checkpoint.json", lambda doc: _edit_config(doc, hidden=10**20)),
        ("checkpoint.json", lambda doc: _edit_config(doc, tz_offset=True)),
        ("checkpoint.json", lambda doc: _edit_config(doc, eta=10**400)),
        ("checkpoint.json", lambda doc: _edit_config(doc, ablation=None)),
        ("encoder.json", lambda doc: {**doc, "goal_log2_edges": [*doc["goal_log2_edges"][:-1],
                                                                 float("nan")]}),
        ("encoder.json", lambda doc: {**doc, "text_mod": doc["text_mode"]}),
        # a field written before the trend bins and the text seed were fixed
        ("checkpoint.json", lambda doc: _edit_config(doc, trend_bins=6)),
        ("encoder.json", lambda doc: {**doc, "text_seed": "gme-text-v1"}),
        # widths no machine could allocate: refused before the model is built
        ("checkpoint.json", lambda doc: _edit_config(doc, hidden=10**12)),
        # base64 and dtype forms the decoder would otherwise accept with the same values
        ("checkpoint.json", lambda doc: _edit_first_parameter(
            doc, data=" " + doc["parameters"][0]["data"])),
        ("checkpoint.json", lambda doc: _edit_first_parameter(
            doc, data=_split_base64(doc["parameters"][0]["data"], "!*\n"))),
        ("checkpoint.json", lambda doc: _edit_first_parameter(doc, dtype="float32")),
    ], ids=["checkpoint-array", "parameters-object", "parameter-not-object", "shape-string",
            "data-number", "text_dim-string", "goal-edges-strings", "text_mode-number",
            "goal-edge-huge",
            "version-true", "parameter-twice", "config-t_h-float", "config-hidden-huge",
            "config-tz_offset-true", "config-eta-huge", "config-ablation-missing",
            "goal-edge-nan-last", "encoder-unknown-key", "config-trend_bins-old",
            "encoder-text_seed-old", "config-hidden-large", "data-leading-space",
            "data-stray-characters", "dtype-float32"])
    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    def test_malformed_artifact_is_data_error_naming_file(self, tmp_path, market_dir,
                                                          trained_dir, capsys, command,
                                                          artifact, edit):
        files = {name: trained_dir / name for name in ("checkpoint.json", "encoder.json")}
        files[artifact] = tmp_path / artifact
        files[artifact].write_text(json.dumps(edit(json.loads((trained_dir / artifact).read_text()))))
        code = main([command, *_data_flags(market_dir),
                     "--checkpoint", str(files["checkpoint.json"]),
                     "--encoder", str(files["encoder.json"]),
                     "--out", str(tmp_path / "bad")])
        assert code == EXIT_DATA
        assert f"data error: {files[artifact]}: " in capsys.readouterr().err


def _edit_config(doc, **changes):
    """The checkpoint with config fields changed; a field set to None is left out."""
    config = {**doc["meta"]["config"], **changes}
    config = {k: v for k, v in config.items() if v is not None}
    return {**doc, "meta": {**doc["meta"], "config": config}}


def _edit_first_parameter(doc, **changes):
    return {**doc, "parameters": [{**doc["parameters"][0], **changes}, *doc["parameters"][1:]]}


def _split_base64(data, junk):
    """`data` with `junk` and a stray padding run after its first 4-character group."""
    return data[:4] + junk + "====" + data[4:]


def _rewrite_descriptions(src, dst, describe):
    """Copy a projects file with each record's description replaced by describe(i, record)."""
    records = sorted((json.loads(line) for line in src.read_text().splitlines()),
                     key=lambda r: (r["published_time"], r["id"]))
    with open(dst, "w", encoding="utf-8") as fh:
        for i, record in enumerate(records):
            record.pop("text", None)
            fh.write(json.dumps({**record, **describe(i, record)}) + "\n")
    return records


class TestTextForm:
    def test_vec_only_market_trains_on_its_vectors(self, tmp_path, market_dir):
        vecs = {}

        def describe(i, record):
            vecs[record["id"]] = np.random.default_rng(i).normal(size=8).tolist()
            return {"vec": vecs[record["id"]]}

        projects = tmp_path / "projects.jsonl"
        _rewrite_descriptions(market_dir / "projects.jsonl", projects, describe)
        investments = market_dir / "investments.jsonl"
        out = tmp_path / "trained"
        code = main(["train", "--projects", str(projects), "--investments", str(investments),
                     "--epochs", "1", "--hidden", "4", "--out", str(out)])
        assert code == EXIT_OK
        encoder = json.loads((out / "encoder.json").read_text())
        assert (encoder["text_mode"], encoder["text_dim"]) == ("precomputed", 8)

        market = Market.from_files(projects, investments)
        bundle = build_contexts(market, TrainConfig())
        assert bundle.encoder.to_json() == encoder
        want = np.array([vecs[p.id] for p in market.projects])
        for ctx in (*bundle.train, *bundle.test):
            np.testing.assert_array_equal(ctx.features[:, :8], want)

    @pytest.mark.parametrize("vec_row, named_row, missing", [
        (0, 1, "'vec' required in precomputed text mode"),
        (-1, -1, "'text' required in hashed text mode"),
    ], ids=["vec-in-train-span", "vec-only-in-test-span"])
    def test_mixed_market_names_first_project_of_other_form(self, tmp_path, market_dir, capsys,
                                                            vec_row, named_row, missing):
        """One project carries only `vec`, the rest `text`; rows are in launch order."""
        n = len((market_dir / "projects.jsonl").read_text().splitlines())

        def describe(i, record):
            return {"vec": [0.5] * 8} if i == vec_row % n else {"text": f"project {i}"}

        projects = tmp_path / "projects.jsonl"
        records = _rewrite_descriptions(market_dir / "projects.jsonl", projects, describe)
        code = main(["train", "--projects", str(projects),
                     "--investments", str(market_dir / "investments.jsonl"),
                     "--epochs", "1", "--hidden", "4", "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"project {records[named_row]['id']}: field {missing}" in capsys.readouterr().err


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

    def test_time_beyond_int64_is_data_error(self, tmp_path, capsys):
        record = {"id": "a", "published_time": 0, "category": "c", "creator_type": "i",
                  "currency": "USD", "duration_days": 3, "goal": 10.0, "text": ""}
        projects = tmp_path / "projects.jsonl"
        projects.write_text(json.dumps(record) + "\n" + json.dumps(
            {**record, "id": "b", "published_time": 100000000000000000000}) + "\n")
        inv = tmp_path / "inv.jsonl"
        inv.write_text("")
        code = main(["dump-tree", "--projects", str(projects),
                     "--investments", str(inv), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert (f"{projects}:2: project b: field 'published_time' must fit in 64 bits"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("which, field, token, message", [
        ("projects", "goal", "1" + "0" * 400, "project p1: field 'goal' must fit in 64 bits, got 1000"),
        ("investments", "amount", "1" + "0" * 400, "field 'amount' must fit in 64 bits, got 1000"),
        ("projects", "duration_days", "1" + "0" * 5000,
         "invalid JSON (an integer of more than 4300 digits)"),
        ("investments", "timestamp", "1" + "0" * 5000,
         "invalid JSON (an integer of more than 4300 digits)"),
    ], ids=["goal-past-float", "amount-past-float", "duration-past-digit-limit",
            "timestamp-past-digit-limit"])
    def test_oversized_integers_are_data_errors_naming_line(self, tmp_path, capsys, which,
                                                            field, token, message):
        """Integers past float range or past int()'s digit limit are refused, not crashes."""
        paths = _write_fuzz_market(tmp_path, FUZZ_PROJECTS, FUZZ_EVENTS)
        lines = paths[which].read_text().splitlines()
        lines[1] = re.sub(rf'"{field}":[^,}}]+', f'"{field}":{token}', lines[1])
        paths[which].write_text("\n".join(lines) + "\n")
        code = main(["dump-tree", "--projects", str(paths["projects"]),
                     "--investments", str(paths["investments"]), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"{paths[which]}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("event, message", [
        ({"project_id": "ghost", "timestamp": FUZZ_T0, "amount": 1.0},
         "investment references unknown project id 'ghost'"),
        ({"project_id": "p0", "timestamp": FUZZ_T0 - 1, "amount": 1.0},
         f"investment in 'p0' at {FUZZ_T0 - 1} lies outside its live window"),
    ], ids=["unknown-id", "outside-window"])
    def test_market_refusals_name_investment_line(self, tmp_path, capsys, event, message):
        events = [*FUZZ_EVENTS[:3], event, *FUZZ_EVENTS[3:]]
        paths = _write_fuzz_market(tmp_path, FUZZ_PROJECTS, events)
        text = paths["investments"].read_text()
        paths["investments"].write_text("\n" + text)  # a blank line still counts
        code = main(["dump-tree", "--projects", str(paths["projects"]),
                     "--investments", str(paths["investments"]), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"{paths['investments']}:5: {message}" in capsys.readouterr().err

    def test_pledges_summing_past_the_float_range_are_data_error(self, tmp_path, capsys):
        events = [*FUZZ_EVENTS, *({**e, "amount": 1e308} for e in FUZZ_EVENTS[2:4])]
        paths = _write_fuzz_market(tmp_path, FUZZ_PROJECTS, events)
        code = main(["dump-tree", "--projects", str(paths["projects"]),
                     "--investments", str(paths["investments"]), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "investments in 'p1' sum past the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("separator, line", [
        ("\r\n", 3), ("\r", 3), ("\n \u2028 \n", 5), ("\n\f\n", 5), ("\n\x1c\n", 5)])
    def test_lines_are_numbered_as_text_mode_reads_them(self, tmp_path, capsys, separator, line):
        """CR and CR LF end a line; a line holding only U+2028, a form feed or \\x1c is one
        blank line, not several, so a refusal names the line a text editor shows."""
        paths = _write_fuzz_market(tmp_path, FUZZ_PROJECTS, FUZZ_EVENTS)
        lines = paths["investments"].read_text().splitlines()
        lines[2] = lines[2].replace('"amount":', '"amount":-')
        paths["investments"].write_bytes(separator.join(lines).encode("utf-8"))
        code = main(["dump-tree", "--projects", str(paths["projects"]),
                     "--investments", str(paths["investments"]), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert (f"{paths['investments']}:{line}: investment in p1: field 'amount' must be positive"
                in capsys.readouterr().err)

    def test_bad_flag_values_are_usage_errors(self, tmp_path, market_dir):
        with pytest.raises(SystemExit) as exc:
            main(["train", *_data_flags(market_dir), "--t-h", "0",
                  "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        for flag, value in (("--eta", "1.5"), ("--learning-rate", "inf"), ("--seed", str(2**64))):
            code = main(["train", *_data_flags(market_dir), flag, value, "--out", str(tmp_path)])
            assert code == EXIT_USAGE, flag

    def test_every_train_config_field_is_a_flag_of_train(self):
        """A field that no flag sets is a setting no run can change; it belongs in a constant."""
        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest for a in subcommands.choices["train"]._actions}
        assert {f.name for f in dataclasses.fields(TrainConfig)} - flags == set()

    def test_unknown_flag_rejected(self, tmp_path, market_dir):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--frobnicate", "1", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE

    def test_diverged_training_is_a_training_error(self, tmp_path, capsys):
        """The non-finite guard ends the run with one stderr line and exit 4, no traceback
        and no checkpoint."""
        market, out = tmp_path / "market", tmp_path / "trained"
        assert main(["synth", "--n", "60", "--days", "6", "--seed", "0", "--out", str(market)]) == EXIT_OK
        capsys.readouterr()
        code = main(["train", *_data_flags(market), "--quantifier", "prior-mlp", "--epochs", "1",
                     "--learning-rate", "1e308", "--out", str(out)])
        assert code == EXIT_TRAIN == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "training error: non-finite loss at step 6 (set d19676s2)\n"
        assert not (out / "checkpoint.json").exists()


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


# --- mutated JSONL inputs through the CLI ------------------------------------

# Values that are no field's JSON type, or only some fields' type.
WRONG_TYPES = ["null", "true", '"5"', "[]", "{}", "1.5", "7"]
# Integers outside int64, one past the float range, one past int()'s digit limit.
HUGE_INTEGERS = [str(2 ** 63), str(-2 ** 63 - 1), str(10 ** 20), "1" + "0" * 400, "1" + "0" * 5000]
NON_FINITE = ["NaN", "Infinity", "-Infinity"]


@st.composite
def mutated_lines(draw, records):
    """The records' compact JSONL lines, mutated, and the line terminator to join them with."""
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        try:  # a line already mutated past JSON can still be truncated
            record = json.loads(lines[i]) if lines[i].strip().startswith("{") else None
        except ValueError:
            record = None
        kind = draw(st.sampled_from(["value", "missing", "duplicate", "truncate", "blank",
                                     "leading", "u2028"]))
        if record is None or kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif kind == "value":  # a wrong type, an oversized integer or a non-finite number
            key = draw(st.sampled_from(sorted(record)))
            token = draw(st.sampled_from(WRONG_TYPES + HUGE_INTEGERS + NON_FINITE))
            lines[i] = re.sub(rf'"{key}": ?(?:"[^"]*"|[^,}}]*)', lambda m: f'"{key}":{token}',
                              lines[i], count=1)
        elif kind == "missing":
            del record[draw(st.sampled_from(sorted(record)))]
            lines[i] = json.dumps(record)
        elif kind == "duplicate":  # the key again, with its own value or a wrong type
            key = draw(st.sampled_from(sorted(record)))
            token = draw(st.sampled_from([json.dumps(record[key]), *WRONG_TYPES]))
            lines[i] = lines[i][:-1] + f',"{key}":{token}}}'
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t \t"])))
        elif kind == "leading":
            lines[i] = draw(st.sampled_from([" ", "\t", "  \t"])) + lines[i]
        elif strings := sorted(k for k, v in record.items() if type(v) is str):
            key = draw(st.sampled_from(strings))  # a raw line separator inside a string
            record[key] = record[key][:1] + "\u2028" + record[key][1:]
            lines[i] = json.dumps(record, ensure_ascii=False)
    return lines, draw(st.sampled_from(["\n", "\r\n"]))


def _run_dump_tree(paths, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["dump-tree", "--projects", str(paths["projects"]),
                     "--investments", str(paths["investments"]), "--out", str(out)])
    return code, err.getvalue()


def _check_outcome(code, err, paths):
    """Exit 0, or exit 2 naming `path:lineno` of one of the inputs; exit 1 never."""
    assert code in (EXIT_OK, EXIT_DATA), err
    if code == EXIT_DATA:
        located = "|".join(re.escape(str(p)) for p in paths.values())
        assert re.search(rf"^data error: (?:{located}):\d+: ", err), err


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutated=mutated_lines(FUZZ_PROJECTS))
def test_mutated_projects_file_loads_or_is_refused_with_its_line(tmp_path_factory, mutated):
    lines, newline = mutated
    folder = tmp_path_factory.mktemp("fuzz-projects")
    paths = _write_fuzz_market(folder, FUZZ_PROJECTS, FUZZ_EVENTS)
    paths["projects"].write_bytes("".join(line + newline for line in lines).encode("utf-8"))
    _check_outcome(*_run_dump_tree(paths, folder / "out"), paths)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutated=mutated_lines(FUZZ_EVENTS))
def test_mutated_investments_file_loads_or_is_refused_with_its_line(tmp_path_factory, mutated):
    lines, newline = mutated
    folder = tmp_path_factory.mktemp("fuzz-investments")
    paths = _write_fuzz_market(folder, FUZZ_PROJECTS, FUZZ_EVENTS)
    paths["investments"].write_bytes("".join(line + newline for line in lines).encode("utf-8"))
    _check_outcome(*_run_dump_tree(paths, folder / "out"), paths)


def test_unmutated_fuzz_market_loads(tmp_path):
    paths = _write_fuzz_market(tmp_path, FUZZ_PROJECTS, FUZZ_EVENTS, newline="\r\n")
    assert _run_dump_tree(paths, tmp_path / "out")[0] == EXIT_OK


# --- mutated JSON artifacts through the CLI ----------------------------------

class _Twice:
    """A key written a second time into its JSON object, with its own value."""

    def __init__(self, key):
        self.key = key


def _dump_raw(node) -> str:
    """JSON text of a tree whose leaves may be raw tokens (str in a 1-tuple)."""
    if isinstance(node, tuple):
        return node[0]
    if isinstance(node, dict):
        return "{" + ",".join(f"{json.dumps(getattr(k, 'key', k))}:{_dump_raw(v)}"
                              for k, v in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ",".join(_dump_raw(v) for v in node) + "]"
    return json.dumps(node)


@st.composite
def json_slot(draw, node):
    """A (container, key) reached by a random walk down from the root of a JSON tree."""
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) or draw(st.booleans()):
            return node, key
        node = child


@st.composite
def mutated_json(draw, doc):
    """The text of a JSON document with one to three mutations."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        container, key = draw(json_slot(doc))
        kind = draw(st.sampled_from(["value", "missing", "duplicate"]))
        if kind == "value":  # a wrong type, an oversized integer or a non-finite number
            container[key] = (draw(st.sampled_from(WRONG_TYPES + HUGE_INTEGERS + NON_FINITE)),)
        elif kind == "missing":
            del container[key]
        elif isinstance(container, dict):  # the key again, with its own value or a wrong type
            container[_Twice(getattr(key, "key", key))] = draw(st.sampled_from(
                [container[key], *((t,) for t in WRONG_TYPES)]))
    text = _dump_raw(doc)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@pytest.fixture(scope="module")
def fuzz_trained(tmp_path_factory):
    """A fuzz market and the artifacts of a small model trained on it."""
    folder = tmp_path_factory.mktemp("fuzz-trained")
    paths = _write_fuzz_market(folder, FUZZ_PROJECTS, FUZZ_EVENTS)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--projects", str(paths["projects"]),
                     "--investments", str(paths["investments"]), "--epochs", "1",
                     "--hidden", "3", "--t-h", "2", "--out", str(folder / "model")])
    assert code == EXIT_OK
    return paths, {name: json.loads((folder / "model" / name).read_text())
                   for name in ("checkpoint.json", "encoder.json")}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), artifact=st.sampled_from(["checkpoint.json", "encoder.json"]),
       command=st.sampled_from(["eval", "inspect-attention"]))
def test_mutated_artifact_loads_or_is_refused_naming_it(tmp_path_factory, fuzz_trained,
                                                        data, artifact, command):
    """Exit 0, or exit 2 naming the mutated file; exit 1 never.

    A width the two files disagree on is refused naming both."""
    market, docs = fuzz_trained
    folder = tmp_path_factory.mktemp("fuzz-artifact")
    files = {}
    for name, doc in docs.items():
        files[name] = folder / name
        text = data.draw(mutated_json(doc)) if name == artifact else json.dumps(doc)
        files[name].write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--projects", str(market["projects"]),
                     "--investments", str(market["investments"]),
                     "--checkpoint", str(files["checkpoint.json"]),
                     "--encoder", str(files["encoder.json"]), "--out", str(folder / "out")])
    assert code in (EXIT_OK, EXIT_DATA), err.getvalue()
    if code == EXIT_DATA:
        assert re.match(rf"data error: .*{re.escape(str(files[artifact]))}\b", err.getvalue()), \
            err.getvalue()

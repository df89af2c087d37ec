"""End-to-end tests for the command line front end."""

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import banter
import banter.__main__
from banter import cli
from banter.cli import (
    CONFIG_KEYS,
    CliError,
    main,
    parse_config_file,
    resolve_settings,
)
from banter.data import load_corpus, load_embeddings, split_train_val
from banter.model import (
    ModelConfig,
    build_variant,
    forward_dialog,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from banter.train import TrainConfig, evaluate_split, train
from synthdata import (
    SMALL_KEYS,
    marker_corpus,
    masac_shaped_corpus,
    sidecar_copy,
    write_config,
    write_corpus,
    write_embeddings,
)
from test_model import rewrite_checkpoint_header
from test_verify import broken_tanh, run_alone


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    corpus, emb = marker_corpus(tmp, n_dialogs=8, utterances_per_dialog=4,
                                emb_dim=12, seed=0)
    return tmp, corpus, emb


@pytest.fixture(scope="module")
def trained(workspace):
    tmp, corpus, emb = workspace
    out = tmp / "trained"
    cfg = write_config(tmp / "train.cfg", corpus, emb, out_dir=out)
    assert main(["train", "--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def strict_run(workspace):
    """A run trained at threshold 0.9, and a corpus file holding exactly its
    validation dialogs: (out_dir, validation corpus, validation ids)."""
    tmp, corpus, emb = workspace
    out = tmp / "strict"
    cfg = write_config(tmp / "strict.cfg", corpus, emb, out_dir=out, seed=7,
                       threshold=0.9)
    assert main(["train", "--config", str(cfg)]) == 0
    _, val_dialogs = split_train_val(load_corpus(corpus),
                                     float(SMALL_KEYS["val_fraction"]), 7)
    val_ids = [d.dialog_id for d in val_dialogs]
    records = [json.loads(line)
               for line in corpus.read_text(encoding="utf-8").splitlines()]
    val_corpus = write_corpus(tmp / "strict_val.jsonl",
                              [r for r in records if r["dialog_id"] in val_ids])
    return out, val_corpus, val_ids


class TestConfigFile:
    def test_every_key_has_a_default(self):
        settings = resolve_settings(None, {})
        assert set(settings) == set(CONFIG_KEYS)
        assert settings["lr"] == 1e-3
        assert settings["variant"] == "full"
        assert settings["attn_width_dialog"] == 5

    def test_defaults_match_the_config_classes(self):
        # a key named after a ModelConfig or TrainConfig field sets it, so
        # it has that field's default and type
        fields = {f.name: f for cls in (ModelConfig, TrainConfig)
                  for f in dataclasses.fields(cls)}
        shared = [key for key in CONFIG_KEYS if key in fields]
        assert {"task_mode", "dropout", "lr", "seed", "grad_clip"} \
            <= set(shared)
        for key in shared:
            converter, default, _ = CONFIG_KEYS[key]
            assert (converter.__name__, default) \
                == (fields[key].type, fields[key].default), key

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md"
                  ).read_text(encoding="utf-8")
        table = readme.split("### Run file keys", 1)[1].split("\n### ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", table, re.M)
        assert [key for key, _ in rows] == list(CONFIG_KEYS)
        for key, cell in rows:
            converter, default, _ = CONFIG_KEYS[key]
            shown = None if cell == "(none)" else converter(cell.strip("`"))
            assert shown == default, key

    def test_file_values_are_typed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.01\nmax_epochs = 7\n# comment\n\nvariant=full\n")
        settings = resolve_settings(cfg, {})
        assert settings["lr"] == 0.01
        assert settings["max_epochs"] == 7
        assert settings["variant"] == "full"

    def test_flag_overrides_beat_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nout_dir = from_file\n")
        settings = resolve_settings(cfg, {"seed": 9, "out_dir": None})
        assert settings["seed"] == 9
        assert settings["out_dir"] == "from_file"

    def test_unknown_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 0.01\n")
        with pytest.raises(CliError) as err:
            parse_config_file(cfg)
        assert err.value.code == 2
        assert "learning_rate" in err.value.message

    def test_duplicate_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(CliError) as err:
            parse_config_file(cfg)
        assert err.value.code == 2
        assert "duplicate" in err.value.message

    def test_line_without_equals_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed\n")
        with pytest.raises(CliError) as err:
            parse_config_file(cfg)
        assert err.value.code == 2

    def test_unparseable_value_names_the_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = fast\n")
        with pytest.raises(CliError) as err:
            resolve_settings(cfg, {})
        assert err.value.code == 2
        assert "lr" in err.value.message

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoint_history_and_report(self, trained):
        assert (trained / "model.ckpt").is_file()
        assert (trained / "history.csv").is_file()
        assert (trained / "report.txt").is_file()
        assert (trained / "report.json").is_file()

    def test_history_has_one_row_per_epoch(self, trained):
        lines = (trained / "history.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + int(SMALL_KEYS["max_epochs"])

    def test_report_counts_match_eval_of_saved_checkpoint(self, workspace,
                                                          tmp_path):
        # put the threshold between an utterance's float64 and float32
        # probabilities, where a report from the float64 parameters and an
        # evaluation of the saved float32 checkpoint disagree
        _, corpus, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus, emb)
        settings = resolve_settings(cfg, {})
        config = cli._model_config(settings)
        table = load_embeddings(emb)
        train_dialogs, val_dialogs = split_train_val(
            load_corpus(corpus), settings["val_fraction"], settings["seed"])
        best, _ = train(config, train_dialogs, val_dialogs, TrainConfig(
            lr=settings["lr"], batch_size=settings["batch_size"],
            max_epochs=settings["max_epochs"], patience=settings["patience"],
            seed=settings["seed"], grad_clip=settings["grad_clip"]), table)
        save_checkpoint(best, tmp_path / "f32.ckpt", config)
        rounded, _ = load_checkpoint(tmp_path / "f32.ckpt")
        pairs = []
        for dialog in val_dialogs:
            by64 = forward_dialog(config, best, dialog, table)
            by32 = forward_dialog(config, rounded, dialog, table)
            for task in config.tasks:
                pairs += list(zip(by64.scores[task].data[:, 0].tolist(),
                                  by32.scores[task].data[:, 0].tolist()))
        threshold = next(max(pair) for pair in pairs if pair[0] != pair[1])

        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", corpus, emb, out_dir=out,
                           threshold=repr(threshold))
        assert main(["train", "--config", str(cfg)]) == 0
        reported = json.loads((out / "report.json").read_text())["tasks"]
        saved, _ = load_checkpoint(out / "model.ckpt")
        matrices, _ = evaluate_split(config, saved, val_dialogs, table,
                                     threshold=threshold)
        for task in config.tasks:
            assert reported[task]["confusion"] == matrices[task].as_dict()

    def test_missing_corpus_key_names_it(self, workspace, tmp_path, capsys):
        _, _, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus=None, embeddings=emb)
        code = main(["train", "--config", str(cfg)])
        assert code == 2
        assert "'corpus'" in capsys.readouterr().err

    def test_missing_embeddings_key_names_it(self, workspace, tmp_path,
                                             capsys):
        _, corpus, _ = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus)
        code = main(["train", "--config", str(cfg)])
        assert code == 2
        assert "'embeddings'" in capsys.readouterr().err

    def test_audio_only_variant_needs_no_embeddings(self, workspace,
                                                    tmp_path):
        _, corpus, _ = workspace
        out = tmp_path / "audio"
        cfg = write_config(tmp_path / "run.cfg", corpus, out_dir=out,
                           variant="LSTM(A)", task_mode="sarcasm")
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "model.ckpt").is_file()

    @pytest.mark.parametrize("variant, tokens, frames", [
        ("LSTM(H-ATN^U)", 1, 3), ("LSTM(H-ATN^A)", 3, 1)])
    def test_single_row_utterances_train(self, tmp_path, variant, tokens,
                                         frames):
        # one-row inputs run no attention level, so that branch's
        # projection gets no gradient from the first batch
        rng = np.random.default_rng(0)
        dialogs = [{"dialog_id": f"d{d}", "utterances": [
            {"id": f"d{d}_u{j}", "speaker": "s0", "tokens": ["kya"] * tokens,
             "sarcasm": j % 2, "humor": d % 2,
             "mfcc": rng.normal(size=(frames, 128)).round(4).tolist()}
            for j in range(3)]} for d in range(4)]
        corpus = write_corpus(tmp_path / "corpus.jsonl", dialogs)
        emb = write_embeddings(tmp_path / "vectors.txt",
                               {"kya": rng.normal(size=12)}, 12)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", corpus, emb, out_dir=out,
                           variant=variant, d_audio=128, batch_size=1)
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "model.ckpt").is_file()
        assert (out / "history.csv").is_file()

    def test_missing_corpus_file_is_a_data_error(self, workspace, tmp_path,
                                                 capsys):
        _, _, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", tmp_path / "absent.jsonl",
                           emb)
        code = main(["train", "--config", str(cfg)])
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_unknown_variant_is_a_config_error(self, workspace, tmp_path,
                                               capsys):
        _, corpus, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus, emb,
                           variant="LSTM(X)")
        code = main(["train", "--config", str(cfg)])
        assert code == 2
        assert "variant" in capsys.readouterr().err

    def test_embedding_width_mismatch_is_a_config_error(self, workspace,
                                                        tmp_path, capsys):
        _, corpus, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus, emb, d_text_in=10)
        code = main(["train", "--config", str(cfg)])
        assert code == 2
        assert "d_text_in" in capsys.readouterr().err

    def test_oversized_split_is_a_data_error(self, workspace, tmp_path):
        _, corpus, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus, emb,
                           val_fraction=0.99)
        assert main(["train", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("kind, exit_code", [
        ("run file", 2), ("corpus", 3), ("embeddings", 3)])
    def test_non_utf8_line_is_named(self, workspace, tmp_path, capsys, kind,
                                    exit_code):
        _, corpus, emb = workspace
        files = {"corpus": tmp_path / corpus.name,
                 "embeddings": tmp_path / emb.name}
        shutil.copy(corpus, files["corpus"])
        shutil.copy(emb, files["embeddings"])
        files["run file"] = write_config(tmp_path / "run.cfg",
                                         files["corpus"], files["embeddings"])
        # the last line: a reader that decodes ahead in chunks would fail
        # lines early
        lines = files[kind].read_bytes().splitlines(keepends=True)
        lines[-1] = b"\xff" + lines[-1]
        files[kind].write_bytes(b"".join(lines))
        assert main(["train", "--config", str(files["run file"])]) \
            == exit_code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{files[kind]}:{len(lines)}: not UTF-8 text" in err

    def test_deeply_nested_corpus_line_is_a_data_error(self, workspace,
                                                       tmp_path, capsys):
        _, corpus, emb = workspace
        lines = corpus.read_text(encoding="utf-8").splitlines()
        depth = 200_000
        lines.insert(1, '{"dialog_id": "deep", "utterances": '
                     + "[" * depth + "]" * depth + "}")
        bad = tmp_path / "deep.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg", bad, emb)
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {bad}:2: JSON nested too deeply\n"

    def test_sidecar_frames_train_the_same_bits(self, workspace, tmp_path):
        _, corpus, emb = workspace
        sidecar = sidecar_copy(corpus, tmp_path / "sidecar")
        runs = {}
        for name, source in (("inline", corpus), ("sidecar", sidecar)):
            runs[name] = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.cfg", source, emb,
                               out_dir=runs[name])
            assert main(["train", "--config", str(cfg), "--seed", "7"]) == 0
        for artifact in ("model.ckpt", "history.csv", "report.txt",
                         "report.json"):
            assert (runs["inline"] / artifact).read_bytes() \
                == (runs["sidecar"] / artifact).read_bytes(), artifact

    def test_non_numeric_sidecar_cell_is_a_data_error(self, workspace,
                                                      tmp_path, capsys):
        _, corpus, emb = workspace
        sidecar = sidecar_copy(corpus, tmp_path / "sidecar")
        frames = sidecar.parent / "d0.d0_u0.csv"
        rows = frames.read_text(encoding="utf-8").splitlines()
        rows[1] = "x," + rows[1].split(",", 1)[1]
        frames.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg", sidecar, emb)
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{frames}:2: " in err and "'x'" in err

    @pytest.mark.parametrize("cell, shown", [("0.5", '"0.5"'),
                                             (True, "true")])
    def test_inline_frame_cell_of_the_wrong_type_is_a_data_error(
            self, workspace, tmp_path, capsys, cell, shown):
        _, corpus, emb = workspace
        lines = corpus.read_text(encoding="utf-8").splitlines()
        dialog = json.loads(lines[2])
        dialog["utterances"][1]["mfcc"][0][3] = cell
        lines[2] = json.dumps(dialog)
        bad = tmp_path / "cells.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg", bad, emb,
                           out_dir=tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: dialog {dialog['dialog_id']!r}, utterance "
                       f"{dialog['utterances'][1]['id']!r}: mfcc cell "
                       f"{shown} is not a number\n")

    @pytest.mark.parametrize("label, shown", [("true", "True"),
                                              ("1.0", "1.0")])
    def test_label_of_the_wrong_type_is_a_data_error(self, workspace,
                                                     tmp_path, capsys, label,
                                                     shown):
        _, corpus, emb = workspace
        lines = corpus.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace('"humor": 0', f'"humor": {label}', 1)
        bad = tmp_path / "labels.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg", bad, emb)
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: dialog 'd1', utterance ")
        assert err.endswith(f": humor must be 0 or 1, got {shown}\n")

    def test_non_finite_embedding_is_a_data_error(self, workspace, tmp_path,
                                                  capsys):
        _, corpus, emb = workspace
        lines = emb.read_text(encoding="utf-8").splitlines()
        token, *values = lines[2].split(" ")
        lines[2] = " ".join([token, "nan", *values[1:]])
        bad = tmp_path / "nan.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg", corpus, bad)
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: {bad}:3: token {token!r} has a non-finite "
                       f"value\n")

    def test_diverging_run_is_a_numeric_error(self, workspace, tmp_path,
                                             capsys):
        _, corpus, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus, emb, lr="1e300")
        assert main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        # the first step leaves parameters near 1e300, so the epoch's
        # validation pass overflows
        assert err.count("\n") == 1
        assert err.startswith("error: non-finite value in validation after "
                              "epoch 1: ")

    @pytest.mark.parametrize("key, value", [
        ("threshold", "nan"), ("threshold", "7"), ("threshold", "-0.1"),
        ("grad_clip", "nan"), ("lr", "nan"), ("lr", "inf"), ("seed", "-1"),
        ("val_fraction", "nan"), ("val_fraction", "0")])
    def test_setting_that_breaks_a_run_is_a_config_error(
            self, workspace, tmp_path, capsys, key, value):
        _, corpus, emb = workspace
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", corpus, emb, out_dir=out,
                           **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("threshold", "1.5"), ("seed", "-1"), ("lr", "nan"),
        ("batch_size", "0")])
    def test_setting_is_checked_before_loading(self, tmp_path, capsys, key,
                                               value):
        cfg = write_config(tmp_path / "run.cfg", tmp_path / "missing.jsonl",
                           **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_run_file_reaches_the_configs(self, workspace, tmp_path,
                                          monkeypatch):
        # every key named after a config field, at a valid non-default value
        values = {"task_mode": "sarcasm", "d_text_in": 12, "d_hidden": 7,
                  "d_audio": 9, "attn_width_tokens": 4,
                  "attn_width_dialog": 3, "dropout": 0.25, "head_hidden": 5,
                  "lr": 0.002, "batch_size": 3, "max_epochs": 4,
                  "patience": 2, "seed": 5, "grad_clip": 2.5,
                  "threshold": 0.3}
        configs = {f.name: cls for cls in (ModelConfig, TrainConfig)
                   for f in dataclasses.fields(cls)}
        assert set(values) == {key for key in CONFIG_KEYS if key in configs}

        class Captured(Exception):
            pass

        def capture(model_config, train_dialogs, val_dialogs, train_config,
                    embeddings):
            raise Captured(model_config, train_config)

        monkeypatch.setattr(cli, "train", capture)
        _, corpus, emb = workspace
        cfg = write_config(tmp_path / "run.cfg", corpus, emb, **values)
        with pytest.raises(Captured) as caught:
            main(["train", "--config", str(cfg)])
        model_config, train_config = caught.value.args
        for key, value in values.items():
            built = model_config if configs[key] is ModelConfig \
                else train_config
            assert value != CONFIG_KEYS[key][1], key
            assert getattr(built, key) == value, key

    def test_threshold_picks_the_history_calls(self, workspace, tmp_path):
        # at a cutoff of 0 every utterance is called positive
        _, corpus, emb = workspace
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", corpus, emb, out_dir=out,
                           threshold="0.0")
        assert main(["train", "--config", str(cfg)]) == 0
        with open(out / "history.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        recalls = [float(value) for row in rows
                   for column, value in row.items()
                   if column.endswith("_recall")]
        assert len(recalls) == 2 * int(SMALL_KEYS["max_epochs"])
        assert set(recalls) == {1.0}

    @pytest.mark.parametrize("by_flag", [False, True])
    def test_out_dir_that_is_a_file_is_checked_before_loading(
            self, tmp_path, capsys, by_flag):
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        extra = {} if by_flag else {"out_dir": taken}
        cfg = write_config(tmp_path / "run.cfg", tmp_path / "missing.jsonl",
                           **extra)
        argv = ["train", "--config", str(cfg)]
        if by_flag:
            argv += ["--out", str(taken)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a directory" in err
        assert ("--out" if by_flag else "'out_dir'") in err
        assert taken.read_text(encoding="utf-8") == "a file\n"


class TestEvalCommand:
    def test_writes_metrics_and_report(self, workspace, trained, tmp_path):
        _, corpus, emb = workspace
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                     "--data", str(corpus), "--embeddings", str(emb),
                     "--out", str(out)])
        assert code == 0
        document = json.loads((out / "metrics.json").read_text())
        assert set(document["tasks"]) == {"sarcasm", "humor"}
        for block in document["tasks"].values():
            assert set(block["confusion"]) == {"tp", "fn", "fp", "tn"}
            assert set(block["metrics"]) == {"precision", "recall", "f1",
                                             "accuracy"}
        assert (out / "report.txt").is_file()
        assert (out / "report.json").is_file()

    def test_eval_of_the_validation_split_repeats_the_train_report(
            self, workspace, strict_run, tmp_path):
        # the checkpoint carries the run's threshold, so eval calls labels
        # at 0.9 as train did, not at 0.5
        _, _, emb = workspace
        run, val_corpus, _ = strict_run
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(val_corpus), "--embeddings", str(emb),
                     "--out", str(out)]) == 0
        document = json.loads((out / "metrics.json").read_text())
        assert document["threshold"] == 0.9
        reported = json.loads((run / "report.json").read_text())["tasks"]
        assert {task: block["confusion"]
                for task, block in document["tasks"].items()} \
            == {task: block["confusion"] for task, block in reported.items()}

    def test_audio_checkpoint_on_text_corpus_is_a_data_error(
            self, tmp_path, capsys):
        config = build_variant("LSTM(A)", task_mode="sarcasm", d_hidden=6,
                               d_audio=8, head_hidden=4, dropout=0.0)
        params = init_parameters(config, np.random.default_rng(0))
        ckpt = tmp_path / "audio.ckpt"
        save_checkpoint(params, ckpt, config)
        text_corpus = masac_shaped_corpus(tmp_path / "text.jsonl",
                                          n_dialogs=3, n_utterances=9,
                                          n_sarcastic=3, n_humorous=4)
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(text_corpus), "--out",
                     str(tmp_path / "out")])
        assert code == 3
        assert "acoustic" in capsys.readouterr().err

    def test_missing_checkpoint_file(self, workspace, tmp_path, capsys):
        absent = tmp_path / "absent.ckpt"
        code, err = self._eval_error(workspace, absent, tmp_path, capsys)
        assert code == 3
        assert err.count(str(absent)) == 1

    def test_corrupt_checkpoint_is_a_data_error(self, workspace, tmp_path):
        _, corpus, emb = workspace
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad), "--data", str(corpus),
                     "--embeddings", str(emb), "--out",
                     str(tmp_path / "out")])
        assert code == 3

    def test_checkpoint_missing_a_parameter_is_a_data_error(
            self, workspace, trained, tmp_path, capsys):
        _, corpus, emb = workspace
        bad = rewrite_checkpoint_header(
            trained / "model.ckpt", tmp_path / "bad.ckpt",
            lambda header: {name: entry for name, entry in header.items()
                            if name != "head_humor.b2"})
        code = main(["eval", "--checkpoint", str(bad), "--data", str(corpus),
                     "--embeddings", str(emb), "--out",
                     str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "head_humor.b2" in err

    def _eval_error(self, workspace, ckpt, tmp_path, capsys):
        _, corpus, emb = workspace
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus),
                     "--embeddings", str(emb), "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        return code, err

    def test_checkpoint_with_a_trailing_byte_is_a_data_error(
            self, workspace, trained, tmp_path, capsys):
        bad = tmp_path / "long.ckpt"
        bad.write_bytes((trained / "model.ckpt").read_bytes() + b"\0")
        code, err = self._eval_error(workspace, bad, tmp_path, capsys)
        assert code == 3
        _, config = load_checkpoint(trained / "model.ckpt")
        last = init_parameters(config, np.random.default_rng(0)).names()[-1]
        assert str(bad) in err and f"'{last}'" in err

    def test_checkpoint_with_shared_offsets_is_a_data_error(
            self, workspace, trained, tmp_path, capsys):
        def overlap(header):
            first, second = [name for name in header if name != "__meta__"][:2]
            header[second]["offset"] = header[first]["offset"]

        bad = rewrite_checkpoint_header(trained / "model.ckpt",
                                        tmp_path / "overlap.ckpt", overlap)
        code, err = self._eval_error(workspace, bad, tmp_path, capsys)
        assert code == 3
        _, config = load_checkpoint(trained / "model.ckpt")
        second = init_parameters(config, np.random.default_rng(0)).names()[1]
        assert str(bad) in err and f"'{second}'" in err

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h.update({"head_sarcasm.b2": {"shape": [1],
                                                 "dtype": "f32"}}),
         "'head_sarcasm.b2'"),
        (lambda h: h["head_sarcasm.b2"].update(offset="x"),
         "'head_sarcasm.b2'"),
        (lambda h: h.update({"head_sarcasm.b2": 5}), "'head_sarcasm.b2'"),
        (lambda h: h["head_sarcasm.b2"].update(shape=None),
         "'head_sarcasm.b2'"),
        (lambda h: h["__meta__"].update(d_hidden="4"), "'d_hidden'"),
        (lambda h: h["__meta__"].update(threshold=1.5), "'threshold'"),
        (lambda h: h["__meta__"].update(threshold="0.5"), "'threshold'"),
        (lambda h: [h], "not a JSON object"),
    ], ids=["no offset", "string offset", "entry not an object",
            "null shape", "string config field", "threshold out of range",
            "string threshold", "list header"])
    def test_malformed_header_is_a_data_error(self, workspace, trained,
                                              tmp_path, capsys, edit, named):
        bad = rewrite_checkpoint_header(trained / "model.ckpt",
                                        tmp_path / "bad.ckpt", edit)
        code, err = self._eval_error(workspace, bad, tmp_path, capsys)
        assert code == 3
        assert err.count(str(bad)) == 1 and named in err

    def test_deeply_nested_header_is_a_data_error(self, workspace, trained,
                                                  tmp_path, capsys):
        raw = (trained / "model.ckpt").read_bytes()
        depth = 100_000
        head = b'{"a": ' * depth + b"{}" + b"}" * depth
        bad = tmp_path / "deep.ckpt"
        # magic, 8-byte header length, header, then the parameters
        bad.write_bytes(raw[:6] + len(head).to_bytes(8, "little") + head
                        + raw[14 + int.from_bytes(raw[6:14], "little"):])
        code, err = self._eval_error(workspace, bad, tmp_path, capsys)
        assert code == 3
        assert err == f"error: {bad}: header nested too deeply\n"

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_is_a_data_error(
            self, workspace, trained, tmp_path, capsys, value):
        raw = bytearray((trained / "model.ckpt").read_bytes())
        # magic, 8-byte header length, header, then the first parameter
        start = 14 + int.from_bytes(raw[6:14], "little")
        raw[start:start + 4] = np.float32(value).tobytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(raw))
        code, err = self._eval_error(workspace, bad, tmp_path, capsys)
        assert code == 3
        _, config = load_checkpoint(trained / "model.ckpt")
        first = init_parameters(config, np.random.default_rng(0)).names()[0]
        assert err.count(str(bad)) == 1 and f"'{first}'" in err

    def test_text_checkpoint_requires_embeddings_flag(self, workspace,
                                                      trained, tmp_path,
                                                      capsys):
        _, corpus, _ = workspace
        code = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                     "--data", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--embeddings" in capsys.readouterr().err

    def test_wrong_width_table_is_a_data_error(self, workspace, trained,
                                               tmp_path):
        from synthdata import write_embeddings
        _, corpus, _ = workspace
        narrow = write_embeddings(tmp_path / "narrow.txt",
                                  {"zing": np.zeros(5)}, 5)
        code = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                     "--data", str(corpus), "--embeddings", str(narrow),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("checkpoint", ["trained", "missing"])
    def test_out_that_is_a_file_is_checked_before_loading(
            self, workspace, trained, tmp_path, capsys, checkpoint):
        _, corpus, emb = workspace
        ckpt = (trained / "model.ckpt" if checkpoint == "trained"
                else tmp_path / "missing.ckpt")
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus),
                     "--embeddings", str(emb), "--out", str(taken)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--out" in err and "not a directory" in err


class TestInspectCommand:
    def test_writes_predictions_and_heatmap(self, workspace, trained,
                                            tmp_path, capsys):
        _, corpus, emb = workspace
        out = tmp_path / "inspect"
        code = main(["inspect", "--checkpoint", str(trained / "model.ckpt"),
                     "--data", str(corpus), "--embeddings", str(emb),
                     "--dialog-id", "d3", "--out", str(out)])
        assert code == 0
        document = json.loads((out / "utterances.json").read_text())
        assert document["dialog_id"] == "d3"
        assert len(document["utterances"]) == 4
        for row in document["utterances"]:
            for task in ("sarcasm", "humor"):
                entry = row["labels"][task]
                assert entry["actual"] in (0, 1)
                assert entry["predicted"] in (0, 1)
                assert 0.0 < entry["probability"] < 1.0
        heatmap = json.loads((out / "heatmap.json").read_text())
        assert heatmap["dialog_id"] == "d3"
        assert len(heatmap["rows"]) == 4
        printed = capsys.readouterr().out
        assert "gold=" in printed and "pred=" in printed

    def test_predictions_use_the_saved_threshold(self, workspace, strict_run,
                                                 tmp_path):
        _, _, emb = workspace
        run, val_corpus, val_ids = strict_run
        out = tmp_path / "inspect"
        assert main(["inspect", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(val_corpus), "--embeddings", str(emb),
                     "--dialog-id", val_ids[0], "--out", str(out)]) == 0
        document = json.loads((out / "utterances.json").read_text())
        calls = [entry for row in document["utterances"]
                 for entry in row["labels"].values()]
        assert all(entry["predicted"] == int(entry["probability"] >= 0.9)
                   for entry in calls)
        # a cutoff of 0.5 would call at least one of these differently
        assert any(0.5 <= entry["probability"] < 0.9 for entry in calls)

    def test_unknown_dialog_id_is_a_data_error(self, workspace, trained,
                                               tmp_path, capsys):
        _, corpus, emb = workspace
        code = main(["inspect", "--checkpoint", str(trained / "model.ckpt"),
                     "--data", str(corpus), "--embeddings", str(emb),
                     "--dialog-id", "d99", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "d99" in capsys.readouterr().err

    def test_variant_without_context_attention_skips_heatmap(
            self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        config = build_variant("LSTM(A)", task_mode="sarcasm", d_hidden=6,
                               d_audio=8, head_hidden=4, dropout=0.0)
        params = init_parameters(config, np.random.default_rng(1))
        ckpt = tmp_path / "audio.ckpt"
        save_checkpoint(params, ckpt, config)
        out = tmp_path / "inspect"
        code = main(["inspect", "--checkpoint", str(ckpt), "--data",
                     str(corpus), "--dialog-id", "d0", "--out", str(out)])
        assert code == 0
        assert (out / "utterances.json").is_file()
        assert not (out / "heatmap.json").exists()
        assert "no attention heatmap" in capsys.readouterr().out

    @pytest.mark.parametrize("checkpoint", ["trained", "missing"])
    def test_out_below_a_file_is_checked_before_loading(
            self, workspace, trained, tmp_path, capsys, checkpoint):
        _, corpus, emb = workspace
        ckpt = (trained / "model.ckpt" if checkpoint == "trained"
                else tmp_path / "missing.ckpt")
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        code = main(["inspect", "--checkpoint", str(ckpt), "--data",
                     str(corpus), "--embeddings", str(emb), "--dialog-id",
                     "d3", "--out", str(taken / "sub")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--out" in err and f"{taken} is not a directory" in err


class TestVerifyCommand:
    """The command on the clean build (the session's run, conftest.py), and
    on one check failing under a planted fault."""

    def test_pristine_build_passes_with_named_listing(self, pristine):
        assert pristine["code"] == 0
        printed = pristine["listing"]
        for name in ("gradients.elementwise", "gradients.model",
                     "structure.hier_levels", "determinism.training"):
            assert f"ok    {name}" in printed
        assert "all passed" in printed

    def test_injected_gradient_bug_exits_5_naming_the_op(self, monkeypatch,
                                                         capsys):
        broken_tanh(monkeypatch)
        results = run_alone("gradients.elementwise")
        monkeypatch.setattr(cli, "run_checks", lambda: results)
        assert main(["verify"]) == 5
        printed = capsys.readouterr().out
        assert "FAIL  gradients.elementwise" in printed
        assert "tanh.x" in printed
        assert printed.endswith("1 checks, 1 failed: gradients.elementwise\n")


class TestConsoleScript:
    """The entry point run as a separate process, as a user would run it."""

    # the directory that holds the banter package, so the child process
    # imports this checkout whatever its working directory is
    SRC = Path(banter.__file__).resolve().parents[1]

    def run_entry(self, argv):
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.SRC)] + ([inherited] if inherited else []))
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=60, env=env)

    def assert_train_help(self, proc):
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: banter train")
        assert "config file keys" in proc.stdout
        assert "val_fraction" in proc.stdout

    def test_entry_point_prints_config_keys(self):
        proc = self.run_entry([sys.executable, "-m", "banter", "train",
                               "--help"])
        self.assert_train_help(proc)

    def test_installed_script_matches_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = self.SRC.parent / "pyproject.toml"
        with pyproject.open("rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts["banter"] == "banter.cli:console_main"
        assert banter.__main__.console_main is cli.console_main

    @pytest.mark.skipif(shutil.which("banter") is None,
                        reason="no installed banter console script on PATH")
    def test_installed_script_prints_config_keys(self):
        proc = self.run_entry(["banter", "train", "--help"])
        self.assert_train_help(proc)

"""Trainer determinism, early stopping, descent, and split evaluation."""

import csv

import numpy as np
import pytest

from synthdata import marker_corpus
from banter.data import load_corpus, load_embeddings
from banter.metrics import compute_metrics
from banter.model import ModelConfig, build_variant, init_parameters
from banter.optim import AdamState, adam_step, clip_gradients
from banter.tensor import NumericError, Tape, backward
from banter.train import (
    EpochRecord,
    TrainConfig,
    TrainHistory,
    _batch_loss,
    evaluate_split,
    macro_f1,
    train,
)
from test_model import toy_config, toy_dialog, toy_table


@pytest.fixture(scope="module")
def marker_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("marker")
    corpus_path, emb_path = marker_corpus(tmp, n_dialogs=8,
                                          utterances_per_dialog=4,
                                          emb_dim=12, seed=0)
    return load_corpus(corpus_path), load_embeddings(emb_path)


def tiny_text_config(**kw):
    base = dict(modality="text", text_repr="mean", audio_repr="conv",
                use_context_attn=False, use_filter=False, task_mode="joint",
                d_text_in=12, d_hidden=6, head_hidden=4, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.batch_size, cfg.max_epochs,
                cfg.patience, cfg.grad_clip) == (1e-3, 32, 100, 10, 5.0)

    def test_zero_lr_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=-1e-3)

    def test_patience_capped_by_max_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=11, max_epochs=10)

    def test_positive_counts_required(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="grad_clip"):
            TrainConfig(grad_clip=0.0)


def fake_history(n_epochs: int) -> TrainHistory:
    history = TrainHistory(tasks=("sarcasm",))
    for epoch in range(1, n_epochs + 1):
        metrics = compute_metrics_from_counts(tp=epoch, fn=1, fp=2, tn=3)
        history.append(EpochRecord(epoch=epoch, train_loss=1.0 / epoch,
                                   val_metrics={"sarcasm": metrics},
                                   wall_seconds=0.5))
    return history


def compute_metrics_from_counts(**counts):
    from banter.metrics import ConfusionMatrix
    return compute_metrics(ConfusionMatrix(**counts))


class TestTrainHistory:
    def test_epochs_must_be_contiguous(self):
        history = fake_history(2)
        record = history.records[0]
        with pytest.raises(ValueError, match="contiguous"):
            history.append(EpochRecord(epoch=7, train_loss=0.1,
                                       val_metrics=record.val_metrics,
                                       wall_seconds=0.0))

    def test_rows_carry_metrics_not_wall_time(self):
        rows = fake_history(3).rows()
        assert [row["epoch"] for row in rows] == [1, 2, 3]
        assert "val_sarcasm_f1" in rows[0]
        assert all("wall" not in key for row in rows for key in row)

    def test_csv_round_trips_exactly(self, tmp_path):
        history = fake_history(3)
        path = tmp_path / "history.csv"
        history.to_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 3
        for row, expected in zip(parsed, history.rows()):
            assert int(row["epoch"]) == expected["epoch"]
            for key, value in expected.items():
                if key == "epoch":
                    continue
                assert float(row[key]) == value
        assert "wall_seconds" not in parsed[0]


class TestEvaluateSplit:
    def test_zero_threshold_predicts_all_positive(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        params = init_parameters(cfg, np.random.default_rng(0))
        matrices, metrics = evaluate_split(cfg, params, dialogs, table,
                                           threshold=0.0)
        for task in cfg.tasks:
            m = matrices[task]
            assert m.fn == 0 and m.tn == 0
            assert metrics[task].recall == 1.0
            assert metrics[task].precision == (m.tp / m.total)

    def test_unit_threshold_predicts_all_negative(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        params = init_parameters(cfg, np.random.default_rng(0))
        matrices, metrics = evaluate_split(cfg, params, dialogs, table,
                                           threshold=1.0)
        for task in cfg.tasks:
            m = matrices[task]
            assert m.tp == 0 and m.fp == 0
            assert metrics[task].recall == 0.0
            assert metrics[task].accuracy == (m.tn / m.total)

    def test_labels_matching_predictions_score_perfectly(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        params = init_parameters(cfg, np.random.default_rng(5))
        from banter.model import forward_dialog
        for dialog in dialogs:
            pred = forward_dialog(cfg, params, dialog, table)
            for task in cfg.tasks:
                for utt, prob in zip(dialog.utterances,
                                     pred.scores[task].data[:, 0]):
                    setattr(utt, task, 1 if float(prob) >= 0.5 else 0)
        matrices, metrics = evaluate_split(cfg, params, dialogs, table)
        for task in cfg.tasks:
            # the fixture must stay mixed for F1=1.0 to be meaningful
            assert matrices[task].tp >= 1
            assert metrics[task] == compute_metrics(matrices[task])
            assert metrics[task].f1 == 1.0
            assert metrics[task].accuracy == 1.0

    def test_empty_split_rejected(self, marker_data):
        _, table = marker_data
        cfg = tiny_text_config()
        with pytest.raises(ValueError, match="at least one"):
            evaluate_split(cfg, init_parameters(cfg, np.random.default_rng(0)),
                           [], table)


class TestTraining:
    def test_same_seed_runs_are_identical(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config(dropout=0.3)
        tc = TrainConfig(lr=1e-3, batch_size=3, max_epochs=3, patience=3,
                         seed=11)
        best_a, hist_a = train(cfg, dialogs, dialogs, tc, table)
        best_b, hist_b = train(cfg, dialogs, dialogs, tc, table)
        losses_a = [r.train_loss for r in hist_a.records]
        losses_b = [r.train_loss for r in hist_b.records]
        assert losses_a == losses_b
        assert hist_a.rows() == hist_b.rows()
        for name, tensor in best_a.items():
            np.testing.assert_array_equal(tensor.data, best_b[name].data)

    def test_zero_lr_leaves_parameters_at_init(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        tc = TrainConfig(lr=0.0, max_epochs=2, patience=2, seed=4)
        best, history = train(cfg, dialogs, dialogs, tc, table)
        fresh = init_parameters(cfg, np.random.default_rng(4))
        assert len(history) == 2
        for name, tensor in fresh.items():
            np.testing.assert_array_equal(best[name].data, tensor.data)

    def test_early_stopping_after_flat_patience(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        # frozen parameters: epoch 1 improves on -inf, then 3 stale epochs
        tc = TrainConfig(lr=0.0, max_epochs=20, patience=3, seed=4)
        _, history = train(cfg, dialogs, dialogs, tc, table)
        assert len(history) == 4

    def test_improvement_resets_patience(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        tc = TrainConfig(lr=3e-3, batch_size=8, max_epochs=40, patience=6,
                         seed=2)
        _, history = train(cfg, dialogs, dialogs, tc, table)
        scores = [macro_f1(r.val_metrics) for r in history.records]
        if len(history) < 40:
            # stopped early: the last patience-long tail never beats the best
            best_before = max(scores[:-6])
            assert all(s <= best_before for s in scores[-6:])

    def test_non_finite_loss_names_the_batch(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        params = init_parameters(cfg, np.random.default_rng(0))
        params["head_sarcasm.w1"].data[0, 0] = np.nan
        tc = TrainConfig(lr=1e-3, batch_size=4, max_epochs=1, patience=1,
                         seed=0)
        with pytest.raises(NumericError, match="epoch 1, batch 1"):
            train(cfg, dialogs, dialogs, tc, table, initial_params=params)

    def test_single_step_descends_in_19_of_20_trials(self):
        cfg = toy_config(dropout=0.0)
        table = toy_table(cfg.d_text_in)
        descents = 0
        for trial in range(20):
            dialogs = [toy_dialog(n_utts=3, seed=100 + trial),
                       toy_dialog(n_utts=2, seed=200 + trial)]
            dialogs[1].dialog_id = "d2"
            params = init_parameters(cfg, np.random.default_rng(trial))
            named = params.as_dict()
            before = float(_batch_loss(cfg, params, dialogs, table,
                                       training=False, rng=None).data)
            adam = AdamState(lr=1e-4)
            with Tape():
                loss = _batch_loss(cfg, params, dialogs, table,
                                   training=False, rng=None)
                backward(loss)
            clip_gradients(named, 5.0)
            adam_step(adam, named)
            after = float(_batch_loss(cfg, params, dialogs, table,
                                      training=False, rng=None).data)
            descents += after < before
        assert descents >= 19

    def test_overfits_marker_corpus(self, marker_data):
        dialogs, table = marker_data
        cfg = build_variant("full", task_mode="joint", d_text_in=12,
                            d_hidden=16, d_audio=16, head_hidden=16,
                            dropout=0.1)
        tc = TrainConfig(lr=3e-3, batch_size=8, max_epochs=80, patience=80,
                         seed=1)
        best, history = train(cfg, dialogs, dialogs, tc, table)
        _, metrics = evaluate_split(cfg, best, dialogs, table)
        assert macro_f1(metrics) >= 0.99
        assert len(history) <= 80

    def test_text_config_requires_embeddings(self, marker_data):
        dialogs, _ = marker_data
        with pytest.raises(ValueError, match="embedding"):
            train(tiny_text_config(), dialogs, dialogs, TrainConfig())

    def test_empty_split_rejected(self, marker_data):
        dialogs, table = marker_data
        with pytest.raises(ValueError, match="non-empty"):
            train(tiny_text_config(), [], dialogs, TrainConfig(), table)

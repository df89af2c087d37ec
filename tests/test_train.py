"""Trainer determinism, early stopping, descent, and split evaluation."""

import csv

import numpy as np
import pytest

from synthdata import marker_corpus
from banter import train as train_module
from banter.data import load_corpus, load_embeddings
from banter.metrics import compute_metrics
from banter.model import (
    ModelConfig,
    build_variant,
    forward_dialog,
    init_parameters,
)
from banter.optim import AdamState, adam_step, clip_gradients
from banter.tensor import NumericError, Tape, active_tape, add, backward, scale
from banter.train import (
    EpochRecord,
    TrainConfig,
    TrainHistory,
    dialog_loss,
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


def mean_loss(cfg, params, dialogs, table, grad=False) -> float:
    """The batch loss ``train`` reports: the per-utterance mean over
    ``dialogs``. With ``grad``, each dialog runs backward on its own tape,
    on its loss scaled by ``1 / utterances``, as a training step does."""
    utterances = sum(len(d.utterances) for d in dialogs)
    total = 0.0
    for dialog in dialogs:
        with Tape():
            pred = forward_dialog(cfg, params, dialog, table, training=False)
            loss = scale(dialog_loss(pred, dialog, cfg.tasks),
                         1.0 / utterances)
            if grad:
                backward(loss)
        total += float(loss.data)
    return total


def three_full_dialogs():
    cfg = build_variant("full", task_mode="joint", d_text_in=6, d_hidden=5,
                        d_audio=4, head_hidden=4, dropout=0.0)
    dialogs = [toy_dialog(n_utts=n, seed=30 + n) for n in (3, 4, 2)]
    for k, dialog in enumerate(dialogs):
        dialog.dialog_id = f"d{k + 1}"
    return cfg, dialogs, toy_table(cfg.d_text_in)


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

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

    def test_grad_clip_must_be_above_zero(self):
        # NaN fails every comparison, so it would switch clipping off
        with pytest.raises(ValueError, match="grad_clip"):
            TrainConfig(grad_clip=float("nan"))
        assert TrainConfig(grad_clip=float("inf")).grad_clip == float("inf")

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
        matrices, metrics = evaluate_split(cfg, params, dialogs, table,
                                           threshold=cfg.threshold)
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
                           [], table, threshold=cfg.threshold)


class TestTraining:
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
        with pytest.raises(NumericError, match="epoch 1, batch 1") as err:
            train(cfg, dialogs, dialogs, tc, table, initial_params=params)
        named = [d.dialog_id for d in dialogs
                 if f"dialog {d.dialog_id}:" in str(err.value)]
        assert len(named) == 1

    def test_non_finite_gradient_names_the_whole_batch(self, marker_data,
                                                       monkeypatch):
        dialogs, table = marker_data
        cfg = tiny_text_config()

        def poison(named, max_norm):
            named["head_sarcasm.w1"].grad[0, 0] = np.nan
            return clip_gradients(named, max_norm)

        monkeypatch.setattr(train_module, "clip_gradients", poison)
        tc = TrainConfig(lr=1e-3, batch_size=4, max_epochs=1, patience=1,
                         seed=0)
        with pytest.raises(NumericError, match="non-finite gradient in "
                           "epoch 1, batch 1, dialogs ") as err:
            train(cfg, dialogs, dialogs, tc, table)
        ids = str(err.value).split("dialogs ", 1)[1].split(":", 1)[0]
        named = ids.split(", ")
        assert len(set(named)) == 4
        assert set(named) <= {d.dialog_id for d in dialogs}

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
            before = mean_loss(cfg, params, dialogs, table)
            adam = AdamState(lr=1e-4)
            mean_loss(cfg, params, dialogs, table, grad=True)
            clip_gradients(named, 5.0)
            adam_step(adam, named)
            after = mean_loss(cfg, params, dialogs, table)
            descents += after < before
        assert descents >= 19

    def test_dialog_gradients_sum_to_the_batch_gradient(self, monkeypatch):
        cfg, dialogs, table = three_full_dialogs()
        params = init_parameters(cfg, np.random.default_rng(3))
        utterances = sum(len(d.utterances) for d in dialogs)
        # the reference: every dialog on one tape, one backward on the mean
        reference = train_module._snapshot(params)
        summed = train_module._snapshot(params)
        with Tape():
            total = None
            for dialog in dialogs:
                pred = forward_dialog(cfg, reference, dialog, table)
                term = dialog_loss(pred, dialog, cfg.tasks)
                total = term if total is None else add(total, term)
            backward(scale(total, 1.0 / utterances))

        seen = {}
        order = []

        def capture(named, max_norm):
            seen.update((name, p.grad.copy()) for name, p in named.items())
            return 0.0

        def forward_spy(config, params, dialog, *args, **kwargs):
            order.append(dialog)
            return forward_dialog(config, params, dialog, *args, **kwargs)

        monkeypatch.setattr(train_module, "clip_gradients", capture)
        monkeypatch.setattr(train_module, "forward_dialog", forward_spy)
        tc = TrainConfig(lr=1e-3, batch_size=3, max_epochs=1, patience=1)
        train(cfg, dialogs, dialogs, tc, table, initial_params=params)
        assert seen.keys() == dict(reference.items()).keys()
        # and bit for bit the sum of each dialog's own backward pass, added
        # in the order train() ran them
        mean_loss(cfg, summed, order[:len(dialogs)], table, grad=True)
        for name, tensor in reference.items():
            largest = np.abs(tensor.grad).max()
            assert largest > 0.0, name
            np.testing.assert_allclose(seen[name], tensor.grad, rtol=0.0,
                                       atol=1e-12 * largest, err_msg=name)
            np.testing.assert_array_equal(seen[name], summed[name].grad,
                                          err_msg=name)

    def test_each_backward_sees_one_dialog(self, monkeypatch):
        cfg, dialogs, table = three_full_dialogs()
        # tape length of each dialog's loss on a tape of its own
        params = init_parameters(cfg, np.random.default_rng(3))
        alone = {}
        for dialog in dialogs:
            with Tape() as tape:
                pred = forward_dialog(cfg, params, dialog, table)
                scale(dialog_loss(pred, dialog, cfg.tasks), 0.5)
            alone[dialog.dialog_id] = len(tape)

        forwarded = {}
        calls = []

        def forward_spy(config, params, dialog, *args, **kwargs):
            forwarded.setdefault(id(active_tape()), []).append(
                dialog.dialog_id)
            return forward_dialog(config, params, dialog, *args, **kwargs)

        def backward_spy(loss):
            tape = active_tape()
            calls.append((forwarded.pop(id(tape)), len(tape)))
            backward(loss)

        monkeypatch.setattr(train_module, "forward_dialog", forward_spy)
        monkeypatch.setattr(train_module, "backward", backward_spy)
        tc = TrainConfig(lr=1e-3, batch_size=3, max_epochs=2, patience=2)
        train(cfg, dialogs, dialogs, tc, table, initial_params=params)
        assert len(calls) == 2 * len(dialogs)
        for ids, length in calls:
            assert len(ids) == 1
            assert length == alone[ids[0]]

    def test_stale_gradients_do_not_leak(self, marker_data):
        dialogs, table = marker_data
        cfg = tiny_text_config()
        tc = TrainConfig(lr=1e-2, batch_size=4, max_epochs=2, patience=2,
                         seed=6)
        clean = init_parameters(cfg, np.random.default_rng(9))
        stale = train_module._snapshot(clean)
        for tensor in stale.as_dict().values():
            tensor.grad = np.full_like(tensor.data, 100.0)
        best_a, hist_a = train(cfg, dialogs, dialogs, tc, table,
                               initial_params=clean)
        best_b, hist_b = train(cfg, dialogs, dialogs, tc, table,
                               initial_params=stale)
        assert hist_a.rows() == hist_b.rows()
        for name, tensor in best_a.items():
            np.testing.assert_array_equal(tensor.data, best_b[name].data)

    def test_returns_with_no_gradient_buffers(self, marker_data):
        # a zeroed buffer per parameter would be one more copy of the
        # parameters while the caller scores
        dialogs, table = marker_data
        cfg = tiny_text_config()
        params = init_parameters(cfg, np.random.default_rng(9))
        tc = TrainConfig(lr=1e-2, batch_size=4, max_epochs=2, patience=2,
                         seed=6)
        best, _ = train(cfg, dialogs, dialogs, tc, table,
                        initial_params=params)
        for name, tensor in [*params.items(), *best.items()]:
            assert tensor.grad is None, name

    def test_text_config_requires_embeddings(self, marker_data):
        dialogs, _ = marker_data
        with pytest.raises(ValueError, match="embedding"):
            train(tiny_text_config(), dialogs, dialogs, TrainConfig())

    def test_empty_split_rejected(self, marker_data):
        dialogs, table = marker_data
        with pytest.raises(ValueError, match="non-empty"):
            train(tiny_text_config(), [], dialogs, TrainConfig(), table)

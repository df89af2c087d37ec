"""Mini-batch training with Adam, validation early stopping, seeded runs.

A batch is a set of dialogs; the batch loss is the mean over its utterances
of the per-utterance cross-entropy, with active tasks summed. Each dialog
runs forward and backward on its own tape, on its loss divided by the
batch's utterance count, and the parameters sum the dialogs' gradients;
clipping and Adam then run once per batch. So a step holds one dialog's
activations at a time. All randomness (parameter init, batch order,
dropout) flows from the single seed, so a run is a pure function of
(corpus, configs, seed).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dialog, EmbeddingTable, write_file
from .metrics import ConfusionMatrix, Metrics, compute_metrics, confusion
from .model import (
    ConfigError,
    DialogPrediction,
    ModelConfig,
    ParameterSet,
    forward_dialog,
    init_parameters,
)
from .optim import AdamState, adam_step, clip_gradients
from .tensor import NumericError, Tape, Tensor, add, backward, bce_loss, scale

CSV_METRIC_COLUMNS = ("precision", "recall", "f1", "accuracy")


@dataclass
class TrainConfig:
    """Optimization knobs; lr=0 is legal (a no-op run)."""

    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    grad_clip: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.lr < float("inf"):
            raise ConfigError(f"'lr' must be finite and non-negative, "
                              f"got {self.lr}")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"'{name}' must be positive, "
                                  f"got {getattr(self, name)}")
        if self.patience > self.max_epochs:
            raise ConfigError(f"'patience' {self.patience} exceeds "
                              f"'max_epochs' {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"'seed' must be non-negative, got {self.seed}")
        if not self.grad_clip > 0.0:  # NaN would switch clipping off
            raise ConfigError(f"'grad_clip' must be positive, "
                              f"got {self.grad_clip}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metrics: dict[str, Metrics]
    wall_seconds: float


@dataclass
class TrainHistory:
    """Per-epoch records; epochs are contiguous from 1.

    Wall time stays in memory only: exported rows and CSVs must be
    byte-identical across reruns of the same seed.
    """

    tasks: tuple[str, ...]
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: EpochRecord) -> None:
        expected = len(self.records) + 1
        if record.epoch != expected:
            raise ValueError(f"epochs must be contiguous: got {record.epoch}, "
                             f"expected {expected}")
        self.records.append(record)

    def rows(self) -> list[dict]:
        out = []
        for record in self.records:
            row: dict = {"epoch": record.epoch,
                         "train_loss": record.train_loss}
            for task in self.tasks:
                m = record.val_metrics[task]
                for name in CSV_METRIC_COLUMNS:
                    row[f"val_{task}_{name}"] = getattr(m, name)
            out.append(row)
        return out

    def to_csv(self, path) -> None:
        columns = ["epoch", "train_loss"] + [
            f"val_{task}_{name}"
            for task in self.tasks for name in CSV_METRIC_COLUMNS
        ]
        text = io.StringIO(newline="")
        writer = csv.DictWriter(text, fieldnames=columns)
        writer.writeheader()
        writer.writerows(self.rows())
        write_file(path, text.getvalue())


def macro_f1(metrics: dict[str, Metrics]) -> float:
    return sum(m.f1 for m in metrics.values()) / len(metrics)


def evaluate_split(config: ModelConfig, params: ParameterSet,
                   dialogs: list[Dialog],
                   embeddings: EmbeddingTable | None = None, *,
                   threshold: float,
                   ) -> tuple[dict[str, ConfusionMatrix], dict[str, Metrics]]:
    """Threshold per-utterance probabilities and score every active task."""
    if len(dialogs) == 0:
        raise ValueError("evaluate_split needs at least one dialog")
    preds: dict[str, list[int]] = {task: [] for task in config.tasks}
    golds: dict[str, list[int]] = {task: [] for task in config.tasks}
    for dialog in dialogs:
        prediction = forward_dialog(config, params, dialog, embeddings,
                                    training=False)
        for task in config.tasks:
            preds[task].extend(
                1 if float(p) >= threshold else 0
                for p in prediction.scores[task].data[:, 0])
            golds[task].extend(getattr(utt, task)
                               for utt in dialog.utterances)
    matrices = {task: confusion(preds[task], golds[task])
                for task in config.tasks}
    return matrices, {task: compute_metrics(matrix)
                      for task, matrix in matrices.items()}


def _snapshot(params: ParameterSet) -> ParameterSet:
    copy = ParameterSet()
    for name, tensor in params.items():
        copy.register(name, Tensor(tensor.data.copy(), requires_grad=True))
    return copy


def dialog_loss(prediction: DialogPrediction, dialog: Dialog,
                tasks) -> Tensor:
    """Summed cross-entropy of a dialog's utterances over ``tasks``: one
    ``bce_loss`` node per task, on that task's (n, 1) scores."""
    total = None
    for task in tasks:
        term = bce_loss(prediction.scores[task],
                        [getattr(utt, task) for utt in dialog.utterances])
        total = term if total is None else add(total, term)
    return total


def train(model_config: ModelConfig, train_dialogs: list[Dialog],
          val_dialogs: list[Dialog], train_config: TrainConfig,
          embeddings: EmbeddingTable | None = None,
          initial_params: ParameterSet | None = None,
          ) -> tuple[ParameterSet, TrainHistory]:
    """Optimize on the train split; keep the best validation-F1 parameters.

    The monitored score is the validation F1 of the positive class at
    ``model_config.threshold``, macro averaged over active tasks. Training
    stops early once it fails to improve for ``patience`` consecutive
    epochs. Returns the best parameter snapshot and the full epoch history.
    """
    if len(train_dialogs) == 0 or len(val_dialogs) == 0:
        raise ValueError("train needs non-empty train and validation splits")

    rng = np.random.default_rng(train_config.seed)
    params = (initial_params if initial_params is not None
              else init_parameters(model_config, rng))
    named = params.as_dict()
    # a caller's stale gradients are not summed into the first step
    for tensor in named.values():
        tensor.grad = None
    adam = AdamState(lr=train_config.lr)
    history = TrainHistory(tasks=model_config.tasks)
    # epoch 1 always improves on -inf, so the first epoch sets the snapshot
    best_params: ParameterSet | None = None
    best_score = float("-inf")
    stale = 0

    for epoch in range(1, train_config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_dialogs))
        loss_sum = 0.0
        utterances = 0
        for start in range(0, len(order), train_config.batch_size):
            batch = [train_dialogs[k]
                     for k in order[start:start + train_config.batch_size]]
            ordinal = start // train_config.batch_size + 1
            where = f"epoch {epoch}, batch {ordinal}"
            batch_utts = sum(len(d.utterances) for d in batch)
            for dialog in batch:
                try:
                    with Tape():
                        prediction = forward_dialog(
                            model_config, params, dialog, embeddings,
                            training=True, rng=rng)
                        loss = dialog_loss(prediction, dialog,
                                           model_config.tasks)
                        backward(scale(loss, 1.0 / batch_utts))
                except NumericError as exc:
                    raise NumericError(f"non-finite value in {where}, dialog "
                                       f"{dialog.dialog_id}: {exc}") from None
                loss_sum += float(loss.data)
            try:
                clip_gradients(named, train_config.grad_clip)
                adam_step(adam, named)
            except NumericError as exc:
                ids = ", ".join(d.dialog_id for d in batch)
                raise NumericError(f"non-finite gradient in {where}, dialogs "
                                   f"{ids}: {exc}") from None
            utterances += batch_utts

        try:
            _, val_metrics = evaluate_split(
                model_config, params, val_dialogs, embeddings,
                threshold=model_config.threshold)
        except NumericError as exc:
            raise NumericError(f"non-finite value in validation after epoch "
                               f"{epoch}: {exc}") from None
        history.append(EpochRecord(
            epoch=epoch, train_loss=loss_sum / utterances,
            val_metrics=val_metrics,
            wall_seconds=time.perf_counter() - started))
        score = macro_f1(val_metrics)
        if score > best_score:
            best_score = score
            best_params = _snapshot(params)
            stale = 0
        else:
            stale += 1
            if stale >= train_config.patience:
                break
    return best_params, history

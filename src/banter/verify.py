"""Built-in verification suite: named gradient, property, and oracle checks.

Each check is small enough to run at install time; the whole suite stays
well under a minute. Checks call activation and arithmetic ops through the
tensor module object, so a deliberately broken op (a mutation fixture in
the tests) is caught here and named in the failure listing.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor
from .context_attention import contextualize_dialog
from .data import MFCC_COLUMNS, Dialog, EmbeddingTable, UtteranceRecord
from .encoders import init_acoustic, init_lstm, lstm_encode_dialog
from .fusion import filter_modality, init_filter_gate
from .gradcheck import grad_check
from .hier_attention import hier_attend, init_projection, level_count
from .metrics import ConfusionMatrix, compute_metrics, confusion
from .model import (
    ModelConfig,
    init_parameters,
    forward_dialog,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import Tensor
from .train import TrainConfig, train


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _signed_away_from_zero(rng, shape, low=0.3, high=1.2):
    magnitude = rng.uniform(low, high, size=shape)
    return magnitude * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _require_gradients(f, params, context: str) -> None:
    report = grad_check(f, params, h=1e-5, tol=1e-4)
    if not report.passed:
        raise AssertionError(f"{context}: {report.summary()}")


def check_elementwise_gradients() -> None:
    rng = np.random.default_rng(0)
    params = {
        "tanh.x": Tensor(rng.normal(size=4), requires_grad=True),
        "sigmoid.x": Tensor(rng.normal(size=4), requires_grad=True),
        "relu.x": Tensor(_signed_away_from_zero(rng, 4), requires_grad=True),
        "mul.a": Tensor(rng.normal(size=3), requires_grad=True),
        "mul.b": Tensor(rng.normal(size=3), requires_grad=True),
    }

    def f(p):
        terms = [
            tensor.sum_all(tensor.tanh(p["tanh.x"])),
            tensor.sum_all(tensor.sigmoid(p["sigmoid.x"])),
            tensor.sum_all(tensor.relu(p["relu.x"])),
            tensor.sum_all(tensor.mul(p["mul.a"], p["mul.b"])),
        ]
        total = terms[0]
        for term in terms[1:]:
            total = tensor.add(total, term)
        return total

    _require_gradients(f, params, "elementwise ops")


def check_linear_gradients() -> None:
    rng = np.random.default_rng(1)
    params = {
        "concat.a": Tensor(rng.normal(size=2), requires_grad=True),
        "concat.b": Tensor(rng.normal(size=3), requires_grad=True),
        "mean_rows.x": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
        "affine_rows.x": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "affine_rows.w": Tensor(rng.normal(size=(2, 4)), requires_grad=True),
        "affine_rows.b": Tensor(rng.normal(size=2), requires_grad=True),
        "sum_axis.x": Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True),
        "reshape.x": Tensor(rng.normal(size=(1, 3)), requires_grad=True),
        "affine_rowwise.x": Tensor(rng.normal(size=(3, 4)),
                                   requires_grad=True),
        "affine_rowwise.w": Tensor(rng.normal(size=(2, 4)),
                                   requires_grad=True),
        "affine_rowwise.b": Tensor(rng.normal(size=2), requires_grad=True),
        "stack.a": Tensor(rng.normal(size=2), requires_grad=True),
        "stack.b": Tensor(rng.normal(size=2), requires_grad=True),
    }

    def f(p):
        joined = tensor.concat([p["concat.a"], p["concat.b"]], axis=0)
        mapped = tensor.affine_rows(p["affine_rows.x"], p["affine_rows.w"],
                                    p["affine_rows.b"])
        summed = tensor.sum_axis(p["sum_axis.x"], 1)
        flat = tensor.reshape(p["reshape.x"], (3,))
        rows = tensor.unstack(tensor.affine_rowwise(
            p["affine_rowwise.x"], p["affine_rowwise.w"],
            p["affine_rowwise.b"]))
        stacked = tensor.stack([p["stack.a"], p["stack.b"]])
        terms = [
            tensor.sum_all(tensor.sigmoid(joined)),
            tensor.sum_all(tensor.mean_rows(p["mean_rows.x"])),
            tensor.sum_all(tensor.tanh(mapped)),
            tensor.sum_all(tensor.tanh(summed)),
            tensor.sum_all(tensor.sigmoid(flat)),
            tensor.sum_all(tensor.mul(rows[0], tensor.tanh(rows[2]))),
            tensor.sum_all(tensor.tanh(stacked)),
        ]
        total = terms[0]
        for term in terms[1:]:
            total = tensor.add(total, term)
        return total

    _require_gradients(f, params, "concat/mean/affine/sum/reshape/"
                                  "stack/unstack")


def check_softmax_gradients() -> None:
    rng = np.random.default_rng(2)
    params = {f"window_attend.h{k}": Tensor(rng.normal(size=(4, 3)),
                                            requires_grad=True)
              for k in range(2)}

    params["sliding_windows.x"] = Tensor(rng.normal(size=(5, 3)),
                                         requires_grad=True)

    def f(p):
        # the cross-modal dialog attention: two blocks, window 3 over 4 rows
        mixed, _ = tensor.window_attend([p["window_attend.h0"],
                                         p["window_attend.h1"]], 3)
        # one whole attention level: windows weighted by their softmax
        windows = tensor.sliding_windows(p["sliding_windows.x"], 3)
        level = tensor.mul(tensor.softmax(windows, axis=1), windows)
        return tensor.add(tensor.sum_all(tensor.tanh(mixed)),
                          tensor.sum_all(tensor.tanh(level)))

    _require_gradients(f, params, "windowed dialog attention/windowed softmax")


def check_lstm_gradients() -> None:
    rng = np.random.default_rng(3)
    lstm = init_lstm(3, 4, rng)
    for n in (1, 2, 5):
        inputs = {f"lstm.x{t}": Tensor(rng.normal(size=3), requires_grad=True)
                  for t in range(n)}
        # every step's h enters the loss, so both carries are exercised
        step_weights = Tensor(rng.normal(size=(n, 4)))

        def f(p):
            hiddens = lstm_encode_dialog(lstm, list(inputs.values()))
            return tensor.sum_all(tensor.mul(hiddens, step_weights))

        _require_gradients(f, {**lstm.named("lstm"), **inputs},
                           f"lstm over {n} steps")


def check_conv_gradients() -> None:
    rng = np.random.default_rng(4)
    encoder = init_acoustic(3, 6, rng)
    frames = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    params = {"conv.frames": frames, **encoder.named("conv")}

    def f(p):
        out = tensor.conv1d_same(p["conv.frames"], encoder.kernels,
                                 encoder.bias)
        return tensor.sum_all(tensor.tanh(out))

    _require_gradients(f, params, "frame convolution")


def _tiny_model_fixture():
    config = ModelConfig(modality="both", text_repr="hier", audio_repr="conv",
                         use_context_attn=True, use_filter=True,
                         task_mode="joint", d_text_in=5, d_hidden=4,
                         d_audio=2, attn_width_tokens=3, attn_width_dialog=2,
                         dropout=0.0, head_hidden=3)
    rng = np.random.default_rng(5)
    table = EmbeddingTable(config.d_text_in)
    vocab = ["ek", "do", "teen", "char", "panch"]
    for token in vocab:
        table.add(token, rng.normal(0.0, 0.5, size=config.d_text_in))
    utterances = []
    for k in range(2):
        tokens = [vocab[int(t)] for t in rng.integers(0, len(vocab), size=4)]
        frames = rng.normal(0.0, 0.8, size=(int(rng.integers(2, 4)),
                                            MFCC_COLUMNS))
        utterances.append(UtteranceRecord(
            uid=f"u{k}", speaker="s0", tokens=tokens, acoustic=frames,
            sarcasm=k % 2, humor=1 - k % 2))
    dialog = Dialog(dialog_id="check", utterances=utterances)
    params = init_parameters(config, rng)
    return config, params, dialog, table


def check_model_gradients() -> None:
    config, params, dialog, table = _tiny_model_fixture()

    def f(_):
        prediction = forward_dialog(config, params, dialog, table,
                                    training=False)
        total = None
        for task in config.tasks:
            for utt, prob in zip(dialog.utterances,
                                 prediction.probabilities[task]):
                term = tensor.bce_loss(prob, getattr(utt, task))
                total = term if total is None else tensor.add(total, term)
        return total

    _require_gradients(f, params.as_dict(), "full model")


def check_hier_structure() -> None:
    rng = np.random.default_rng(6)
    for width in range(2, 6):
        proj_w, proj_b = init_projection(3, rng)
        for n in range(1, 25):
            vectors = Tensor(rng.normal(size=(n, 3)))
            out, trace = hier_attend(vectors, proj_w, proj_b, width)
            expected_levels = level_count(n, width)
            if trace.attention_levels != expected_levels:
                raise AssertionError(
                    f"n={n} width={width}: {trace.attention_levels} levels, "
                    f"expected {expected_levels}")
            sizes = trace.level_sizes()
            for level, size in enumerate(sizes):
                expected = max(1, n - level * (width - 1))
                if size != expected:
                    raise AssertionError(
                        f"n={n} width={width} level {level}: {size} vectors, "
                        f"expected {expected}")
            if out.shape != (3,):
                raise AssertionError(f"output shape {out.shape}")
            for record in trace.levels[1:]:
                # per window and coordinate: (windows, size, d) -> (windows, d)
                total = record.window_weights.sum(axis=1)
                if not np.allclose(total, 1.0, atol=1e-9):
                    raise AssertionError(
                        f"n={n} width={width}: weights sum {total}")


def check_context_causality() -> None:
    rng = np.random.default_rng(7)
    n, width, dim = 8, 3, 4
    base = rng.normal(size=(n, dim))
    h_text = Tensor(rng.normal(size=(n, dim)))
    out_audio, _, out_cross, trace = contextualize_dialog(Tensor(base),
                                                          h_text, width)
    bumped = base.copy()
    bumped[-1] += 3.0
    bumped_out, _, bumped_cross, _ = contextualize_dialog(Tensor(bumped),
                                                          h_text, width)
    for k in range(n - 1):
        if not np.array_equal(out_audio.data[k], bumped_out.data[k]):
            raise AssertionError(f"position {k + 1} saw a later utterance")
        if not np.array_equal(out_cross.data[k], bumped_cross.data[k]):
            raise AssertionError(f"cross position {k + 1} saw a later "
                                 f"utterance")
    for i, row in enumerate(trace.rows, start=1):
        if len(row.audio) != min(i, width):
            raise AssertionError(f"row {i} has {len(row.audio)} weights, "
                                 f"expected {min(i, width)}")
        if row.window[-1] != i or row.window[0] != max(1, i - width + 1):
            raise AssertionError(f"row {i} window {row.window}")


def check_filter_bounds() -> None:
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        h_mod = Tensor(rng.uniform(-6, 6, size=(1, 2 * d)))
        h_cross = Tensor(rng.uniform(-6, 6, size=(1, 3 * d)))
        gate_w, gate_b = init_filter_gate(2 * d, 3 * d, rng)
        out = filter_modality(h_mod, h_cross, gate_w, gate_b)
        if not np.all(np.abs(out.data) < 1.0):
            raise AssertionError(f"filter output escaped (-1, 1): {out.data}")
    d = 3
    h_mod = Tensor(rng.uniform(-2, 2, size=(1, 2 * d)))
    h_cross = Tensor(rng.uniform(-2, 2, size=(1, 3 * d)))
    zero_w = Tensor(np.zeros((2 * d, 3 * d)))
    closed = filter_modality(h_mod, h_cross, zero_w,
                             Tensor(np.full(2 * d, -30.0)))
    if not np.all(np.abs(closed.data) < 1e-12):
        raise AssertionError(f"gate bias -30 left output {closed.data}")
    opened = filter_modality(h_mod, h_cross, zero_w,
                             Tensor(np.full(2 * d, 30.0)))
    if not np.all(np.abs(opened.data - np.tanh(h_mod.data)) < 1e-12):
        raise AssertionError("gate bias +30 does not pass tanh through")


def check_metric_arithmetic() -> None:
    sarcasm = compute_metrics(ConfusionMatrix(tp=249, fn=142, fp=58, tn=1127))
    if sarcasm.accuracy != 1376 / 1576:
        raise AssertionError(f"sarcasm accuracy {sarcasm.accuracy}")
    if abs(sarcasm.f1 - 498 / 698) > 1e-12:
        raise AssertionError(f"sarcasm f1 {sarcasm.f1}")
    humor = compute_metrics(ConfusionMatrix(tp=635, fn=105, fp=174, tn=662))
    if abs(humor.f1 - 1270 / 1549) > 1e-12:
        raise AssertionError(f"humor f1 {humor.f1}")
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        m = confusion(preds, labels)
        got = compute_metrics(m)
        precision = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
        recall = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
        f1 = (2 * m.tp / (2 * m.tp + m.fp + m.fn)
              if 2 * m.tp + m.fp + m.fn else 0.0)
        if abs(got.precision - precision) > 1e-12 \
                or abs(got.recall - recall) > 1e-12 \
                or abs(got.f1 - f1) > 1e-12:
            raise AssertionError(f"metrics diverge on counts {m}")


def check_checkpoint_roundtrip() -> None:
    config = ModelConfig(d_text_in=5, d_hidden=4, d_audio=3, head_hidden=3,
                         attn_width_dialog=2, dropout=0.0)
    params = init_parameters(config, np.random.default_rng(10))
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "a.ckpt"
        second = Path(tmp) / "b.ckpt"
        save_checkpoint(params, first, config)
        loaded, loaded_config = load_checkpoint(first)
        save_checkpoint(loaded, second, loaded_config)
        if first.read_bytes() != second.read_bytes():
            raise AssertionError("save/load/save is not byte-identical")


def check_training_determinism() -> None:
    rng = np.random.default_rng(11)
    vocab = ["arre", "yaar", "accha", "bas"]
    table = EmbeddingTable(4)
    for token in vocab:
        table.add(token, rng.normal(0.0, 0.5, size=4))
    dialogs = []
    for d in range(3):
        utts = [UtteranceRecord(
            uid=f"d{d}u{j}", speaker="s0",
            tokens=[vocab[int(t)] for t in rng.integers(0, 4, size=3)],
            acoustic=None, sarcasm=int(rng.integers(0, 2)),
            humor=int(rng.integers(0, 2))) for j in range(2)]
        dialogs.append(Dialog(dialog_id=f"d{d}", utterances=utts))
    config = ModelConfig(modality="text", text_repr="mean",
                         use_context_attn=False, use_filter=False,
                         task_mode="joint", d_text_in=4, d_hidden=3,
                         head_hidden=3, dropout=0.2)
    tc = TrainConfig(lr=1e-3, batch_size=2, max_epochs=2, patience=2, seed=3)
    best_a, hist_a = train(config, dialogs, dialogs, tc, table)
    best_b, hist_b = train(config, dialogs, dialogs, tc, table)
    losses_a = [r.train_loss for r in hist_a.records]
    losses_b = [r.train_loss for r in hist_b.records]
    if losses_a != losses_b:
        raise AssertionError(f"loss curves diverge: {losses_a} vs {losses_b}")
    for name, t in best_a.items():
        if not np.array_equal(t.data, best_b[name].data):
            raise AssertionError(f"parameter {name} diverges across reruns")


CHECKS = (
    ("gradients.elementwise", check_elementwise_gradients),
    ("gradients.linear", check_linear_gradients),
    ("gradients.softmax", check_softmax_gradients),
    ("gradients.lstm", check_lstm_gradients),
    ("gradients.conv", check_conv_gradients),
    ("gradients.model", check_model_gradients),
    ("structure.hier_levels", check_hier_structure),
    ("structure.context_causality", check_context_causality),
    ("structure.filter_bounds", check_filter_bounds),
    ("oracle.metrics", check_metric_arithmetic),
    ("roundtrip.checkpoint", check_checkpoint_roundtrip),
    ("determinism.training", check_training_determinism),
)


def run_checks() -> list[CheckResult]:
    """Run every named check; failures carry their explanation."""
    results = []
    for name, func in CHECKS:
        try:
            func()
        except Exception as exc:
            results.append(CheckResult(name=name, passed=False,
                                       detail=str(exc)))
        else:
            results.append(CheckResult(name=name, passed=True))
    return results

"""Correctness checks the benchmark runs outside its timed sections.

(a) a plain-numpy reference forward, written from the model description in
    the README, agrees with ``forward_dialog``;
(b) causality: a dialog prefix scores its positions as the whole dialog does;
(c) a directional central difference of the eval-mode training loss matches
    the tape gradient;
(d) confusion counts and P/R/F1 recounted here from thresholded
    ``forward_dialog`` outputs equal what ``evaluate_split`` returns, and
    every probability is finite and inside (0, 1);
(e) the loaded checkpoint equals the float32-rounded trained parameters.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from banter import model, tensor
from banter.data import Dialog

# (a): same float64 arithmetic summed in another order
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
# (c): central difference step and agreement
FD_STEP = 1e-6
FD_RTOL = 1e-4
FD_ATOL = 1e-10


# ---------------------------------------------------------------------------
# (a) reference forward


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax_last(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_hier(vectors: np.ndarray, w: np.ndarray, b: np.ndarray,
             width: int) -> np.ndarray:
    """Stacked width-wide local attentions, one whole level at a time."""
    current = _relu(vectors)
    while current.shape[0] > 1:
        size = min(width, current.shape[0])
        windows = sliding_window_view(current, size, axis=0)  # (n, d, size)
        pooled = (_softmax_last(windows) * windows).sum(axis=-1) / size
        current = _relu(pooled @ w.T + b)
    return current[0]


def ref_conv(frames: np.ndarray, kernels: np.ndarray,
             bias: np.ndarray) -> np.ndarray:
    """Zero-padded time convolution, ReLU, mean over frames."""
    width = kernels.shape[1]
    pad = width // 2
    padded = np.pad(frames, ((pad, pad), (0, 0)))
    taps = sliding_window_view(padded, width, axis=0)  # (F, 128, width)
    out = np.einsum("fcw,kwc->fk", taps, kernels) + bias
    return _relu(out).mean(axis=0)


def ref_lstm(p: dict, prefix: str, xs: list[np.ndarray]) -> list[np.ndarray]:
    d_h = p[f"{prefix}.b_i"].shape[0]
    h, c = np.zeros(d_h), np.zeros(d_h)
    out = []
    for x in xs:
        z = {g: p[f"{prefix}.w_{g}"] @ x + p[f"{prefix}.u_{g}"] @ h
             + p[f"{prefix}.b_{g}"] for g in "ifgo"}
        c = _sigmoid(z["f"]) * c + _sigmoid(z["i"]) * np.tanh(z["g"])
        h = _sigmoid(z["o"]) * np.tanh(c)
        out.append(h)
    return out


def _attend(group: np.ndarray) -> np.ndarray:
    """Per-coordinate softmax over the group's members, then their mean."""
    weights = _softmax_last(group.T).T
    return (weights * group).sum(axis=0) / group.shape[0]


def ref_probabilities(config, params, dialog: Dialog,
                      embeddings) -> dict[str, np.ndarray]:
    """Eval-mode probabilities per task, from the model description."""
    p = {name: t.data for name, t in params.items()}
    reps_text, reps_audio = [], []
    for utt in dialog.utterances:
        if config.uses_text:
            rows = np.array([embeddings.lookup(tok) for tok in utt.tokens])
            reps_text.append(rows.mean(axis=0) if config.text_repr == "mean"
                             else ref_hier(rows, p["text_attn.proj_w"],
                                           p["text_attn.proj_b"],
                                           config.attn_width_tokens))
        if config.uses_audio:
            reps_audio.append(
                ref_conv(utt.acoustic, p["acoustic.kernels"],
                         p["acoustic.bias"])
                if config.audio_repr == "conv"
                else ref_hier(utt.acoustic, p["audio_attn.proj_w"],
                              p["audio_attn.proj_b"],
                              config.attn_width_tokens))
    h_text = ref_lstm(p, "lstm_text", reps_text) if config.uses_text else None
    h_audio = (ref_lstm(p, "lstm_audio", reps_audio)
               if config.uses_audio else None)

    width = config.attn_width_dialog
    trunks = []
    for i in range(len(dialog.utterances)):
        lo = max(0, i - width + 1)
        if not config.use_context_attn:
            parts = [h[i] for h in (h_audio, h_text) if h is not None]
            trunks.append(np.concatenate(parts))
            continue
        attended = {}
        for key, h in (("audio", h_audio), ("text", h_text)):
            if h is not None:
                attended[key] = np.concatenate(
                    [_attend(np.array(h[lo:i + 1])), h[i]])
        if config.modality != "both":
            trunks.append(next(iter(attended.values())))
            continue
        cross = np.concatenate([
            _attend(np.array(h_audio[lo:i + 1] + h_text[lo:i + 1])),
            h_audio[i], h_text[i]])
        if config.use_filter:
            for key in ("audio", "text"):
                gate = _sigmoid(p[f"filter_{key}.gate_w"] @ cross
                                + p[f"filter_{key}.gate_b"])
                attended[key] = np.tanh(attended[key]) * gate
        trunks.append(np.concatenate([attended["audio"], attended["text"],
                                      cross]))

    out = {}
    for task in config.tasks:
        hidden = _relu(np.array(trunks) @ p[f"head_{task}.w1"].T
                       + p[f"head_{task}.b1"])
        out[task] = _sigmoid(hidden @ p[f"head_{task}.w2"][0]
                             + p[f"head_{task}.b2"][0])
    return out


def probabilities(prediction) -> dict[str, np.ndarray]:
    """Per task, a ``DialogPrediction``'s utterance scores as an array."""
    return {task: np.array([float(t.data[0]) for t in probs])
            for task, probs in prediction.probabilities.items()}


def _probabilities(config, params, dialog, embeddings) -> dict[str, np.ndarray]:
    return probabilities(model.forward_dialog(config, params, dialog,
                                              embeddings, training=False))


def check_reference(config, params, dialogs, embeddings) -> list[str]:
    failures = []
    for dialog in dialogs:
        got = _probabilities(config, params, dialog, embeddings)
        want = ref_probabilities(config, params, dialog, embeddings)
        for task in config.tasks:
            if not np.allclose(got[task], want[task], rtol=REFERENCE_RTOL,
                               atol=REFERENCE_ATOL):
                worst = float(np.max(np.abs(got[task] - want[task])))
                failures.append(f"(a) dialog {dialog.dialog_id} {task}: "
                                f"forward_dialog differs from the reference "
                                f"by up to {worst:.3e}")
    return failures


# ---------------------------------------------------------------------------
# (b) causality


def check_causality(config, params, dialog, embeddings) -> list[str]:
    whole = _probabilities(config, params, dialog, embeddings)
    failures = []
    for k in range(1, len(dialog.utterances)):
        prefix = Dialog(dialog_id=dialog.dialog_id,
                        utterances=dialog.utterances[:k])
        part = _probabilities(config, params, prefix, embeddings)
        for task in config.tasks:
            if not np.array_equal(part[task], whole[task][:k]):
                failures.append(f"(b) dialog {dialog.dialog_id} {task}: "
                                f"prefix of {k} utterances scores its "
                                f"positions differently")
    return failures


# ---------------------------------------------------------------------------
# (c) directional central difference


def _eval_loss(config, params, dialog, embeddings) -> tensor.Tensor:
    prediction = model.forward_dialog(config, params, dialog, embeddings,
                                      training=False)
    total = None
    for task in config.tasks:
        for utt, prob in zip(dialog.utterances, prediction.probabilities[task]):
            term = tensor.bce_loss(prob, getattr(utt, task))
            total = term if total is None else tensor.add(total, term)
    return tensor.scale(total, 1.0 / len(dialog.utterances))


def _shifted(params, direction: dict, step: float):
    out = model.ParameterSet()
    for name, t in params.items():
        out.register(name, tensor.Tensor(t.data + step * direction[name],
                                         requires_grad=True))
    return out


def check_gradient(config, params, dialog, embeddings,
                   seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    direction = {name: rng.normal(size=t.shape) for name, t in params.items()}
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    direction = {name: v / norm for name, v in direction.items()}

    fresh = _shifted(params, direction, 0.0)
    with tensor.Tape():
        loss = _eval_loss(config, fresh, dialog, embeddings)
        tensor.backward(loss)
    analytic = sum(float(np.sum(t.grad * direction[name]))
                   for name, t in fresh.items() if t.grad is not None)
    plus = _eval_loss(config, _shifted(params, direction, FD_STEP),
                      dialog, embeddings).item()
    minus = _eval_loss(config, _shifted(params, direction, -FD_STEP),
                       dialog, embeddings).item()
    numeric = (plus - minus) / (2.0 * FD_STEP)
    if abs(numeric - analytic) > FD_ATOL + FD_RTOL * abs(numeric):
        return [f"(c) dialog {dialog.dialog_id}: directional derivative "
                f"{analytic:.10e} from the tape, {numeric:.10e} by central "
                f"difference"]
    return []


# ---------------------------------------------------------------------------
# (d) metric recount


def check_metrics(config, dialogs, probabilities: list[dict[str, np.ndarray]],
                  matrices, metrics, threshold: float) -> list[str]:
    """``probabilities[k][task]`` holds dialog k's per-utterance scores."""
    failures = []
    for dialog, probs in zip(dialogs, probabilities):
        for task in config.tasks:
            values = probs[task]
            if not (np.all(np.isfinite(values)) and np.all(values > 0.0)
                    and np.all(values < 1.0)):
                failures.append(f"(d) dialog {dialog.dialog_id} {task}: "
                                f"probability outside (0, 1)")
    for task in config.tasks:
        tp = fn = fp = tn = 0
        for dialog, probs in zip(dialogs, probabilities):
            for utt, prob in zip(dialog.utterances, probs[task]):
                pred = bool(prob >= threshold)
                gold = getattr(utt, task) == 1
                tp += pred and gold
                fn += gold and not pred
                fp += pred and not gold
                tn += not pred and not gold
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        counted = (tp, fn, fp, tn, precision, recall, f1)
        m, s = matrices[task], metrics[task]
        reported = (m.tp, m.fn, m.fp, m.tn, s.precision, s.recall, s.f1)
        if counted != reported:
            failures.append(f"(d) {task}: recounted (tp, fn, fp, tn, P, R, "
                            f"F1) {counted} but evaluate_split gave "
                            f"{reported}")
    return failures


# ---------------------------------------------------------------------------
# (e) checkpoint round trip


def check_checkpoint(trained, loaded) -> list[str]:
    if trained.names() != loaded.names():
        return ["(e) loaded checkpoint holds other parameter names"]
    failures = []
    for name, t in trained.items():
        want = t.data.astype(np.float32).astype(np.float64)
        if not np.array_equal(want, loaded[name].data):
            failures.append(f"(e) parameter {name}: loaded values differ "
                            f"from the float32-rounded trained values")
    return failures

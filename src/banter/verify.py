"""Built-in verification suite: named gradient, property, and oracle checks.

This is the one implementation of each check: ``banter verify``, the unit
tests and the acceptance gate all call it. ``op_scenarios`` holds a
finite-difference scenario for every tape op; each ``gradients.*`` check
runs its ops' scenarios at one seed, the unit tests run them at many.

Each check is small enough to run at install time; the whole suite stays
well under a minute. Checks call activation and arithmetic ops through the
tensor module object, so a deliberately broken op (a mutation fixture in
the tests) is caught here and named in the failure listing.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor
from .context_attention import contextualize_dialog
from .data import MFCC_COLUMNS, Dialog, EmbeddingTable, UtteranceRecord
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
from .report import heatmap_document
from .tensor import Tensor
from .train import TrainConfig, dialog_loss, train


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _away_from(x: np.ndarray, points: list, margin: float = 0.05) -> np.ndarray:
    """Nudge values off finite-difference kinks (the relu corner)."""
    out = x.copy()
    for p in points:
        near = np.abs(out - p) < margin
        out[near] = p + margin * np.where(out[near] >= p, 1.0, -1.0) * 2.0
    return out


def op_scenarios(rng: np.random.Generator) -> dict:
    """Named (params, loss_fn) pairs exercising every tape op.

    A key is the op's name, or the name followed by a bracketed variant.
    Every op is looked up on the tensor module when the loss runs, so a
    patched op is the one checked.
    """
    u = lambda *s: rng.uniform(-1, 1, size=s)
    scen = {}

    a, b = Tensor(u(4), requires_grad=True), Tensor(u(4), requires_grad=True)
    scen["add"] = ({"a": a, "b": b}, lambda p: tensor.sum_all(
        tensor.tanh(tensor.add(p["a"], p["b"]))))

    a, b = Tensor(u(4), requires_grad=True), Tensor(u(4), requires_grad=True)
    scen["mul"] = ({"a": a, "b": b}, lambda p: tensor.sum_all(
        tensor.tanh(tensor.mul(p["a"], p["b"]))))

    a = Tensor(u(5), requires_grad=True)
    scen["scale"] = ({"a": a}, lambda p: tensor.sum_all(
        tensor.tanh(tensor.scale(p["a"], 1.7))))

    parts = {f"x{i}": Tensor(u(3), requires_grad=True) for i in range(3)}
    mixer = Tensor(u(9))
    scen["concat"] = (parts, lambda p, m=mixer: tensor.sum_all(tensor.tanh(
        tensor.mul(tensor.concat([p["x0"], p["x1"], p["x2"]], axis=0), m))))

    a = Tensor(u(5), requires_grad=True)
    scen["sum_all"] = ({"a": a}, lambda p: tensor.mul(
        tensor.sum_all(p["a"]), tensor.sum_all(p["a"])))

    a = Tensor(u(4, 3), requires_grad=True)
    mixer = Tensor(u(1, 3))
    scen["mean_rows"] = ({"a": a}, lambda p, m=mixer: tensor.sum_all(
        tensor.tanh(tensor.mul(tensor.mean_rows(p["a"]), m))))

    a = Tensor(u(3, 4, 2), requires_grad=True)
    mixer = Tensor(u(3, 2))
    scen["sum_axis"] = ({"a": a}, lambda p, m=mixer: tensor.sum_all(
        tensor.tanh(tensor.mul(tensor.sum_axis(p["a"], 1), m))))

    x = Tensor(u(3, 4), requires_grad=True)
    w = Tensor(u(2, 4), requires_grad=True)
    c = Tensor(u(2), requires_grad=True)
    scen["affine_rows"] = ({"x": x, "w": w, "c": c}, lambda p: tensor.sum_all(
        tensor.tanh(tensor.affine_rows(p["x"], p["w"], p["c"]))))

    x = Tensor(u(3, 4), requires_grad=True)
    w = Tensor(u(2, 4), requires_grad=True)
    c = Tensor(u(2), requires_grad=True)
    scen["affine_rowwise"] = ({"x": x, "w": w, "c": c},
                              lambda p: tensor.sum_all(tensor.tanh(
                                  tensor.affine_rowwise(p["x"], p["w"],
                                                        p["c"]))))

    a = Tensor(u(4, 3), requires_grad=True)
    mixer = Tensor(u(3))
    # rows 0 and 2 only: the unused rows' adjoints are zeros
    scen["unstack"] = ({"a": a}, lambda p, m=mixer: tensor.sum_all(
        tensor.tanh(tensor.add(tensor.mul(tensor.unstack(p["a"])[0], m),
                               tensor.unstack(p["a"])[2]))))

    for n in (1, 2, 5):
        gates = {f"{kind}_{g}": Tensor(u(*shape), requires_grad=True)
                 for g in "ifgo"
                 for kind, shape in (("w", (3, 4)), ("u", (3, 3)),
                                     ("b", (3,)))}
        gates["x"] = Tensor(u(n, 4), requires_grad=True)
        # per-step loss weights: every h_t reaches the loss, so the h and c
        # carries both get exercised
        step_weights = Tensor(u(n, 3))
        scen[f"lstm_sequence[n={n}]"] = (
            gates, lambda p, m=step_weights: tensor.sum_all(tensor.mul(
                tensor.lstm_sequence(p["x"], [p[f"w_{g}"] for g in "ifgo"],
                                     [p[f"u_{g}"] for g in "ifgo"],
                                     [p[f"b_{g}"] for g in "ifgo"]), m)))

    a = Tensor(_away_from(u(6), [0.0]), requires_grad=True)
    scen["relu"] = ({"a": a}, lambda p: tensor.sum_all(
        tensor.mul(tensor.relu(p["a"]), tensor.relu(p["a"]))))

    x = Tensor(u(6), requires_grad=True)
    scen["tanh"] = ({"x": x}, lambda p: tensor.sum_all(
        tensor.mul(tensor.tanh(p["x"]), tensor.tanh(p["x"]))))

    a = Tensor(u(6), requires_grad=True)
    scen["sigmoid"] = ({"a": a}, lambda p: tensor.sum_all(
        tensor.mul(tensor.sigmoid(p["a"]), tensor.sigmoid(p["a"]))))

    # one block (a modality) and two (the cross view), with fewer rows
    # than the window and more
    for k in (1, 2):
        for n in (2, 5):
            blocks = {f"h{b}": Tensor(u(n, 3), requires_grad=True)
                      for b in range(k)}
            mixer = Tensor(u(n, 3))
            scen[f"window_attend[k={k},n={n}]"] = (
                blocks, lambda p, m=mixer, k=k: tensor.sum_all(tensor.mul(
                    tensor.window_attend([p[f"h{b}"] for b in range(k)],
                                         3)[0], m)))

    a = Tensor(u(2, 3, 4), requires_grad=True)
    mixer = Tensor(u(2, 3, 4))
    scen["softmax"] = ({"a": a}, lambda p, m=mixer: tensor.sum_all(
        tensor.mul(tensor.softmax(p["a"], axis=1), m)))

    a = Tensor(u(5, 2), requires_grad=True)
    mixer = Tensor(u(3, 3, 2))
    scen["sliding_windows"] = ({"a": a}, lambda p, m=mixer: tensor.sum_all(
        tensor.tanh(tensor.mul(tensor.sliding_windows(p["a"], 3), m))))

    a = Tensor(u(8), requires_grad=True)
    mask_seed = int(rng.integers(1 << 30))
    scen["dropout"] = ({"a": a}, lambda p: tensor.sum_all(tensor.tanh(
        tensor.dropout(p["a"], 0.4, training=True,
                       rng=np.random.default_rng(mask_seed)))))

    x = Tensor(u(4, 2), requires_grad=True)
    k = Tensor(u(3, 3, 2), requires_grad=True)
    c = Tensor(u(3), requires_grad=True)
    scen["conv1d_same"] = ({"x": x, "k": k, "c": c}, lambda p: tensor.sum_all(
        tensor.tanh(tensor.conv1d_same(p["x"], p["k"], p["c"]))))

    z = Tensor(u(4), requires_grad=True)
    label = int(rng.integers(0, 2))
    scen["bce_loss"] = ({"z": z}, lambda p: tensor.bce_loss(
        tensor.sigmoid(tensor.sum_all(p["z"])), label))

    # one weight used three times, as H-ATN uses its projection at every
    # level: at 10 x 10 the 1- and 4-row uses hand backward stacked outer
    # terms and the 13-row use a dense product. The 1-row input is a
    # constant, so that use gives no input adjoint.
    inputs = {"x4": Tensor(u(4, 10), requires_grad=True),
              "x13": Tensor(u(13, 10), requires_grad=True)}
    x1 = Tensor(u(1, 10))
    mixer = Tensor(u(18, 10))
    scen["affine_rows[shared_w]"] = (
        {**inputs, "w": Tensor(u(10, 10), requires_grad=True),
         "c": Tensor(u(10), requires_grad=True)},
        lambda p, x1=x1, m=mixer: tensor.sum_all(tensor.mul(tensor.tanh(
            tensor.concat([tensor.affine_rows(x, p["w"], p["c"])
                           for x in (x1, p["x4"], p["x13"])])), m)))

    # a weight computed on the tape and used twice: its two stacked terms
    # must be summed into a dense adjoint before tanh's rule runs
    parts = {"x": Tensor(u(2, 6), requires_grad=True),
             "y": Tensor(u(1, 6), requires_grad=True),
             "v": Tensor(u(4, 6), requires_grad=True),
             "c": Tensor(u(4), requires_grad=True)}

    def computed_w(p):
        w = tensor.tanh(p["v"])
        return tensor.sum_all(tensor.tanh(tensor.concat(
            [tensor.affine_rowwise(p[x], w, p["c"]) for x in "xy"])))

    scen["affine_rowwise[computed_w]"] = (parts, computed_w)

    # one task's scores over a dialog: one label per utterance
    z = Tensor(u(5, 1), requires_grad=True)
    labels = rng.integers(0, 2, size=5).tolist()
    scen["bce_loss[rows]"] = ({"z": z}, lambda p: tensor.bce_loss(
        tensor.sigmoid(p["z"]), labels))

    return scen


# the gradients.* check that runs each tape op's scenarios
OP_GROUPS = {
    "gradients.elementwise": ("add", "mul", "scale", "relu", "tanh",
                              "sigmoid", "dropout", "bce_loss"),
    "gradients.linear": ("concat", "unstack", "sum_all", "mean_rows",
                         "sum_axis", "affine_rows", "affine_rowwise"),
    "gradients.softmax": ("softmax", "sliding_windows", "window_attend"),
    "gradients.lstm": ("lstm_sequence",),
    "gradients.conv": ("conv1d_same",),
}
OP_SCENARIO_SEED = 0


def check_op_gradients(check: str) -> None:
    """Finite differences on every scenario of the ops in one check's group.

    Parameters are named ``<scenario>.<param>``; every failing scenario is
    reported, not just the first.
    """
    failures = []
    scenarios = op_scenarios(np.random.default_rng(OP_SCENARIO_SEED))
    for key, (params, f) in scenarios.items():
        if key.split("[")[0] not in OP_GROUPS[check]:
            continue
        # grad_check perturbs the tensors in place, so f may keep its own
        # names for them
        named = {f"{key}.{name}": t for name, t in params.items()}
        report = grad_check(lambda _, f=f, params=params: f(params), named)
        if not report.passed:
            failures.append(report.summary())
    if failures:
        raise AssertionError("\n".join(failures))


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
    # one utterance more than the dialog window, so the window slides
    utterances = []
    for k in range(3):
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
        return dialog_loss(prediction, dialog, config.tasks)

    report = grad_check(f, params.as_dict())
    if not report.passed:
        raise AssertionError(f"full model: {report.summary()}")


def check_hier_structure() -> None:
    """Level count, level sizes, output width and window weight sums of
    hierarchical attention, for N in [1, 64] vectors and widths X in [2, 5].
    """
    rng = np.random.default_rng(1)
    dim = 4
    for width in range(2, 6):
        proj_w, proj_b = init_projection(dim, rng)
        for n in range(1, 65):
            vectors = Tensor(rng.normal(size=(n, dim)))
            out, level_weights = hier_attend(vectors, proj_w, proj_b, width)
            expected_levels = level_count(n, width)
            if len(level_weights) != expected_levels:
                raise AssertionError(
                    f"N={n} X={width}: {len(level_weights)} levels, "
                    f"expected {expected_levels}")
            # a level holds one vector per window; level 0 holds the inputs
            sizes = [n] + [weights.shape[0] for weights in level_weights]
            for level, size in enumerate(sizes):
                expected = max(1, n - level * (width - 1))
                if size != expected:
                    raise AssertionError(
                        f"N={n} X={width} level {level}: {size} vectors, "
                        f"expected {expected}")
            if out.shape != (1, dim):
                raise AssertionError(f"N={n} X={width}: output shape "
                                     f"{out.shape}")
            for weights in level_weights:
                # per window and coordinate: (windows, size, d) -> (windows, d)
                total = weights.sum(axis=1)
                if not np.allclose(total, 1.0, atol=1e-9):
                    raise AssertionError(
                        f"N={n} X={width}: weights sum {total}")


def check_context_causality() -> None:
    """Dialog attention is causal and banded to min(i, D) nonzero weights.

    Each utterance's audio is bumped in turn; no earlier position of the
    audio or cross output may change.
    """
    rng = np.random.default_rng(2)
    n, width, dim = 12, 4, 6
    base = rng.normal(size=(n, dim))
    h_text = Tensor(rng.normal(size=(n, dim)))
    out_audio, _, out_cross, trace = contextualize_dialog(Tensor(base),
                                                          h_text, width)
    for j in range(n):
        bumped = base.copy()
        bumped[j] += 5.0
        bumped_audio, _, bumped_cross, _ = contextualize_dialog(
            Tensor(bumped), h_text, width)
        for k in range(j):
            if not np.array_equal(out_audio.data[k], bumped_audio.data[k]) \
                    or not np.array_equal(out_cross.data[k],
                                          bumped_cross.data[k]):
                raise AssertionError(f"perturbing utterance {j + 1} changed "
                                     f"output {k + 1}")
    for row in heatmap_document(trace, "check")["rows"]:
        i = row["target_i"]
        if row["window"][-1] != i or row["window"][0] != max(1, i - width + 1):
            raise AssertionError(f"row {i} window {row['window']}")
        for field, cells in row["weights"].items():
            if len(cells) != min(i, width):
                raise AssertionError(f"row {i} {field}: {len(cells)} "
                                     f"weights, expected {min(i, width)}")
            if any(cell == 0.0 for cell in cells):
                raise AssertionError(f"row {i} {field}: zero weight")


def check_filter_bounds() -> None:
    """Filter output stays inside (-1, 1); saturated gates block or pass."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        h_mod = Tensor(rng.uniform(-8, 8, size=(1, 2 * d)))
        h_cross = Tensor(rng.uniform(-8, 8, size=(1, 3 * d)))
        gate_w, gate_b = init_filter_gate(2 * d, 3 * d, rng)
        out = filter_modality(h_mod, h_cross, gate_w, gate_b)
        if not np.all(np.abs(out.data) < 1.0):
            raise AssertionError(f"filter output escaped (-1, 1): {out.data}")
    d = 4
    h_mod = Tensor(rng.uniform(-2, 2, size=(1, 2 * d)))
    h_cross = Tensor(rng.uniform(-2, 2, size=(1, 3 * d)))
    zero_w = Tensor(np.zeros((2 * d, 3 * d)))
    closed = filter_modality(h_mod, h_cross, zero_w,
                             Tensor(np.full(2 * d, -30.0)))
    leak = float(np.max(np.abs(closed.data)))
    if leak > 1e-12:
        raise AssertionError(f"gate bias -30 leaks {leak:.2e}")
    opened = filter_modality(h_mod, h_cross, zero_w,
                             Tensor(np.full(2 * d, 30.0)))
    distortion = float(np.max(np.abs(opened.data - np.tanh(h_mod.data))))
    if distortion > 1e-12:
        raise AssertionError(f"gate bias +30 distorts tanh by "
                             f"{distortion:.2e}")


# published confusion counts, the figures the paper rounds them to, and the
# rounding bound
PUBLISHED_METRICS = (
    ("sarcasm", ConfusionMatrix(tp=249, fn=142, fp=58, tn=1127),
     {"precision": 0.811, "recall": 0.636, "f1": 0.711}, 3e-3),
    ("humor", ConfusionMatrix(tp=635, fn=105, fp=174, tn=662),
     {"precision": 0.785, "recall": 0.858, "f1": 0.820, "accuracy": 0.823},
     1e-3),
)


def check_metric_arithmetic() -> None:
    """Metrics reproduce the published figures, exact ratios and recounts."""
    for task, counts, published, bound in PUBLISHED_METRICS:
        got = compute_metrics(counts).as_dict()
        for metric, want in published.items():
            if abs(got[metric] - want) > bound:
                raise AssertionError(f"{task} {metric} {got[metric]:.4f}, "
                                     f"published {want} (bound {bound:g})")
    sarcasm, humor = (compute_metrics(counts)
                      for _, counts, _, _ in PUBLISHED_METRICS)
    if sarcasm.accuracy != 1376 / 1576:
        raise AssertionError(f"sarcasm accuracy {sarcasm.accuracy}")
    if abs(sarcasm.f1 - 498 / 698) > 1e-12:
        raise AssertionError(f"sarcasm f1 {sarcasm.f1}")
    if abs(humor.f1 - 1270 / 1549) > 1e-12:
        raise AssertionError(f"humor f1 {humor.f1}")
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        # recount from the pairs themselves, not from confusion()'s matrix
        pairs = list(zip(preds, labels))
        counts = {key: pairs.count(pair) for key, pair in (
            ("tp", (1, 1)), ("fn", (0, 1)), ("fp", (1, 0)), ("tn", (0, 0)))}
        m = confusion(preds, labels)
        if m.as_dict() != counts:
            raise AssertionError(f"confusion counts {m.as_dict()}, "
                                 f"recount {counts}")
        tp, fn, fp = counts["tp"], counts["fn"], counts["fp"]
        got = compute_metrics(m)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        if abs(got.precision - precision) > 1e-12 \
                or abs(got.recall - recall) > 1e-12 \
                or abs(got.f1 - f1) > 1e-12:
            raise AssertionError(f"metrics diverge on counts {m}")


def check_checkpoint_roundtrip() -> None:
    """The loaded config equals the saved one, and save/load/save is
    byte-identical. The dimensions and threshold are off their defaults,
    so one of them lost on save cannot reload as its default unnoticed."""
    config = ModelConfig(d_text_in=5, d_hidden=4, d_audio=3, head_hidden=3,
                         attn_width_dialog=2, dropout=0.0, threshold=0.75)
    params = init_parameters(config, np.random.default_rng(10))
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "a.ckpt"
        second = Path(tmp) / "b.ckpt"
        save_checkpoint(params, first, config)
        loaded, loaded_config = load_checkpoint(first)
        saved, reloaded = asdict(config), asdict(loaded_config)
        changed = [f"{key}: saved {value!r}, loaded {reloaded[key]!r}"
                   for key, value in saved.items() if value != reloaded[key]]
        if changed:
            raise AssertionError("loaded config differs: "
                                 + "; ".join(changed))
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
    # a row holds an epoch's train loss and validation metrics
    rows_a, rows_b = hist_a.rows(), hist_b.rows()
    if rows_a != rows_b:
        raise AssertionError(f"histories diverge: {rows_a} vs {rows_b}")
    for name, t in best_a.items():
        if not np.array_equal(t.data, best_b[name].data):
            raise AssertionError(f"parameter {name} diverges across reruns")


CHECKS = (
    *((name, partial(check_op_gradients, name)) for name in OP_GROUPS),
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

"""Acceptance gate: nine checks, each printing one pass/fail line.

Run under pytest, or standalone as ``python3 tests/test_acceptance.py``
for the plain listing. Check 9 needs a real corpus with acoustic features
(point MSHC_MASAC_DIR at it) and skips cleanly otherwise.
"""

import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).resolve().parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from synthdata import marker_corpus

from banter.cli import main as cli_main
from banter.context_attention import contextualize_dialog
from banter.data import (
    MFCC_COLUMNS,
    Dialog,
    EmbeddingTable,
    UtteranceRecord,
    load_corpus,
    load_embeddings,
    split_train_val,
)
from banter.fusion import filter_modality, init_filter_gate
from banter.gradcheck import grad_check
from banter.hier_attention import hier_attend, init_projection, level_count
from banter.metrics import ConfusionMatrix, compute_metrics
from banter.model import (
    ModelConfig,
    build_variant,
    forward_dialog,
    init_parameters,
    parameter_count,
)
from banter.report import heatmap_document
from banter.tensor import Tensor, add, bce_loss
from banter.train import TrainConfig, evaluate_split, macro_f1, train


def criterion_1():
    """Metric oracle reproduces the published confusion arithmetic."""
    s = compute_metrics(ConfusionMatrix(tp=249, fn=142, fp=58, tn=1127))
    ok = (s.accuracy == 1376 / 1576
          and abs(s.precision - 0.811) <= 3e-3
          and abs(s.recall - 0.636) <= 3e-3
          and abs(s.f1 - 0.711) <= 3e-3)
    h = compute_metrics(ConfusionMatrix(tp=635, fn=105, fp=174, tn=662))
    ok = ok and all(abs(got - want) <= 1e-3 for got, want in (
        (h.precision, 0.785), (h.recall, 0.858),
        (h.f1, 0.820), (h.accuracy, 0.823)))
    detail = (f"sarcasm P={s.precision:.4f} R={s.recall:.4f} F1={s.f1:.4f} "
              f"acc={s.accuracy:.4f}; humor P={h.precision:.4f} "
              f"R={h.recall:.4f} F1={h.f1:.4f} acc={h.accuracy:.4f}")
    return ok, detail


def _grad_check_fixture():
    config = ModelConfig(modality="both", text_repr="hier", audio_repr="conv",
                         use_context_attn=True, use_filter=True,
                         task_mode="joint", d_text_in=6, d_hidden=5,
                         d_audio=4, attn_width_tokens=3, attn_width_dialog=2,
                         dropout=0.0, head_hidden=4)
    rng = np.random.default_rng(0)
    table = EmbeddingTable(config.d_text_in)
    vocab = ["arre", "yaar", "kya", "baat", "hai", "bhai"]
    for token in vocab:
        table.add(token, rng.normal(0.0, 0.5, size=config.d_text_in))
    utterances = []
    for k in range(3):
        tokens = [vocab[int(t)] for t in rng.integers(0, len(vocab), size=4)]
        frames = rng.normal(0.0, 0.8, size=(int(rng.integers(2, 5)),
                                            MFCC_COLUMNS))
        utterances.append(UtteranceRecord(
            uid=f"u{k}", speaker=f"s{k % 2}", tokens=tokens, acoustic=frames,
            sarcasm=k % 2, humor=(k + 1) % 2))
    dialog = Dialog(dialog_id="gate", utterances=utterances)
    params = init_parameters(config, rng)
    return config, params, dialog, table


def criterion_2():
    """Finite differences confirm every gradient of the full model."""
    start = time.monotonic()
    config, params, dialog, table = _grad_check_fixture()

    def f(_):
        prediction = forward_dialog(config, params, dialog, table,
                                    training=False)
        total = None
        for task in config.tasks:
            for utt, prob in zip(dialog.utterances,
                                 prediction.probabilities[task]):
                term = bce_loss(prob, getattr(utt, task))
                total = term if total is None else add(total, term)
        return total

    report = grad_check(f, params.as_dict(), h=1e-5, tol=1e-4)
    elapsed = time.monotonic() - start
    ok = report.passed and report.worst < 1e-4 and elapsed < 60.0
    detail = (f"max rel err {report.worst:.2e} over "
              f"{len(params.as_dict())} parameter groups "
              f"({params.total_scalars} scalars) in {elapsed:.1f}s")
    return ok, detail


def criterion_3():
    """Hierarchical collapse has the exact level geometry, any N and X."""
    start = time.monotonic()
    rng = np.random.default_rng(1)
    dim = 4
    problems = []
    for width in range(2, 6):
        proj_w, proj_b = init_projection(dim, rng)
        for n in range(1, 65):
            vectors = Tensor(rng.normal(size=(n, dim)))
            out, trace = hier_attend(vectors, proj_w, proj_b, width)
            if trace.attention_levels != level_count(n, width):
                problems.append(f"N={n} X={width}: level count")
            sizes = trace.level_sizes()
            for level, size in enumerate(sizes):
                if size != max(1, n - level * (width - 1)):
                    problems.append(f"N={n} X={width} level {level}: size")
            if out.shape != (dim,):
                problems.append(f"N={n} X={width}: output dim")
            for record in trace.levels[1:]:
                # per window and coordinate: (windows, size, d) -> (windows, d)
                total = record.window_weights.sum(axis=1)
                if not np.allclose(total, 1.0, atol=1e-9):
                    problems.append(f"N={n} X={width}: weight sum")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    head = f"; first problem: {problems[0]}" if problems else ""
    detail = (f"N in [1,64] x X in [2,5], {4 * 64} traces clean "
              f"in {elapsed:.1f}s{head}")
    return ok, detail


def criterion_4():
    """Dialog attention is causal and banded to min(i, D) entries."""
    start = time.monotonic()
    rng = np.random.default_rng(2)
    n, width, dim = 12, 4, 6
    base_audio = rng.normal(size=(n, dim))
    base_text = rng.normal(size=(n, dim))

    def run(audio_rows):
        return contextualize_dialog(Tensor(audio_rows), Tensor(base_text),
                                    width)

    out_audio, out_text, out_cross, trace = run(base_audio)
    problems = []
    for j in range(n):
        bumped = base_audio.copy()
        bumped[j] = bumped[j] + 5.0
        bumped_audio, _, bumped_cross, _ = run(bumped)
        for k in range(j):
            if not np.array_equal(out_audio.data[k], bumped_audio.data[k]) \
                    or not np.array_equal(out_cross.data[k],
                                          bumped_cross.data[k]):
                problems.append(f"perturbing {j + 1} changed output {k + 1}")
    document = heatmap_document(trace, "gate")
    for row in document["rows"]:
        i = row["target_i"]
        for field, cells in row["weights"].items():
            if len(cells) != min(i, width):
                problems.append(f"row {i} field {field}: {len(cells)} cells")
            if any(cell == 0.0 for cell in cells):
                problems.append(f"row {i} field {field}: zero weight")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    head = f"; first problem: {problems[0]}" if problems else ""
    detail = (f"{n} suffix perturbations, heatmap banding min(i, {width}) "
              f"in {elapsed:.1f}s{head}")
    return ok, detail


def criterion_5():
    """Filter output stays inside (-1, 1); saturated gates block or pass."""
    start = time.monotonic()
    rng = np.random.default_rng(3)
    problems = []
    for _ in range(20):
        d = int(rng.integers(1, 6))
        h_mod = Tensor(rng.uniform(-8, 8, size=(1, 2 * d)))
        h_cross = Tensor(rng.uniform(-8, 8, size=(1, 3 * d)))
        gate_w, gate_b = init_filter_gate(2 * d, 3 * d, rng)
        out = filter_modality(h_mod, h_cross, gate_w, gate_b)
        if not np.all(np.abs(out.data) < 1.0):
            problems.append("output escaped the open unit box")
    d = 4
    h_mod = Tensor(rng.uniform(-2, 2, size=(1, 2 * d)))
    h_cross = Tensor(rng.uniform(-2, 2, size=(1, 3 * d)))
    zero_w = Tensor(np.zeros((2 * d, 3 * d)))
    closed = filter_modality(h_mod, h_cross, zero_w,
                             Tensor(np.full(2 * d, -30.0)))
    closed_err = float(np.max(np.abs(closed.data)))
    opened = filter_modality(h_mod, h_cross, zero_w,
                             Tensor(np.full(2 * d, 30.0)))
    opened_err = float(np.max(np.abs(opened.data - np.tanh(h_mod.data))))
    if closed_err > 1e-12:
        problems.append(f"closed gate leaks {closed_err:.2e}")
    if opened_err > 1e-12:
        problems.append(f"open gate distorts by {opened_err:.2e}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1.0
    head = f"; {problems[0]}" if problems else ""
    detail = (f"bounds over 20 draws, saturation errs {closed_err:.1e} / "
              f"{opened_err:.1e} in {elapsed:.2f}s{head}")
    return ok, detail


def _probe_margin(dialogs, table, coord, task):
    """Gap between the lowest positive and highest negative probe value."""
    positives, negatives = [], []
    for dialog in dialogs:
        for utt in dialog.utterances:
            value = float(np.mean([table.lookup(t)[coord]
                                   for t in utt.tokens]))
            (positives if getattr(utt, task) else negatives).append(value)
    return min(positives) - max(negatives)


def criterion_6():
    """The full model memorizes the separable marker corpus quickly."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, emb_path = marker_corpus(
            Path(tmp), n_dialogs=8, utterances_per_dialog=4, emb_dim=12,
            seed=0)
        dialogs = load_corpus(corpus_path)
        table = load_embeddings(emb_path)
    sarcasm_margin = _probe_margin(dialogs, table, 0, "sarcasm")
    humor_margin = _probe_margin(dialogs, table, 1, "humor")
    if sarcasm_margin <= 0 or humor_margin <= 0:
        return False, (f"marker corpus is not linearly separable "
                       f"(margins {sarcasm_margin:.3f}/{humor_margin:.3f})")
    config = build_variant("full", task_mode="joint", d_text_in=12,
                           d_hidden=16, d_audio=16, head_hidden=16,
                           dropout=0.1)
    train_config = TrainConfig(lr=3e-3, batch_size=8, max_epochs=200,
                               patience=40, seed=1)
    best, history = train(config, dialogs, dialogs, train_config, table)
    scores = [macro_f1(record.val_metrics) for record in history.records]
    best_score = max(scores)
    hit = next((record.epoch for record, score
                in zip(history.records, scores) if score >= 0.99), None)
    elapsed = time.monotonic() - start
    ok = best_score >= 0.99 and hit is not None and elapsed < 120.0
    detail = (f"probe margins {sarcasm_margin:.3f}/{humor_margin:.3f}, "
              f"train macro F1 {best_score:.3f}"
              + (f" from epoch {hit}" if hit else "")
              + f", {len(history)} epochs in {elapsed:.1f}s")
    return ok, detail


def criterion_7():
    """One joint trunk costs exactly one extra head, not a second model."""
    joint = parameter_count(ModelConfig(task_mode="joint"))
    sarcasm = parameter_count(ModelConfig(task_mode="sarcasm"))
    humor = parameter_count(ModelConfig(task_mode="humor"))
    config = ModelConfig(task_mode="joint")
    head = (config.head_hidden * config.trunk_dim + 2 * config.head_hidden
            + 1)
    ok = joint < sarcasm + humor and joint - sarcasm == head \
        and sarcasm == humor
    detail = (f"joint {joint} < {sarcasm + humor} = sarcasm + humor; "
              f"joint - single = {joint - sarcasm} = one head ({head})")
    return ok, detail


def criterion_8():
    """Same seed, same fixtures: training artifacts match byte for byte."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path, emb_path = marker_corpus(
            tmp, n_dialogs=8, utterances_per_dialog=4, emb_dim=12, seed=0)
        cfg = tmp / "run.cfg"
        cfg.write_text(
            f"corpus = {corpus_path}\nembeddings = {emb_path}\n"
            "d_text_in = 12\nd_hidden = 8\nd_audio = 8\nhead_hidden = 6\n"
            "dropout = 0.1\nlr = 3e-3\nbatch_size = 8\nmax_epochs = 3\n"
            "patience = 3\nval_fraction = 0.25\n", encoding="utf-8")
        outs = []
        for out in (tmp / "a", tmp / "b"):
            # the per-run chatter would break the one-line-per-criterion log
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["train", "--config", str(cfg), "--seed",
                                 "7", "--out", str(out)])
            if code != 0:
                return False, f"training run exited {code}"
            outs.append(out)
        history_a = (outs[0] / "history.csv").read_bytes()
        history_b = (outs[1] / "history.csv").read_bytes()
        ckpt_a = (outs[0] / "model.ckpt").read_bytes()
        ckpt_b = (outs[1] / "model.ckpt").read_bytes()
    elapsed = time.monotonic() - start
    ok = history_a == history_b and ckpt_a == ckpt_b
    detail = (f"history {len(history_a)}B and checkpoint {len(ckpt_a)}B "
              f"identical across seed-7 reruns in {elapsed:.1f}s")
    if not ok:
        detail = "seed-7 reruns diverge: " + (
            "history differs" if history_a != history_b
            else "checkpoint differs")
    return ok, detail


def criterion_9():
    """On a real corpus, the full model must beat majority-class F1."""
    root = os.environ.get("MSHC_MASAC_DIR")
    if not root:
        return None, ("MSHC_MASAC_DIR not set; supply a corpus with "
                      "acoustic features to run the reproduction check")
    root = Path(root)
    corpus_path = root / "corpus.jsonl"
    emb_path = root / "vectors.txt"
    if not corpus_path.is_file() or not emb_path.is_file():
        return False, (f"MSHC_MASAC_DIR={root} needs corpus.jsonl and "
                       f"vectors.txt")
    dialogs = load_corpus(corpus_path)
    table = load_embeddings(emb_path)
    rest, test = split_train_val(dialogs, 0.15, seed=0)
    train_dialogs, val_dialogs = split_train_val(rest, 0.1, seed=0)
    config = build_variant("full", task_mode="joint",
                           d_text_in=table.dimension)
    best, _ = train(config, train_dialogs, val_dialogs, TrainConfig(seed=0),
                    table)
    _, metrics = evaluate_split(config, best, test, table)
    parts = []
    ok = True
    for task in config.tasks:
        labels = [getattr(u, task) for d in test for u in d.utterances]
        positives = sum(labels)
        # the stronger constant predictor on positive-class F1
        baseline = (2 * positives / (positives + len(labels))
                    if positives * 2 > len(labels) else 0.0)
        got = metrics[task].f1
        ok = ok and got > baseline
        parts.append(f"{task} F1 {got:.3f} vs baseline {baseline:.3f}")
    return ok, "; ".join(parts)


CRITERIA = (
    (1, "metric oracle on published confusion counts", criterion_1),
    (2, "end-to-end finite-difference gradient check", criterion_2),
    (3, "hierarchical attention level structure", criterion_3),
    (4, "dialog attention causality and banding", criterion_4),
    (5, "filter bounds and gate saturation", criterion_5),
    (6, "overfit smoke on the marker corpus", criterion_6),
    (7, "joint trunk parameter economy", criterion_7),
    (8, "seed-7 training determinism", criterion_8),
    (9, "reproduction bound on a supplied corpus", criterion_9),
)


def _run(number):
    _, label, func = CRITERIA[number - 1]
    passed, detail = func()
    status = "SKIP" if passed is None else ("PASS" if passed else "FAIL")
    print(f"criterion {number} {status}: {label} ({detail})")
    if passed is None:
        pytest.skip(detail)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_metric_oracle():
    _run(1)


def test_criterion_2_gradient_suite():
    _run(2)


def test_criterion_3_attention_structure():
    _run(3)


def test_criterion_4_causality_and_banding():
    _run(4)


def test_criterion_5_filter_saturation():
    _run(5)


def test_criterion_6_overfit_smoke():
    _run(6)


def test_criterion_7_parameter_economy():
    _run(7)


def test_criterion_8_determinism():
    _run(8)


def test_criterion_9_conditional_reproduction():
    _run(9)


if __name__ == "__main__":
    failures = 0
    for number, label, func in CRITERIA:
        passed, detail = func()
        status = "SKIP" if passed is None else \
            ("PASS" if passed else "FAIL")
        print(f"criterion {number} {status}: {label} ({detail})")
        failures += int(passed is False)
    sys.exit(1 if failures else 0)

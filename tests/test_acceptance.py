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

from banter import verify
from banter.cli import main as cli_main
from banter.data import load_corpus, load_embeddings, split_train_val
from banter.model import ModelConfig, build_variant, init_parameters
from banter.train import TrainConfig, evaluate_split, macro_f1, train


def _timed_verify_check(check, seconds=None):
    """Run one ``banter.verify`` check under an optional time bound.

    The check's failure message, if any, becomes the detail.
    """
    start = time.monotonic()
    try:
        check()
    except AssertionError as exc:
        problem = str(exc)
    else:
        problem = ""
    elapsed = time.monotonic() - start
    ok = not problem and (seconds is None or elapsed < seconds)
    bound = "" if seconds is None else f" against a {seconds:g}s bound"
    detail = f"verify.{check.__name__} in {elapsed:.2f}s{bound}"
    return ok, detail + (f"; {problem}" if problem else "")


def criterion_1():
    """Metric oracle reproduces the published confusion arithmetic."""
    return _timed_verify_check(verify.check_metric_arithmetic)


def criterion_2():
    """Finite differences confirm every gradient of the full model."""
    return _timed_verify_check(verify.check_model_gradients, 60.0)


def criterion_3():
    """Hierarchical collapse has the exact level geometry, any N and X."""
    return _timed_verify_check(verify.check_hier_structure, 10.0)


def criterion_4():
    """Dialog attention is causal and banded to min(i, D) entries."""
    return _timed_verify_check(verify.check_context_causality, 10.0)


def criterion_5():
    """Filter output stays inside (-1, 1); saturated gates block or pass."""
    return _timed_verify_check(verify.check_filter_bounds, 1.0)


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
    """The full model memorizes the separable marker corpus within 80
    epochs."""
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
    _, history = train(config, dialogs, dialogs, train_config, table)
    scores = [macro_f1(record.val_metrics) for record in history.records]
    best_score = max(scores)
    hit = next((record.epoch for record, score
                in zip(history.records, scores) if score >= 0.99), None)
    elapsed = time.monotonic() - start
    ok = hit is not None and hit <= 80 and elapsed < 120.0
    detail = (f"probe margins {sarcasm_margin:.3f}/{humor_margin:.3f}, "
              f"train macro F1 {best_score:.3f}"
              + (f" from epoch {hit} (bound 80)" if hit else "")
              + f", {len(history)} epochs in {elapsed:.1f}s")
    return ok, detail


# the default dimensions, and the small ones the unit tests build
ECONOMY_DIMS = ({}, dict(d_text_in=6, d_hidden=5, d_audio=4, head_hidden=4,
                         attn_width_dialog=2))


def parameter_count(config):
    """Exact trainable-scalar total for a configuration."""
    params = init_parameters(config, np.random.default_rng(0))
    return sum(tensor.data.size for _, tensor in params.items())


def criterion_7():
    """One joint trunk costs exactly one extra head, not a second model."""
    ok, parts = True, []
    for dims in ECONOMY_DIMS:
        joint, sarcasm, humor = (
            parameter_count(ModelConfig(task_mode=mode, **dims))
            for mode in ("joint", "sarcasm", "humor"))
        config = ModelConfig(**dims)
        head = (config.head_hidden * config.trunk_dim
                + 2 * config.head_hidden + 1)
        ok = ok and joint < sarcasm + humor and joint - sarcasm == head \
            and sarcasm == humor
        parts.append(f"joint {joint} < {sarcasm + humor} = sarcasm + humor; "
                     f"joint - single = {joint - sarcasm} = one head "
                     f"({head})")
    return ok, " / ".join(parts)


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
    _, metrics = evaluate_split(config, best, test, table,
                                threshold=config.threshold)
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

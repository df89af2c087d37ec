"""Heatmap export banding/normalization and report rendering round trips."""

import json

import numpy as np
import pytest

from banter.context_attention import DialogAttentionTrace, contextualize_dialog
from banter.metrics import ConfusionMatrix, compute_metrics
from banter.model import ModelConfig
from banter.report import export_heatmap, heatmap_document, render_report
from banter.tensor import Tensor


def random_trace(n: int, width: int, seed: int = 0, both: bool = True):
    rng = np.random.default_rng(seed)
    h_audio = Tensor(rng.normal(size=(n, 4))) if both else None
    h_text = Tensor(rng.normal(size=(n, 4)))
    _, _, _, trace = contextualize_dialog(h_audio, h_text, width)
    return trace


class TestHeatmapDocument:
    def test_single_utterance_row(self):
        doc = heatmap_document(random_trace(1, 5), "d1")
        assert doc["dialog_id"] == "d1"
        assert doc["D"] == 5
        assert len(doc["rows"]) == 1
        row = doc["rows"][0]
        assert row["target_i"] == 1
        assert row["window"] == [1]
        assert row["weights"]["text"] == [1.0]
        assert row["weights"]["audio"] == [1.0]
        cross = row["weights"]["cross_audio"] + row["weights"]["cross_text"]
        assert len(cross) == 2
        assert abs(sum(cross) - 1.0) < 1e-9

    def test_tenth_row_attends_last_five(self):
        doc = heatmap_document(random_trace(10, 5, seed=3), "d2")
        last = doc["rows"][-1]
        assert last["target_i"] == 10
        assert last["window"] == [6, 7, 8, 9, 10]

    def test_windows_clip_at_dialog_start(self):
        rows = heatmap_document(random_trace(3, 5, seed=9), "d8")["rows"]
        assert rows[0]["window"] == [1]
        assert rows[2]["window"] == [1, 2, 3]

    def test_width_one_is_self_only(self):
        rows = heatmap_document(random_trace(4, 1, seed=10), "d9")["rows"]
        assert rows[3]["window"] == [4]
        assert rows[3]["weights"]["text"] == [1.0]

    def test_rows_are_banded(self):
        width = 3
        doc = heatmap_document(random_trace(8, width, seed=4), "d3")
        for i, row in enumerate(doc["rows"], start=1):
            expected = list(range(max(1, i - width + 1), i + 1))
            assert row["window"] == expected
            for field in ("text", "audio"):
                assert len(row["weights"][field]) == min(i, width)
            assert len(row["weights"]["cross_audio"]) == min(i, width)
            assert len(row["weights"]["cross_text"]) == min(i, width)

    def test_weights_sum_to_one_per_field(self):
        doc = heatmap_document(random_trace(9, 4, seed=5), "d4")
        for row in doc["rows"]:
            assert abs(sum(row["weights"]["text"]) - 1.0) < 1e-6
            assert abs(sum(row["weights"]["audio"]) - 1.0) < 1e-6
            cross = (sum(row["weights"]["cross_audio"])
                     + sum(row["weights"]["cross_text"]))
            assert abs(cross - 1.0) < 1e-6

    def test_text_only_trace_has_empty_audio_fields(self):
        doc = heatmap_document(random_trace(4, 2, both=False), "d5")
        for row in doc["rows"]:
            assert row["weights"]["audio"] == []
            assert row["weights"]["cross_audio"] == []
            assert len(row["weights"]["text"]) >= 1

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            heatmap_document(DialogAttentionTrace(width=2, weights={}), "d6")

    def test_export_writes_parseable_json(self, tmp_path):
        path = tmp_path / "heatmap.json"
        doc = export_heatmap(random_trace(6, 5, seed=8), "d7", path)
        assert json.loads(path.read_text(encoding="utf-8")) == doc


def sample_evaluation():
    matrices = {
        "sarcasm": ConfusionMatrix(tp=249, fn=142, fp=58, tn=1127),
        "humor": ConfusionMatrix(tp=635, fn=105, fp=174, tn=662),
    }
    metrics = {task: compute_metrics(m) for task, m in matrices.items()}
    return matrices, metrics


def sample_history(n_epochs: int, tasks) -> list[dict]:
    rows = []
    for epoch in range(1, n_epochs + 1):
        row = {"epoch": epoch, "train_loss": 1.0 / epoch}
        for task in tasks:
            for metric in ("precision", "recall", "f1", "accuracy"):
                row[f"val_{task}_{metric}"] = min(1.0, 0.1 * epoch)
        rows.append(row)
    return rows


class TestRenderReport:
    def test_full_variant_section_title(self, tmp_path):
        config = ModelConfig()
        matrices, metrics = sample_evaluation()
        path = tmp_path / "report.txt"
        render_report(sample_history(2, config.tasks), matrices, metrics,
                      config, path)
        text = path.read_text(encoding="utf-8")
        assert "== LSTM(A)+LSTM(H-ATN^U)+C-ATN^D+Filter ==" in text

    def test_empty_history_yields_evaluation_only_report(self, tmp_path):
        config = ModelConfig(task_mode="sarcasm")
        matrices, metrics = sample_evaluation()
        path = tmp_path / "report.txt"
        doc = render_report([], matrices, metrics, config, path)
        text = path.read_text(encoding="utf-8")
        assert "evaluation-only" in text
        assert doc["history"] == []

    def test_json_twin_matches_printed_metrics(self, tmp_path):
        config = ModelConfig()
        matrices, metrics = sample_evaluation()
        path = tmp_path / "report.txt"
        render_report(sample_history(3, config.tasks), matrices, metrics,
                      config, path)
        twin = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        text = path.read_text(encoding="utf-8")
        for task in config.tasks:
            stored = twin["tasks"][task]["metrics"]
            assert stored == metrics[task].as_dict()
            for name in ("precision", "recall", "f1", "accuracy"):
                assert f"{stored[name]:.4f}" in text
            counts = twin["tasks"][task]["confusion"]
            assert counts == matrices[task].as_dict()
            assert (f"tp={counts['tp']} fn={counts['fn']} "
                    f"fp={counts['fp']} tn={counts['tn']}") in text

    def test_history_rows_listed(self, tmp_path):
        config = ModelConfig(task_mode="humor")
        matrices, metrics = sample_evaluation()
        rows = sample_history(4, config.tasks)
        path = tmp_path / "report.txt"
        doc = render_report(rows, matrices, metrics, config, path)
        text = path.read_text(encoding="utf-8")
        assert "training (4 epochs):" in text
        assert doc["history"] == rows
        twin = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert twin == doc

"""Attention heatmap export and human/machine-readable run reports."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .context_attention import DialogAttentionTrace
from .metrics import ConfusionMatrix, Metrics
from .model import ModelConfig, variant_label


# heatmap field -> (trace key, block): the cross attention's slots hold
# the audio block, then the text block
HEATMAP_FIELDS = {
    "text": ("text", 0),
    "audio": ("audio", 0),
    "cross_audio": ("cross", 0),
    "cross_text": ("cross", 1),
}


def heatmap_document(trace: DialogAttentionTrace, dialog_id: str) -> dict:
    """Banded attention weights for one dialog as a JSON-ready document.

    Row i carries min(i, D) scalar weights per populated modality; weights
    for positions outside the window are implicitly zero, which is what
    gives the heatmap its lower-triangular band. Each scalar is a valid
    slot's weight averaged over the coordinates. The trace forms the
    weights when they are read: block b owns slots b * D .. b * D + D - 1
    of every row, and the last min(i, D) of them hold positions
    i - min(i, D) + 1 .. i.
    """
    if not trace.exps:
        raise ValueError("heatmap export needs a non-empty trace")
    width = trace.width
    cells = {key: weights.mean(axis=2).tolist()
             for key, weights in trace.weights.items()}
    n = len(next(iter(cells.values())))
    rows = []
    for i in range(1, n + 1):
        valid = min(i, width)
        weights = {}
        for field, (key, block) in HEATMAP_FIELDS.items():
            end = (block + 1) * width
            weights[field] = (cells[key][i - 1][end - valid:end]
                              if key in cells else [])
        rows.append({
            "target_i": i,
            "window": list(range(i - valid + 1, i + 1)),
            "weights": weights,
        })
    return {"dialog_id": dialog_id, "D": width, "rows": rows}


def export_heatmap(trace: DialogAttentionTrace, dialog_id: str, path) -> dict:
    """Write the heatmap document as JSON; returns the document."""
    document = heatmap_document(trace, dialog_id)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    return document


def _history_lines(history_rows: list[dict], tasks: tuple[str, ...]) -> list[str]:
    lines = []
    header = "epoch  train_loss"
    for task in tasks:
        header += f"  {task}_f1"
    lines.append(header)
    for row in history_rows:
        text = f"{row['epoch']:>5}  {row['train_loss']:>10.6f}"
        for task in tasks:
            text += f"  {row[f'val_{task}_f1']:>{len(task) + 3}.4f}"
        lines.append(text)
    return lines


def task_results(matrices: dict[str, ConfusionMatrix],
                 metrics: dict[str, Metrics], tasks) -> dict:
    """Each task's confusion counts and metrics, as the JSON documents
    carry them."""
    return {task: {"confusion": matrices[task].as_dict(),
                   "metrics": metrics[task].as_dict()}
            for task in tasks}


def render_report(history_rows: list[dict],
                  matrices: dict[str, ConfusionMatrix],
                  metrics: dict[str, Metrics],
                  config: ModelConfig, path) -> dict:
    """Write a text report plus a JSON twin next to it.

    The twin lands at the same stem with a .json suffix and carries the
    exact float values the text file prints rounded.
    """
    path = Path(path)
    tasks = config.tasks
    variant = variant_label(config)
    document = {
        "variant": variant,
        "config": asdict(config),
        "history": list(history_rows),
        "tasks": task_results(matrices, metrics, tasks),
    }

    lines = [f"== {variant} ==", ""]
    lines.append("configuration:")
    for key, value in asdict(config).items():
        lines.append(f"  {key} = {value}")
    lines.append("")
    if history_rows:
        lines.append(f"training ({len(history_rows)} epochs):")
        lines.extend("  " + text for text in _history_lines(history_rows, tasks))
    else:
        lines.append("training: none (evaluation-only run)")
    lines.append("")
    for task in tasks:
        m = matrices[task]
        s = metrics[task]
        lines.append(f"{task}:")
        lines.append(f"  confusion  tp={m.tp} fn={m.fn} fp={m.fp} tn={m.tn}")
        lines.append(f"  precision  {s.precision:.4f}")
        lines.append(f"  recall     {s.recall:.4f}")
        lines.append(f"  f1         {s.f1:.4f}")
        lines.append(f"  accuracy   {s.accuracy:.4f}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")

    twin = path.with_suffix(".json")
    with open(twin, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    return document

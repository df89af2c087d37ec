"""Dialog-level contextual attention over a sliding window of past utterances.

For utterance i with window width D, the window covers positions
max(1, i-D+1) .. i (1-based). Each modality gets softmax weights over its
own windowed hidden states; a third attention spans both modalities jointly.
Attended means are concatenated with the current hidden state(s) as a
residual, so position i always keeps its own representation. Every
attention is one ``window_attend`` op over the whole (n, d) dialog matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import ShapeError, Tensor, concat, window_attend


def window_indices(i: int, width: int) -> list[int]:
    """1-based positions attended for target i: the trailing width-wide band."""
    if i < 1:
        raise IndexError(f"utterance index must be >= 1, got {i}")
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    return list(range(max(1, i - width + 1), i + 1))


@dataclass
class TraceRow:
    """Scalar attention summaries for one target utterance (1-based)."""

    target: int
    window: list[int]
    audio: list[float]
    text: list[float]
    cross_audio: list[float]
    cross_text: list[float]


@dataclass
class DialogAttentionTrace:
    width: int
    rows: list[TraceRow]


def _attend(blocks: list[Tensor], width: int, rows: list[TraceRow],
            fields: tuple[str, ...]) -> Tensor:
    """``window_attend`` over the blocks, residual-concatenated with them.

    Fills each row's trace field for block b with the coordinate means of
    that block's valid slot weights: the last min(i, width) of its slots.
    """
    attended, weights = window_attend(blocks, width)
    for row, cells in zip(rows, weights.mean(axis=2).tolist()):
        valid = min(row.target, width)
        for b, field in enumerate(fields):
            setattr(row, field, cells[(b + 1) * width - valid:(b + 1) * width])
    return concat([attended, *blocks], axis=1)


def contextualize_dialog(
    h_audio: Tensor | None,
    h_text: Tensor | None,
    width: int,
) -> tuple[Tensor | None, Tensor | None, Tensor | None, DialogAttentionTrace]:
    """Apply windowed attention at every position of a dialog.

    ``h_audio`` and ``h_text`` are (n, d) hidden-state matrices, one row per
    utterance. Either may be None (single-modality variants); the cross
    output exists only when both are present. Returns the attended (n, 2d)
    modality and (n, 3d) cross matrices plus the scalar trace for heatmap
    export.
    """
    reference = h_audio if h_audio is not None else h_text
    if reference is None:
        raise ValueError("contextualize_dialog needs at least one modality")
    both = h_audio is not None and h_text is not None
    if both and h_audio.shape != h_text.shape:
        raise ShapeError(f"modality shape mismatch: "
                         f"{h_audio.shape} vs {h_text.shape}")
    rows = [TraceRow(target=i, window=window_indices(i, width),
                     audio=[], text=[], cross_audio=[], cross_text=[])
            for i in range(1, reference.shape[0] + 1)]
    out_audio = (_attend([h_audio], width, rows, ("audio",))
                 if h_audio is not None else None)
    out_text = (_attend([h_text], width, rows, ("text",))
                if h_text is not None else None)
    out_cross = (_attend([h_audio, h_text], width, rows,
                         ("cross_audio", "cross_text")) if both else None)
    return out_audio, out_text, out_cross, DialogAttentionTrace(width=width,
                                                                rows=rows)

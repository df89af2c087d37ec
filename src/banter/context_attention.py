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

import numpy as np

from .tensor import Tensor, concat, window_attend


@dataclass
class DialogAttentionTrace:
    """The weights of every attention run over one dialog.

    ``weights`` maps "audio", "text" and "cross" to the (n, k * width, d)
    array ``window_attend`` returned for that attention; an attention that
    did not run has no key. ``report.heatmap_document`` reads the slots.
    """

    width: int
    weights: dict[str, np.ndarray]


def contextualize_dialog(
    h_audio: Tensor | None,
    h_text: Tensor | None,
    width: int,
) -> tuple[Tensor | None, Tensor | None, Tensor | None, DialogAttentionTrace]:
    """Apply windowed attention at every position of a dialog.

    ``h_audio`` and ``h_text`` are (n, d) hidden-state matrices, one row per
    utterance. Either may be None (single-modality variants); the cross
    output exists only when both are present. Returns the attended (n, 2d)
    modality and (n, 3d) cross matrices, each ``window_attend``'s output
    residual-concatenated with its blocks, plus the attention weights.
    """
    if h_audio is None and h_text is None:
        raise ValueError("contextualize_dialog needs at least one modality")
    outputs: dict[str, Tensor] = {}
    weights: dict[str, np.ndarray] = {}
    for key, blocks in (("audio", [h_audio]), ("text", [h_text]),
                        ("cross", [h_audio, h_text])):
        if any(block is None for block in blocks):
            continue
        attended, weights[key] = window_attend(blocks, width)
        outputs[key] = concat([attended, *blocks], axis=1)
    return (outputs.get("audio"), outputs.get("text"), outputs.get("cross"),
            DialogAttentionTrace(width=width, weights=weights))

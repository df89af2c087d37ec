"""Dialog-level contextual attention over a sliding window of past utterances.

For utterance i with window width D, the window covers positions
max(1, i-D+1) .. i (1-based). Each modality gets softmax weights over its
own windowed hidden states; a third attention spans both modalities jointly.
Attended means are concatenated with the current hidden state(s) as a
residual, so position i always keeps its own representation. Every
attention is a few row passes over the whole (n, d) dialog matrices, as an
H-ATN level is, at shift 0: the states are LSTM outputs in (-1, 1), and a
shift taken from later rows would change earlier rows' bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (ShapeError, Tensor, add, concat, exp_shifted, mul,
                     window_ratio, window_weights)


@dataclass
class DialogAttentionTrace:
    """The exponentials of every attention run over one dialog.

    ``exps`` maps "audio", "text" and "cross" to the (n, d) ``exp(h)`` of
    that attention's blocks (audio, then text); an attention that did not
    run has no key. ``weights`` forms, per attention, the (n, k * s, d)
    softmax weights ``report.heatmap_document`` reads, s = min(width, n):
    slot b * s + j of row t weighs block b's row t - s + 1 + j, and the
    slots before the dialog's first row weigh exactly 0.
    """

    width: int
    exps: dict[str, list[np.ndarray]]

    @property
    def weights(self) -> dict[str, np.ndarray]:
        weights = {}
        for key, e in self.exps.items():
            span = min(self.width, len(e[0]))
            pad = ((0, 0), (span - 1, 0), (0, 0))
            weights[key] = window_weights(np.pad(np.stack(e), pad), span,
                                          np.zeros(e[0].shape[1]))
        return weights


def attend(blocks: list[Tensor],
           width: int) -> tuple[Tensor, list[np.ndarray]]:
    """Causal windowed attention over the rows of k same-shape (n, d) blocks.

    Row t of the (n, d) result is the per-coordinate softmax-weighted sum
    of the k * min(t + 1, width) rows max(0, t - width + 1) .. t of the
    blocks, divided by their count: the blocks' ``e * h`` and ``e =
    exp(h)`` are summed row by row, go behind s - 1 zero rows, which weigh
    nothing, and ``window_ratio`` takes their window sums' ratio, s =
    min(width, n); one ``mul`` divides by the count. Also returns the
    blocks' ``e`` arrays.
    """
    n, d = blocks[0].shape
    width = min(width, n)
    zero, pad = np.zeros(d), Tensor(np.zeros((width - 1, d)))
    e = [exp_shifted(h, zero) for h in blocks]
    num, den = mul(e[0], blocks[0]), e[0]
    for e_b, h in zip(e[1:], blocks[1:]):
        num, den = add(num, mul(e_b, h)), add(den, e_b)
    ratio = window_ratio(concat([pad, num]), concat([pad, den]), width, zero)
    counts = len(blocks) * np.minimum(np.arange(1, n + 1), width)
    return (mul(ratio, Tensor(np.broadcast_to(1.0 / counts[:, None], (n, d)))),
            [e_b.data for e_b in e])


def contextualize_dialog(
    h_audio: Tensor | None,
    h_text: Tensor | None,
    width: int,
) -> tuple[Tensor | None, Tensor | None, Tensor | None, DialogAttentionTrace]:
    """Apply windowed attention at every position of a dialog.

    ``h_audio`` and ``h_text`` are same-shape, non-empty (n, d) hidden-state
    matrices, one row per utterance. Either may be None (single-modality
    variants); the cross output exists only when both are present. Returns
    the attended (n, 2d) modality and (n, 3d) cross matrices, each
    ``attend``'s output residual-concatenated with its blocks, plus the
    attentions' trace.
    """
    present = [h for h in (h_audio, h_text) if h is not None]
    if not present:
        raise ValueError("contextualize_dialog needs at least one modality")
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    shape = present[0].shape
    if len(shape) != 2 or shape[0] < 1:
        raise ShapeError(f"contextualize_dialog expects non-empty (n, d) "
                         f"matrices, got shape {shape}")
    if present[-1].shape != shape:
        raise ShapeError(f"contextualize_dialog: text vs audio shape "
                         f"{present[-1].shape} vs {shape}")
    outputs: dict[str, Tensor] = {}
    exps: dict[str, list[np.ndarray]] = {}
    for key, blocks in (("audio", [h_audio]), ("text", [h_text]),
                        ("cross", [h_audio, h_text])):
        if any(block is None for block in blocks):
            continue
        attended, exps[key] = attend(blocks, width)
        outputs[key] = concat([attended, *blocks], axis=1)
    return (outputs.get("audio"), outputs.get("text"), outputs.get("cross"),
            DialogAttentionTrace(width=width, exps=exps))

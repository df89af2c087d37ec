"""Gated cross-modal filtering of each modality, one row per utterance."""

from __future__ import annotations

from .tensor import Tensor, affine_rowwise, mul, sigmoid, tanh


def filter_modality(h_mod: Tensor, h_cross: Tensor, gate_w: Tensor,
                    gate_b: Tensor) -> Tensor:
    """Squash one modality and gate it by the cross-modal representation.

    ``h_mod`` is (n, m) and ``h_cross`` is (n, c), one row per utterance.
    Row i of the output is tanh(h_mod_i) * sigmoid(gate_w . h_cross_i +
    gate_b) elementwise, so every coordinate stays strictly inside (-1, 1).
    A saturated-low gate blocks the modality; a saturated-high gate passes
    tanh(h_mod) through. The gate is computed row at a time
    (``affine_rowwise``), so a row's bits do not depend on the row count.
    """
    gate = sigmoid(affine_rowwise(h_cross, gate_w, gate_b))
    return mul(tanh(h_mod), gate)


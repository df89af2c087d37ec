"""Sequence encoders: a forget-gate LSTM and the convolutional audio encoder.

The LSTM runs over a dialog's matrix of utterance representations, one row
per utterance, to give each dialog position a hidden state. The audio
encoder turns a variable-length frame matrix into one fixed-width utterance
row via a width-3 convolution over time, ReLU, and global mean pooling.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .tensor import ShapeError, Tensor, conv_relu_mean, lstm_sequence

GATE_NAMES = ("i", "f", "g", "o")
# frames each audio convolution kernel spans
KERNEL_WIDTH = 3


def lstm_encode_dialog(params: Mapping[str, Tensor], prefix: str,
                       x: Tensor) -> Tensor:
    """Run the LSTM named ``prefix`` in ``params`` from a zero state over the
    rows of the (n, d_in) matrix ``x``; returns the (n, h) matrix whose row
    i is h_i.

    Strictly causal: h_i never sees rows after i. The whole sequence is one
    ``lstm_sequence`` op, so the tape holds one node however long the
    dialog is.
    """
    w, u, b = ([params[f"{prefix}.{kind}_{gate}"] for gate in GATE_NAMES]
               for kind in "wub")
    return lstm_sequence(x, w, u, b)


def acoustic_encode(kernels: Tensor, bias: Tensor,
                    frames: np.ndarray) -> Tensor:
    """Frame matrix (F x coefficients) -> one utterance row (1, channels).

    Zero-padded width-3 convolution over time, ReLU, global mean pool.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.size == 0:
        # conv_relu_mean checks ranks and channels; a mean of no frames is NaN
        raise ShapeError(f"acoustic_encode: empty frame matrix {frames.shape}")
    return conv_relu_mean(Tensor(frames), kernels, bias)

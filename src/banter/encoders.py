"""Sequence encoders: a forget-gate LSTM and the convolutional audio encoder.

The LSTM runs over a dialog's matrix of utterance representations, one row
per utterance, to give each dialog position a hidden state. The audio
encoder turns a variable-length frame matrix into one fixed-width utterance
row via a width-3 convolution over time, ReLU, and global mean pooling.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    conv1d_same,
    lstm_sequence,
    mean_rows,
    relu,
)

GATE_NAMES = ("i", "f", "g", "o")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_lstm(prefix: str, d_in: int, d_h: int,
              rng: np.random.Generator) -> dict[str, Tensor]:
    """Uniform fan-balanced weights, zero biases, forget bias +1.

    Returns ``{prefix}.w_{gate}`` (d_h, d_in), ``{prefix}.u_{gate}``
    (d_h, d_h) and ``{prefix}.b_{gate}`` (d_h,) for the gates input,
    forget, cell and output, in that order. All four w are drawn before
    the four u.
    """
    w = [glorot_uniform(rng, d_in, d_h, (d_h, d_in)) for _ in GATE_NAMES]
    u = [glorot_uniform(rng, d_h, d_h, (d_h, d_h)) for _ in GATE_NAMES]
    named = {}
    for gate, w_gate, u_gate in zip(GATE_NAMES, w, u):
        named[f"{prefix}.w_{gate}"] = Tensor(w_gate, requires_grad=True)
        named[f"{prefix}.u_{gate}"] = Tensor(u_gate, requires_grad=True)
        named[f"{prefix}.b_{gate}"] = Tensor(
            np.full(d_h, 1.0 if gate == "f" else 0.0), requires_grad=True)
    return named


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


def init_acoustic(channels: int, coefficients: int, rng: np.random.Generator,
                  width: int = 3) -> tuple[Tensor, Tensor]:
    """Time convolution kernels (channels, width, coefficients) and bias."""
    kernels = Tensor(
        glorot_uniform(rng, coefficients * width, channels,
                       (channels, width, coefficients)),
        requires_grad=True)
    bias = Tensor(np.zeros(channels), requires_grad=True)
    return kernels, bias


def acoustic_encode(kernels: Tensor, bias: Tensor,
                    frames: np.ndarray) -> Tensor:
    """Frame matrix (F x coefficients) -> one utterance row (1, channels).

    Zero-padded width-3 convolution over time, ReLU, global mean pool.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.size == 0:
        # conv1d_same checks ranks and channels; a mean over no frames is NaN
        raise ShapeError(f"acoustic_encode: empty frame matrix {frames.shape}")
    convolved = conv1d_same(Tensor(frames), kernels, bias)
    return mean_rows(relu(convolved))

"""Sequence encoders: a forget-gate LSTM and the convolutional audio encoder.

The LSTM runs over a dialog's matrix of utterance representations, one row
per utterance, to give each dialog position a hidden state. The audio
encoder turns a variable-length frame matrix into one fixed-width utterance
row via a width-3 convolution over time, ReLU, and global mean pooling.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class LstmParams:
    """Gate weights (input, forget, cell, output), recurrences, and biases."""

    w: dict[str, Tensor]  # gate -> (d_h, d_in)
    u: dict[str, Tensor]  # gate -> (d_h, d_h)
    b: dict[str, Tensor]  # gate -> (d_h,)

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for gate in GATE_NAMES:
            out[f"{prefix}.w_{gate}"] = self.w[gate]
            out[f"{prefix}.u_{gate}"] = self.u[gate]
            out[f"{prefix}.b_{gate}"] = self.b[gate]
        return out


def init_lstm(d_in: int, d_h: int, rng: np.random.Generator) -> LstmParams:
    """Uniform fan-balanced weights, zero biases, forget bias +1."""
    w = {g: Tensor(glorot_uniform(rng, d_in, d_h, (d_h, d_in)), requires_grad=True)
         for g in GATE_NAMES}
    u = {g: Tensor(glorot_uniform(rng, d_h, d_h, (d_h, d_h)), requires_grad=True)
         for g in GATE_NAMES}
    b = {g: Tensor(np.full(d_h, 1.0 if g == "f" else 0.0), requires_grad=True)
         for g in GATE_NAMES}
    return LstmParams(w=w, u=u, b=b)


def lstm_encode_dialog(params: LstmParams, x: Tensor) -> Tensor:
    """Run the LSTM from a zero state over the rows of the (n, d_in) matrix
    ``x``; returns the (n, h) matrix whose row i is h_i.

    Strictly causal: h_i never sees rows after i. The whole sequence is one
    ``lstm_sequence`` op, so the tape holds one node however long the
    dialog is.
    """
    return lstm_sequence(x,
                         [params.w[g] for g in GATE_NAMES],
                         [params.u[g] for g in GATE_NAMES],
                         [params.b[g] for g in GATE_NAMES])


@dataclass
class AcousticEncoderParams:
    """Time convolution kernels (channels x width x coefficients) and bias."""

    kernels: Tensor
    bias: Tensor

    @property
    def coefficients(self) -> int:
        return self.kernels.shape[2]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.kernels": self.kernels, f"{prefix}.bias": self.bias}


def init_acoustic(channels: int, coefficients: int,
                  rng: np.random.Generator, width: int = 3) -> AcousticEncoderParams:
    kernels = Tensor(
        glorot_uniform(rng, coefficients * width, channels,
                       (channels, width, coefficients)),
        requires_grad=True)
    bias = Tensor(np.zeros(channels), requires_grad=True)
    return AcousticEncoderParams(kernels=kernels, bias=bias)


def acoustic_encode(params: AcousticEncoderParams, frames: np.ndarray) -> Tensor:
    """Frame matrix (F x coefficients) -> one utterance row (1, channels).

    Zero-padded width-3 convolution over time, ReLU, global mean pool.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != params.coefficients:
        raise ShapeError(
            f"acoustic_encode: frames must be F x {params.coefficients}, "
            f"got shape {frames.shape}")
    if frames.shape[0] < 1:
        raise ShapeError("acoustic_encode: empty frame matrix")
    convolved = conv1d_same(Tensor(frames), params.kernels, params.bias)
    return mean_rows(relu(convolved))

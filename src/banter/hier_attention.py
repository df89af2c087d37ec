"""Hierarchical local attention collapsing a vector sequence to one row.

Level 0 rectifies the inputs. Each later level slides a stride-1 window of
fixed width over the previous level's vectors, softmax-weights the window
per coordinate, averages, and projects through a shared affine + ReLU. The
level count for N inputs and width X is ceil((N-1)/(X-1)); the final level
leaves a single context row. The same operation serves token embeddings
and audio frame sequences.

Every level is one fixed group of whole-matrix ops on that level's (n, d)
matrix, however many windows it holds.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    affine_rows,
    mul,
    relu,
    scale,
    sliding_windows,
    softmax,
    sum_axis,
)


def level_count(n: int, width: int) -> int:
    """Attention levels needed to collapse n vectors with stride-1 windows.

    Each level shrinks the sequence by width - 1, except a final truncated
    window which also ends the hierarchy; ceil((n-1)/(width-1)) covers both.
    """
    if n < 1:
        raise ValueError(f"need at least one vector, got {n}")
    if width < 2:
        raise ValueError(f"window width must be at least 2, got {width}")
    return -((n - 1) // -(width - 1))


def hier_attend(vectors: Tensor, proj_w: Tensor, proj_b: Tensor,
                width: int = 3) -> tuple[Tensor, list[np.ndarray]]:
    """Collapse the N rows of an (N, d) matrix to one (1, d) row.

    Windows slide with stride 1 and full width while enough vectors remain;
    when fewer than ``width`` are left, a single truncated window finishes
    the level. Each window's weighted sum is divided by the window's size,
    so truncated final windows stay a bounded average. Returns the final
    row and, per attention level in order, the (windows, size, d) softmax
    weights that built it; a level's window count is its vector count.
    """
    if vectors.data.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError(f"hier_attend needs an (n, d) matrix with at least "
                         f"one row, got shape {vectors.shape}")
    if width < 2:
        raise ValueError(f"window width must be at least 2, got {width}")
    current = relu(vectors)
    level_weights = []
    while current.shape[0] > 1:
        size = min(width, current.shape[0])
        windows = sliding_windows(current, size)
        weights = softmax(windows, axis=1)
        pooled = scale(sum_axis(mul(weights, windows), axis=1), 1.0 / size)
        current = relu(affine_rows(pooled, proj_w, proj_b))
        level_weights.append(weights.data)
    return current, level_weights


def init_projection(dim: int, rng: np.random.Generator,
                    noise: float = 0.01) -> tuple[Tensor, Tensor]:
    """Near-identity affine map so early training passes vectors through."""
    w = np.eye(dim) + rng.uniform(-noise, noise, size=(dim, dim))
    return (Tensor(w, requires_grad=True),
            Tensor(np.zeros(dim), requires_grad=True))

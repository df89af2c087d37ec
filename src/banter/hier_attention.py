"""Hierarchical local attention collapsing a vector sequence to one row.

Level 0 rectifies the inputs. Each later level slides a stride-1 window of
fixed width over the previous level's vectors, softmax-weights the window
per coordinate, averages, and projects through a shared affine + ReLU. The
level count for N inputs and width X is ceil((N-1)/(X-1)); the final level
leaves a single context row. The same operation serves token embeddings
and audio frame sequences.

Every level is one fixed group of row passes over that level's (n, d)
matrix, however many windows it holds: each row is exponentiated once,
against a per-column shift, and each window's softmax numerator and
denominator are ``width`` shifted adds of those rows.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    affine_relu_rows,
    exp_shifted,
    mul,
    relu,
    scale,
    window_ratio,
    window_weights,
)

# half-width of the uniform noise added to the identity projection at init
PROJECTION_NOISE = 0.01
# a column whose values spread wider than this within one level gets a
# shift per row: exp(-spread) from one level-wide shift nears float64's
# underflow at 745
SHIFT_SPREAD_LIMIT = 600.0


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


def _level_shift(x: np.ndarray) -> np.ndarray:
    """The constant a level takes off its (n, d) matrix before exp.

    Each column's maximum, as a (d,) array. If some column spreads wider
    than ``SHIFT_SPREAD_LIMIT``, an (n, d) array whose wide columns hold
    their own values, so that ``window_ratio`` rescales each of their
    windows to its own maximum.
    """
    top = x.max(axis=0)
    wide = top - x.min(axis=0) > SHIFT_SPREAD_LIMIT
    return np.where(wide, x, top) if wide.any() else top


def hier_attend(vectors: Tensor, proj_w: Tensor, proj_b: Tensor,
                width: int = 3, weights: bool = False
                ) -> tuple[Tensor, list[np.ndarray] | None]:
    """Collapse the N rows of an (N, d) matrix to one (1, d) row.

    Windows slide with stride 1 and full width while enough vectors remain;
    when fewer than ``width`` are left, a single truncated window finishes
    the level. Each window's softmax-weighted sum is divided by the
    window's size, so truncated final windows stay a bounded average.
    Returns the final row and, if ``weights`` is set, per attention level
    in order, the (windows, size, d) softmax weights that built it (a
    level's window count is its vector count); otherwise None.
    """
    if vectors.data.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError(f"hier_attend needs an (n, d) matrix with at least "
                         f"one row, got shape {vectors.shape}")
    if width < 2:
        raise ValueError(f"window width must be at least 2, got {width}")
    current = relu(vectors)
    level_weights = [] if weights else None
    while current.shape[0] > 1:
        size = min(width, current.shape[0])
        shift = _level_shift(current.data)
        e = exp_shifted(current, shift)
        # scaling the numerators, not the ratio, lets window_ratio's output
        # be the array the projection reads, so the tape keeps one copy
        pooled = window_ratio(scale(mul(e, current), 1.0 / size), e, size,
                              shift)
        if level_weights is not None:
            level_weights.append(window_weights(e.data, size, shift))
        current = affine_relu_rows(pooled, proj_w, proj_b)
    return current, level_weights


def init_projection(dim: int,
                    rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Near-identity affine map so early training passes vectors through."""
    w = np.eye(dim) + rng.uniform(-PROJECTION_NOISE, PROJECTION_NOISE,
                                  size=(dim, dim))
    return (Tensor(w, requires_grad=True),
            Tensor(np.zeros(dim), requires_grad=True))

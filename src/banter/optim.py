"""Adam optimizer over a named map of parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .tensor import NumericError, ShapeError, Tensor

# moment decay rates and the denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers, step count and learning rate for Adam.

    Moment buffers are allocated lazily per parameter name on the first step.
    """

    lr: float = 1e-3
    t: int = 0
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(state: AdamState, params: Mapping[str, Tensor]) -> None:
    """One bias-corrected Adam update; every ``.grad`` is ``None`` after it.

    A ``None`` gradient (no dialog of the batch reached the parameter) steps
    as a zero array would: the parameter still moves by its momentum.
    """
    for name, p in params.items():
        if p.grad is None:
            continue
        if p.grad.shape != p.data.shape:
            raise ShapeError(f"adam_step: gradient shape mismatch on {name!r}")
        if not np.isfinite(p.grad).all():
            raise NumericError(f"adam_step: non-finite gradient on {name!r}")

    state.t += 1
    correct1 = 1.0 - BETA1 ** state.t
    correct2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state.moments[name]
        g = 0.0 if p.grad is None else p.grad
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / correct1
        v_hat = v / correct2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None


def _norm(grads: list[np.ndarray], scale: float = 1.0) -> float:
    """The joint L2 norm of ``grads``, summed as squares of ``g / scale``."""
    total = 0.0
    for g in grads:
        if scale != 1.0:
            g = g / scale
        total += float(np.sum(g * g))
    return scale * total ** 0.5


def clip_gradients(params: Mapping[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. A finite norm whose square overflows is
    formed from the gradients divided by their largest magnitude. A
    non-finite norm leaves the gradients as they are, and ``adam_step``
    names the parameter.
    """
    grads = [p.grad for p in params.values() if p.grad is not None]
    with np.errstate(over="ignore"):
        norm = _norm(grads)
    if norm == float("inf"):
        # no gradient is NaN, or the norm would be; an infinite one keeps
        # the infinite norm
        largest = float(max(map(np.max, map(np.abs, grads))))
        if largest < float("inf"):
            norm = _norm(grads, largest)
    if norm > max_norm and 0.0 < norm < float("inf"):
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm

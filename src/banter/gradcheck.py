"""Finite-difference verification of analytic gradients.

The checker treats the loss function as a black box over a named set of
parameters, compares tape gradients against central differences
(f(x+h) - f(x-h)) / 2h per scalar, and reports the worst guarded relative
error per parameter. A scalar that misses, and whose one-sided differences
also disagree, has a kink (a ReLU corner) within h: it is evaluated again
at h / 10 and keeps the smaller error. A smooth point costs two calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .tensor import Tape, Tensor, backward

# Central-difference step and the largest relative error that passes.
STEP = 1e-5
TOL = 1e-4
# Relative errors are guarded below this scale so finite-difference noise on
# near-zero gradients does not register as failure.
REL_ERR_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    """Per-parameter worst relative errors from one grad_check run."""

    max_rel_err: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"grad check {status} (tol={TOL:g}, h={STEP:g}, "
                 f"{STEP / 10:g} at a kink)"]
        for name in sorted(self.max_rel_err):
            mark = "ok  " if name not in self.failures else "FAIL"
            lines.append(f"  {mark} {name}: max rel err {self.max_rel_err[name]:.3e}")
        return "\n".join(lines)


def grad_check(f: Callable[[Mapping[str, Tensor]], Tensor],
               params: Mapping[str, Tensor]) -> GradCheckReport:
    """Compare tape gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (run dropout in eval mode); this is verified
    by evaluating the baseline twice. Existing gradient buffers are restored
    on exit.
    """
    loss_a = float(f(params).item())
    loss_b = float(f(params).item())
    if loss_a != loss_b:
        raise ValueError(
            f"grad_check needs a deterministic function; baseline evaluations "
            f"differ ({loss_a!r} vs {loss_b!r})")

    saved = {name: p.grad for name, p in params.items()}
    for p in params.values():
        p.grad = None
    try:
        with Tape():
            backward(f(params))
        # a parameter the loss does not reach has a zero gradient
        analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad
                    for name, p in params.items()}
    finally:
        for name, p in params.items():
            p.grad = saved[name]

    def ends(flat: np.ndarray, i: int, step: float) -> list[float]:
        """f at flat[i] + step and at flat[i] - step; flat[i] is restored."""
        original, values = flat[i], []
        for x in (original + step, original - step):
            flat[i] = x
            values.append(float(f(params).item()))
        flat[i] = original
        return values

    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            a = grad_flat[i]
            f_plus, f_minus = ends(flat, i, STEP)
            rel = _rel_err(a, (f_plus - f_minus) / (2.0 * STEP))
            if rel > TOL and _rel_err((f_plus - loss_a) / STEP,
                                      (loss_a - f_minus) / STEP) > TOL:
                # a kink within the step: a tenth of it steps past
                f_plus, f_minus = ends(flat, i, STEP / 10)
                rel = min(rel, _rel_err(a, (f_plus - f_minus) / (0.2 * STEP)))
            worst = max(worst, rel)
        report.max_rel_err[name] = worst
        if worst > TOL:
            report.failures.append(name)
    return report


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_ERR_FLOOR)

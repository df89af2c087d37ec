"""Finite-difference verification of analytic gradients.

The checker treats the loss function as a black box over a named set of
parameters, compares tape gradients against central differences
(f(x+h) - f(x-h)) / 2h per scalar, and reports the worst guarded relative
error per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

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
        lines = [f"grad check {status} (tol={TOL:g}, h={STEP:g})"]
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

    saved = {name: (None if p.grad is None else p.grad.copy())
             for name, p in params.items()}
    for p in params.values():
        p.zero_grad()
    try:
        with Tape():
            loss = f(params)
            backward(loss)
        analytic = {name: p.grad.copy() for name, p in params.items()}
    finally:
        for name, p in params.items():
            p.grad = saved[name]

    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + STEP
            f_plus = float(f(params).item())
            flat[i] = original - STEP
            f_minus = float(f(params).item())
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * STEP)
            a = grad_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_ERR_FLOOR)
            if rel > worst:
                worst = rel
        report.max_rel_err[name] = worst
        if worst > TOL:
            report.failures.append(name)
    return report

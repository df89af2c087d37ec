"""Session fixtures: one clean and one mutated run of the verify suite.

``test_verify.py`` and the CLI's verify-command tests both read these, so
the 12 checks run once per state however many tests inspect the results.
"""

import time

import numpy as np
import pytest

from banter import tensor as tensor_mod
from banter.verify import run_checks


def broken_tanh(a):
    # correct forward, wrong derivative: the mutation the suite must catch
    y = np.tanh(a.data)
    out = tensor_mod.Tensor(y)

    def bwd(gs):
        return (gs[0] * (1.0 - 0.35 * y * y),)

    tensor_mod._finish("tanh", [out], [a], bwd)
    return out


@pytest.fixture(scope="session")
def pristine():
    """The clean suite's results and the seconds the run took."""
    start = time.monotonic()
    results = run_checks()
    return results, time.monotonic() - start


@pytest.fixture(scope="session")
def mutated():
    """The suite's results by check name, in run order, with ``tanh``'s
    derivative broken."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_mod, "tanh", broken_tanh)
        return {r.name: r for r in run_checks()}

"""The benchmark's own tests: tiny runs of every workload, and mutations
that its correctness checks must catch.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import workload  # noqa: E402
from banter import hier_attention, tensor  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_tiny_run_prints_the_declared_metrics(name, trace):
    result = _tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)


def test_same_seed_writes_the_same_inputs(tmp_path):
    spec = inputs.WORKLOADS["full"].tiny()
    first = inputs.write_inputs(spec, 11, tmp_path / "a")
    second = inputs.write_inputs(spec, 11, tmp_path / "b")
    other = inputs.write_inputs(spec, 12, tmp_path / "c")
    for field in ("train_corpus", "eval_corpus", "embeddings"):
        a = getattr(first, field).read_bytes()
        assert a == getattr(second, field).read_bytes()
        assert a != getattr(other, field).read_bytes()


@pytest.fixture(scope="module")
def trained_full(tmp_path_factory):
    """A tiny `full` workload after one clean round."""
    work = tmp_path_factory.mktemp("full")
    spec = inputs.WORKLOADS["full"].tiny()
    files = inputs.write_inputs(spec, 5, work)
    bench = workload.Workload(spec, files, 5, work)
    assert bench.run_round().failures == []
    assert bench.model_checks() == []
    return bench


def test_reference_check_catches_unscaled_window_average(trained_full,
                                                         monkeypatch):
    # hier_attend without its 1/|window| scaling
    monkeypatch.setattr(hier_attention, "scale", lambda a, c: a)
    failures = trained_full.model_checks()
    assert any(f.startswith("(a)") for f in failures), failures


def test_gradient_check_catches_a_wrong_adjoint(trained_full, monkeypatch):
    # window weighting whose adjoint drops the weights' share
    def mul_missing_left_adjoint(a, b):
        out = tensor.Tensor(a.data * b.data)
        tensor._finish("mul", [out], [a, b],
                       lambda gs: (np.zeros_like(a.data), gs[0] * a.data))
        return out

    monkeypatch.setattr(hier_attention, "mul", mul_missing_left_adjoint)
    failures = trained_full.model_checks()
    assert any(f.startswith("(c)") for f in failures), failures

"""Tests for the built-in verification suite, including a mutation fixture.

The ``pristine`` and ``mutated`` runs are session fixtures in conftest.py.
"""

import dataclasses

import numpy as np
import pytest

from banter import context_attention, fusion, model, tensor, verify
from banter.metrics import ConfusionMatrix, confusion
from banter.model import ParameterSet, save_checkpoint
from banter.verify import CHECKS, run_checks


class TestPristineSuite:
    def test_every_check_passes(self, pristine):
        results, _ = pristine
        failed = [r for r in results if not r.passed]
        assert failed == [], "\n".join(f"{r.name}: {r.detail}" for r in failed)

    def test_results_follow_declared_order(self, pristine):
        results, _ = pristine
        assert [r.name for r in results] == [name for name, _ in CHECKS]

    def test_check_names_are_unique_and_namespaced(self):
        names = [name for name, _ in CHECKS]
        assert len(set(names)) == len(names)
        for name in names:
            prefix, _, rest = name.partition(".")
            assert prefix in {"gradients", "structure", "oracle",
                              "roundtrip", "determinism"}
            assert rest

    def test_model_fixture_outruns_the_dialog_window(self):
        # so gradients.model covers the window sliding past utterance 1
        config, _, dialog, _ = verify._tiny_model_fixture()
        assert len(dialog.utterances) > config.attn_width_dialog

    def test_suite_finishes_inside_a_minute(self, pristine):
        _, seconds = pristine
        assert seconds < 60.0


class TestInjectedBug:
    def test_broken_tanh_gradient_is_caught_and_named(self, mutated):
        elementwise = mutated["gradients.elementwise"]
        assert not elementwise.passed
        assert "tanh.x" in elementwise.detail

    def test_unrelated_checks_stay_green_under_the_bug(self, mutated):
        # these paths never route through the patched module attribute
        assert mutated["oracle.metrics"].passed
        assert mutated["roundtrip.checkpoint"].passed
        assert mutated["structure.hier_levels"].passed

    def test_failing_check_reports_relative_error(self, mutated):
        assert "max rel err" in mutated["gradients.elementwise"].detail

    def test_patch_teardown_restores_the_op(self, mutated):
        # raises if the broken derivative leaked out of the fixture context
        verify.check_op_gradients("gradients.elementwise")

    def test_exception_inside_check_becomes_failure(self, monkeypatch):
        def explode():
            raise RuntimeError("wired to fail")

        ran = []
        monkeypatch.setattr(verify, "CHECKS", (
            ("gradients.model", explode),
            ("oracle.metrics", lambda: ran.append("oracle.metrics"))))
        results = run_checks()
        assert not results[0].passed
        assert "wired to fail" in results[0].detail
        assert all(r.passed for r in results[1:])
        assert ran == ["oracle.metrics"]


# Planted faults for checks that broken_tanh does not reach: each installs
# its fault through the monkeypatch it is given.

def swap_false_calls(mp):
    def swapped(preds, labels):
        m = confusion(preds, labels)
        return ConfusionMatrix(tp=m.tp, fn=m.fp, fp=m.fn, tn=m.tn)

    mp.setattr(verify, "confusion", swapped)


def filter_without_tanh(mp):
    mp.setattr(fusion, "tanh", lambda a: a)


def unseeded_dropout(mp):
    mp.setattr(model, "dropout", lambda a, rate, training, rng=None:
               tensor.dropout(a, rate, training, np.random.default_rng()))


def window_reads_one_row_ahead(mp):
    def peeking(blocks, width):
        # row t holds row t + 1's values; the last row repeats
        ahead = [tensor.Tensor(np.concatenate([b.data[1:], b.data[-1:]]))
                 for b in blocks]
        return tensor.window_attend(ahead, width)

    mp.setattr(context_attention, "window_attend", peeking)


def save_drops_a_parameter(mp):
    def save_all_but_last(params, path, config):
        kept = ParameterSet()
        for name, t in list(params.items())[:-1]:
            kept.register(name, t)
        save_checkpoint(kept, path, config)

    mp.setattr(verify, "save_checkpoint", save_all_but_last)


def save_drops_the_threshold(mp):
    mp.setattr(model, "asdict", lambda config: {
        key: value for key, value in dataclasses.asdict(config).items()
        if key != "threshold"})


PLANTED_FAULTS = [
    ("oracle.metrics", swap_false_calls, "confusion counts"),
    ("structure.filter_bounds", filter_without_tanh, "escaped (-1, 1)"),
    ("determinism.training", unseeded_dropout, "diverge"),
    ("structure.context_causality", window_reads_one_row_ahead,
     "changed output"),
    ("roundtrip.checkpoint", save_drops_a_parameter, "missing parameter"),
    ("roundtrip.checkpoint", save_drops_the_threshold,
     "threshold: saved 0.75, loaded 0.5"),
]


class TestPlantedFaults:
    @pytest.mark.parametrize("check, plant, named", PLANTED_FAULTS,
                             ids=[plant.__name__
                                  for _, plant, _ in PLANTED_FAULTS])
    def test_check_alone_catches_its_fault(self, monkeypatch, check, plant,
                                           named):
        monkeypatch.setattr(verify, "CHECKS",
                            ((check, dict(CHECKS)[check]),))
        plant(monkeypatch)
        [result] = run_checks()
        assert result.name == check and not result.passed
        assert named in result.detail

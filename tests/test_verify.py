"""Tests for the built-in verification suite, including a mutation fixture.

The ``pristine`` and ``mutated`` runs are session fixtures in conftest.py.
"""

import dataclasses

import numpy as np
import pytest

from banter import (
    context_attention,
    fusion,
    hier_attention,
    model,
    tensor,
    verify,
)
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


def softmax_over_coordinates(mp):
    # normalises each window row across d in place of across its rows
    mp.setattr(hier_attention, "softmax",
               lambda a, axis: tensor.softmax(a, axis=2))


def windows_drop_the_last(mp):
    def short(a, size):
        windows = tensor.sliding_windows(a, size)
        # a level of one window keeps it, so the hierarchy still ends
        if windows.shape[0] == 1:
            return windows
        return tensor.Tensor(windows.data[:-1])

    mp.setattr(hier_attention, "sliding_windows", short)


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


def saved_value_replaced(mp, op, name, wrong):
    """Plant: ``op``'s backward rule reads ``wrong(saved)`` in place of its
    saved value ``name``, where ``saved`` maps the names its rule closes
    over to their values. The forward pass is untouched."""
    record = tensor._finish

    def finish(op_name, outputs, parents, backward_fn):
        recorded = tensor.active_tape() is not None and any(
            p.requires_grad for p in parents)
        if op_name == op and recorded:
            names = backward_fn.__code__.co_freevars
            cells = dict(zip(names, backward_fn.__closure__))
            saved = {key: cell.cell_contents for key, cell in cells.items()}
            cells[name].cell_contents = wrong(saved)
        record(op_name, outputs, parents, backward_fn)

    mp.setattr(tensor, "_finish", finish)


def affine_reads_rows_reversed(mp):
    saved_value_replaced(mp, "affine_rowwise", "x_data",
                         lambda saved: saved["x_data"][::-1])


def mul_reads_a_for_both(mp):
    saved_value_replaced(mp, "mul", "b_data", lambda saved: saved["a_data"])


def window_reads_its_output(mp):
    # the scaled output in place of the pooled sum it was made from
    saved_value_replaced(mp, "window_attend", "pooled", lambda saved:
                         saved["pooled"] * saved["inv_count"])


def lstm_reads_tanh_of_cells(mp):
    saved_value_replaced(mp, "lstm_sequence", "cells",
                         lambda saved: saved["tanh_cells"])


def conv_reads_taps_reversed(mp):
    saved_value_replaced(mp, "conv1d_same", "k_data",
                         lambda saved: saved["k_data"][:, ::-1])


def relu_keeps_the_complement_mask(mp):
    saved_value_replaced(mp, "relu", "mask", lambda saved: ~saved["mask"])


PLANTED_FAULTS = [
    ("oracle.metrics", swap_false_calls, "confusion counts"),
    ("structure.filter_bounds", filter_without_tanh, "escaped (-1, 1)"),
    ("determinism.training", unseeded_dropout, "diverge"),
    ("structure.context_causality", window_reads_one_row_ahead,
     "changed output"),
    ("structure.hier_levels", softmax_over_coordinates, "weights sum"),
    ("structure.hier_levels", windows_drop_the_last, "levels, expected"),
    ("roundtrip.checkpoint", save_drops_a_parameter, "missing parameter"),
    ("roundtrip.checkpoint", save_drops_the_threshold,
     "threshold: saved 0.75, loaded 0.5"),
    ("gradients.linear", affine_reads_rows_reversed, "FAIL affine_rowwise.w"),
    ("gradients.linear", mul_reads_a_for_both, "FAIL sum_axis.a"),
    ("gradients.softmax", window_reads_its_output,
     "FAIL window_attend[k=1,n=5].h0"),
    ("gradients.lstm", lstm_reads_tanh_of_cells,
     "FAIL lstm_sequence[n=5].w_f"),
    ("gradients.conv", conv_reads_taps_reversed, "FAIL conv1d_same.x"),
    ("gradients.model", relu_keeps_the_complement_mask,
     "FAIL text_attn.proj_w"),
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

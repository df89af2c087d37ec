"""Tests for the built-in verification suite and the faults it catches.

The ``pristine`` run is a session fixture in conftest.py: the ``banter
verify`` run of the reachability traffic.
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
        assert pristine["code"] == 0, pristine["listing"]
        assert pristine["listing"].endswith(
            f"{len(CHECKS)} checks, all passed\n"), pristine["listing"]

    def test_results_follow_declared_order(self, pristine):
        listed = [line[6:].partition(":")[0]
                  for line in pristine["listing"].splitlines()
                  if line.startswith(("ok    ", "FAIL  "))]
        assert listed == [name for name, _ in CHECKS]

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
        # measured under the traffic's call hook, which slows it
        assert pristine["seconds"] < 60.0


def broken_tanh(mp):
    """``tanh`` with its correct forward and a wrong derivative."""
    def tanh(a):
        y = np.tanh(a.data)
        out = tensor.Tensor(y)

        def bwd(gs):
            return (gs[0] * (1.0 - 0.35 * y * y),)

        tensor._finish("tanh", [out], [a], bwd)
        return out

    mp.setattr(tensor, "tanh", tanh)


def run_alone(*names):
    """Run only the named checks, in the order given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "CHECKS",
                   tuple((name, dict(CHECKS)[name]) for name in names))
        return run_checks()


@pytest.fixture(scope="module")
def elementwise_under_broken_tanh():
    """``gradients.elementwise``'s result, run alone under ``broken_tanh``."""
    with pytest.MonkeyPatch.context() as mp:
        broken_tanh(mp)
        [result] = run_alone("gradients.elementwise")
    return result


class TestInjectedBug:
    def test_broken_tanh_gradient_is_caught_and_named(
            self, elementwise_under_broken_tanh):
        result = elementwise_under_broken_tanh
        assert result.name == "gradients.elementwise" and not result.passed
        assert "FAIL tanh.x" in result.detail

    def test_failing_check_reports_relative_error(
            self, elementwise_under_broken_tanh):
        assert "tanh.x: max rel err" in elementwise_under_broken_tanh.detail

    def test_unrelated_checks_stay_green_under_the_bug(self, monkeypatch):
        # these paths never route through the patched module attribute
        broken_tanh(monkeypatch)
        results = run_alone("oracle.metrics", "roundtrip.checkpoint",
                            "structure.hier_levels")
        assert [(r.name, r.passed) for r in results] == [
            ("oracle.metrics", True), ("roundtrip.checkpoint", True),
            ("structure.hier_levels", True)]

    def test_patch_teardown_restores_the_op(self):
        with pytest.MonkeyPatch.context() as mp:
            broken_tanh(mp)
        # raises if the broken derivative outlived its patch
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


# Planted faults for the checks other than gradients.elementwise, whose
# fault is broken_tanh: each installs its fault through the monkeypatch it
# is given.

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
    def peeking(num, den, size, shift):
        # row t holds row t + 1's values; the last row repeats
        ahead = [tensor.Tensor(np.concatenate([x.data[1:], x.data[-1:]]))
                 for x in (num, den)]
        return tensor.window_ratio(*ahead, size, shift)

    mp.setattr(context_attention, "window_ratio", peeking)


def softmax_over_coordinates(mp):
    # normalises each window row's exponentials across d in place of
    # across the window's rows
    def across(e, size, shift):
        m = e.shape[0] - size + 1
        rows = np.stack([e[j:j + m] for j in range(size)], axis=1)
        return rows / rows.sum(axis=2, keepdims=True)

    mp.setattr(hier_attention, "window_weights", across)


def windows_drop_the_last(mp):
    def short(num, den, size, shift):
        ratio = tensor.window_ratio(num, den, size, shift)
        # a level of one window keeps it, so the hierarchy still ends
        if ratio.shape[0] == 1:
            return ratio
        return tensor.Tensor(ratio.data[:-1])

    mp.setattr(hier_attention, "window_ratio", short)


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
        if op_name == op and tensor._needs(parents) is not None:
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
    # the window mean, its output over the window size, in place of the
    # output itself
    saved_value_replaced(mp, "window_ratio", "ratio", lambda saved:
                         saved["ratio"] / saved["size"])


def lstm_reads_tanh_of_cells(mp):
    saved_value_replaced(mp, "lstm_sequence", "cells",
                         lambda saved: saved["tanh_cells"])


def conv_reads_taps_reversed(mp):
    saved_value_replaced(mp, "conv_relu_mean", "k_data",
                         lambda saved: saved["k_data"][:, ::-1])


def relu_keeps_the_complement_mask(mp):
    saved_value_replaced(mp, "relu", "mask", lambda saved: ~saved["mask"])


def affine_relu_keeps_the_complement_mask(mp):
    # the rule reads its mask off its output, which the ReLU rectifies
    # only after recording; this array is 1 exactly where the rectified
    # output is 0
    saved_value_replaced(mp, "affine_relu_rows", "rectified",
                         lambda saved: (saved["rectified"] <= 0.0) * 1.0)


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
    ("gradients.linear", affine_relu_keeps_the_complement_mask,
     "FAIL affine_relu_rows.x"),
    ("gradients.softmax", window_reads_its_output,
     "FAIL window_ratio[k=1,n=5].h0"),
    ("gradients.lstm", lstm_reads_tanh_of_cells,
     "FAIL lstm_sequence[n=5].w_f"),
    ("gradients.conv", conv_reads_taps_reversed,
     "FAIL conv_relu_mean.x"),
    ("gradients.model", relu_keeps_the_complement_mask,
     "FAIL text_attn.proj_w"),
]


class TestPlantedFaults:
    @pytest.mark.parametrize("check, plant, named", PLANTED_FAULTS,
                             ids=[plant.__name__
                                  for _, plant, _ in PLANTED_FAULTS])
    def test_check_alone_catches_its_fault(self, monkeypatch, check, plant,
                                           named):
        plant(monkeypatch)
        [result] = run_alone(check)
        assert result.name == check and not result.passed
        assert named in result.detail

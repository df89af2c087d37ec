"""Windowed dialog attention: values, causality, traces, gradients."""

import numpy as np
import pytest

from banter.context_attention import contextualize_dialog
from banter.gradcheck import grad_check
from banter.report import heatmap_document
from banter.tensor import ShapeError, Tensor, add, mul, sum_all


def softmax_group(stack: np.ndarray) -> np.ndarray:
    shifted = np.exp(stack - stack.max(axis=0))
    return shifted / shifted.sum(axis=0)


def modality_oracle(hiddens: np.ndarray, i: int, width: int) -> np.ndarray:
    """Direct loop transcription of the single-modality attention."""
    lo = max(1, i - width + 1)
    window = hiddens[lo - 1:i]
    weights = softmax_group(window)
    mean = (weights * window).sum(axis=0) / len(window)
    return np.concatenate([mean, hiddens[i - 1]])


def cross_oracle(h_audio: np.ndarray, h_text: np.ndarray, i: int,
                 width: int) -> np.ndarray:
    lo = max(1, i - width + 1)
    group = np.concatenate([h_audio[lo - 1:i], h_text[lo - 1:i]], axis=0)
    weights = softmax_group(group)
    mean = (weights * group).sum(axis=0) / len(group)
    return np.concatenate([mean, h_audio[i - 1], h_text[i - 1]])


def list_form_mean(blocks: list[list[np.ndarray]]) -> np.ndarray:
    """The layer's sums at one position, step for step: per window row,
    ``exp(h) * h`` and ``exp(h)`` added over the blocks; a running sum of
    each over the window's rows; their ratio, times 1 / count."""
    window = list(zip(*blocks))
    num = den = 0.0
    for vectors in window:
        exps = [np.exp(v) for v in vectors]
        row_num, row_den = exps[0] * vectors[0], exps[0]
        for e, v in zip(exps[1:], vectors[1:]):
            row_num, row_den = row_num + e * v, row_den + e
        num, den = num + row_num, den + row_den
    return num / den * (1.0 / (len(blocks) * len(window)))


def matrices(rng, n, d):
    return (Tensor(rng.uniform(-1, 1, size=(n, d))),
            Tensor(rng.uniform(-1, 1, size=(n, d))))


class TestAttendedModality:
    """One modality's attention, read row by row from contextualize_dialog."""

    def test_first_utterance_self_concat(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        _, out, _, trace = contextualize_dialog(None, h, 5)
        weights = trace.weights["text"]
        np.testing.assert_allclose(weights[0, -1], np.ones(4))
        np.testing.assert_allclose(weights[0, :-1], 0.0)
        np.testing.assert_allclose(
            out.data[0], np.concatenate([h.data[0], h.data[0]]))

    def test_two_identical_states(self):
        v = np.array([0.3, -0.7])
        h = Tensor(np.stack([v, v]))
        _, out, _, trace = contextualize_dialog(None, h, 5)
        weights = trace.weights["text"]
        np.testing.assert_allclose(weights[1, -2:], np.full((2, 2), 0.5))
        np.testing.assert_allclose(out.data[1], np.concatenate([v / 2, v]))

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        hiddens = rng.uniform(-1, 1, size=(8, 5))
        for width in (1, 2, 5):
            out, _, _, _ = contextualize_dialog(Tensor(hiddens), None, width)
            for i in range(1, 9):
                np.testing.assert_allclose(
                    out.data[i - 1], modality_oracle(hiddens, i, width),
                    atol=1e-12)


class TestAttendedCross:
    """The joint attention over both modalities (audio block, then text)."""

    def test_identical_modalities_at_start(self):
        v = np.array([[0.5, 1.5, -1.0]])
        _, _, out, trace = contextualize_dialog(Tensor(v), Tensor(v), 5)
        # slot 4 holds audio row 1, slot 9 text row 1; the rest is padding
        cross = trace.weights["cross"][0]
        np.testing.assert_array_equal(cross[[4, 9]], np.full((2, 3), 0.5))
        np.testing.assert_array_equal(np.delete(cross, [4, 9], axis=0), 0.0)
        np.testing.assert_allclose(out.data[0],
                                   np.concatenate([v[0] / 2, v[0], v[0]]))

    def test_output_width_is_triple(self):
        rng = np.random.default_rng(2)
        _, _, out, _ = contextualize_dialog(*matrices(rng, 2, 128), 5)
        assert out.shape == (2, 384)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        h_a = rng.uniform(-1, 1, size=(6, 4))
        h_t = rng.uniform(-1, 1, size=(6, 4))
        _, _, out, _ = contextualize_dialog(Tensor(h_a), Tensor(h_t), 5)
        for i in range(1, 7):
            np.testing.assert_allclose(out.data[i - 1],
                                       cross_oracle(h_a, h_t, i, 5),
                                       atol=1e-12)

    def test_weights_split_audio_then_text(self):
        rng = np.random.default_rng(4)
        h_a = rng.uniform(-1, 1, size=(4, 3))
        h_t = rng.uniform(-1, 1, size=(4, 3))
        trace = contextualize_dialog(Tensor(h_a), Tensor(h_t), 2)[3]
        weights = trace.weights["cross"]
        assert weights.shape == (4, 4, 3)
        np.testing.assert_allclose(weights[3].sum(axis=0), np.ones(3),
                                   atol=1e-9)
        # slots 0-1 are audio rows 3-4, slots 2-3 text rows 3-4
        want = softmax_group(np.concatenate([h_a[2:], h_t[2:]]))
        np.testing.assert_allclose(weights[3], want, atol=1e-15)

    # the layer checks its matrices' shapes once, for all three attentions
    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"\(1, 4\) vs \(1, 3\)"):
            contextualize_dialog(Tensor(np.zeros((1, 3))),
                                 Tensor(np.zeros((1, 4))), 5)
        with pytest.raises(ShapeError, match=r"non-empty \(n, d\)"):
            contextualize_dialog(Tensor(np.zeros(3)),
                                 Tensor(np.zeros((1, 3))), 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"\(3, 3\) vs \(2, 3\)"):
            contextualize_dialog(Tensor(np.zeros((2, 3))),
                                 Tensor(np.zeros((3, 3))), 5)


class TestContextualizeDialog:
    def test_single_utterance_self_concats(self):
        rng = np.random.default_rng(5)
        h_a, h_t = matrices(rng, 1, 3)
        out_a, out_t, out_x, trace = contextualize_dialog(h_a, h_t, 5)
        np.testing.assert_allclose(
            out_a.data[0], np.concatenate([h_a.data[0], h_a.data[0]]))
        np.testing.assert_allclose(
            out_t.data[0], np.concatenate([h_t.data[0], h_t.data[0]]))
        assert out_x.shape == (1, 9)
        assert {key: w.shape for key, w in trace.weights.items()} == {
            "audio": (1, 5, 3), "text": (1, 5, 3), "cross": (1, 10, 3)}

    def test_trace_window_sizes(self):
        # row t (1-based) weighs the last min(t, 5) of each block's 5 slots
        rng = np.random.default_rng(6)
        h_a, h_t = matrices(rng, 9, 2)
        _, _, _, trace = contextualize_dialog(h_a, h_t, 5)
        for weights in trace.weights.values():
            blocks = weights.reshape(9, -1, 5, 2)
            for t in range(1, 10):
                pad = 5 - min(t, 5)
                np.testing.assert_array_equal(blocks[t - 1, :, :pad], 0.0)
                assert np.all(blocks[t - 1, :, pad:] > 0.0)

    def test_trace_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        h_a, h_t = matrices(rng, 7, 4)
        _, _, _, trace = contextualize_dialog(h_a, h_t, 5)
        for weights in trace.weights.values():
            # per row and coordinate, over every slot of every block
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_width_rejected(self):
        h = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="width"):
            contextualize_dialog(h, None, 0)

    def test_strict_causality(self):
        rng = np.random.default_rng(8)
        h_a, h_t = matrices(rng, 6, 3)
        base_a, base_t, base_x, _ = contextualize_dialog(h_a, h_t, 3)
        # perturb the last position of both modalities
        a2, t2 = h_a.data.copy(), h_t.data.copy()
        a2[-1] = rng.uniform(-1, 1, size=3)
        t2[-1] = rng.uniform(-1, 1, size=3)
        pert_a, pert_t, pert_x, _ = contextualize_dialog(Tensor(a2),
                                                         Tensor(t2), 3)
        np.testing.assert_array_equal(base_a.data[:5], pert_a.data[:5])
        np.testing.assert_array_equal(base_t.data[:5], pert_t.data[:5])
        np.testing.assert_array_equal(base_x.data[:5], pert_x.data[:5])

    def test_single_modality_mode(self):
        rng = np.random.default_rng(9)
        h_t = Tensor(rng.uniform(-1, 1, size=(4, 3)))
        out_a, out_t, out_x, trace = contextualize_dialog(None, h_t, 5)
        assert out_a is None and out_x is None
        assert out_t.shape == (4, 6)
        assert list(trace.weights) == ["text"]
        assert trace.weights["text"].shape == (4, 5, 3)

    def test_low_weight_context_continuity(self):
        # a context utterance with tiny weight moves the output by less
        # than the weight mass it carried
        d = 3
        strong = np.full(d, 5.0)
        weak = np.full(d, -5.0)
        with_weak, _, _, _ = contextualize_dialog(
            Tensor(np.stack([weak, strong])), None, 5)
        alone, _, _, _ = contextualize_dialog(Tensor(strong[None]), None, 5)
        weight_mass = float(np.exp(-10.0) / (1 + np.exp(-10.0)))
        # compare the attended means (first d coordinates); the residual
        # halves differ only through h_i which is identical
        delta = np.abs(with_weak.data[1, :d] * 2 - alone.data[0, :d])
        assert np.all(delta < weight_mass * 20 + 1e-3)

    def test_matches_list_form_bit_for_bit(self):
        # pad rows come first and add exact zeros, so every bit agrees
        # with the sums formed position by position
        rng = np.random.default_rng(11)
        width = 5
        for d in (4, 128):
            for n in range(1, 13):
                h_a = rng.uniform(-1, 1, size=(n, d))
                h_t = rng.uniform(-1, 1, size=(n, d))
                out_a, out_t, out_x, trace = contextualize_dialog(
                    Tensor(h_a), Tensor(h_t), width)
                rows = heatmap_document(trace, "d")["rows"]
                for i in range(1, n + 1):
                    lo = max(0, i - width)
                    a, t = list(h_a[lo:i]), list(h_t[lo:i])
                    np.testing.assert_array_equal(
                        out_a.data[i - 1],
                        np.concatenate([list_form_mean([a]), h_a[i - 1]]))
                    np.testing.assert_array_equal(
                        out_t.data[i - 1],
                        np.concatenate([list_form_mean([t]), h_t[i - 1]]))
                    np.testing.assert_array_equal(
                        out_x.data[i - 1],
                        np.concatenate([list_form_mean([a, t]), h_a[i - 1],
                                        h_t[i - 1]]))
                    exps = np.exp(np.stack(a + t))
                    cells = [float(np.mean(w)) for w in exps / exps.sum(axis=0)]
                    row = rows[i - 1]["weights"]
                    assert row["cross_audio"] + row["cross_text"] == cells

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        params = {mod: Tensor(rng.uniform(-1, 1, size=(4, 5)),
                              requires_grad=True) for mod in ("a", "t")}
        mixers = [Tensor(rng.uniform(-1, 1, size=(4, w))) for w in (10, 10, 15)]

        def f(p):
            outs = contextualize_dialog(p["a"], p["t"], 2)[:3]
            total = sum_all(mul(outs[0], mixers[0]))
            for out, m in zip(outs[1:], mixers[1:]):
                total = add(total, sum_all(mul(out, m)))
            return total

        report = grad_check(f, params)
        assert report.passed, report.summary()

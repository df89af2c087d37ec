"""Unit and property tests for the tensor kernel, tape, and optimizer."""

import ast
import inspect
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from banter import hier_attention, tensor as T
from banter.context_attention import contextualize_dialog
from banter.gradcheck import grad_check
from banter.hier_attention import hier_attend
from banter.optim import AdamState, adam_step, clip_gradients
from banter.tensor import (
    BCE_EPS,
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    add,
    affine_relu_rows,
    affine_rowwise,
    backward,
    bce_loss,
    concat,
    conv_relu_mean,
    dropout,
    exp_shifted,
    lstm_sequence,
    mul,
    relu,
    scale,
    sigmoid,
    sum_all,
    sum_axis,
    tanh,
    window_ratio,
    window_weights,
)
from banter.verify import CHECKS, OP_GROUPS, op_scenarios
from test_hier_attention import init_projection


def tanh_reference(x: float, depth: int = 30) -> float:
    """Independent tanh oracle via the Lambert continued fraction.

    tanh(x) = x / (1 + x^2 / (3 + x^2 / (5 + ...))), evaluated bottom-up
    with ``depth`` levels. Converges far below 1e-12 for |x| < 2.
    """
    acc = 2.0 * depth - 1.0
    for k in range(depth - 1, 0, -1):
        acc = (2.0 * k - 1.0) + x * x / acc
    return x / acc


class TestTensorBasics:
    def test_scalar_tensor_has_empty_shape(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_data_is_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_non_finite_values_rejected(self):
        # a leaf is checked by its loader; the first op on it names itself
        bad = Tensor([1.0, np.nan], requires_grad=True)
        with pytest.raises(NumericError, match="^add: non-finite output$"):
            add(bad, Tensor([1.0, 2.0]))
        with Tape() as tape, \
                pytest.raises(NumericError, match="^add: non-finite output$"):
            add(bad, Tensor([1.0, 2.0]))
        assert len(tape) == 0

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_accumulate_grad_adds(self):
        t = Tensor([1.0, 2.0])
        t.accumulate_grad(np.array([0.5, 0.5]))
        t.accumulate_grad(np.array([1.0, 1.0]))
        np.testing.assert_allclose(t.grad, [1.5, 1.5])


class TestActivations:
    def test_sigmoid_at_zero_is_half(self):
        out = sigmoid(Tensor(0.0))
        assert out.item() == 0.5

    def test_relu_definition(self):
        out = relu(Tensor([-2.0, 3.0]))
        np.testing.assert_allclose(out.data, [0.0, 3.0])

    def test_tanh_matches_independent_series(self):
        out = tanh(Tensor(0.7))
        assert abs(out.item() - tanh_reference(0.7)) < 1e-12

    def test_tanh_series_agreement_across_range(self):
        for x in np.linspace(-1.5, 1.5, 13):
            got = tanh(Tensor(float(x))).item()
            assert abs(got - tanh_reference(float(x))) < 1e-12

    def test_sigmoid_stable_in_tails(self):
        out = sigmoid(Tensor([-800.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-300)


class TestMatmul:
    """The matrix product inside the affine ops: x @ w.T, bias zero.

    ``affine_rowwise`` is the product the filter gate uses; the tape has
    no bare matrix-product op.
    """

    @staticmethod
    def product(x, w):
        return affine_rowwise(x, w, Tensor(np.zeros(w.shape[0])))

    def test_identity_returns_operand(self):
        rng = np.random.default_rng(0)
        m = Tensor(rng.uniform(-1, 1, size=(3, 3)))
        out = self.product(m, Tensor(np.eye(3)))
        np.testing.assert_allclose(out.data, m.data)

    def test_one_by_one(self):
        out = self.product(Tensor([[2.0]]), Tensor([[3.0]]))
        np.testing.assert_allclose(out.data, [[6.0]])

    def test_gradient_of_sum_is_ones_times_b_transpose(self):
        # d sum(x @ w.T) / dx = ones @ w, for the input and the weights
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, size=(4, 5)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        with Tape():
            backward(sum_all(self.product(x, w)))
        np.testing.assert_allclose(x.grad, np.ones((4, 3)) @ w.data,
                                   atol=1e-12)
        np.testing.assert_allclose(w.grad, np.ones((3, 4)) @ x.data,
                                   atol=1e-12)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            self.product(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))

    def test_unsupported_ranks(self):
        with pytest.raises(ShapeError):
            affine_rowwise(Tensor(np.ones(3)), Tensor(np.ones((1, 3))),
                           Tensor(np.zeros(1)))
        with pytest.raises(ShapeError):
            affine_rowwise(Tensor(np.ones((1, 3))), Tensor(np.ones(3)),
                           Tensor(np.zeros(1)))


class TestConcat:
    def test_single_input_identity(self):
        a = Tensor([1.0, 2.0])
        out = concat([a], axis=0)
        np.testing.assert_allclose(out.data, a.data)

    def test_two_hidden_vectors_give_double_width(self):
        out = concat([Tensor(np.zeros(128)), Tensor(np.ones(128))], axis=0)
        assert out.shape == (256,)

    def test_three_hidden_vectors_give_triple_width(self):
        parts = [Tensor(np.full(128, float(i))) for i in range(3)]
        assert concat(parts, axis=0).shape == (384,)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat([], axis=0)

    def test_mismatched_non_concat_dims_rejected(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_backward_splits_adjoint(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        weights = Tensor([10.0, 20.0, 30.0])
        with Tape():
            backward(sum_all(mul(concat([a, b], axis=0), weights)))
        np.testing.assert_allclose(a.grad, [10.0, 20.0])
        np.testing.assert_allclose(b.grad, [30.0])


def group_weights(blocks: list[np.ndarray], width: int) -> np.ndarray:
    """The (n, k * min(width, n), d) weights C-ATN^D's trace gives k = 1
    block (a modality's attention) or k = 2 (the cross attention)."""
    if len(blocks) == 1:
        trace = contextualize_dialog(None, Tensor(blocks[0]), width)[3]
        return trace.weights["text"]
    trace = contextualize_dialog(*map(Tensor, blocks), width)[3]
    return trace.weights["cross"]


class TestGroupSoftmax:
    """The per-coordinate softmax over a window group of C-ATN^D.

    ``weights[t, s]`` is the weight vector of slot s at position t; with
    window w = min(width, n), the last min(t + 1, w) slots of each block
    hold the group.
    """

    def test_singleton_group_is_all_ones(self):
        w = group_weights([np.array([[0.3, -2.0, 5.0]])], 1)
        np.testing.assert_array_equal(w[0, 0], np.ones(3))

    def test_identical_vectors_share_weight_equally(self):
        v = np.array([[0.1, 0.9, -4.0]])
        w = group_weights([v, v], 1)
        np.testing.assert_allclose(w[0], np.full((2, 3), 0.5))
        w = group_weights([np.vstack([v, v])], 2)
        np.testing.assert_allclose(w[1], np.full((2, 3), 0.5))

    def test_log_spaced_coordinates(self):
        # coordinate values 0, ln2, ln4 normalize to 1/7, 2/7, 4/7
        rows = np.log([[1.0], [2.0], [4.0]])
        w = group_weights([rows], 3)
        np.testing.assert_allclose(w[2, :, 0], [1 / 7, 2 / 7, 4 / 7],
                                   atol=1e-12)

    def test_weights_sum_to_one_per_coordinate(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, width = (int(v) for v in rng.integers(2, 6, size=2))
            k = int(rng.integers(1, 3))
            blocks = [rng.uniform(-5, 5, size=(n, 4)) for _ in range(k)]
            w = group_weights(blocks, width)
            np.testing.assert_allclose(w.sum(axis=1), np.ones((n, 4)),
                                       atol=1e-9)
            span = min(width, n)
            for t in range(n):
                group = np.tile(np.arange(span) >= span - min(t + 1, span), k)
                # pad slots before the dialog start get exactly zero weight
                assert np.all(w[t, ~group] == 0.0)
                if group.sum() > 1:
                    assert np.all((w[t, group] > 0.0) & (w[t, group] < 1.0))

    def test_invariant_under_per_coordinate_shift(self):
        rng = np.random.default_rng(8)
        rows = rng.uniform(-2, 2, size=(4, 3))
        shift = rng.uniform(-10, 10, size=3)
        base = group_weights([rows], 4)
        shifted = group_weights([rows + shift], 4)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_overflowing_exponential_is_a_numeric_error(self):
        # the layer exponentiates at shift 0, which LSTM states in (-1, 1)
        # allow; a state past exp's range stops it, never a finite row
        rows = Tensor([[900.0, -900.0], [890.0, -890.0]])
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="exp_shifted"):
            contextualize_dialog(rows, rows, 2)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            contextualize_dialog(None, None, 3)
        with pytest.raises(ShapeError):
            contextualize_dialog(None, Tensor(np.zeros((0, 2))), 3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            contextualize_dialog(Tensor([[1.0, 2.0]]), Tensor([[1.0]]), 3)


class TestWindowOps:
    def test_window_ratio_sums_consecutive_rows(self):
        # over a denominator of ones, window k is the mean of rows k .. k + 2
        x = Tensor(np.arange(10.0).reshape(5, 2))
        out = window_ratio(x, Tensor(np.ones((5, 2))), 3, np.zeros(2))
        assert out.shape == (3, 2)
        for k in range(3):
            np.testing.assert_allclose(out.data[k],
                                       x.data[k:k + 3].mean(axis=0))

    def test_window_ratio_adjoint_counts_window_memberships(self):
        x = Tensor(np.zeros((5, 2)), requires_grad=True)
        with Tape():
            backward(sum_all(window_ratio(x, Tensor(np.ones((5, 2))), 3,
                                          np.zeros(2))))
        np.testing.assert_allclose(x.grad[:, 0], np.array([1, 2, 3, 2, 1]) / 3)

    def test_window_ratio_bad_size_rejected(self):
        ones = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            window_ratio(ones, ones, 3, np.zeros(3))
        with pytest.raises(ShapeError):
            window_ratio(ones, ones, 2, np.zeros(2))
        with pytest.raises(ShapeError):
            window_ratio(Tensor(np.ones(4)), Tensor(np.ones(4)), 2,
                         np.zeros(4))
        with pytest.raises(ShapeError):
            exp_shifted(ones, np.zeros(2))

    def test_window_ratio_does_not_depend_on_the_shift(self):
        # a softmax over each window: a shift per column, each row's own
        # values, or unrelated values per row all give the same ratio
        rng = np.random.default_rng(12)
        x = rng.uniform(-3, 3, size=(6, 3))
        shifts = [x.max(axis=0), x, rng.uniform(-30, 30, size=(6, 3))]
        ratios = []
        for shift in shifts:
            e = exp_shifted(Tensor(x), shift)
            ratios.append(window_ratio(mul(e, Tensor(x)), e, 3, shift).data)
            weights = window_weights(e.data, 3, shift)
            np.testing.assert_allclose(ratios[-1],
                                       (weights * x[np.arange(4)[:, None]
                                                    + np.arange(3)]).sum(1),
                                       rtol=1e-14)
        for ratio in ratios[1:]:
            np.testing.assert_allclose(ratio, ratios[0], rtol=1e-14)

    def test_window_weights_match_group_softmax(self):
        # a full window of C-ATN^D is the same softmax over its rows
        rng = np.random.default_rng(13)
        rows = rng.uniform(-3, 3, size=(4, 3))
        shift = rows.max(axis=0)
        weights = window_weights(exp_shifted(Tensor(rows), shift).data, 4,
                                 shift)
        want = group_weights([rows], 4)
        np.testing.assert_allclose(weights[0], want[3], atol=1e-15)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_shifted_exp_large_magnitudes_do_not_overflow(self):
        x = np.array([[1000.0, 0.0], [1000.0, 0.0]])
        shift = x.max(axis=0)
        e = exp_shifted(Tensor(x), shift)
        np.testing.assert_allclose(window_weights(e.data, 2, shift), 0.5)
        np.testing.assert_allclose(
            window_ratio(mul(e, Tensor(x)), e, 2, shift).data, [[1000.0, 0.0]])

    def test_sum_axis_drops_the_axis(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_array_equal(sum_axis(x, 1).data, x.data.sum(axis=1))
        np.testing.assert_array_equal(sum_axis(x, -1).data,
                                      x.data.sum(axis=2))
        with pytest.raises(ShapeError):
            sum_axis(x, 3)

    def test_affine_relu_rows_is_the_rectified_product_bit_for_bit(self):
        rng = np.random.default_rng(14)
        x, w, b = (rng.uniform(-1, 1, size=s) for s in ((9, 5), (6, 5), 6))
        want = np.maximum(x @ w.T + b, 0.0)
        assert 0 < (want == 0.0).sum() < want.size
        for needs in (False, True):
            out = affine_relu_rows(Tensor(x, requires_grad=needs), Tensor(w),
                                   Tensor(b))
            np.testing.assert_array_equal(out.data, want)
        with pytest.raises(ShapeError):
            affine_relu_rows(Tensor(x), Tensor(w.T), Tensor(b))

    def test_affine_relu_rows_rejects_a_negative_infinite_pre_activation(
            self):
        # the ReLU alone would turn the -inf into 0
        x = Tensor([[1e200, 1.0]])
        w = Tensor([[-1e200, 0.0], [1.0, 1.0]])
        with pytest.raises(NumericError, match="affine_relu_rows"), \
                np.errstate(over="ignore"):
            affine_relu_rows(x, w, Tensor([0.0, 0.0]))

    def test_affine_relu_rows_names_an_affine_output_the_relu_would_hide(
            self):
        # the product and the bias are finite, their sum overflows to -inf
        x = Tensor([[1e154, 1.0]], requires_grad=True)
        w = Tensor([[-1e154, 0.0], [1.0, 1.0]])
        b = Tensor([-1e308, 0.0])
        named = "^affine_relu_rows: non-finite"
        with pytest.raises(NumericError, match=named):
            affine_relu_rows(x, w, b)
        with Tape(), pytest.raises(NumericError, match=named):
            affine_relu_rows(x, w, b)


class TestSequenceOps:
    def test_affine_rowwise_rows_ignore_the_row_count(self):
        # the widths the model's heads and LSTM projections use: the LSTMs
        # project each gate on its own, (300, 128) and (128, 128)
        rng = np.random.default_rng(15)
        for d_in, d_out in ((896, 128), (128, 1), (300, 512), (300, 128),
                            (128, 128)):
            x = rng.uniform(-1, 1, size=(23, d_in))
            w = rng.uniform(-1, 1, size=(d_out, d_in))
            b = rng.uniform(-1, 1, size=d_out)
            whole = affine_rowwise(Tensor(x), Tensor(w), Tensor(b)).data
            np.testing.assert_allclose(whole, x @ w.T + b, rtol=1e-12,
                                       atol=1e-12)
            for n in range(1, 23):
                part = affine_rowwise(Tensor(x[:n]), Tensor(w), Tensor(b))
                np.testing.assert_array_equal(part.data, whole[:n])

    def test_lstm_sequence_matches_per_step_reference(self):
        rng = np.random.default_rng(16)
        w = [rng.uniform(-1, 1, size=(3, 4)) for _ in range(4)]
        u = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(4)]
        b = [rng.uniform(-1, 1, size=3) for _ in range(4)]
        x = rng.uniform(-2, 2, size=(6, 4))
        out = lstm_sequence(Tensor(x), [Tensor(a) for a in w],
                            [Tensor(a) for a in u], [Tensor(a) for a in b])
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        h, c = np.zeros(3), np.zeros(3)
        for t in range(6):
            z = [w[k] @ x[t] + u[k] @ h + b[k] for k in range(4)]
            c = sig(z[1]) * c + sig(z[0]) * np.tanh(z[2])
            h = sig(z[3]) * np.tanh(c)
            np.testing.assert_allclose(out.data[t], h, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n, d_in", [(1, 7), (5, 128), (8, 300)])
    def test_lstm_sequence_matches_the_stacked_gates_bit_for_bit(self, n,
                                                                 d_in):
        # the forward pass reads each gate where it lies; at the paper's
        # hidden width every output entry is the same dot product as with
        # the four gates stacked into one (4h, d_in) and one (4h, h) matrix
        hd = 128
        rng = np.random.default_rng(27)
        w = [rng.uniform(-1, 1, size=(hd, d_in)) for _ in range(4)]
        u = [rng.uniform(-1, 1, size=(hd, hd)) / 8 for _ in range(4)]
        b = [rng.uniform(-1, 1, size=hd) for _ in range(4)]
        x = rng.uniform(-1, 1, size=(n, d_in))
        out = lstm_sequence(Tensor(x), [Tensor(a) for a in w],
                            [Tensor(a) for a in u], [Tensor(a) for a in b])
        u_all, b_all = np.concatenate(u), np.concatenate(b)
        projected = T._rowwise_product(x, np.concatenate(w))
        h, c = np.zeros(hd), np.zeros(hd)
        for t in range(n):
            z = (projected[t] + u_all @ h) + b_all
            a = T._stable_sigmoid(z)
            a[2 * hd:3 * hd] = np.tanh(z[2 * hd:3 * hd])
            c = a[hd:2 * hd] * c + a[:hd] * a[2 * hd:3 * hd]
            h = a[3 * hd:] * np.tanh(c)
            np.testing.assert_array_equal(out.data[t], h)

    def test_lstm_sequence_shapes_checked(self):
        gates = [Tensor(np.zeros((3, 4))) for _ in range(4)]
        rec = [Tensor(np.zeros((3, 3))) for _ in range(4)]
        bias = [Tensor(np.zeros(3)) for _ in range(4)]
        with pytest.raises(ShapeError):
            lstm_sequence(Tensor(np.zeros((2, 5))), gates, rec, bias)
        with pytest.raises(ShapeError):
            lstm_sequence(Tensor(np.zeros((0, 4))), gates, rec, bias)
        with pytest.raises(ShapeError):
            lstm_sequence(Tensor(np.zeros((2, 4))), gates, rec[:3], bias)

    def test_one_matrix_dropout_draws_the_per_row_stream(self):
        # the heads draw one (n, hh) mask where they used to draw n of (hh,)
        matrix = dropout(Tensor(np.ones((4, 5))), 0.4, training=True,
                         rng=np.random.default_rng(17))
        rng = np.random.default_rng(17)
        rows = [dropout(Tensor(np.ones(5)), 0.4, training=True, rng=rng)
                for _ in range(4)]
        np.testing.assert_array_equal(matrix.data, [r.data for r in rows])


class TestDropout:
    def test_eval_mode_is_exact_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        assert dropout(x, 0.4, training=False) is x

    def test_zero_rate_is_identity(self):
        x = Tensor([1.0, -2.0])
        assert dropout(x, 0.0, training=True) is x

    def test_training_keeps_expected_fraction(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones(10_000))
        out = dropout(x, 0.4, training=True, rng=rng)
        kept = np.count_nonzero(out.data) / 10_000
        assert abs(kept - 0.60) < 0.02
        # inverted scaling keeps the expected value near the input mean
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, training=True,
                    rng=np.random.default_rng(0))

    def test_training_without_rng_rejected(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 0.4, training=True)


class TestBceLoss:
    def test_half_probability_gives_ln_two(self):
        assert abs(bce_loss(Tensor(0.5), 1).item() - np.log(2.0)) < 1e-12

    def test_perfect_prediction_is_near_zero(self):
        loss = bce_loss(Tensor(1.0 - BCE_EPS), 1).item()
        assert abs(loss - 1e-7) < 1e-9

    def test_confident_wrong_prediction(self):
        assert abs(bce_loss(Tensor(0.9), 0).item() - (-np.log(0.1))) < 1e-12

    def test_clamp_keeps_loss_finite(self):
        assert np.isfinite(bce_loss(Tensor(0.0), 1).item())
        assert np.isfinite(bce_loss(Tensor(1.0), 0).item())

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(0.5), 2)

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            bce_loss(Tensor([0.5, 0.5]), 1)

    def test_one_label_per_entry(self):
        with pytest.raises(ShapeError):
            bce_loss(Tensor([[0.5], [0.5]]), [1, 0, 1])
        with pytest.raises(ValueError):
            bce_loss(Tensor([[0.5], [0.5]]), [1, 2])

    def test_vector_loss_is_the_sum_of_scalar_losses(self):
        rng = np.random.default_rng(20)
        p = rng.uniform(0.01, 0.99, size=(7, 1))
        p[2, 0], p[5, 0] = 0.0, 1.0  # clamped entries
        y = rng.integers(0, 2, size=7).tolist()
        whole = Tensor(p, requires_grad=True)
        with Tape():
            loss = bce_loss(whole, y)
            backward(loss)
        parts = [Tensor(p[k], requires_grad=True) for k in range(7)]
        with Tape():
            for part, label in zip(parts, y):
                backward(bce_loss(part, label))
        np.testing.assert_allclose(
            loss.item(), sum(bce_loss(Tensor(p[k]), y[k]).item()
                             for k in range(7)), rtol=1e-15)
        np.testing.assert_array_equal(
            whole.grad, np.stack([part.grad for part in parts]))
        assert whole.grad[2, 0] == 0.0 and whole.grad[5, 0] == 0.0


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(5, dtype=float), requires_grad=True)
        with Tape():
            backward(sum_all(x))
        np.testing.assert_allclose(x.grad, np.ones(5))

    def test_sigmoid_slope_at_zero(self):
        # d/dw [sigmoid(w) * c] at w=0 is 0.25 * c
        w = Tensor(0.0, requires_grad=True)
        with Tape():
            backward(scale(sigmoid(w), 8.0))
        np.testing.assert_allclose(w.grad, 2.0, atol=1e-12)

    def test_zero_dim_leaf_gets_an_ndarray_gradient(self):
        # scale's rule hands a 0-d adjoint on as a numpy scalar
        w = Tensor(0.0, requires_grad=True)
        with Tape():
            backward(scale(sigmoid(w), 8.0))
        assert type(w.grad) is np.ndarray and w.grad.shape == ()

    def test_fanout_sums_both_contributions(self):
        # y feeds mul(y, y) and a separate add branch
        def f(params):
            y = tanh(params["x"])
            return sum_all(add(mul(y, y), y))

        x = Tensor(np.array([0.3, -0.8, 1.1]), requires_grad=True)
        report = grad_check(f, {"x": x})
        assert report.passed, report.summary()

    def test_repeated_backward_accumulates(self):
        # two graphs recorded one after the other on one tape, each run
        # backward once
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            backward(sum_all(mul(x, x)))
            np.testing.assert_allclose(x.grad, [4.0])
            backward(sum_all(mul(x, x)))
            np.testing.assert_allclose(x.grad, [8.0])

    def test_second_backward_through_a_consumed_graph_is_refused(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape():
            y = mul(x, x)
            loss = sum_all(y)
            backward(loss)
            with pytest.raises(RuntimeError, match="consumed this loss"):
                backward(loss)
            # a new graph that reads a consumed output is refused where
            # its adjoint reaches that output
            with pytest.raises(RuntimeError, match="backward of mul: .* "
                               "consumed a parent's node"):
                backward(sum_all(mul(y, x)))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_a_loss_no_node_made_takes_its_own_adjoint(self):
        w = Tensor(3.0, requires_grad=True)
        c = Tensor(5.0)
        with Tape():
            backward(w)
            backward(w)
            backward(c)
        np.testing.assert_array_equal(w.grad, 2.0)
        np.testing.assert_array_equal(c.grad, 1.0)

    def test_backward_frees_each_rule_and_empties_the_tape(self):
        # ``kept``'s array is read by the last node's rule alone, so it is
        # freed while backward still has nodes to run, not when the tape
        # goes
        x = Tensor([0.5, -1.5], requires_grad=True)
        tape_lengths = []
        with Tape() as tape:
            kept = Tensor(4.0)
            weakref.finalize(kept.data, lambda: tape_lengths.append(len(tape)))
            loss = mul(tanh(sum_all(x)), kept)
            del kept
            assert len(tape) == 3 and tape_lengths == []
            backward(loss)
            assert len(tape) == 0
        assert tape_lengths == [1]
        np.testing.assert_allclose(x.grad, 4.0 / np.cosh(-1.0) ** 2)

    def test_intermediates_keep_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = mul(x, x)
            backward(sum_all(y))
        assert y.grad is None
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_requires_backward_inside_tape(self):
        loss = sum_all(Tensor([1.0]))
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_a_tape_inside_another_is_refused(self):
        with Tape() as outer:
            with pytest.raises(RuntimeError, match="already active"):
                with Tape():
                    pass
            assert T.active_tape() is outer
        assert T.active_tape() is None

    def test_output_of_another_tape_is_a_constant(self):
        # made with no tape, or on an earlier one, an op output is not a
        # leaf: a later tape records no node for it and gives it no .grad
        x = Tensor([0.5, -1.0], requires_grad=True)
        y = tanh(x)
        with Tape():
            z = sigmoid(x)
        assert (y.requires_grad, z.requires_grad) == (False, False)
        with Tape() as tape:
            scale(y, 2.0)
            scale(z, 2.0)
            assert len(tape) == 0
            backward(sum_all(mul(add(y, z), x)))
        assert y.grad is None and z.grad is None
        np.testing.assert_allclose(x.grad, y.data + z.data)

    def test_rejects_non_scalar_loss(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = mul(x, x)
            with pytest.raises(ShapeError):
                backward(y)

    def test_shared_adjoint_is_not_written_through(self):
        # add hands one adjoint array to both x and y; x then takes a second
        # contribution from mul(x, c) and a third from mul(x, d), neither of
        # which may leak into y.grad
        x = Tensor([0.5, -1.0], requires_grad=True)
        y = Tensor([2.0, 0.25], requires_grad=True)
        c = Tensor([3.0, -2.0])
        d = Tensor([-0.5, 2.5])
        k = Tensor([1.5, 4.0])
        with Tape():
            r = mul(x, d)
            t = mul(x, c)
            s = add(x, y)
            backward(sum_all(add(add(mul(s, k), t), r)))
        np.testing.assert_allclose(y.grad, k.data)
        np.testing.assert_allclose(x.grad, k.data + c.data + d.data)

    def test_no_grad_flows_to_frozen_tensors(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([3.0])
        with Tape():
            backward(sum_all(mul(x, c)))
        np.testing.assert_allclose(x.grad, [3.0])
        assert c.grad is None

    @staticmethod
    def hier_gradients(n, d, seed):
        """proj_w's and proj_b's gradients after one H-ATN collapse of n x d."""
        rng = np.random.default_rng(seed)
        vectors = Tensor(rng.uniform(-1, 1, size=(n, d)))
        proj_w, proj_b = init_projection(d, rng)
        mixer = Tensor(rng.uniform(-1, 1, size=(1, d)))
        with Tape():
            out, _ = hier_attend(vectors, proj_w, proj_b)
            backward(sum_all(mul(out, mixer)))
        return proj_w.grad, proj_b.grad

    @pytest.mark.parametrize("n, d", [(15, 300), (105, 128)])
    def test_shared_weight_gradient_is_the_sum_of_per_level_products(
            self, n, d, monkeypatch):
        stacked, _ = self.hier_gradients(n, d, seed=3)
        # each level through its own copy of the weight: a copy's gradient
        # is that level's dense product g.T @ x alone
        copies = []

        def untied(x, w, b):
            copies.append(Tensor(w.data, requires_grad=True))
            return affine_relu_rows(x, copies[-1], b)

        monkeypatch.setattr(hier_attention, "affine_relu_rows", untied)
        self.hier_gradients(n, d, seed=3)
        assert len(copies) == hier_attention.level_count(n, 3)
        per_level = sum(c.grad for c in reversed(copies))
        np.testing.assert_allclose(stacked, per_level, rtol=0,
                                   atol=1e-12 * np.abs(per_level).max())

    def test_same_seed_reruns_give_identical_gradients(self):
        for n, d in ((15, 300), (105, 128)):
            first = self.hier_gradients(n, d, seed=4)
            again = self.hier_gradients(n, d, seed=4)
            for a, b in zip(first, again):
                np.testing.assert_array_equal(a, b)


def _closure_arrays(fn):
    """The arrays a rule reads, also through the functions and the lists
    of arrays it closes over."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        values = value if isinstance(value, (list, tuple)) else [value]
        for v in values:
            if isinstance(v, np.ndarray):
                yield v
            elif inspect.isfunction(v):
                yield from _closure_arrays(v)


class TestTapeRetention:
    """A tape keeps what backward rules read and nothing more."""

    def test_freed_intermediate_keeps_its_own_adjoint(self):
        # tanh(x)'s output is freed once mul has read its array, before
        # sigmoid(x)'s output is made, which may reuse its id()
        rng = np.random.default_rng(21)
        c = Tensor(rng.uniform(-1, 1, size=4))
        k = Tensor(rng.uniform(-1, 1, size=4))

        def f(params):
            p = sum_all(mul(tanh(params["x"]), c))
            q = sum_all(mul(sigmoid(params["x"]), k))
            return add(p, q)

        x = Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
        report = grad_check(f, {"x": x})
        assert report.passed, report.summary()

    def test_leaf_made_after_a_free_gets_its_gradient(self):
        # the leaf may reuse the id() of an op output freed just before, so
        # by id() the tape would take it for a tensor it made
        x = Tensor([0.5, -1.5], requires_grad=True)
        with Tape():
            p = sum_all(mul(tanh(x), x))
            y = Tensor([2.0, 3.0], requires_grad=True)
            backward(add(p, sum_all(mul(y, y))))
        np.testing.assert_allclose(y.grad, [4.0, 6.0])

    def test_wrongly_shaped_adjoint_names_its_op(self):
        # the planted rule's (1, 2) adjoint would broadcast over a's (3, 2)
        # one from sum_all
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape():
            out = Tensor(2.0 * a.data)
            T._finish("planted", [out], [a],
                      lambda gs: (gs[0].sum(axis=0, keepdims=True),))
            loss = add(sum_all(out), sum_all(a))
            with pytest.raises(ShapeError, match="backward of planted"):
                backward(loss)
        assert a.grad is None

    def test_hier_attend_makes_five_nodes_per_level(self):
        # level 0 is the input's ReLU; each later level's projection and
        # its ReLU are one node
        n, d = 15, 8
        rng = np.random.default_rng(23)
        vectors = Tensor(rng.uniform(-1, 1, size=(n, d)), requires_grad=True)
        proj_w, proj_b = init_projection(d, rng)
        with Tape() as tape:
            hier_attend(vectors, proj_w, proj_b)
        level = ["exp_shifted", "mul", "scale", "window_ratio",
                 "affine_relu_rows"]
        assert [node.op for node in tape._nodes] == (
            ["relu"] + level * hier_attention.level_count(n, 3))

    @pytest.mark.parametrize("n, d", [(15, 300), (105, 128), (200, 128)])
    def test_hier_attend_keeps_at_most_three_blocks_per_level(self, n, d):
        # the rules read each level's input and its exponentials (2 blocks;
        # exp's and window_ratio's rules read the same array as mul's) and
        # the window ratios (1), which are the projection's input; the
        # projection reads its ReLU mask off its output, the next level's
        # input
        rng = np.random.default_rng(22)
        vectors = Tensor(rng.uniform(-1, 1, size=(n, d)))
        proj_w, proj_b = init_projection(d, rng)
        windows = sum(max(1, n - 2 * level) for level in
                      range(1, hier_attention.level_count(n, 3) + 1))
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                out, _ = hier_attend(vectors, proj_w, proj_b)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (1, d)
        assert held / (windows * d * 8) <= 3.25

    def test_conv_relu_mean_keeps_padded_frames_and_a_bool_mask(self):
        # the rule reads the padded frames, the kernels and the ReLU's
        # boolean mask, never a float64 (frames, c_out) convolution
        frames, c_in, c_out = 6, 4, 3
        rng = np.random.default_rng(26)
        x = Tensor(rng.uniform(-1, 1, size=(frames, c_in)))
        k = Tensor(rng.uniform(-1, 1, size=(c_out, 3, c_in)),
                   requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, size=c_out), requires_grad=True)
        with Tape() as tape:
            conv_relu_mean(x, k, c)
        (node,) = tape._nodes
        kept = _closure_arrays(node.backward_fn)
        assert sorted((a.shape, a.dtype.name) for a in kept) == [
            ((c_out, 3, c_in), "float64"), ((frames, c_out), "bool"),
            ((frames + 2, c_in), "float64")]

    def test_lstm_keeps_no_stacked_gate_copy(self):
        # the rule reads the parameters' own gate arrays, never a
        # (4h, d_in) or (4h, h) stack of them
        n, d_in, hd = 5, 7, 3
        rng = np.random.default_rng(25)
        x = Tensor(rng.uniform(-1, 1, size=(n, d_in)), requires_grad=True)
        w, u, b = ([Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)
                    for _ in range(4)]
                   for shape in ((hd, d_in), (hd, hd), (hd,)))
        with Tape() as tape:
            lstm_sequence(x, w, u, b)
        (node,) = tape._nodes
        shapes = [a.shape for a in _closure_arrays(node.backward_fn)]
        assert shapes
        assert [s for s in shapes if s in ((4 * hd, d_in), (4 * hd, hd))] == []

    def test_lstm_forward_makes_no_stacked_gate_copy(self):
        # eval mode at the text LSTM's widths: the forward pass allocates
        # less than one (4h, d_in) stack of the input gates would take
        n, d_in, hd = 8, 300, 128
        rng = np.random.default_rng(28)
        x = Tensor(rng.uniform(-1, 1, size=(n, d_in)))
        w, u, b = ([Tensor(rng.uniform(-1, 1, size=shape) / 8)
                    for _ in range(4)]
                   for shape in ((hd, d_in), (hd, hd), (hd,)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = lstm_sequence(x, w, u, b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (n, hd)
        assert peak < 4 * hd * d_in * 8

    def test_conv_relu_mean_rule_sums_in_place(self):
        # the rule holds its (frames, c_out) adjoint and the kernels'
        # adjoint, and no tiled copy or per-tap temporary beside them
        frames, c, width = 200, 128, 3
        rng = np.random.default_rng(29)
        x = Tensor(rng.uniform(-1, 1, size=(frames, c)))
        k = Tensor(rng.uniform(-1, 1, size=(c, width, c)) / 16,
                   requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, size=c), requires_grad=True)
        with Tape() as tape:
            conv_relu_mean(x, k, bias)
        (node,) = tape._nodes
        g_out = rng.uniform(-1, 1, size=(1, c))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            adjoints = node.backward_fn([g_out])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert adjoints[0] is None
        assert peak <= (frames * c + c * width * c) * 8 + 32 * 1024

    def test_context_attention_keeps_no_array_of_window_slots(self):
        # the rules read (n, d) blocks and the (n + width - 1, d) padded
        # sums, never a (k * width, n, d) array of the windows' slots
        n, d, width = 8, 16, 5
        rng = np.random.default_rng(24)
        h_a, h_t = (Tensor(rng.uniform(-1, 1, size=(n, d)),
                           requires_grad=True) for _ in range(2))
        with Tape() as tape:
            contextualize_dialog(h_a, h_t, width)
        kept = [(node.op, a.shape) for node in tape._nodes
                for a in _closure_arrays(node.backward_fn)]
        assert kept
        assert [(op, shape) for op, shape in kept
                if np.prod(shape) > (n + width - 1) * d] == []

    def test_no_rule_keeps_a_tensor(self):
        grouped = {op for ops in OP_GROUPS.values() for op in ops}
        offenders = []
        for key, (params, f) in op_scenarios(
                np.random.default_rng(0)).items():
            if key.split("[")[0] not in grouped:
                continue
            with Tape() as tape:
                f(params)
            for node in tape._nodes:
                cells = node.backward_fn.__closure__ or ()
                if any(isinstance(c.cell_contents, Tensor) for c in cells):
                    offenders.append(f"{key}: {node.op}'s rule closes over "
                                     f"a Tensor")
            # the tape's only tensors are leaves, none made by its nodes
            made = {node.out_key for node in tape._nodes}
            if made & set(tape._leaves):
                offenders.append(f"{key}: the tape holds a tensor it made")
        assert offenders == [], "\n".join(offenders)


class TestGradCheck:
    def test_square_at_three(self):
        theta = Tensor(3.0, requires_grad=True)
        report = grad_check(lambda p: mul(p["theta"], p["theta"]),
                            {"theta": theta})
        assert report.passed
        assert max(report.max_rel_err.values()) < 1e-6

    def test_composite_loss_passes(self):
        rng = np.random.default_rng(3)
        params = {
            "w": Tensor(rng.uniform(-1, 1, size=(1, 5)), requires_grad=True),
            "b": Tensor(rng.uniform(-1, 1, size=1), requires_grad=True),
        }
        x = Tensor(rng.uniform(-1, 1, size=(1, 5)))

        def f(p):
            z = affine_rowwise(x, p["w"], p["b"])
            return bce_loss(sigmoid(sum_all(z)), 1)

        report = grad_check(f, params)
        assert report.passed, report.summary()

    @staticmethod
    def broken_tanh(a):
        y = np.tanh(a.data)
        out = Tensor(y)
        # wrong rule on purpose: drops the 1 - y^2 factor
        T._finish("tanh", [out], [a], lambda gs: (gs[0],))
        return out

    @staticmethod
    def relu_reading(slope):
        """relu whose rule multiplies by ``slope(mask)`` in place of the
        mask."""
        def op(a):
            mask = a.data > 0.0
            out = Tensor(np.maximum(a.data, 0.0))
            T._finish("relu", [out], [a], lambda gs: (gs[0] * slope(mask),))
            return out

        return op

    @staticmethod
    def counted_check(op, point):
        """grad_check of sum(tanh(op(x))) at ``point``, and how many times
        it called the loss."""
        calls = []

        def f(p):
            calls.append(None)
            return sum_all(tanh(op(p["x"])))

        report = grad_check(f, {"x": Tensor(point, requires_grad=True)})
        return report, len(calls)

    def test_broken_adjoint_is_named(self):
        w = Tensor(np.array([0.9, -1.2]), requires_grad=True)
        report = grad_check(lambda p: sum_all(self.broken_tanh(p["w"])),
                            {"w": w})
        assert not report.passed
        assert "w" in report.failures
        assert "FAIL" in report.summary() and "w" in report.summary()

    # 3e-6 from relu's kink: the central difference at STEP straddles it
    KINKED = [3e-6]

    def test_kink_within_the_step_passes(self):
        report, calls = self.counted_check(relu, self.KINKED)
        assert report.passed, report.summary()
        # two baselines and the taped pass, then two evaluations at each step
        assert calls == 3 + 2 + 2

    def test_complemented_mask_at_a_kink_fails(self):
        report, _ = self.counted_check(
            self.relu_reading(lambda mask: ~mask), self.KINKED)
        assert report.failures == ["x"], report.summary()

    def test_adjoint_one_percent_wrong_at_a_kink_fails(self):
        report, _ = self.counted_check(
            self.relu_reading(lambda mask: 1.01 * mask), self.KINKED)
        assert report.failures == ["x"], report.summary()
        # the retry past the kink leaves the 1% error alone
        assert 0.009 < report.max_rel_err["x"] < 0.011

    def test_wrong_adjoint_at_a_smooth_point_is_not_retried(self):
        report, calls = self.counted_check(self.broken_tanh, [0.9, -1.2])
        assert report.failures == ["x"], report.summary()
        assert calls == 3 + 2 * 2

    def test_rejects_nondeterministic_function(self):
        rng = np.random.default_rng(0)
        x = Tensor([0.5], requires_grad=True)

        def noisy(p):
            return sum_all(mul(p["x"], Tensor(rng.uniform(size=1))))

        with pytest.raises(ValueError):
            grad_check(noisy, {"x": x})

    def test_unreached_parameter_reads_as_zero(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor([2.0, 3.0], requires_grad=True)
        report = grad_check(lambda p: sum_all(mul(p["x"], p["x"])),
                            {"x": x, "unused": unused})
        assert report.passed and report.max_rel_err["unused"] == 0.0
        assert unused.grad is None

    def test_existing_gradients_survive(self):
        x = Tensor([1.0], requires_grad=True)
        x.grad = np.array([9.0])
        grad_check(lambda p: sum_all(mul(p["x"], p["x"])), {"x": x})
        np.testing.assert_allclose(x.grad, [9.0])


class TestAdam:
    def test_first_step_magnitude(self):
        theta = Tensor(1.0, requires_grad=True)
        theta.grad = np.asarray(0.5)
        adam_step(AdamState(lr=1e-3), {"theta": theta})
        # bias corrections cancel at t=1, so the step is lr * g / (|g| + eps)
        np.testing.assert_allclose(theta.data, 1.0 - 1e-3, atol=1e-8)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        theta = Tensor([1.0, -2.0], requires_grad=True)
        theta.grad = np.zeros(2)
        adam_step(AdamState(), {"theta": theta})
        np.testing.assert_allclose(theta.data, [1.0, -2.0])

    def test_descends_on_quadratic(self):
        theta = Tensor(1.0, requires_grad=True)
        state = AdamState(lr=1e-2)
        values = []
        for _ in range(3):
            with Tape():
                loss = mul(theta, theta)
                values.append(loss.item())
                backward(loss)
            adam_step(state, {"theta": theta})
        assert values[1] < values[0] and values[2] < values[1]

    def test_gradients_zeroed_after_step(self):
        theta = Tensor([1.0], requires_grad=True)
        theta.grad = np.array([0.3])
        adam_step(AdamState(), {"theta": theta})
        assert theta.grad is None

    def test_step_counter_increments(self):
        theta = Tensor([1.0], requires_grad=True)
        state = AdamState()
        for expected in (1, 2, 3):
            theta.grad = np.array([0.1])
            adam_step(state, {"theta": theta})
            assert state.t == expected

    def test_missing_gradient_steps_as_zeros(self):
        # as for a parameter no dialog of the second batch reaches
        missing = Tensor([1.0, -2.0], requires_grad=True)
        zeroed = Tensor([1.0, -2.0], requires_grad=True)
        state_missing, state_zeroed = AdamState(), AdamState()
        missing.grad = np.array([0.3, -0.7])
        zeroed.grad = np.array([0.3, -0.7])
        adam_step(state_missing, {"theta": missing})
        adam_step(state_zeroed, {"theta": zeroed})
        assert np.all(state_missing.moments["theta"][0] != 0.0)
        after_first = missing.data.copy()

        zeroed.grad = np.zeros(2)
        adam_step(state_missing, {"theta": missing})
        adam_step(state_zeroed, {"theta": zeroed})
        assert missing.grad is None and zeroed.grad is None
        np.testing.assert_array_equal(missing.data, zeroed.data)
        for m_missing, m_zeroed in zip(state_missing.moments["theta"],
                                       state_zeroed.moments["theta"]):
            np.testing.assert_array_equal(m_missing, m_zeroed)
        # the momentum carried it on in the first step's direction
        assert np.all(np.sign(missing.data - after_first) == [-1.0, 1.0])

    def test_non_finite_gradient_rejected(self):
        theta = Tensor([1.0], requires_grad=True)
        theta.grad = np.array([np.inf])
        with pytest.raises(NumericError):
            adam_step(AdamState(), {"theta": theta})


class TestClipGradients:
    def test_norm_above_cap_is_scaled(self):
        p = Tensor([3.0, 4.0], requires_grad=True)
        p.grad = np.array([3.0, 4.0])
        norm = clip_gradients({"p": p}, 1.0)
        assert abs(norm - 5.0) < 1e-12
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0)

    def test_norm_below_cap_untouched(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        clip_gradients({"p": p}, 5.0)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_norm_whose_square_overflows_is_clipped(self):
        p = Tensor([0.0, 0.0], requires_grad=True)
        p.grad = np.array([1e200, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = clip_gradients({"p": p}, 5.0)
        assert norm == 1e200
        np.testing.assert_allclose(np.linalg.norm(p.grad), 5.0, rtol=1e-15)

    def test_infinite_norm_leaves_the_gradients_to_adam(self):
        p = Tensor([0.0, 0.0], requires_grad=True)
        p.grad = np.array([np.inf, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = clip_gradients({"w": p}, 5.0)
        assert norm == np.inf
        np.testing.assert_array_equal(p.grad, [np.inf, 3.0])
        with pytest.raises(NumericError,
                           match="non-finite gradient on 'w'"):
            adam_step(AdamState(), {"w": p})


class TestGradientProperty:
    @pytest.mark.parametrize("seed", range(100))
    def test_all_ops_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        for name, (params, f) in op_scenarios(rng).items():
            report = grad_check(f, params)
            assert report.passed, f"{name}: {report.summary()}"


class TestConv1d:
    def test_width_one_is_pointwise_affine(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=(5, 2))
        k = rng.uniform(-1, 1, size=(3, 1, 2))
        c = rng.uniform(-1, 1, size=3)
        out = conv_relu_mean(Tensor(x), Tensor(k), Tensor(c))
        want = np.maximum(x @ k[:, 0, :].T + c, 0.0).mean(axis=0)
        np.testing.assert_allclose(out.data, [want], atol=1e-12)

    def test_matches_direct_padding_evaluation(self):
        rng = np.random.default_rng(12)
        frames, c_in, c_out, width = 6, 3, 2, 3
        x = rng.uniform(-1, 1, size=(frames, c_in))
        k = rng.uniform(-1, 1, size=(c_out, width, c_in))
        c = rng.uniform(-1, 1, size=c_out)
        padded = np.zeros((frames + 2, c_in))
        padded[1:-1] = x
        want = np.empty((frames, c_out))
        for t in range(frames):
            window = padded[t:t + width]
            for o in range(c_out):
                want[t, o] = np.sum(window * k[o]) + c[o]
        out = conv_relu_mean(Tensor(x), Tensor(k), Tensor(c))
        np.testing.assert_allclose(
            out.data, [np.maximum(want, 0.0).mean(axis=0)], atol=1e-12)

    def test_even_width_rejected(self):
        with pytest.raises(ShapeError):
            conv_relu_mean(Tensor(np.ones((4, 2))),
                           Tensor(np.ones((1, 2, 2))), Tensor(np.ones(1)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv_relu_mean(Tensor(np.ones((4, 2))),
                           Tensor(np.ones((1, 3, 5))), Tensor(np.ones(1)))

    def test_names_a_convolution_output_the_relu_would_hide(self):
        # the product and the bias are finite, their sum overflows to -inf
        # in channel 0, whose ReLU and mean would read 0
        x = Tensor([[1e154, 1.0]], requires_grad=True)
        k = Tensor([[[-1e154, 0.0]], [[1.0, 1.0]]])
        c = Tensor([-1e308, 0.0])
        named = "^conv_relu_mean: non-finite"
        with pytest.raises(NumericError, match=named):
            conv_relu_mean(x, k, c)
        with Tape(), pytest.raises(NumericError, match=named):
            conv_relu_mean(x, k, c)


class TestOpRegistry:
    @staticmethod
    def tape_ops() -> set[str]:
        """Public functions of the tensor module that record tape nodes.

        A function records one when its source calls ``_finish``, directly
        or through a private helper of the module that does.
        """
        functions = {name: fn for name, fn in vars(T).items()
                     if inspect.isfunction(fn) and fn.__module__ == T.__name__}
        sources = {name: inspect.getsource(fn)
                   for name, fn in functions.items()}
        recorders = {"_finish"}
        for name, source in sources.items():
            if name.startswith("_") and "_finish(" in source:
                recorders.add(name)
        return {name for name, source in sources.items()
                if not name.startswith("_")
                and any(f"{r}(" in source for r in recorders)}

    def test_every_tape_op_has_a_gradient_scenario(self):
        ops = self.tape_ops()
        assert {"add", "affine_rowwise", "window_ratio", "bce_loss"} <= ops
        covered = {key.split("[")[0]
                   for key in op_scenarios(np.random.default_rng(0))}
        assert sorted(ops - covered) == []
        # stale scenarios: every key names an op that still exists
        assert sorted(covered - ops) == []

    def test_banter_verify_checks_every_scenario_once(self):
        # a scenario outside OP_GROUPS would pass the unit tests yet be
        # skipped by `banter verify`
        grouped = [op for ops in OP_GROUPS.values() for op in ops]
        covered = {key.split("[")[0]
                   for key in op_scenarios(np.random.default_rng(0))}
        assert sorted(op for op in covered if grouped.count(op) != 1) == []
        assert sorted(set(grouped) - covered) == []
        check_names = {name for name, _ in CHECKS}
        assert set(OP_GROUPS) <= check_names
        assert all(name.startswith("gradients.") for name in OP_GROUPS)


class TestTapeDecisions:
    """Whether an op records a node, and which parents the node
    differentiates, is decided in ``_needs`` alone."""

    @staticmethod
    def functions_where(predicate) -> set[str]:
        """Each function or method of the package, as ``module.qualname``,
        whose source (its nested rules included) has an AST node for which
        ``predicate`` holds."""
        found = set()
        for path in sorted(Path(T.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = [(path.stem, tree.body)] + [
                (f"{path.stem}.{cls.name}", cls.body) for cls in tree.body
                if isinstance(cls, ast.ClassDef)]
            for prefix, body in scopes:
                found.update(
                    f"{prefix}.{node.name}" for node in body
                    if isinstance(node, ast.FunctionDef)
                    and any(predicate(n) for n in ast.walk(node)))
        return found

    def test_only_leaves_and_the_decision_touch_requires_grad(self):
        # Tensor.__init__ sets it, _needs reads it, and _finish registers
        # the leaves it marks
        touching = self.functions_where(
            lambda n: isinstance(n, ast.Attribute)
            and n.attr == "requires_grad")
        assert touching == {"tensor.Tensor.__init__", "tensor._needs",
                            "tensor._finish"}

    def test_only_the_decision_and_backward_read_the_active_tape(self):
        # Tape.__enter__ reads the slot too, to refuse a second tape
        reading = self.functions_where(
            lambda n: isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            and n.id in ("_ACTIVE", "active_tape"))
        assert reading - {"tensor.Tape.__enter__"} == {
            "tensor._needs", "tensor._finish", "tensor.backward",
            "tensor.active_tape"}


class TestConv1dAdjoints:
    def test_constant_input_gets_no_adjoint(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(-1, 1, size=(6, 4))
        k = rng.uniform(-1, 1, size=(3, 3, 4))
        c = rng.uniform(-1, 1, size=3)
        g = rng.uniform(-1, 1, size=(1, 3))
        grads = []
        for x_needs_grad in (True, False):
            with Tape() as tape:
                conv_relu_mean(Tensor(x, requires_grad=x_needs_grad),
                               Tensor(k, requires_grad=True),
                               Tensor(c, requires_grad=True))
                grads.append(tape._nodes[-1].backward_fn([g]))
        (dx, dk, dc), (no_dx, const_dk, const_dc) = grads
        assert dx is not None and no_dx is None
        np.testing.assert_array_equal(const_dk, dk)
        np.testing.assert_array_equal(const_dc, dc)


class TestAffineAdjoints:
    # 1 row of 9 columns through 9 x 9 is a stacked weight term, 9 rows a
    # dense one
    @pytest.mark.parametrize("rows", [1, 9])
    @pytest.mark.parametrize("op", [affine_relu_rows, affine_rowwise])
    def test_constant_input_gets_no_adjoint(self, op, rows):
        rng = np.random.default_rng(19)
        x = rng.uniform(-1, 1, size=(rows, 9))
        w = rng.uniform(-1, 1, size=(9, 9))
        c = rng.uniform(-1, 1, size=9)
        mixer = Tensor(rng.uniform(-1, 1, size=(rows, 9)))
        adjoints, operands = [], []
        for x_needs_grad in (True, False):
            operands.append((Tensor(x, requires_grad=x_needs_grad),
                             Tensor(w, requires_grad=True),
                             Tensor(c, requires_grad=True)))
            with Tape() as tape:
                out = op(*operands[-1])
                adjoints.append(tape._nodes[-1].backward_fn([mixer.data]))
                backward(sum_all(mul(out, mixer)))
        assert adjoints[0][0] is not None and adjoints[1][0] is None
        (_, w1, c1), (x2, w2, c2) = operands
        assert x2.grad is None
        np.testing.assert_array_equal(w2.grad, w1.grad)
        np.testing.assert_array_equal(c2.grad, c1.grad)

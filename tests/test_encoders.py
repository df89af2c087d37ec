"""LSTM and acoustic encoder behavior against independent oracles."""

import math

import numpy as np
import pytest

from banter.encoders import GATE_NAMES, acoustic_encode, lstm_encode_dialog
from banter.gradcheck import grad_check
from banter.model import initial_value
from banter.tensor import ShapeError, Tape, Tensor, mul, sum_all


def const_lstm(d_in, d_h, w=0.0, u=0.0, b=0.0):
    """An LSTM named "lstm" whose weights are constants."""
    shapes = {"w": ((d_h, d_in), w), "u": ((d_h, d_h), u), "b": ((d_h,), b)}
    return {f"lstm.{kind}_{g}": Tensor(np.full(shape, value),
                                       requires_grad=True)
            for g in GATE_NAMES for kind, (shape, value) in shapes.items()}


def init_lstm(d_in, d_h, rng):
    """An LSTM named "lstm" whose values are drawn as ``init_parameters``
    draws them: the four w, then the four u."""
    shapes = {"w": (d_h, d_in), "u": (d_h, d_h), "b": (d_h,)}
    return {f"lstm.{kind}_{g}": Tensor(initial_value(f"lstm.{kind}_{g}",
                                                     shape, rng),
                                       requires_grad=True)
            for kind, shape in shapes.items() for g in GATE_NAMES}


def init_acoustic(channels, coefficients, rng):
    """Convolution kernels and bias drawn as ``init_parameters`` draws
    them."""
    kernels = initial_value("acoustic.kernels", (channels, 3, coefficients),
                            rng)
    return (Tensor(kernels, requires_grad=True),
            Tensor(np.zeros(channels), requires_grad=True))


def scalar_lstm_oracle(w, u, b, xs):
    """Gate formulas evaluated with plain python floats, one unit at a time.

    Runs from a zero state over the input sequence and returns every
    step's (h, c).
    """

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    d_h = len(b["i"])
    h_prev, c_prev = [0.0] * d_h, [0.0] * d_h
    steps = []
    for x in xs:
        h_out, c_out = [], []
        for r in range(d_h):
            pre = {g: sum(w[g][r][k] * x[k] for k in range(len(x)))
                   + sum(u[g][r][k] * h_prev[k] for k in range(d_h))
                   + b[g][r] for g in ("i", "f", "g", "o")}
            i, f, o = sig(pre["i"]), sig(pre["f"]), sig(pre["o"])
            g = math.tanh(pre["g"])
            c = f * c_prev[r] + i * g
            h_out.append(o * math.tanh(c))
            c_out.append(c)
        steps.append((h_out, c_out))
        h_prev, c_prev = h_out, c_out
    return steps


def gate_lists(params):
    """The w, u and b gate dicts of the LSTM named "lstm", as lists."""
    return tuple({g: params[f"lstm.{kind}_{g}"].data.tolist()
                  for g in GATE_NAMES} for kind in "wub")


class TestLstmStep:
    """The gate arithmetic of each step, read through lstm_encode_dialog."""

    def test_zero_params_give_zero_state(self):
        # with all-zero weights every gate is 0.5 and h_t = 0.5 tanh(c_t),
        # so h_t == 0 at every step holds exactly when c_t == 0
        params = const_lstm(3, 4)
        inputs = Tensor([[1.0, -2.0, 0.5], [0.3, 0.1, -4.0]])
        hiddens = lstm_encode_dialog(params, "lstm", inputs)
        np.testing.assert_allclose(hiddens.data, np.zeros((2, 4)))

    def test_default_hidden_width(self):
        rng = np.random.default_rng(0)
        params = init_lstm(300, 128, rng)
        hiddens = lstm_encode_dialog(
            params, "lstm", Tensor(rng.uniform(-1, 1, size=(3, 300))))
        assert hiddens.shape == (3, 128)

    def test_matches_scalar_oracle(self):
        # c_1 is checked through h_2, which reads it through tanh(c_1)
        params = const_lstm(2, 2, w=0.1, u=0.1, b=0.1)
        xs = [[1.0, 0.0], [0.0, 1.0]]
        hiddens = lstm_encode_dialog(params, "lstm", Tensor(xs))
        w = {g: [[0.1, 0.1], [0.1, 0.1]] for g in GATE_NAMES}
        b = {g: [0.1, 0.1] for g in GATE_NAMES}
        steps = scalar_lstm_oracle(w, w, b, xs)
        for h, (want_h, _) in zip(hiddens.data, steps):
            np.testing.assert_allclose(h, want_h, atol=1e-10)

    def test_matches_scalar_oracle_random(self):
        # from step 2 on the state (h_prev, c_prev) is random and nonzero
        rng = np.random.default_rng(9)
        params = init_lstm(3, 4, rng)
        xs = rng.uniform(-1, 1, size=(5, 3))
        hiddens = lstm_encode_dialog(params, "lstm", Tensor(xs))
        steps = scalar_lstm_oracle(*gate_lists(params), xs.tolist())
        for h, (want_h, _) in zip(hiddens.data, steps):
            np.testing.assert_allclose(h, want_h, atol=1e-12)

    def test_input_shape_mismatch(self):
        params = init_lstm(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            lstm_encode_dialog(params, "lstm", Tensor(np.zeros((1, 5))))
        with pytest.raises(ShapeError):
            lstm_encode_dialog(params, "lstm", Tensor(np.zeros(3)))


class TestLstmEncodeDialog:
    def test_single_step_equivalence(self):
        rng = np.random.default_rng(2)
        params = init_lstm(5, 4, rng)
        x = rng.uniform(-1, 1, size=5)
        (h_seq,) = lstm_encode_dialog(params, "lstm", Tensor([x])).data
        ((want_h, _),) = scalar_lstm_oracle(*gate_lists(params), [x.tolist()])
        np.testing.assert_allclose(h_seq, want_h, atol=1e-12)

    def test_causality_under_suffix_append(self):
        rng = np.random.default_rng(3)
        params = init_lstm(4, 3, rng)
        rows = rng.uniform(-1, 1, size=(6, 4))
        base = lstm_encode_dialog(params, "lstm", Tensor(rows[:5]))
        extended = lstm_encode_dialog(params, "lstm", Tensor(rows))
        np.testing.assert_array_equal(extended.data[:5], base.data)

    def test_hidden_states_bounded(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            params = init_lstm(3, 4, r)
            inputs = Tensor(r.uniform(-5, 5, size=(8, 3)))
            hiddens = lstm_encode_dialog(params, "lstm", inputs)
            assert np.all(np.abs(hiddens.data) < 1.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_lstm(6, 5, rng)
        inputs = Tensor(rng.uniform(-1, 1, size=(4, 6)), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, size=(4, 5)))
        named = {**params, "x": inputs}

        def f(_):
            # every step's h enters the loss, so both carries are exercised
            hiddens = lstm_encode_dialog(params, "lstm", inputs)
            return sum_all(mul(hiddens, weights))

        report = grad_check(f, named)
        assert report.passed, report.summary()

    def test_one_tape_node_per_dialog(self):
        rng = np.random.default_rng(6)
        params = init_lstm(4, 3, rng)
        inputs = Tensor(rng.uniform(-1, 1, size=(6, 4)), requires_grad=True)
        with Tape() as tape:
            lstm_encode_dialog(params, "lstm", inputs)
        assert len(tape) == 1

    def test_empty_sequence_rejected(self):
        params = init_lstm(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm_encode_dialog(params, "lstm", Tensor(np.zeros((0, 3))))


def naive_conv_oracle(frames, kernels, bias):
    """Direct per-position dot-product convolution with zero padding."""
    f, c_in = frames.shape
    c_out, width, _ = kernels.shape
    pad = width // 2
    padded = np.zeros((f + 2 * pad, c_in))
    padded[pad:pad + f] = frames
    out = np.empty((f, c_out))
    for t in range(f):
        for o in range(c_out):
            out[t, o] = np.sum(padded[t:t + width] * kernels[o]) + bias[o]
    return np.maximum(out, 0.0).mean(axis=0)


class TestAcousticEncode:
    def test_zero_kernels_give_rectified_bias(self):
        bias = np.array([0.5, -0.5, 2.0])
        kernels = Tensor(np.zeros((3, 3, 128)), requires_grad=True)
        out = acoustic_encode(kernels, Tensor(bias, requires_grad=True),
                              np.random.default_rng(0).normal(size=(4, 128)))
        np.testing.assert_allclose(out.data, [[0.5, 0.0, 2.0]])

    def test_single_frame_sees_center_tap_only(self):
        rng = np.random.default_rng(6)
        kernels, bias = init_acoustic(5, 128, rng)
        frame = rng.uniform(-1, 1, size=(1, 128))
        out = acoustic_encode(kernels, bias, frame)
        center = kernels.data[:, 1, :]
        want = np.maximum(center @ frame[0] + bias.data, 0.0)
        np.testing.assert_allclose(out.data, [want], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        kernels, bias = init_acoustic(6, 128, rng)
        frames = rng.uniform(-1, 1, size=(5, 128))
        out = acoustic_encode(kernels, bias, frames)
        want = naive_conv_oracle(frames, kernels.data, bias.data)
        np.testing.assert_allclose(out.data, [want], atol=1e-12)

    def test_output_width_is_channel_count(self):
        rng = np.random.default_rng(8)
        kernels, bias = init_acoustic(128, 128, rng)
        out = acoustic_encode(kernels, bias, rng.normal(size=(7, 128)))
        assert out.shape == (1, 128)

    def test_wrong_column_count_rejected(self):
        # conv_relu_mean rejects bad ranks and widths; an empty matrix is
        # rejected before the mean over its frames
        kernels, bias = init_acoustic(4, 128, np.random.default_rng(0))
        for shape in [(3, 64), (128,), (), (0, 128)]:
            with pytest.raises(ShapeError):
                acoustic_encode(kernels, bias, np.zeros(shape))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        kernels, bias = init_acoustic(3, 8, rng)
        frames = rng.uniform(-1, 1, size=(4, 8))

        def f(named):
            return sum_all(acoustic_encode(kernels, bias, frames))

        report = grad_check(f, {"kernels": kernels, "bias": bias})
        assert report.passed, report.summary()

"""Gated filtering bounds, saturation, monotonicity, and trunk width."""

import numpy as np
import pytest

from banter.fusion import filter_modality, init_filter_gate
from banter.gradcheck import grad_check
from banter.model import ModelConfig
from banter.tensor import (
    ShapeError,
    Tensor,
    affine_rowwise,
    concat,
    mul,
    sigmoid,
    sum_all,
    tanh,
)


def random_pair(rng, d, n=1):
    h_mod = Tensor(rng.uniform(-3, 3, size=(n, 2 * d)))
    h_cross = Tensor(rng.uniform(-3, 3, size=(n, 3 * d)))
    return h_mod, h_cross


class TestFilterModality:
    def test_zero_gate_passes_half(self):
        rng = np.random.default_rng(0)
        h_mod, h_cross = random_pair(rng, 4)
        gate_w = Tensor(np.zeros((8, 12)))
        gate_b = Tensor(np.zeros(8))
        out = filter_modality(h_mod, h_cross, gate_w, gate_b)
        np.testing.assert_allclose(out.data, 0.5 * np.tanh(h_mod.data),
                                   atol=1e-12)

    def test_saturated_low_gate_blocks(self):
        rng = np.random.default_rng(1)
        h_mod, h_cross = random_pair(rng, 4)
        gate_w = Tensor(np.zeros((8, 12)))
        gate_b = Tensor(np.full(8, -30.0))
        out = filter_modality(h_mod, h_cross, gate_w, gate_b)
        np.testing.assert_allclose(out.data, np.zeros((1, 8)), atol=1e-12)

    def test_saturated_high_gate_passes_through(self):
        rng = np.random.default_rng(2)
        h_mod, h_cross = random_pair(rng, 4)
        gate_w = Tensor(np.zeros((8, 12)))
        gate_b = Tensor(np.full(8, 30.0))
        out = filter_modality(h_mod, h_cross, gate_w, gate_b)
        np.testing.assert_allclose(out.data, np.tanh(h_mod.data), atol=1e-12)

    def test_output_strictly_inside_unit_box(self):
        # tanh saturates to exactly 1.0 in float64 near |x| = 19, so the
        # strict bound is only checkable while tanh stays representable
        for seed in range(25):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 6))
            h_mod = Tensor(rng.uniform(-8, 8, size=(1, 2 * d)))
            h_cross = Tensor(rng.uniform(-8, 8, size=(1, 3 * d)))
            gate_w, gate_b = init_filter_gate(2 * d, 3 * d, rng)
            out = filter_modality(h_mod, h_cross, gate_w, gate_b)
            assert np.all(np.abs(out.data) < 1.0)

    def test_monotone_in_gate_preactivation(self):
        # raising one gate bias coordinate weakly raises |output| there
        rng = np.random.default_rng(3)
        h_mod, h_cross = random_pair(rng, 3)
        gate_w = Tensor(rng.uniform(-1, 1, size=(6, 9)))
        magnitudes = []
        for bias in (-2.0, 0.0, 2.0):
            out = filter_modality(h_mod, h_cross, gate_w,
                                  Tensor(np.full(6, bias)))
            magnitudes.append(np.abs(out.data))
        assert np.all(magnitudes[0] <= magnitudes[1] + 1e-15)
        assert np.all(magnitudes[1] <= magnitudes[2] + 1e-15)

    def test_shape_validation(self):
        # the filter's ops (affine_rowwise, mul) reject every bad shape
        for shapes in [
            ((1, 4), (1, 6), (5, 6), (5,)),  # gate output width
            ((1, 4), (1, 6), (4, 6), (3,)),  # gate bias length
            ((2, 4), (3, 6), (4, 6), (4,)),  # row counts
            ((4,), (1, 6), (4, 6), (4,)),    # 1-D h_mod
            ((1, 4), (6,), (4, 6), (4,)),    # 1-D h_cross
            ((1, 4), (1, 6), (24,), (4,)),   # 1-D gate_w
            ((1, 4), (1, 6), (4, 5), (4,)),  # gate input width
        ]:
            with pytest.raises(ShapeError):
                filter_modality(*(Tensor(np.zeros(shape)) for shape in shapes))

    def test_rows_match_per_vector_gate_bit_for_bit(self):
        # the per-utterance form this layer replaced: one matrix-vector
        # product per row, at paper widths (2d = 256, 3d = 384)
        rng = np.random.default_rng(5)
        gate_w, gate_b = init_filter_gate(256, 384, rng)
        for n in range(1, 13):
            h_mod, h_cross = random_pair(rng, 128, n)
            out = filter_modality(h_mod, h_cross, gate_w, gate_b)
            for i in range(n):
                gate = sigmoid(Tensor(gate_w.data @ h_cross.data[i]
                                      + gate_b.data))
                want = mul(tanh(Tensor(h_mod.data[i])), gate)
                np.testing.assert_array_equal(out.data[i], want.data)


class TestFuseRepresentation:
    """The trunk: filtered audio, filtered text and cross blocks side by side.

    ``forward_dialog`` concatenates the three (n, width) block matrices
    along axis 1.
    """

    @staticmethod
    def fuse(audio, text, cross):
        return concat([audio, text, cross], axis=1)

    def test_default_width(self):
        n = 3
        fused = self.fuse(Tensor(np.zeros((n, 256))), Tensor(np.ones((n, 256))),
                          Tensor(np.zeros((n, 384))))
        assert fused.shape == (n, 896)
        assert ModelConfig().trunk_dim == 896
        np.testing.assert_array_equal(fused.data[:, 256:512], 1.0)

    def test_zero_inputs_fuse_to_zero(self):
        fused = self.fuse(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))),
                          Tensor(np.zeros((1, 6))))
        np.testing.assert_allclose(fused.data, np.zeros((1, 14)))

    def test_gradient_through_fused_head(self):
        rng = np.random.default_rng(4)
        d, n = 4, 3
        params = {
            "gate_audio_w": Tensor(rng.uniform(-1, 1, size=(2 * d, 3 * d)),
                                   requires_grad=True),
            "gate_audio_b": Tensor(rng.uniform(-1, 1, size=2 * d),
                                   requires_grad=True),
            "gate_text_w": Tensor(rng.uniform(-1, 1, size=(2 * d, 3 * d)),
                                  requires_grad=True),
            "gate_text_b": Tensor(rng.uniform(-1, 1, size=2 * d),
                                  requires_grad=True),
            "head_w": Tensor(rng.uniform(-1, 1, size=(1, 7 * d)),
                             requires_grad=True),
            "head_b": Tensor(rng.uniform(-1, 1, size=1), requires_grad=True),
        }
        for name, width in (("h_audio", 2 * d), ("h_text", 2 * d),
                            ("h_cross", 3 * d)):
            params[name] = Tensor(rng.uniform(-1, 1, size=(n, width)),
                                  requires_grad=True)

        def f(p):
            audio = filter_modality(p["h_audio"], p["h_cross"],
                                    p["gate_audio_w"], p["gate_audio_b"])
            text = filter_modality(p["h_text"], p["h_cross"],
                                   p["gate_text_w"], p["gate_text_b"])
            fused = self.fuse(audio, text, p["h_cross"])
            return sum_all(sigmoid(affine_rowwise(fused, p["head_w"],
                                                  p["head_b"])))

        report = grad_check(f, params)
        assert report.passed, report.summary()

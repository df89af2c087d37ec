"""Hierarchical attention structure, values, and gradients."""

import numpy as np
import pytest

from banter.gradcheck import grad_check
from banter.hier_attention import (
    SHIFT_SPREAD_LIMIT,
    _level_shift,
    hier_attend,
    init_projection,
    level_count,
)
from banter.tensor import Tape, Tensor, sum_all


def identity_projection(dim):
    return Tensor(np.eye(dim)), Tensor(np.zeros(dim))


def level_sizes(n, level_weights):
    """Vectors per level, level 0 first: the inputs, then one per window."""
    return [n] + [weights.shape[0] for weights in level_weights]


def hier_oracle(vectors: np.ndarray, proj_w: np.ndarray, proj_b: np.ndarray,
                width: int) -> np.ndarray:
    """Independent plain-numpy transcription of the whole hierarchy; returns
    the final (1, d) row."""
    current = [np.maximum(v, 0.0) for v in vectors]
    while len(current) > 1:
        if len(current) >= width:
            windows = [current[k:k + width]
                       for k in range(len(current) - width + 1)]
        else:
            windows = [current]
        nxt = []
        for window in windows:
            stacked = np.stack(window)
            shifted = np.exp(stacked - stacked.max(axis=0))
            weights = shifted / shifted.sum(axis=0)
            pooled = (weights * stacked).sum(axis=0) / len(window)
            nxt.append(np.maximum(proj_w @ pooled + proj_b, 0.0))
        current = nxt
    return current[0][None, :]


class TestLevelCount:
    def test_twenty_tokens_width_three(self):
        assert level_count(20, 3) == 10

    def test_single_vector_needs_no_levels(self):
        for width in (2, 3, 4, 5):
            assert level_count(1, width) == 0

    def test_truncated_final_window(self):
        assert level_count(4, 3) == 2

    def test_matches_ceiling_formula(self):
        for n in range(1, 70):
            for width in range(2, 6):
                want = int(np.ceil((n - 1) / (width - 1)))
                assert level_count(n, width) == want

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            level_count(0, 3)
        with pytest.raises(ValueError):
            level_count(5, 1)


class TestWindowLevel:
    """One attention level, read from the weights of a one-level collapse."""

    def test_equal_vectors_share_weight(self):
        v = np.array([0.4, 1.2, 0.0, 2.0])
        w, b = identity_projection(4)
        out, level_weights = hier_attend(Tensor(np.tile(v, (3, 1))), w, b,
                                         width=3, weights=True)
        np.testing.assert_allclose(level_weights[0],
                                   np.full((1, 3, 4), 1 / 3), atol=1e-12)
        # weighted sum reassembles v, then the division by window size
        np.testing.assert_allclose(out.data, [v / 3], atol=1e-12)

    def test_log_spaced_first_coordinate(self):
        w, b = identity_projection(2)
        rows = Tensor([[np.log(2.0), 0.0], [np.log(4.0), 0.0]])
        _, level_weights = hier_attend(rows, w, b, width=2, weights=True)
        np.testing.assert_allclose(level_weights[0][0, :, 0],
                                   [1 / 3, 2 / 3], atol=1e-12)


class TestHierAttend:
    def test_single_vector_base_case(self):
        v = np.array([1.0, -2.0, 0.5])
        w, b = identity_projection(3)
        out, level_weights = hier_attend(Tensor([v]), w, b, width=3,
                                         weights=True)
        np.testing.assert_allclose(out.data, [[1.0, 0.0, 0.5]])
        assert level_weights == []

    def test_five_vectors_width_three_level_sizes(self):
        rng = np.random.default_rng(0)
        w, b = identity_projection(4)
        vectors = Tensor(rng.uniform(-1, 1, size=(5, 4)))
        _, level_weights = hier_attend(vectors, w, b, width=3, weights=True)
        assert level_sizes(5, level_weights) == [5, 3, 1]
        assert len(level_weights) == level_count(5, 3) == 2

    def test_four_vectors_truncated_final_window(self):
        rng = np.random.default_rng(1)
        w_np = rng.uniform(-0.5, 0.5, size=(3, 3))
        b_np = rng.uniform(-0.1, 0.1, size=3)
        raw = rng.uniform(-1, 1, size=(4, 3))
        out, level_weights = hier_attend(Tensor(raw), Tensor(w_np),
                                         Tensor(b_np), width=3, weights=True)
        assert level_sizes(4, level_weights) == [4, 2, 1]
        # the final level attends one truncated 2-wide window
        assert level_weights[1].shape == (1, 2, 3)
        np.testing.assert_allclose(
            out.data, hier_oracle(raw, w_np, b_np, 3), atol=1e-12)

    def test_matches_oracle_across_shapes(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 6))
            width = int(rng.integers(2, 6))
            w_np = rng.uniform(-0.7, 0.7, size=(d, d))
            b_np = rng.uniform(-0.2, 0.2, size=d)
            raw = rng.uniform(-1, 1, size=(n, d))
            out, _ = hier_attend(Tensor(raw), Tensor(w_np), Tensor(b_np),
                                 width=width)
            np.testing.assert_allclose(
                out.data, hier_oracle(raw, w_np, b_np, width), atol=1e-10)

    def test_output_dim_matches_input_dim(self):
        rng = np.random.default_rng(3)
        for n, d, width in [(1, 7, 3), (9, 2, 2), (16, 5, 4), (30, 3, 5)]:
            w, b = identity_projection(d)
            vectors = Tensor(rng.uniform(-1, 1, size=(n, d)))
            out, _ = hier_attend(vectors, w, b, width=width)
            assert out.shape == (1, d)

    def test_window_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        w, b = identity_projection(3)
        vectors = Tensor(rng.uniform(-2, 2, size=(9, 3)))
        _, level_weights = hier_attend(vectors, w, b, width=3, weights=True)
        for weights in level_weights:
            for window_weights in weights:
                total = window_weights.sum(axis=0)
                np.testing.assert_allclose(total, np.ones(3), atol=1e-9)
                for wt in window_weights:
                    assert np.all(wt > 0.0) and np.all(wt < 1.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        proj_w, proj_b = init_projection(4, rng)
        vectors = Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True)
        params = {"proj_w": proj_w, "proj_b": proj_b, "vectors": vectors}

        def f(p):
            out, _ = hier_attend(p["vectors"], p["proj_w"], p["proj_b"],
                                 width=3)
            return sum_all(out)

        report = grad_check(f, params)
        assert report.passed, report.summary()

    def test_weights_only_on_request(self):
        w, b = identity_projection(2)
        vectors = Tensor(np.arange(10.0).reshape(5, 2))
        plain, none = hier_attend(vectors, w, b)
        asked, level_weights = hier_attend(vectors, w, b, weights=True)
        assert none is None and len(level_weights) == 2
        np.testing.assert_array_equal(plain.data, asked.data)

    @pytest.mark.parametrize("n, d", [(15, 300), (105, 128), (200, 128)])
    def test_matches_oracle_at_paper_dimensions(self, n, d):
        rng = np.random.default_rng(n + d)
        proj_w, proj_b = init_projection(d, rng)
        raw = rng.normal(size=(n, d))
        out, _ = hier_attend(Tensor(raw), proj_w, proj_b)
        want = hier_oracle(raw, proj_w.data, proj_b.data, 3)
        assert np.linalg.norm(out.data - want) \
            <= 1e-12 * np.linalg.norm(want)

    def test_wide_column_spread_matches_the_oracle(self):
        # one cell at 1000: exp of the column's other cells against one
        # shift for the level would underflow to 0, and windows without
        # that cell would divide 0 by 0
        rng = np.random.default_rng(9)
        raw = rng.uniform(-1, 1, size=(24, 8))
        raw[10, 3] = 1000.0
        assert 1000.0 - np.maximum(raw[:, 3], 0).min() > 745 \
            > SHIFT_SPREAD_LIMIT
        # a positive bias keeps the levels' tiny pre-activations off the
        # ReLU corner, which finite-difference steps would straddle
        proj_w, _ = init_projection(8, rng)
        proj_b = Tensor(np.full(8, 0.1), requires_grad=True)
        vectors = Tensor(raw, requires_grad=True)
        out, _ = hier_attend(vectors, proj_w, proj_b)
        want = hier_oracle(raw, proj_w.data, proj_b.data, 3)
        assert np.all(np.isfinite(out.data))
        assert np.linalg.norm(out.data - want) \
            <= 1e-12 * np.linalg.norm(want)
        params = {"proj_w": proj_w, "proj_b": proj_b, "vectors": vectors}
        report = grad_check(lambda p: sum_all(hier_attend(
            p["vectors"], p["proj_w"], p["proj_b"])[0]), params)
        assert report.passed, report.summary()

    def test_empty_matrix_rejected(self):
        w, b = identity_projection(2)
        with pytest.raises(ValueError):
            hier_attend(Tensor(np.zeros((0, 2))), w, b, width=3)

    def test_tape_nodes_per_level_do_not_grow_with_windows(self):
        # 105 frames x 128 coefficients: 52 levels of up to 103 windows each
        rng = np.random.default_rng(8)
        proj_w, proj_b = init_projection(128, rng)
        vectors = Tensor(rng.normal(size=(105, 128)), requires_grad=True)
        with Tape() as tape:
            _, level_weights = hier_attend(vectors, proj_w, proj_b, width=3,
                                           weights=True)
        assert len(level_weights) == level_count(105, 3) == 52
        assert len(tape) <= 10 * len(level_weights) + 2



class TestLevelShift:
    def test_only_a_column_spreading_past_the_limit_takes_its_own_rows(self):
        rng = np.random.default_rng(32)
        x = np.maximum(rng.uniform(-1, 1, size=(30, 6)), 0.0)
        x[4, 2] = 1000.0
        got = _level_shift(x)
        assert got.shape == (30, 6)
        np.testing.assert_array_equal(got[:, 2], x[:, 2])
        others = [0, 1, 3, 4, 5]
        np.testing.assert_array_equal(
            got[:, others], np.broadcast_to(x[:, others].max(axis=0),
                                            (30, 5)))
        # a spread of exactly the limit, or values above it whose columns
        # spread less, keep the (d,) column maximum
        x[4, 2], x[7, 2] = SHIFT_SPREAD_LIMIT, 0.0
        np.testing.assert_array_equal(_level_shift(x), x.max(axis=0))
        narrow = x + 700.0
        np.testing.assert_array_equal(_level_shift(narrow),
                                      narrow.max(axis=0))


class TestRowOrder:
    """A window's softmax-weighted sum ignores the order of its rows,
    windows slide with stride 1 and each level shares one projection, so
    reversing the input leaves the final row unchanged; other orders
    change it."""

    @staticmethod
    def random_setting(n, d):
        """(final_row, vectors, rng): ``final_row`` runs ``hier_attend``
        under one random projection."""
        rng = np.random.default_rng(n)
        proj_w = Tensor(rng.normal(0.0, d ** -0.5, size=(d, d)))
        proj_b = Tensor(np.zeros(d))

        def final_row(rows):
            return hier_attend(Tensor(rows), proj_w, proj_b,
                               width=3)[0].data[0]

        return final_row, rng.normal(size=(n, d)), rng

    @pytest.mark.parametrize("n, d", [(5, 300), (15, 300), (200, 128)])
    def test_reversal_keeps_the_final_row(self, n, d):
        final_row, vectors, _ = self.random_setting(n, d)
        forward, reverse = final_row(vectors), final_row(vectors[::-1])
        assert np.linalg.norm(reverse - forward) \
            <= 1e-12 * np.linalg.norm(forward)

    @pytest.mark.parametrize("n", [5, 15])
    def test_a_shuffle_changes_the_final_row(self, n):
        final_row, vectors, rng = self.random_setting(n, 300)
        order = rng.permutation(n).tolist()
        assert order not in (sorted(order), sorted(order)[::-1])
        forward, shuffled = final_row(vectors), final_row(vectors[order])
        assert np.linalg.norm(shuffled - forward) \
            > 0.05 * np.linalg.norm(forward)

"""Model assembly: config rules, forward contracts, variants, checkpoints."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from banter.data import MFCC_COLUMNS, Dialog, EmbeddingTable, UtteranceRecord
from banter.gradcheck import grad_check
from banter.model import (
    FULL_VARIANT,
    CheckpointError,
    ConfigError,
    ModalityError,
    ModelConfig,
    ParameterSet,
    build_variant,
    forward_dialog,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
    variant_label,
)
from banter.tensor import Tape, Tensor, add, backward, bce_loss
from banter.train import dialog_loss

# the ablation grid's rows, as build_variant names them
VARIANT_ROWS = (
    "LSTM(A)", "LSTM(H-ATN^A)", "LSTM(A)+C-ATN^D", "LSTM(H-ATN^A)+C-ATN^D",
    "LSTM(T_avg)", "LSTM(H-ATN^U)", "LSTM(H-ATN^U)+C-ATN^D",
    "LSTM(A)+LSTM(T_avg)", "LSTM(A)+LSTM(H-ATN^U)",
    "LSTM(A)+LSTM(H-ATN^U)+C-ATN^D", FULL_VARIANT,
)

VOCAB = ["kya", "scene", "hai", "bhai", "arre", "chalo", "theek", "acha"]


def toy_table(dim: int, seed: int = 1) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(dim)
    for token in VOCAB:
        table.add(token, rng.normal(0.0, 0.5, size=dim))
    return table


def toy_dialog(n_utts: int = 3, seed: int = 0,
               with_audio: bool = True) -> Dialog:
    rng = np.random.default_rng(seed)
    utts = []
    for k in range(n_utts):
        tokens = [VOCAB[int(rng.integers(0, len(VOCAB)))]
                  for _ in range(int(rng.integers(2, 6)))]
        # draw frames even when discarding them so token draws stay aligned
        n_frames = int(rng.integers(2, 6))
        frames = rng.normal(0.0, 1.0, size=(n_frames, MFCC_COLUMNS))
        if not with_audio:
            frames = None
        utts.append(UtteranceRecord(
            uid=f"u{k + 1}", speaker=f"s{k % 2 + 1}", tokens=tokens,
            acoustic=frames, sarcasm=int(rng.integers(0, 2)),
            humor=int(rng.integers(0, 2))))
    return Dialog(dialog_id="d1", utterances=utts)


def toy_config(**kw) -> ModelConfig:
    base = dict(modality="both", text_repr="hier", audio_repr="conv",
                use_context_attn=True, use_filter=True, task_mode="joint",
                d_text_in=6, d_hidden=5, d_audio=4, attn_width_tokens=3,
                attn_width_dialog=2, dropout=0.0, head_hidden=4)
    base.update(kw)
    return ModelConfig(**base)


def probs_as_floats(pred, task: str) -> list[float]:
    return pred.scores[task].data[:, 0].tolist()


class TestModelConfig:
    def test_filter_needs_context_attention(self):
        with pytest.raises(ConfigError, match="use_filter"):
            toy_config(use_context_attn=False)

    def test_filter_needs_both_modalities(self):
        with pytest.raises(ConfigError, match="use_filter"):
            toy_config(modality="text")

    def test_bad_enum_values_rejected(self):
        with pytest.raises(ConfigError, match="modality"):
            toy_config(modality="video", use_filter=False)
        with pytest.raises(ConfigError, match="text_repr"):
            toy_config(text_repr="bow")
        with pytest.raises(ConfigError, match="task_mode"):
            toy_config(task_mode="both")

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            toy_config(dropout=1.0)
        with pytest.raises(ConfigError, match="dropout"):
            toy_config(dropout=-0.1)

    def test_hier_audio_pins_frame_width(self):
        with pytest.raises(ConfigError, match="hier"):
            toy_config(audio_repr="hier", d_audio=64)
        cfg = toy_config(audio_repr="hier", d_audio=MFCC_COLUMNS)
        assert cfg.d_audio == MFCC_COLUMNS

    def test_task_lists(self):
        assert toy_config().tasks == ("sarcasm", "humor")
        assert toy_config(task_mode="humor").tasks == ("humor",)

    def test_trunk_dimensions(self):
        d = 5
        assert toy_config().trunk_dim == 7 * d
        assert toy_config(use_filter=False,
                          use_context_attn=False).trunk_dim == 2 * d
        assert toy_config(modality="text", use_filter=False).trunk_dim == 2 * d
        assert toy_config(modality="audio", use_filter=False,
                          use_context_attn=False).trunk_dim == d


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        params = ParameterSet()
        params.register("a", Tensor([1.0]))
        with pytest.raises(ValueError, match="duplicate"):
            params.register("a", Tensor([2.0]))

    def test_reserved_name_rejected(self):
        params = ParameterSet()
        with pytest.raises(ValueError, match="reserved"):
            params.register("__meta__", Tensor([1.0]))


class TestInitParameters:
    def test_full_model_branches_present(self):
        params = init_parameters(toy_config(), np.random.default_rng(0))
        names = set(params.names())
        assert {"text_attn.proj_w", "acoustic.kernels", "lstm_text.w_i",
                "lstm_audio.u_f", "filter_audio.gate_w", "filter_text.gate_b",
                "head_sarcasm.w1", "head_humor.b2"} <= names

    def test_text_only_has_no_audio_branch(self):
        cfg = toy_config(modality="text", use_filter=False)
        names = set(init_parameters(cfg, np.random.default_rng(0)).names())
        assert not any(n.startswith(("acoustic.", "lstm_audio.", "filter_"))
                       for n in names)

    def test_mean_text_has_no_projection(self):
        cfg = toy_config(text_repr="mean")
        names = set(init_parameters(cfg, np.random.default_rng(0)).names())
        assert "text_attn.proj_w" not in names

    def test_hier_audio_uses_projection_not_kernels(self):
        cfg = toy_config(audio_repr="hier", d_audio=MFCC_COLUMNS)
        names = set(init_parameters(cfg, np.random.default_rng(0)).names())
        assert "audio_attn.proj_w" in names
        assert "acoustic.kernels" not in names

    def test_single_task_has_one_head(self):
        cfg = toy_config(task_mode="sarcasm")
        names = set(init_parameters(cfg, np.random.default_rng(0)).names())
        assert "head_sarcasm.w1" in names
        assert not any(n.startswith("head_humor") for n in names)

    def test_default_dims_head_shape(self):
        params = init_parameters(ModelConfig(), np.random.default_rng(0))
        assert params["head_sarcasm.w1"].shape == (128, 7 * 128)

    def test_count_matches_registry(self):
        for cfg in (toy_config(), toy_config(modality="audio",
                                             use_filter=False)):
            shapes = [{name: tensor.shape for name, tensor in
                       init_parameters(cfg, np.random.default_rng(seed)).items()}
                      for seed in (0, 3)]
            assert shapes[0] == shapes[1]


class TestForwardDialog:
    def test_probabilities_strictly_inside_unit_interval(self):
        cfg = toy_config()
        dialog = toy_dialog(n_utts=4, seed=2)
        pred = forward_dialog(cfg, init_parameters(cfg, np.random.default_rng(5)),
                              dialog, toy_table(cfg.d_text_in))
        for task in cfg.tasks:
            assert pred.scores[task].shape == (4, 1)
            assert np.all((pred.scores[task].data > 0.0)
                          & (pred.scores[task].data < 1.0))
            # the per-utterance view holds the same values
            view = pred.probabilities[task]
            assert [prob.shape for prob in view] == [(1,)] * 4
            assert [float(prob.data[0]) for prob in view] \
                == probs_as_floats(pred, task)

    def test_per_utterance_view_carries_the_scores_gradients(self):
        # perfbench's gradient and metric checks read scores through this
        # view, one bce_loss per utterance
        cfg = toy_config()
        dialog = toy_dialog(n_utts=4, seed=2)
        table = toy_table(cfg.d_text_in)
        grads = {}
        for path in ("scores", "view"):
            params = init_parameters(cfg, np.random.default_rng(5))
            with Tape():
                pred = forward_dialog(cfg, params, dialog, table)
                if path == "scores":
                    loss = dialog_loss(pred, dialog, cfg.tasks)
                else:
                    loss = None
                    for task in cfg.tasks:
                        view = pred.probabilities[task]
                        np.testing.assert_array_equal(
                            np.concatenate([prob.data for prob in view]),
                            pred.scores[task].data[:, 0])
                        for utt, prob in zip(dialog.utterances, view):
                            term = bce_loss(prob, getattr(utt, task))
                            loss = term if loss is None else add(loss, term)
                backward(loss)
            grads[path] = {name: t.grad for name, t in params.items()}
        for name, want in grads["scores"].items():
            np.testing.assert_allclose(grads["view"][name], want, rtol=1e-12,
                                       err_msg=name)

    def test_eval_mode_deterministic(self):
        cfg = toy_config(dropout=0.4)
        dialog = toy_dialog(seed=6)
        params = init_parameters(cfg, np.random.default_rng(7))
        table = toy_table(cfg.d_text_in)
        a = forward_dialog(cfg, params, dialog, table, training=False)
        b = forward_dialog(cfg, params, dialog, table, training=False)
        for task in cfg.tasks:
            assert probs_as_floats(a, task) == probs_as_floats(b, task)

    def test_training_dropout_needs_an_rng(self):
        cfg = toy_config(dropout=0.4)
        params = init_parameters(cfg, np.random.default_rng(7))
        with pytest.raises(ValueError, match="needs an rng"):
            forward_dialog(cfg, params, toy_dialog(seed=6),
                           toy_table(cfg.d_text_in), training=True, rng=None)

    def test_training_dropout_reproducible_and_active(self):
        cfg = toy_config(dropout=0.4)
        dialog = toy_dialog(seed=6)
        params = init_parameters(cfg, np.random.default_rng(7))
        table = toy_table(cfg.d_text_in)
        a = forward_dialog(cfg, params, dialog, table, training=True,
                           rng=np.random.default_rng(11))
        b = forward_dialog(cfg, params, dialog, table, training=True,
                           rng=np.random.default_rng(11))
        c = forward_dialog(cfg, params, dialog, table, training=False)
        assert probs_as_floats(a, "sarcasm") == probs_as_floats(b, "sarcasm")
        assert probs_as_floats(a, "sarcasm") != probs_as_floats(c, "sarcasm")

    @pytest.mark.parametrize("variant", ["LSTM(A)+LSTM(T_avg)", "full"])
    def test_prefix_scores_bitwise_at_paper_dims(self, variant):
        # at the paper's widths a GEMM over a dialog's rows can change the
        # last bits of earlier rows as utterances are appended
        cfg = build_variant(variant)
        params = init_parameters(cfg, np.random.default_rng(12))
        table = toy_table(cfg.d_text_in)
        for n in range(2, 7):
            dialog = toy_dialog(n_utts=n, seed=20 + n)
            whole = forward_dialog(cfg, params, dialog, table)
            for k in range(1, n):
                prefix = Dialog(dialog_id=dialog.dialog_id,
                                utterances=dialog.utterances[:k])
                part = forward_dialog(cfg, params, prefix, table)
                for task in cfg.tasks:
                    assert (probs_as_floats(part, task)
                            == probs_as_floats(whole, task)[:k])

    def test_text_only_ignores_acoustic_frames(self):
        cfg = toy_config(modality="text", use_filter=False)
        params = init_parameters(cfg, np.random.default_rng(8))
        table = toy_table(cfg.d_text_in)
        with_audio = toy_dialog(seed=9, with_audio=True)
        mutated = toy_dialog(seed=9, with_audio=True)
        for utt in mutated.utterances:
            utt.acoustic = utt.acoustic + 40.0
        silent = toy_dialog(seed=9, with_audio=False)
        base = forward_dialog(cfg, params, with_audio, table)
        assert probs_as_floats(base, "sarcasm") == probs_as_floats(
            forward_dialog(cfg, params, mutated, table), "sarcasm")
        assert probs_as_floats(base, "sarcasm") == probs_as_floats(
            forward_dialog(cfg, params, silent, table), "sarcasm")

    def test_audio_only_ignores_tokens(self):
        cfg = toy_config(modality="audio", use_filter=False)
        params = init_parameters(cfg, np.random.default_rng(8))
        dialog = toy_dialog(seed=10)
        reworded = toy_dialog(seed=10)
        for utt in reworded.utterances:
            utt.tokens = ["chalo"] * len(utt.tokens)
        base = forward_dialog(cfg, params, dialog)
        again = forward_dialog(cfg, params, reworded)
        assert probs_as_floats(base, "sarcasm") == probs_as_floats(again, "sarcasm")

    def test_missing_frames_rejected_by_name(self):
        cfg = toy_config()
        dialog = toy_dialog(n_utts=3, seed=4)
        dialog.utterances[1].acoustic = None
        with pytest.raises(ModalityError, match="u2"):
            forward_dialog(cfg, init_parameters(cfg, np.random.default_rng(0)),
                           dialog, toy_table(cfg.d_text_in))

    def test_text_branch_requires_embeddings(self):
        cfg = toy_config()
        with pytest.raises(ValueError, match="embedding"):
            forward_dialog(cfg, init_parameters(cfg, np.random.default_rng(0)),
                           toy_dialog())

    def test_trace_fields_follow_config(self):
        dialog = toy_dialog(n_utts=3, seed=12)
        cfg = toy_config()
        pred = forward_dialog(cfg, init_parameters(cfg, np.random.default_rng(1)),
                              dialog, toy_table(cfg.d_text_in))
        rows = {"audio": 3, "text": 3, "cross": 3}
        assert {key: w.shape[0] for key, w in
                pred.dialog_trace.weights.items()} == rows

        hier_audio = toy_config(audio_repr="hier", d_audio=MFCC_COLUMNS)
        pred = forward_dialog(
            hier_audio, init_parameters(hier_audio, np.random.default_rng(1)),
            dialog, toy_table(hier_audio.d_text_in))
        assert {key: w.shape[0] for key, w in
                pred.dialog_trace.weights.items()} == rows

        plain = toy_config(text_repr="mean", use_context_attn=False,
                           use_filter=False)
        pred = forward_dialog(plain,
                              init_parameters(plain, np.random.default_rng(1)),
                              dialog, toy_table(plain.d_text_in))
        assert pred.dialog_trace is None

    def test_joint_head_isolation(self):
        cfg = toy_config()
        dialog = toy_dialog(n_utts=4, seed=3)
        table = toy_table(cfg.d_text_in)

        def run(tasks):
            params = init_parameters(cfg, np.random.default_rng(42))
            with Tape():
                pred = forward_dialog(cfg, params, dialog, table)
                backward(dialog_loss(pred, dialog, tasks))
            return params

        only_sarcasm = run(("sarcasm",))
        assert only_sarcasm["head_humor.w1"].grad is None
        assert only_sarcasm["lstm_text.w_i"].grad is not None
        assert only_sarcasm["filter_audio.gate_w"].grad is not None
        both = run(("sarcasm", "humor"))
        assert both["head_humor.w1"].grad is not None
        # the humor loss contributes nothing to the sarcasm head
        np.testing.assert_array_equal(both["head_sarcasm.w1"].grad,
                                      only_sarcasm["head_sarcasm.w1"].grad)
        np.testing.assert_array_equal(both["head_sarcasm.b2"].grad,
                                      only_sarcasm["head_sarcasm.b2"].grad)

    def test_mean_text_variant_gradients(self):
        cfg = toy_config(modality="text", text_repr="mean",
                         use_context_attn=False, use_filter=False,
                         task_mode="sarcasm", d_hidden=4, head_hidden=3)
        dialog = toy_dialog(n_utts=3, seed=16, with_audio=False)
        table = toy_table(cfg.d_text_in, seed=17)
        params = init_parameters(cfg, np.random.default_rng(18))

        def f(_):
            pred = forward_dialog(cfg, params, dialog, table, training=False)
            return dialog_loss(pred, dialog, cfg.tasks)

        report = grad_check(f, params.as_dict())
        assert report.passed, report.summary()


class TestVariants:
    def test_named_rows(self):
        cfg = build_variant("LSTM(T_avg)")
        assert (cfg.modality, cfg.text_repr, cfg.use_context_attn,
                cfg.use_filter) == ("text", "mean", False, False)
        cfg = build_variant("LSTM(H-ATN^A)+C-ATN^D")
        assert (cfg.modality, cfg.audio_repr,
                cfg.use_context_attn) == ("audio", "hier", True)
        cfg = build_variant("full")
        assert (cfg.modality, cfg.text_repr, cfg.audio_repr,
                cfg.use_context_attn, cfg.use_filter) == (
            "both", "hier", "conv", True, True)

    def test_spaces_ignored(self):
        spaced = build_variant("LSTM(A) + LSTM(H-ATN^U) + C-ATN^D + Filter")
        assert spaced == build_variant(FULL_VARIANT)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            build_variant("LSTM(everything)")

    def test_label_round_trips_every_row(self):
        for name in VARIANT_ROWS:
            cfg = build_variant(name, task_mode="sarcasm")
            assert variant_label(cfg) == name

    @pytest.mark.parametrize("switches, label", [
        (dict(text_repr="mean", use_filter=False),
         "LSTM(A)+LSTM(T_avg)+C-ATN^D"),
        (dict(modality="text", text_repr="mean", use_filter=False),
         "LSTM(T_avg)+C-ATN^D"),
        # a modality the config does not read leaves its encoder out
        (dict(modality="audio", text_repr="mean", audio_repr="hier",
              use_filter=False), "LSTM(H-ATN^A)+C-ATN^D"),
        (dict(modality="text", audio_repr="hier", use_context_attn=False,
              use_filter=False), "LSTM(H-ATN^U)"),
    ])
    def test_label_of_a_config_that_is_not_a_row(self, switches, label):
        cfg = ModelConfig(**switches)
        assert variant_label(cfg) == label
        if label not in VARIANT_ROWS:
            with pytest.raises(ConfigError, match="unknown variant"):
                build_variant(label)

    def test_task_and_dim_overrides(self):
        cfg = build_variant("full", task_mode="humor", d_hidden=8)
        assert cfg.tasks == ("humor",)
        assert cfg.d_hidden == 8

    def test_pinned_switch_cannot_be_overridden(self):
        with pytest.raises(ConfigError, match="fixes"):
            build_variant("full", modality="text")


# Checkpoint layouts at default_rng(0): the ordered parameter names and the
# SHA-256 of the file save_checkpoint writes. A change to the draw or the
# registration order of any parameter changes one of them.
CHECKPOINT_LAYOUTS = {
    "full": (
        toy_config,
        ["text_attn.proj_w", "text_attn.proj_b", "lstm_text.w_i",
         "lstm_text.u_i", "lstm_text.b_i", "lstm_text.w_f", "lstm_text.u_f",
         "lstm_text.b_f", "lstm_text.w_g", "lstm_text.u_g", "lstm_text.b_g",
         "lstm_text.w_o", "lstm_text.u_o", "lstm_text.b_o", "acoustic.kernels",
         "acoustic.bias", "lstm_audio.w_i", "lstm_audio.u_i", "lstm_audio.b_i",
         "lstm_audio.w_f", "lstm_audio.u_f", "lstm_audio.b_f",
         "lstm_audio.w_g", "lstm_audio.u_g", "lstm_audio.b_g",
         "lstm_audio.w_o", "lstm_audio.u_o", "lstm_audio.b_o",
         "filter_audio.gate_w", "filter_audio.gate_b", "filter_text.gate_w",
         "filter_text.gate_b", "head_sarcasm.w1", "head_sarcasm.b1",
         "head_sarcasm.w2", "head_sarcasm.b2", "head_humor.w1",
         "head_humor.b1", "head_humor.w2", "head_humor.b2"],
        "63bca46106c5241a4a1849d1b06000b0ce0091e971e16636a24d5bf3e7241c17",
    ),
    "audio-hier": (
        lambda: build_variant("LSTM(H-ATN^A)+C-ATN^D", d_hidden=3,
                              head_hidden=2, attn_width_dialog=2),
        ["audio_attn.proj_w", "audio_attn.proj_b", "lstm_audio.w_i",
         "lstm_audio.u_i", "lstm_audio.b_i", "lstm_audio.w_f",
         "lstm_audio.u_f", "lstm_audio.b_f", "lstm_audio.w_g",
         "lstm_audio.u_g", "lstm_audio.b_g", "lstm_audio.w_o",
         "lstm_audio.u_o", "lstm_audio.b_o", "head_sarcasm.w1",
         "head_sarcasm.b1", "head_sarcasm.w2", "head_sarcasm.b2",
         "head_humor.w1", "head_humor.b1", "head_humor.w2", "head_humor.b2"],
        "059e5f0adcd80358c4f5bf697602e4ecd0e448c6413173a816b418f352f69dfd",
    ),
}


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint with ``edit(header)`` applied to its JSON header.

    ``edit`` changes the header in place and returns None, or returns the
    header to write instead.
    """
    raw = Path(src).read_bytes()
    head_len = int.from_bytes(raw[6:14], "little")
    header = json.loads(raw[14:14 + head_len].decode("utf-8"))
    edited = edit(header)
    head = json.dumps(header if edited is None else edited).encode("utf-8")
    Path(dst).write_bytes(raw[:6] + len(head).to_bytes(8, "little") + head
                          + raw[14 + head_len:])
    return dst


class TestCheckpoint:
    def _setup(self, tmp_path):
        cfg = toy_config()
        params = init_parameters(cfg, np.random.default_rng(20))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, cfg)
        return cfg, params, path

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg, params, path = self._setup(tmp_path)
        loaded, loaded_cfg = load_checkpoint(path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded, again, loaded_cfg)
        assert path.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("layout", sorted(CHECKPOINT_LAYOUTS))
    def test_layout_is_pinned(self, tmp_path, layout):
        make_config, names, digest = CHECKPOINT_LAYOUTS[layout]
        cfg = make_config()
        params = init_parameters(cfg, np.random.default_rng(0))
        assert params.names() == names
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, cfg)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_loaded_values_are_f32_rounded_originals(self, tmp_path):
        cfg, params, path = self._setup(tmp_path)
        loaded, _ = load_checkpoint(path)
        assert loaded.names() == params.names()
        for name, tensor in params.items():
            expected = tensor.data.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(loaded[name].data, expected)

    def test_config_round_trips(self, tmp_path):
        cfg, _, path = self._setup(tmp_path)
        _, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg

    def test_header_without_threshold_loads_the_default(self, tmp_path):
        # checkpoints saved before the config held the cutoff lack the field
        cfg = toy_config(threshold=0.8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(cfg, np.random.default_rng(20)),
                        path, cfg)

        def drop_threshold(header):
            del header["__meta__"]["threshold"]

        old = rewrite_checkpoint_header(path, tmp_path / "old.ckpt",
                                        drop_threshold)
        _, loaded_cfg = load_checkpoint(old)
        assert loaded_cfg == toy_config(threshold=0.5)

    def test_forward_identical_after_round_trip(self, tmp_path):
        cfg, params, path = self._setup(tmp_path)
        rounded = ParameterSet()
        for name, tensor in params.items():
            rounded.register(name, Tensor(
                tensor.data.astype(np.float32).astype(np.float64)))
        loaded, _ = load_checkpoint(path)
        dialog = toy_dialog(seed=21)
        table = toy_table(cfg.d_text_in)
        a = forward_dialog(cfg, rounded, dialog, table)
        b = forward_dialog(cfg, loaded, dialog, table)
        for task in cfg.tasks:
            assert probs_as_floats(a, task) == probs_as_floats(b, task)

    def test_wrong_magic_rejected(self, tmp_path):
        _, _, path = self._setup(tmp_path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE!\n" + raw[6:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_truncated_blob_rejected(self, tmp_path):
        _, _, path = self._setup(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(cut)

    def test_header_element_count_matches_parameter_count(self, tmp_path):
        _, params, path = self._setup(tmp_path)
        raw = path.read_bytes()
        head_len = int.from_bytes(raw[6:14], "little")
        header = json.loads(raw[14:14 + head_len].decode("utf-8"))
        header.pop("__meta__")
        total = sum(int(np.prod(entry["shape"])) for entry in header.values())
        assert total == sum(t.data.size for _, t in params.items())
        assert len(raw) - 14 - head_len == 4 * total

    def test_missing_parameter_named(self, tmp_path):
        _, _, path = self._setup(tmp_path)
        bad = rewrite_checkpoint_header(
            path, tmp_path / "bad.ckpt",
            lambda h: {k: v for k, v in h.items() if k != "head_humor.b2"})
        with pytest.raises(CheckpointError,
                           match="missing parameter 'head_humor.b2'"):
            load_checkpoint(bad)

    def test_extra_parameter_named(self, tmp_path):
        _, _, path = self._setup(tmp_path)

        def add_stray(header):
            header["head_irony.b2"] = dict(header["head_humor.b2"])

        bad = rewrite_checkpoint_header(path, tmp_path / "bad.ckpt", add_stray)
        with pytest.raises(CheckpointError,
                           match="unexpected parameter 'head_irony.b2'"):
            load_checkpoint(bad)

    def test_misshapen_parameter_named(self, tmp_path):
        _, _, path = self._setup(tmp_path)

        def transpose(header):
            header["head_humor.w1"]["shape"].reverse()

        bad = rewrite_checkpoint_header(path, tmp_path / "bad.ckpt", transpose)
        with pytest.raises(CheckpointError,
                           match="'head_humor.w1' has shape"):
            load_checkpoint(bad)

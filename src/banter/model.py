"""Model assembly: configuration, parameter registry, dialog forward pass,
ablation variants, and checkpoint files.

The classifier consumes one dialog at a time. Each utterance becomes a text
row (token-embedding mean or hierarchical attention) and an audio row (frame
convolution or hierarchical attention over frames), and a dialog is one
matrix per modality; per-modality LSTMs walk the dialog, optional windowed
dialog attention adds context, an optional gate filters each modality by the
cross-modal view, and per-task sigmoid heads score every utterance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .context_attention import DialogAttentionTrace, contextualize_dialog
from .data import MFCC_COLUMNS, Dialog, EmbeddingTable, embed_utterance
from .encoders import (
    acoustic_encode,
    glorot_uniform,
    init_acoustic,
    init_lstm,
    lstm_encode_dialog,
)
from .fusion import filter_modality, init_filter_gate
from .hier_attention import hier_attend, init_projection
from .tensor import (
    Tensor,
    affine_rowwise,
    concat,
    dropout,
    relu,
    sigmoid,
    unstack,
)

MODALITIES = ("audio", "text", "both")
TEXT_REPRS = ("mean", "hier")
AUDIO_REPRS = ("conv", "hier")
TASK_MODES = ("sarcasm", "humor", "joint")
TASKS = ("sarcasm", "humor")

CHECKPOINT_MAGIC = b"MSHC1\n"
# reserved checkpoint header key carrying the model configuration
META_KEY = "__meta__"


class ConfigError(ValueError):
    """Invalid model or training setting, or unknown variant name."""


class ModalityError(ValueError):
    """Input data lacks a modality the configuration requires."""


class CheckpointError(ValueError):
    """Unreadable, mislabeled, or truncated checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture switches, dimensions and the decision cutoff; validated
    on construction.

    ``threshold`` is the probability at or above which an utterance is
    called positive. It is saved with the checkpoint, so ``train``'s epoch
    choice and report, ``eval`` and ``inspect`` all call labels at it.
    """

    modality: str = "both"
    text_repr: str = "hier"
    audio_repr: str = "conv"
    use_context_attn: bool = True
    use_filter: bool = True
    task_mode: str = "joint"
    d_text_in: int = 300
    d_hidden: int = 128
    d_audio: int = 128
    attn_width_tokens: int = 3
    attn_width_dialog: int = 5
    dropout: float = 0.4
    head_hidden: int = 128
    threshold: float = 0.5

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ConfigError(f"modality must be one of {MODALITIES}, "
                              f"got {self.modality!r}")
        if self.text_repr not in TEXT_REPRS:
            raise ConfigError(f"text_repr must be one of {TEXT_REPRS}, "
                              f"got {self.text_repr!r}")
        if self.audio_repr not in AUDIO_REPRS:
            raise ConfigError(f"audio_repr must be one of {AUDIO_REPRS}, "
                              f"got {self.audio_repr!r}")
        if self.task_mode not in TASK_MODES:
            raise ConfigError(f"task_mode must be one of {TASK_MODES}, "
                              f"got {self.task_mode!r}")
        if self.use_filter and not (self.use_context_attn
                                    and self.modality == "both"):
            raise ConfigError("use_filter requires use_context_attn "
                              "and modality='both'")
        for name in ("d_text_in", "d_hidden", "d_audio", "head_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, "
                                  f"got {getattr(self, name)}")
        if self.attn_width_tokens < 2:
            raise ConfigError(f"attn_width_tokens must be at least 2, "
                              f"got {self.attn_width_tokens}")
        if self.attn_width_dialog < 1:
            raise ConfigError(f"attn_width_dialog must be at least 1, "
                              f"got {self.attn_width_dialog}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"'threshold' must be in [0, 1], "
                              f"got {self.threshold}")
        if self.uses_audio and self.audio_repr == "hier" \
                and self.d_audio != MFCC_COLUMNS:
            # hierarchical frame attention preserves the frame width
            raise ConfigError(f"audio_repr='hier' fixes d_audio to "
                              f"{MFCC_COLUMNS}, got {self.d_audio}")

    @property
    def uses_text(self) -> bool:
        return self.modality in ("text", "both")

    @property
    def uses_audio(self) -> bool:
        return self.modality in ("audio", "both")

    @property
    def tasks(self) -> tuple[str, ...]:
        if self.task_mode == "joint":
            return TASKS
        return (self.task_mode,)

    @property
    def trunk_dim(self) -> int:
        """Width of the vector the task heads consume, per utterance."""
        d = self.d_hidden
        if self.modality == "both":
            # attended: audio 2d + text 2d + cross 3d (filtering keeps widths)
            return 7 * d if self.use_context_attn else 2 * d
        return 2 * d if self.use_context_attn else d


class ParameterSet:
    """Insertion-ordered registry of uniquely named trainable tensors."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def register(self, name: str, tensor: Tensor) -> None:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        if name == META_KEY:
            raise ValueError(f"{META_KEY!r} is reserved")
        self._tensors[name] = tensor

    def register_all(self, named: dict[str, Tensor]) -> None:
        for name, tensor in named.items():
            self.register(name, tensor)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self._tensors)


def init_parameters(config: ModelConfig,
                    rng: np.random.Generator) -> ParameterSet:
    """Fresh parameters for a configuration; draw order is fixed."""
    params = ParameterSet()
    d = config.d_hidden
    if config.uses_text:
        if config.text_repr == "hier":
            proj_w, proj_b = init_projection(config.d_text_in, rng)
            params.register("text_attn.proj_w", proj_w)
            params.register("text_attn.proj_b", proj_b)
        params.register_all(init_lstm("lstm_text", config.d_text_in, d, rng))
    if config.uses_audio:
        if config.audio_repr == "conv":
            kernels, bias = init_acoustic(config.d_audio, MFCC_COLUMNS, rng)
            params.register("acoustic.kernels", kernels)
            params.register("acoustic.bias", bias)
        else:
            proj_w, proj_b = init_projection(MFCC_COLUMNS, rng)
            params.register("audio_attn.proj_w", proj_w)
            params.register("audio_attn.proj_b", proj_b)
        params.register_all(init_lstm("lstm_audio", config.d_audio, d, rng))
    if config.use_filter:
        for branch in ("filter_audio", "filter_text"):
            gate_w, gate_b = init_filter_gate(2 * d, 3 * d, rng)
            params.register(f"{branch}.gate_w", gate_w)
            params.register(f"{branch}.gate_b", gate_b)
    trunk = config.trunk_dim
    hh = config.head_hidden
    for task in config.tasks:
        params.register(
            f"head_{task}.w1",
            Tensor(glorot_uniform(rng, trunk, hh, (hh, trunk)),
                   requires_grad=True))
        params.register(f"head_{task}.b1",
                        Tensor(np.zeros(hh), requires_grad=True))
        params.register(
            f"head_{task}.w2",
            Tensor(glorot_uniform(rng, hh, 1, (1, hh)), requires_grad=True))
        params.register(f"head_{task}.b2",
                        Tensor(np.zeros(1), requires_grad=True))
    return params


@dataclass
class DialogPrediction:
    """Per-task utterance scores of one dialog, plus its attention trace.

    ``scores[task]`` is the (n, 1) sigmoid output, row k for utterance k,
    kept as a tensor so training can backpropagate through it.
    ``dialog_trace`` is None for configurations without context attention.
    """

    scores: dict[str, Tensor]
    dialog_trace: DialogAttentionTrace | None

    @property
    def probabilities(self) -> dict[str, list[Tensor]]:
        """Per task, each utterance's shape-(1,) score as its own tensor,
        for callers that read one utterance at a time. Built from
        ``scores`` on every access.
        """
        return {task: unstack(s) for task, s in self.scores.items()}


def forward_dialog(config: ModelConfig, params: ParameterSet, dialog: Dialog,
                   embeddings: EmbeddingTable | None = None,
                   training: bool = False,
                   rng: np.random.Generator | None = None) -> DialogPrediction:
    """Score every utterance of one dialog under every active task.

    Eval mode (training=False) is deterministic; training mode applies
    dropout to each modality's utterance matrix (text, then audio) and to
    the head hidden layers, and needs an rng when the dropout rate is
    nonzero.
    """
    if config.uses_text and embeddings is None:
        raise ValueError("text modality requires an embedding table")
    if config.uses_audio:
        for utt in dialog.utterances:
            if utt.acoustic is None:
                raise ModalityError(
                    f"dialog {dialog.dialog_id!r}, utterance {utt.uid!r}: "
                    f"acoustic frames required by modality="
                    f"{config.modality!r}")

    rate = config.dropout
    # one (n, d) matrix per modality, row k for utterance k
    x_text = x_audio = None
    if config.uses_text:
        matrices = [embed_utterance(utt.tokens, embeddings)
                    for utt in dialog.utterances]
        if config.text_repr == "mean":
            x_text = Tensor(np.stack([m.mean(axis=0) for m in matrices]))
        else:
            x_text = concat([
                hier_attend(Tensor(m), params["text_attn.proj_w"],
                            params["text_attn.proj_b"],
                            config.attn_width_tokens)[0]
                for m in matrices])
    if config.uses_audio:
        if config.audio_repr == "conv":
            rows = [acoustic_encode(params["acoustic.kernels"],
                                    params["acoustic.bias"], utt.acoustic)
                    for utt in dialog.utterances]
        else:
            rows = [hier_attend(Tensor(utt.acoustic),
                                params["audio_attn.proj_w"],
                                params["audio_attn.proj_b"],
                                config.attn_width_tokens)[0]
                    for utt in dialog.utterances]
        x_audio = concat(rows)

    h_text = (lstm_encode_dialog(params, "lstm_text",
                                 dropout(x_text, rate, training, rng))
              if config.uses_text else None)
    h_audio = (lstm_encode_dialog(params, "lstm_audio",
                                  dropout(x_audio, rate, training, rng))
               if config.uses_audio else None)

    dialog_trace = None
    if config.use_context_attn:
        out_audio, out_text, out_cross, dialog_trace = contextualize_dialog(
            h_audio, h_text, config.attn_width_dialog)
        if config.use_filter:
            out_audio = filter_modality(out_audio, out_cross,
                                        params["filter_audio.gate_w"],
                                        params["filter_audio.gate_b"])
            out_text = filter_modality(out_text, out_cross,
                                       params["filter_text.gate_w"],
                                       params["filter_text.gate_b"])
        blocks = (out_audio, out_text, out_cross)
    else:
        blocks = (h_audio, h_text)
    # one (n, trunk_dim) row per utterance: audio, text, cross blocks
    blocks = [block for block in blocks if block is not None]
    trunk = blocks[0] if len(blocks) == 1 else concat(blocks, axis=1)

    scores: dict[str, Tensor] = {}
    for task in config.tasks:
        hidden = relu(affine_rowwise(trunk, params[f"head_{task}.w1"],
                                     params[f"head_{task}.b1"]))
        hidden = dropout(hidden, rate, training, rng)
        scores[task] = sigmoid(affine_rowwise(hidden, params[f"head_{task}.w2"],
                                              params[f"head_{task}.b2"]))
    return DialogPrediction(scores=scores, dialog_trace=dialog_trace)


# Each part of a variant name: the modality it reads (None for a submodule
# that adds to whatever is read) and the one switch it sets. Parts join with
# "+" in this order; a name that reads a modality pins its encoder.
_PARTS: dict[str, tuple[str | None, str, object]] = {
    "LSTM(A)": ("audio", "audio_repr", "conv"),
    "LSTM(H-ATN^A)": ("audio", "audio_repr", "hier"),
    "LSTM(T_avg)": ("text", "text_repr", "mean"),
    "LSTM(H-ATN^U)": ("text", "text_repr", "hier"),
    "C-ATN^D": (None, "use_context_attn", True),
    "Filter": (None, "use_filter", True),
}

# Ablation grid: audio-only, text-only, and bimodal rows; "full" is an alias
# for the last. Lookup ignores spaces around the + signs.
_VARIANTS = (
    "LSTM(A)", "LSTM(H-ATN^A)", "LSTM(A)+C-ATN^D", "LSTM(H-ATN^A)+C-ATN^D",
    "LSTM(T_avg)", "LSTM(H-ATN^U)", "LSTM(H-ATN^U)+C-ATN^D",
    "LSTM(A)+LSTM(T_avg)", "LSTM(A)+LSTM(H-ATN^U)",
    "LSTM(A)+LSTM(H-ATN^U)+C-ATN^D", "LSTM(A)+LSTM(H-ATN^U)+C-ATN^D+Filter",
)

FULL_VARIANT = _VARIANTS[-1]


def build_variant(row_name: str, task_mode: str = "joint",
                  **overrides) -> ModelConfig:
    """Configuration for a named ablation row; "full" is the complete model.

    Extra keyword arguments override dimension fields (not the switches the
    row itself pins down).
    """
    key = row_name.replace(" ", "")
    if key.lower() == "full":
        key = FULL_VARIANT
    if key not in _VARIANTS:
        known = ", ".join(_VARIANTS + ("full",))
        raise ConfigError(f"unknown variant {row_name!r}; known: {known}")
    row = {"use_context_attn": False, "use_filter": False}
    read = set()
    for modality, switch, value in map(_PARTS.get, key.split("+")):
        row[switch] = value
        read.add(modality)
    read.discard(None)
    row["modality"] = "both" if len(read) == 2 else read.pop()
    clash = set(overrides) & set(row)
    if clash:
        raise ConfigError(f"variant {key!r} already fixes {sorted(clash)}")
    return ModelConfig(task_mode=task_mode, **row, **overrides)


def variant_label(config: ModelConfig) -> str:
    """The ablation-row name describing a configuration's switches."""
    return "+".join(
        part for part, (modality, switch, value) in _PARTS.items()
        if getattr(config, switch) == value
        and (modality is None or getattr(config, f"uses_{modality}")))


def save_checkpoint(params: ParameterSet, path, config: ModelConfig) -> None:
    """Write all parameters as little-endian f32 with a JSON name header."""
    header: dict[str, dict] = {}
    blob = bytearray()
    for name, tensor in params.items():
        header[name] = {"shape": list(tensor.shape), "dtype": "f32",
                        "offset": len(blob)}
        blob += np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
    header[META_KEY] = asdict(config)
    head_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(head_bytes).to_bytes(8, "little"))
        fh.write(head_bytes)
        fh.write(bytes(blob))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_matches_default(value, default) -> bool:
    """A stored config value has its field's type; floats accept ints."""
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def load_checkpoint(path) -> tuple[ParameterSet, ModelConfig]:
    """Read a checkpoint; bit-exact inverse of save at f32 precision.

    Parameter names and shapes must be exactly those ``init_parameters``
    builds for the stored config, and their byte ranges must tile the blob
    in header order: no gap, overlap or trailing byte.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            f"{path}: bad magic {raw[:len(CHECKPOINT_MAGIC)]!r}, "
            f"expected {CHECKPOINT_MAGIC!r}")
    cursor = len(CHECKPOINT_MAGIC)
    if len(raw) < cursor + 8:
        raise CheckpointError(f"{path}: truncated header length")
    head_len = int.from_bytes(raw[cursor:cursor + 8], "little")
    cursor += 8
    if len(raw) < cursor + head_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[cursor:cursor + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    blob = raw[cursor + head_len:]
    meta = header.pop(META_KEY, None)
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header {META_KEY!r} is missing or "
                              f"not an object")
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    unknown = set(meta) - set(defaults)
    if unknown:
        raise CheckpointError(f"{path}: unknown config fields {sorted(unknown)}")
    for key, value in meta.items():
        if not _json_matches_default(value, defaults[key]):
            raise CheckpointError(
                f"{path}: config field {key!r} must be "
                f"{type(defaults[key]).__name__}, got {value!r}")
    try:
        config = ModelConfig(**meta)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad stored config: {exc}") from None
    expected = {name: t.shape for name, t in
                init_parameters(config, np.random.default_rng(0)).items()}
    for name in expected:
        if name not in header:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
    params = ParameterSet()
    end = 0  # save_checkpoint writes the parameters back to back
    for name, entry in header.items():
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected parameter {name!r} "
                                  f"for the stored config")
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: parameter {name!r} entry is not "
                                  f"an object")
        shape, offset = entry.get("shape"), entry.get("offset")
        if not isinstance(shape, list) or not all(map(_is_int, shape)):
            raise CheckpointError(f"{path}: parameter {name!r} shape must be "
                                  f"a list of integers, got {shape!r}")
        if not _is_int(offset):
            raise CheckpointError(f"{path}: parameter {name!r} offset must be "
                                  f"an integer, got {offset!r}")
        shape = tuple(shape)
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {list(shape)}, the "
                f"stored config needs {list(expected[name])}")
        if entry.get("dtype") != "f32":
            raise CheckpointError(
                f"{path}: parameter {name!r} has unsupported dtype "
                f"{entry.get('dtype')!r}")
        count = int(np.prod(shape)) if shape else 1
        if offset != end:
            raise CheckpointError(
                f"{path}: parameter {name!r} starts at blob offset {offset}, "
                f"expected {end} (the previous parameter's end)")
        end = offset + 4 * count
        if end > len(blob):
            raise CheckpointError(f"{path}: truncated blob at parameter "
                                  f"{name!r}")
        values = np.frombuffer(blob, dtype="<f4", count=count,
                               offset=offset).reshape(shape)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds "
                                  f"non-finite values")
        params.register(name, Tensor(values, requires_grad=True))
    if end != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - end} trailing bytes "
                              f"after the last parameter {name!r}")
    return params, config

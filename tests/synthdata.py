"""Synthetic corpus and embedding builders shared across the test suite."""

import json
from pathlib import Path

import numpy as np

FILLER_VOCAB = [
    "arre", "kya", "baat", "hai", "yaar", "nahi", "bilkul", "sahi",
    "accha", "theek", "chalo", "dekho", "suno", "bhai", "really", "so",
    "very", "nice", "plan", "again", "matlab", "kyun", "kab", "kaise",
]

SARCASM_MARKER = "zing"
HUMOR_MARKER = "haha"

# run-file keys at small dims: a CLI training run on the marker corpus
# (emb_dim 12) takes around a second
SMALL_KEYS = {
    "d_hidden": "8", "d_audio": "8", "head_hidden": "6", "dropout": "0.1",
    "lr": "3e-3", "batch_size": "8", "max_epochs": "2", "patience": "2",
    "seed": "1", "val_fraction": "0.25",
}


def write_config(path, corpus=None, embeddings=None, **extra) -> Path:
    """A run file holding SMALL_KEYS, with ``extra`` keys added or replaced."""
    lines = []
    if corpus is not None:
        lines.append(f"corpus = {corpus}")
    if embeddings is not None:
        lines.append(f"embeddings = {embeddings}")
    merged = dict(SMALL_KEYS)
    merged.update({key: str(value) for key, value in extra.items()})
    lines += [f"{key} = {value}" for key, value in merged.items()]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_corpus(path, dialogs: list[dict]) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for dialog in dialogs:
            fh.write(json.dumps(dialog) + "\n")
    return path


def masac_shaped_corpus(path, n_dialogs: int, n_utterances: int,
                        n_sarcastic: int, n_humorous: int,
                        seed: int = 0) -> Path:
    """Label-count-exact corpus with the requested shape, no audio."""
    rng = np.random.default_rng(seed)
    base, rem = divmod(n_utterances, n_dialogs)
    counts = [base + 1] * rem + [base] * (n_dialogs - rem)
    sarcastic = set(rng.choice(n_utterances, size=n_sarcastic, replace=False).tolist())
    humorous = set(rng.choice(n_utterances, size=n_humorous, replace=False).tolist())
    dialogs = []
    flat = 0
    for d in range(n_dialogs):
        utterances = []
        for j in range(counts[d]):
            n_tokens = int(rng.integers(2, 7))
            tokens = [FILLER_VOCAB[int(t)] for t in
                      rng.integers(0, len(FILLER_VOCAB), size=n_tokens)]
            utterances.append({
                "id": f"d{d}_u{j}",
                "speaker": f"s{int(rng.integers(0, 4))}",
                "tokens": tokens,
                "sarcasm": int(flat in sarcastic),
                "humor": int(flat in humorous),
            })
            flat += 1
        dialogs.append({"dialog_id": f"d{d}", "utterances": utterances})
    return write_corpus(path, dialogs)


def write_embeddings(path, vectors: dict[str, np.ndarray], dim: int) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vectors)} {dim}\n")
        for token, vec in vectors.items():
            floats = " ".join(f"{v:.8f}" for v in vec)
            fh.write(f"{token} {floats}\n")
    return path


def marker_corpus(dir_path, n_dialogs: int = 8, utterances_per_dialog: int = 4,
                  emb_dim: int = 300, frames_low: int = 2, frames_high: int = 5,
                  seed: int = 0) -> tuple[Path, Path]:
    """Separable fixture: a marker token appears iff the label is positive.

    Sarcastic utterances contain one marker token, humorous utterances a
    different one; fillers are drawn at random. Every utterance carries a
    random frame matrix so audio-consuming variants run. Returns the corpus
    and embedding file paths.
    """
    dir_path = Path(dir_path)
    rng = np.random.default_rng(seed)
    dialogs = []
    for d in range(n_dialogs):
        utterances = []
        for j in range(utterances_per_dialog):
            sarcasm = int(rng.random() < 0.5)
            humor = int(rng.random() < 0.5)
            n_fill = int(rng.integers(2, 5))
            tokens = [FILLER_VOCAB[int(t)] for t in
                      rng.integers(0, len(FILLER_VOCAB), size=n_fill)]
            if sarcasm:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), SARCASM_MARKER)
            if humor:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), HUMOR_MARKER)
            frames = rng.normal(0.0, 0.3,
                                size=(int(rng.integers(frames_low, frames_high)), 128))
            utterances.append({
                "id": f"d{d}_u{j}",
                "speaker": f"s{j % 2}",
                "tokens": tokens,
                "sarcasm": sarcasm,
                "humor": humor,
                "mfcc": [[round(float(v), 5) for v in row] for row in frames],
            })
        dialogs.append({"dialog_id": f"d{d}", "utterances": utterances})
    corpus_path = write_corpus(dir_path / "corpus.jsonl", dialogs)

    vectors = {}
    for token in FILLER_VOCAB:
        vectors[token] = rng.normal(0.0, 0.2, size=emb_dim)
    # markers get strong dedicated directions so a linear probe separates
    marker_a = np.zeros(emb_dim)
    marker_a[0] = 2.0
    marker_b = np.zeros(emb_dim)
    marker_b[1] = 2.0
    vectors[SARCASM_MARKER] = marker_a
    vectors[HUMOR_MARKER] = marker_b
    emb_path = write_embeddings(dir_path / "vectors.txt", vectors, emb_dim)
    return corpus_path, emb_path


def sidecar_copy(corpus_path, dir_path) -> Path:
    """A copy of a corpus in ``dir_path`` whose inline frame matrices are
    moved to CSV sidecars beside it, one per utterance. Each cell is the
    shortest text of its float, so the loaded frames are the same bits."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    dialogs = [json.loads(line) for line in
               Path(corpus_path).read_text(encoding="utf-8").splitlines()]
    for dialog in dialogs:
        for utt in dialog["utterances"]:
            name = f"{dialog['dialog_id']}.{utt['id']}.csv"
            rows = utt.pop("mfcc")
            (dir_path / name).write_text(
                "".join(",".join(repr(float(v)) for v in row) + "\n"
                        for row in rows), encoding="utf-8")
            utt["mfcc_path"] = name
    return write_corpus(dir_path / "corpus.jsonl", dialogs)

"""Workload definitions and the seeded input files they run on.

Every workload reads the same layout: a JSON-lines training corpus, a
separate JSON-lines eval corpus (both with inline 128-coefficient MFCC
frames), and, for variants that read text, a "<count> <dim>" word-vector
table. The shape of the data (dialogs, utterances per dialog, tokens and
frames per utterance) is fixed per workload, so every seed costs the same
work; the seed draws the token ids, the frame values, the labels and the
embedding vectors.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

D_TEXT = 300
MFCC_COLUMNS = 128
# seeds the shape plan only; the workload seed never changes shapes
SHAPE_SEED = 20210520


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    variant: str
    train_dialogs: int
    eval_dialogs: int
    utterances: tuple[int, int]  # per dialog, inclusive range
    tokens: tuple[int, int]  # per utterance, inclusive range
    frames: tuple[int, int]  # per utterance, inclusive range
    vocabulary: int
    epochs: int
    batch_size: int
    val_fraction: float
    # nominal seconds per round on the reference machine (see the README);
    # a run does seconds / round_s whole rounds, whatever its speed
    round_s: float

    def tiny(self) -> "WorkloadSpec":
        """A seconds-long version of the same workload, for the tests."""
        return replace(self, train_dialogs=5, eval_dialogs=3,
                       utterances=(2, 3),
                       tokens=(3, 6),
                       frames=(min(self.frames[0], 12), min(self.frames[0], 16)),
                       vocabulary=60, epochs=1, batch_size=2,
                       val_fraction=0.2, round_s=0.1)


# Why each workload exists is written in BENCHMARK.json and the README.
WORKLOADS = {
    spec.name: spec for spec in (
        WorkloadSpec(
            name="full",
            variant="LSTM(A)+LSTM(H-ATN^U)+C-ATN^D+Filter",
            train_dialogs=8, eval_dialogs=12, utterances=(4, 6),
            tokens=(8, 22), frames=(150, 250), vocabulary=4000,
            epochs=2, batch_size=4, val_fraction=0.25, round_s=5.5),
        WorkloadSpec(
            name="flat",
            variant="LSTM(A)+LSTM(T_avg)",
            train_dialogs=20, eval_dialogs=30, utterances=(4, 6),
            tokens=(8, 22), frames=(150, 250), vocabulary=4000,
            epochs=2, batch_size=4, val_fraction=0.15, round_s=4.0),
        WorkloadSpec(
            name="audio-hier",
            variant="LSTM(H-ATN^A)+C-ATN^D",
            train_dialogs=3, eval_dialogs=3, utterances=(2, 2),
            tokens=(8, 22), frames=(100, 110), vocabulary=4000,
            epochs=1, batch_size=1, val_fraction=0.3, round_s=9.0),
    )
}


@dataclass(frozen=True)
class InputFiles:
    train_corpus: Path
    eval_corpus: Path
    embeddings: Path


def _shape_plan(spec: WorkloadSpec, n_dialogs: int, salt: int):
    """Per dialog, a list of (tokens, frames) per utterance."""
    rng = np.random.default_rng([SHAPE_SEED, salt])
    plan = []
    for _ in range(n_dialogs):
        n_utts = int(rng.integers(spec.utterances[0], spec.utterances[1] + 1))
        plan.append([(int(rng.integers(spec.tokens[0], spec.tokens[1] + 1)),
                      int(rng.integers(spec.frames[0], spec.frames[1] + 1)))
                     for _ in range(n_utts)])
    return plan


def _frames_json(frames: np.ndarray) -> str:
    # json.dumps on nested float lists is several times slower than savetxt
    buf = io.StringIO()
    np.savetxt(buf, frames, fmt="%.4f", delimiter=",")
    return "[[" + buf.getvalue().strip().replace("\n", "],[") + "]]"


def _write_corpus(path: Path, spec: WorkloadSpec, plan, prefix: str,
                  rng: np.random.Generator) -> None:
    # Zipf-like token frequencies; ids at or past the vocabulary are OOV
    ranks = np.arange(1, spec.vocabulary + spec.vocabulary // 30 + 1)
    token_p = 1.0 / ranks
    token_p /= token_p.sum()
    with open(path, "w", encoding="utf-8") as fh:
        for d, shapes in enumerate(plan):
            parts = []
            for j, (n_tokens, n_frames) in enumerate(shapes):
                ids = rng.choice(len(ranks), size=n_tokens, p=token_p)
                tokens = json.dumps([f"w{i}" for i in ids])
                frames = rng.normal(0.0, 1.0, size=(n_frames, MFCC_COLUMNS))
                sarcasm = int(rng.random() < 0.3)
                humor = int(rng.random() < 0.25)
                parts.append(
                    f'{{"id": "{prefix}{d}_u{j}", "speaker": "s{j % 3}", '
                    f'"tokens": {tokens}, "sarcasm": {sarcasm}, '
                    f'"humor": {humor}, "mfcc": {_frames_json(frames)}}}')
            fh.write(f'{{"dialog_id": "{prefix}{d}", "utterances": ['
                     + ", ".join(parts) + "]}\n")


def _write_embeddings(path: Path, vocabulary: int,
                      rng: np.random.Generator) -> None:
    vectors = rng.normal(0.0, 0.3, size=(vocabulary, D_TEXT))
    buf = io.StringIO()
    np.savetxt(buf, vectors, fmt="%.5f", delimiter=" ")
    rows = buf.getvalue().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{vocabulary} {D_TEXT}\n")
        for i, row in enumerate(rows):
            fh.write(f"w{i} {row}\n")


def input_files(directory) -> InputFiles:
    directory = Path(directory)
    return InputFiles(train_corpus=directory / "train.jsonl",
                      eval_corpus=directory / "eval.jsonl",
                      embeddings=directory / "vectors.txt")


def write_inputs(spec: WorkloadSpec, seed: int, out_dir) -> InputFiles:
    """Write the workload's corpora and embedding table for one seed."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    files = input_files(out_dir)
    _write_corpus(files.train_corpus, spec,
                  _shape_plan(spec, spec.train_dialogs, 1), "t", rng)
    _write_corpus(files.eval_corpus, spec,
                  _shape_plan(spec, spec.eval_dialogs, 2), "e", rng)
    _write_embeddings(files.embeddings, spec.vocabulary, rng)
    return files

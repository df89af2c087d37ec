"""Dialog corpus loading, word-vector tables, and train/validation splits.

Corpora are UTF-8 JSON-lines: one dialog object per line, each holding an
ordered utterance list. Acoustic frames ride inline as nested arrays or in a
sidecar CSV referenced by relative path. Word vectors use the plain-text
format with a "<count> <dim>" header line.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fixed acoustic feature width: every frame carries this many coefficients.
MFCC_COLUMNS = 128


class CorpusError(ValueError):
    """Malformed corpus file or invariant violation, with location info."""


@dataclass
class UtteranceRecord:
    """One speaker turn: tokens, optional F x 128 frame matrix, two labels."""

    uid: str
    speaker: str
    tokens: list[str]
    acoustic: np.ndarray | None
    sarcasm: int
    humor: int


@dataclass
class Dialog:
    """An ordered conversation; the context boundary for all attention."""

    dialog_id: str
    utterances: list[UtteranceRecord]


class EmbeddingTable:
    """Token to vector map with a fixed dimension and zero-vector OOV policy."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"embedding dimension must be positive, got {dimension}")
        self.dimension = dimension
        self._vectors: dict[str, np.ndarray] = {}

    def add(self, token: str, vector: np.ndarray) -> None:
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dimension,):
            raise ValueError(
                f"vector for {token!r} has shape {vec.shape}, "
                f"expected ({self.dimension},)")
        # duplicate tokens keep the first occurrence
        self._vectors.setdefault(token, vec)

    def lookup(self, token: str) -> np.ndarray:
        vec = self._vectors.get(token)
        if vec is None:
            return np.zeros(self.dimension)
        return vec


def decode_line(raw: bytes, path, lineno: int) -> str:
    """One line of a UTF-8 text file; a bad byte is named by its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}:{lineno}: not UTF-8 text (byte "
                          f"{raw[exc.start]:#04x} at column {exc.start + 1})"
                          ) from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorpusError(message)


def _parse_label(raw, field: str, where: str) -> int:
    # the JSON integers only: true, false, 1.0 and "1" are not labels
    _require(type(raw) is int and raw in (0, 1),
             f"{where}: {field} must be 0 or 1, got {raw!r}")
    return raw


def _read_sidecar(sidecar: Path) -> list[list[float]]:
    """Rows of a CSV frame file. A bad byte, a cell csv cannot read, a
    non-numeric cell or a row whose width differs from the first row's is
    named by its line."""
    # split as csv's universal newlines would; csv reads the decoded lines,
    # so quoted cells still load
    lines = sidecar.read_bytes().splitlines(keepends=True)
    reader = csv.reader(decode_line(raw, sidecar, lineno)
                        for lineno, raw in enumerate(lines, start=1))
    rows: list[list[float]] = []
    try:
        for row in reader:
            if not row:
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise CorpusError(f"{sidecar}:{reader.line_num}: "
                                  f"{exc}") from None
            if rows and len(values) != len(rows[0]):
                raise CorpusError(
                    f"{sidecar}:{reader.line_num}: row has {len(values)} "
                    f"values, the first row has {len(rows[0])}")
            rows.append(values)
    except csv.Error as exc:  # e.g. a cell over csv's field size limit
        raise CorpusError(f"{sidecar}:{reader.line_num}: {exc}") from None
    return rows


def _inline_frames(raw_mfcc, where: str) -> np.ndarray:
    """Inline frame values as float64; every cell must be a JSON number.

    Without a dtype, numpy reports a string, null or object cell in the
    array's dtype, but turns true and false among numbers into 1 and 0.
    So only the rows holding a 0 or a 1 are looked at cell by cell.
    """
    try:
        frames = np.asarray(raw_mfcc)
    except ValueError as exc:
        raise CorpusError(f"{where}: ragged mfcc ({exc})") from None
    if frames.dtype.kind not in "iuf":
        rows = raw_mfcc if isinstance(raw_mfcc, list) else [raw_mfcc]
    elif frames.ndim == 2:
        flagged = ((frames == 0) | (frames == 1)).any(axis=1)
        rows = [raw_mfcc[i] for i in np.flatnonzero(flagged)]
    else:  # the shape check names it
        rows = []
    for row in rows:
        for cell in row if isinstance(row, list) else [row]:
            if type(cell) not in (int, float):
                raise CorpusError(f"{where}: mfcc cell {json.dumps(cell)} "
                                  f"is not a number")
    try:
        return frames.astype(np.float64, copy=False)
    except OverflowError:  # an integer beyond float64's range
        raise CorpusError(f"{where}: mfcc value out of range") from None


def _load_frames(raw_mfcc, mfcc_path, base_dir: Path, where: str) -> np.ndarray | None:
    if raw_mfcc is not None and mfcc_path is not None:
        raise CorpusError(f"{where}: both inline mfcc and mfcc_path given")
    if raw_mfcc is not None:
        frames = _inline_frames(raw_mfcc, where)
    elif mfcc_path is not None:
        _require(isinstance(mfcc_path, str) and mfcc_path != "",
                 f"{where}: mfcc_path must be a non-empty string, "
                 f"got {mfcc_path!r}")
        sidecar = base_dir / mfcc_path
        if not sidecar.is_file():
            raise CorpusError(f"{where}: mfcc sidecar not found: {sidecar}")
        try:
            rows = _read_sidecar(sidecar)
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
        _require(len(rows) > 0, f"{where}: empty mfcc sidecar {sidecar}")
        frames = np.asarray(rows, dtype=np.float64)
    else:
        return None
    _require(frames.ndim == 2 and frames.shape[1] == MFCC_COLUMNS,
             f"{where}: acoustic frames must be F x {MFCC_COLUMNS}, "
             f"got shape {frames.shape}")
    _require(frames.shape[0] >= 1, f"{where}: empty frame matrix")
    _require(bool(np.all(np.isfinite(frames))), f"{where}: non-finite frame values")
    return frames


def _parse_utterance(raw: dict, dialog_id: str, base_dir: Path) -> UtteranceRecord:
    _require(isinstance(raw, dict), f"dialog {dialog_id!r}: utterance is not an object")
    uid = raw.get("id")
    _require(isinstance(uid, str) and uid != "",
             f"dialog {dialog_id!r}: utterance missing string id")
    where = f"dialog {dialog_id!r}, utterance {uid!r}"

    tokens = raw.get("tokens")
    _require(isinstance(tokens, list) and len(tokens) > 0,
             f"{where}: tokens must be a non-empty list")
    _require(all(isinstance(t, str) for t in tokens),
             f"{where}: tokens must all be strings")

    speaker = raw.get("speaker", "")
    _require(isinstance(speaker, str), f"{where}: speaker must be a string")

    frames = _load_frames(raw.get("mfcc"), raw.get("mfcc_path"), base_dir, where)

    known = {"id", "speaker", "tokens", "sarcasm", "humor", "mfcc", "mfcc_path"}
    unknown = set(raw) - known
    _require(not unknown, f"{where}: unknown fields {sorted(unknown)}")

    return UtteranceRecord(
        uid=uid,
        speaker=speaker,
        tokens=list(tokens),
        acoustic=frames,
        sarcasm=_parse_label(raw.get("sarcasm"), "sarcasm", where),
        humor=_parse_label(raw.get("humor"), "humor", where),
    )


def load_corpus(path) -> list[Dialog]:
    """Read a JSON-lines dialog corpus, validating every invariant.

    Parse failures report the 1-based line number; validation failures name
    the offending dialog and utterance ids.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    base_dir = path.parent
    dialogs: list[Dialog] = []
    seen_ids: set[str] = set()
    # lines are decoded one at a time, so a bad byte is named by its line
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = decode_line(raw, path, lineno)
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from None
            except RecursionError:
                raise CorpusError(f"{path}:{lineno}: JSON nested too deeply") from None
            _require(isinstance(obj, dict), f"{path}:{lineno}: line is not an object")
            dialog_id = obj.get("dialog_id")
            _require(isinstance(dialog_id, str) and dialog_id != "",
                     f"{path}:{lineno}: missing string dialog_id")
            _require(dialog_id not in seen_ids,
                     f"{path}:{lineno}: duplicate dialog_id {dialog_id!r}")
            seen_ids.add(dialog_id)
            raw_utts = obj.get("utterances")
            _require(isinstance(raw_utts, list) and len(raw_utts) > 0,
                     f"dialog {dialog_id!r}: needs at least one utterance")
            utts = [_parse_utterance(u, dialog_id, base_dir) for u in raw_utts]
            dialogs.append(Dialog(dialog_id=dialog_id, utterances=utts))
    _require(len(dialogs) > 0, f"{path}: corpus is empty")
    return dialogs


# Rows handed to one numpy text parse. Larger blocks parse barely faster
# and hold more text and parser memory at once.
EMBEDDING_BLOCK_ROWS = 64


def _parse_floats(lines: list[str]) -> np.ndarray:
    """Space-separated decimal, exponent, nan or inf numbers, one row a line."""
    return np.loadtxt(lines, delimiter=" ", comments=None, dtype=np.float64,
                      ndmin=2)


def _parse_vector_row(lineno: int, token: str, values: str, dim: int,
                      path) -> np.ndarray:
    """One row's (1, dim) values, checked in the order errors are named."""
    count = len(values.split(" ")) if values else 0
    if count != dim:
        raise CorpusError(f"{path}:{lineno}: token {token!r} has {count} "
                          f"values, header declared {dim}")
    try:
        vec = _parse_floats([values])
    except ValueError:
        raise CorpusError(f"{path}:{lineno}: non-numeric value") from None
    if not np.isfinite(vec).all():
        raise CorpusError(f"{path}:{lineno}: token {token!r} has a "
                          f"non-finite value")
    return vec


def _parse_vector_block(rows: list[tuple[int, str, str]], dim: int,
                        path) -> np.ndarray:
    """Values of pending (line, token, values) rows, in one numpy parse.

    A block that fails it, has the wrong shape or holds a non-finite value
    is parsed again row by row, which raises on its first bad row.
    """
    values = [row[2] for row in rows]
    # numpy skips an empty line rather than failing it
    if all(values):
        try:
            block = _parse_floats(values)
        except ValueError:
            pass
        else:
            if block.shape == (len(rows), dim) and np.isfinite(block).all():
                return block
    return np.vstack([_parse_vector_row(*row, dim, path) for row in rows])


def _add_vector_rows(table: EmbeddingTable, rows: list[tuple[int, str, str]],
                     path) -> None:
    if rows:
        block = _parse_vector_block(rows, table.dimension, path)
        # Each row gets its own array, as a row-by-row parse gave, and the
        # block is freed at once. Rows kept as views of their blocks changed
        # the heap's layout: peak memory rose with 64-row blocks, and later
        # training slowed with 16-row ones.
        for (_, token, _), vec in zip(rows, block):
            table.add(token, vec.copy())


def load_embeddings(path) -> EmbeddingTable:
    """Read a "<count> <dim>" headed text vector table.

    Duplicate tokens keep their first occurrence. Rows whose value count
    disagrees with the header, or that hold a non-numeric value, a NaN or an
    Inf, are rejected naming the row.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"embedding file not found: {path}")
    with open(path, "rb") as fh:
        header = decode_line(fh.readline(), path, 1).split()
        if len(header) != 2:
            raise CorpusError(f"{path}:1: header must be '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise CorpusError(f"{path}:1: non-integer header fields") from None
        if dim < 1:
            raise CorpusError(f"{path}:1: dimension must be positive, got {dim}")
        table = EmbeddingTable(dim)
        rows = 0
        pending: list[tuple[int, str, str]] = []
        for lineno, raw in enumerate(fh, start=2):
            try:
                line = decode_line(raw, path, lineno)
            except CorpusError:
                # a bad row above the bad byte is the first fault
                _add_vector_rows(table, pending, path)
                raise
            # fastText .vec rows may end in a space before the newline
            line = line.rstrip()
            if not line:
                continue
            token, _, values = line.partition(" ")
            pending.append((lineno, token, values))
            rows += 1
            if len(pending) == EMBEDDING_BLOCK_ROWS:
                _add_vector_rows(table, pending, path)
                pending = []
        _add_vector_rows(table, pending, path)
    if rows != count:
        raise CorpusError(
            f"{path}: header declared {count} vectors, file has {rows} rows")
    return table


def embed_utterance(tokens: list[str], table: EmbeddingTable) -> np.ndarray:
    """Stack per-token vectors into an N x d matrix; OOV rows are zero."""
    if len(tokens) == 0:
        raise ValueError("cannot embed an empty token list")
    matrix = np.empty((len(tokens), table.dimension))
    for k, token in enumerate(tokens):
        matrix[k] = table.lookup(token)
    return matrix


def split_train_val(dialogs: list[Dialog], fraction: float = 0.10,
                    seed: int = 0) -> tuple[list[Dialog], list[Dialog]]:
    """Deterministic dialog-level split; validation gets round(fraction * n).

    Utterances never cross the boundary: whole dialogs land on one side.
    Both splits keep the original corpus order.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(dialogs)
    n_val = int(round(fraction * n))
    if n_val < 1 or n_val >= n:
        raise CorpusError(
            f"corpus of {n} dialogs is too small for a {fraction:.2f} split")
    rng = np.random.default_rng(seed)
    chosen = set(rng.permutation(n)[:n_val].tolist())
    val = [d for k, d in enumerate(dialogs) if k in chosen]
    train = [d for k, d in enumerate(dialogs) if k not in chosen]
    return train, val

"""Corpus loading, embedding tables, corpus counts, and split behavior."""

from types import SimpleNamespace

import numpy as np
import pytest

import synthdata
from banter.data import (
    EMBEDDING_BLOCK_ROWS,
    CorpusError,
    EmbeddingTable,
    embed_utterance,
    load_corpus,
    load_embeddings,
    split_train_val,
)


def small_corpus(tmp_path, name="tiny.jsonl"):
    dialogs = [
        {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["kya", "baat"],
             "sarcasm": 1, "humor": 0},
            {"id": "u1", "speaker": "b", "tokens": ["nahi"],
             "sarcasm": 0, "humor": 1},
            {"id": "u2", "speaker": "a", "tokens": ["accha", "theek", "hai"],
             "sarcasm": 0, "humor": 0},
        ]},
        {"dialog_id": "d1", "utterances": [
            {"id": "u0", "speaker": "b", "tokens": ["chalo"],
             "sarcasm": 1, "humor": 1},
            {"id": "u1", "speaker": "a", "tokens": ["bilkul", "sahi"],
             "sarcasm": 0, "humor": 0},
        ]},
    ]
    return synthdata.write_corpus(tmp_path / name, dialogs)


class TestLoadCorpus:
    def test_counts_dialogs_and_utterances(self, tmp_path):
        dialogs = load_corpus(small_corpus(tmp_path))
        assert len(dialogs) == 2
        assert sum(len(d.utterances) for d in dialogs) == 5
        assert dialogs[0].dialog_id == "d0"
        assert dialogs[0].utterances[1].tokens == ["nahi"]

    def test_file_order_preserved(self, tmp_path):
        dialogs = load_corpus(small_corpus(tmp_path))
        assert [d.dialog_id for d in dialogs] == ["d0", "d1"]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"dialog_id": "d0", "utterances": [{"id": "u0", '
                        '"tokens": ["x"], "sarcasm": 0, "humor": 0}]}\n'
                        "{not json}\n")
        with pytest.raises(CorpusError, match=":2"):
            load_corpus(path)

    def test_wrong_frame_width_rejected(self, tmp_path):
        bad = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mfcc": [[0.0] * 127]},
        ]}
        path = synthdata.write_corpus(tmp_path / "frames.jsonl", [bad])
        with pytest.raises(CorpusError, match="127"):
            load_corpus(path)

    def test_validation_names_dialog_and_utterance(self, tmp_path):
        bad = {"dialog_id": "d7", "utterances": [
            {"id": "u3", "speaker": "a", "tokens": [], "sarcasm": 0, "humor": 0},
        ]}
        path = synthdata.write_corpus(tmp_path / "empty.jsonl", [bad])
        with pytest.raises(CorpusError, match="d7.*u3"):
            load_corpus(path)

    def test_non_binary_label_rejected(self, tmp_path):
        bad = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 2, "humor": 0},
        ]}
        path = synthdata.write_corpus(tmp_path / "label.jsonl", [bad])
        with pytest.raises(CorpusError, match="sarcasm"):
            load_corpus(path)

    @pytest.mark.parametrize("field", ["sarcasm", "humor"])
    @pytest.mark.parametrize("label", [True, False, 1.0, 0.0, "1", None],
                             ids=["true", "false", "1.0", "0.0", "string",
                                  "null"])
    def test_label_must_be_the_integer_0_or_1(self, tmp_path, field, label):
        utterance = {"id": "u0", "speaker": "a", "tokens": ["x"],
                     "sarcasm": 0, "humor": 1}
        utterance[field] = label
        path = synthdata.write_corpus(
            tmp_path / "label.jsonl",
            [{"dialog_id": "d0", "utterances": [utterance]}])
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == (f"dialog 'd0', utterance 'u0': {field} "
                                  f"must be 0 or 1, got {label!r}")

    def test_duplicate_dialog_id_rejected(self, tmp_path):
        one = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0, "humor": 0},
        ]}
        path = synthdata.write_corpus(tmp_path / "dup.jsonl", [one, one])
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_unknown_field_rejected(self, tmp_path):
        bad = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mood": "wry"},
        ]}
        path = synthdata.write_corpus(tmp_path / "extra.jsonl", [bad])
        with pytest.raises(CorpusError, match="mood"):
            load_corpus(path)

    def test_inline_frames_load(self, tmp_path):
        frames = np.arange(256, dtype=float).reshape(2, 128)
        dialog = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mfcc": frames.tolist()},
        ]}
        path = synthdata.write_corpus(tmp_path / "inline.jsonl", [dialog])
        loaded = load_corpus(path)
        np.testing.assert_allclose(loaded[0].utterances[0].acoustic, frames)

    def test_sidecar_csv_matches_inline(self, tmp_path):
        frames = np.linspace(-1, 1, 3 * 128).reshape(3, 128)
        lines = "\n".join(",".join(repr(float(v)) for v in row) for row in frames)
        (tmp_path / "u0.csv").write_text(lines + "\n")
        dialog = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mfcc_path": "u0.csv"},
        ]}
        path = synthdata.write_corpus(tmp_path / "sidecar.jsonl", [dialog])
        loaded = load_corpus(path)
        np.testing.assert_allclose(loaded[0].utterances[0].acoustic, frames)

    def test_missing_sidecar_rejected(self, tmp_path):
        dialog = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mfcc_path": "nowhere.csv"},
        ]}
        path = synthdata.write_corpus(tmp_path / "lost.jsonl", [dialog])
        with pytest.raises(CorpusError, match="nowhere.csv"):
            load_corpus(path)

    def test_quoted_sidecar_cells_load(self, tmp_path):
        frames = np.arange(2 * 128, dtype=float).reshape(2, 128)
        (tmp_path / "u0.csv").write_text("\r\n".join(
            ",".join(f'"{v}"' for v in row) for row in frames) + "\r\n")
        dialog = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mfcc_path": "u0.csv"},
        ]}
        path = synthdata.write_corpus(tmp_path / "quoted.jsonl", [dialog])
        np.testing.assert_array_equal(
            load_corpus(path)[0].utterances[0].acoustic, frames)

    @pytest.mark.parametrize("bad_row, message", [
        (b"0.5," * 127 + b"\xff", "not UTF-8 text (byte 0xff at column 509)"),
        (b"0.5," * 127 + b"x", "could not convert string to float: 'x'"),
        (b"0.5," * 126 + b"0.5", "row has 127 values, the first row has 128"),
        (b'"' + b"1" * 140_000 + b'"',
         "field larger than field limit (131072)"),
    ], ids=["bad byte", "non-numeric", "short row", "oversized cell"])
    def test_bad_sidecar_row_is_named_by_its_line(self, tmp_path, bad_row,
                                                  message):
        good = b",".join([b"0.25"] * 128)
        sidecar = tmp_path / "u0.csv"
        sidecar.write_bytes(b"\n".join([good, good, bad_row, good]) + b"\n")
        dialog = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mfcc_path": "u0.csv"},
        ]}
        path = synthdata.write_corpus(tmp_path / "bad.jsonl", [dialog])
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == (f"dialog 'd0', utterance 'u0': "
                                  f"{sidecar}:3: {message}")

    @pytest.mark.parametrize("mfcc_path", [5, "", ["u0.csv"]])
    def test_sidecar_path_must_be_a_string(self, tmp_path, mfcc_path):
        dialog = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["x"], "sarcasm": 0,
             "humor": 0, "mfcc_path": mfcc_path},
        ]}
        path = synthdata.write_corpus(tmp_path / "typed.jsonl", [dialog])
        with pytest.raises(CorpusError,
                           match="dialog 'd0', utterance 'u0': mfcc_path"):
            load_corpus(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "absent.jsonl")


def counts(dialogs):
    """Counts over loaded dialogs, recomputed from the records themselves."""
    utts = [utt for dialog in dialogs for utt in dialog.utterances]
    lengths = [len(utt.tokens) for utt in utts]
    return SimpleNamespace(
        dialogs=len(dialogs), utterances=len(utts),
        sarcastic=sum(utt.sarcasm for utt in utts),
        humorous=sum(utt.humor for utt in utts),
        max_utterance_len=max(lengths),
        avg_utterance_len=float(np.mean(lengths)),
        vocabulary=len({tok for utt in utts for tok in utt.tokens}))


class TestCorpusStats:
    """The synthetic generators' counts survive writing and loading."""

    def test_train_shaped_counts(self, tmp_path):
        path = synthdata.masac_shaped_corpus(
            tmp_path / "train.jsonl", 1100, 14000, 2748, 5054)
        stats = counts(load_corpus(path))
        assert stats.dialogs == 1100
        assert stats.utterances == 14000
        assert stats.sarcastic == 2748
        assert stats.humorous == 5054

    def test_test_shaped_counts(self, tmp_path):
        path = synthdata.masac_shaped_corpus(
            tmp_path / "test.jsonl", 90, 1576, 391, 740)
        stats = counts(load_corpus(path))
        assert (stats.dialogs, stats.utterances) == (90, 1576)
        assert (stats.sarcastic, stats.humorous) == (391, 740)

    def test_single_utterance_counts(self, tmp_path):
        dialog = {"dialog_id": "d0", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["hello"],
             "sarcasm": 1, "humor": 0},
        ]}
        path = synthdata.write_corpus(tmp_path / "one.jsonl", [dialog])
        stats = counts(load_corpus(path))
        assert (stats.dialogs, stats.utterances) == (1, 1)
        assert (stats.sarcastic, stats.humorous) == (1, 0)

    def test_length_stats(self, tmp_path):
        fixture = [{"dialog_id": "x", "utterances": [
            {"id": "u0", "speaker": "a", "tokens": ["a", "b", "c"],
             "sarcasm": 0, "humor": 0},
            {"id": "u1", "speaker": "a", "tokens": ["a", "b", "c", "d", "e"],
             "sarcasm": 0, "humor": 0},
        ]}]
        stats = counts(load_corpus(
            synthdata.write_corpus(tmp_path / "len.jsonl", fixture)))
        assert stats.max_utterance_len == 5
        assert stats.avg_utterance_len == 4.0
        assert stats.vocabulary == 5

    def test_generator_roundtrip_property(self, tmp_path):
        rng = np.random.default_rng(5)
        for trial in range(5):
            n_d = int(rng.integers(3, 12))
            n_u = int(rng.integers(n_d, n_d * 6))
            n_s = int(rng.integers(0, n_u + 1))
            n_h = int(rng.integers(0, n_u + 1))
            path = synthdata.masac_shaped_corpus(
                tmp_path / f"round{trial}.jsonl", n_d, n_u, n_s, n_h,
                seed=trial)
            stats = counts(load_corpus(path))
            assert (stats.dialogs, stats.utterances) == (n_d, n_u)
            assert (stats.sarcastic, stats.humorous) == (n_s, n_h)


class TestEmbeddings:
    def write_table(self, tmp_path, lines, name="vecs.txt"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_small_table(self, tmp_path):
        path = self.write_table(tmp_path, [
            "3 4",
            "kya 1 0 0 0",
            "baat 0 1 0 0",
            "hai 0 0 1 0.5",
        ])
        table = load_embeddings(path)
        assert table.dimension == 4
        np.testing.assert_allclose(table.lookup("kya"), [1, 0, 0, 0])
        np.testing.assert_allclose(table.lookup("baat"), [0, 1, 0, 0])
        np.testing.assert_allclose(table.lookup("hai"), [0, 0, 1, 0.5])

    def test_oov_lookup_is_zero(self, tmp_path):
        path = self.write_table(tmp_path, ["1 3", "kya 1 2 3"])
        table = load_embeddings(path)
        np.testing.assert_allclose(table.lookup("unknown"), np.zeros(3))

    def test_row_width_mismatch_names_row(self, tmp_path):
        path = self.write_table(tmp_path, [
            "2 300",
            "good " + " ".join(["0.1"] * 300),
            "short " + " ".join(["0.1"] * 299),
        ])
        with pytest.raises(CorpusError, match="short"):
            load_embeddings(path)

    def test_trailing_space_rows_load(self, tmp_path):
        # fastText .vec files end every row with a space
        path = self.write_table(tmp_path, ["2 3", "foo 1 2 3 ", "bar 4 5 6 "])
        table = load_embeddings(path)
        np.testing.assert_allclose(table.lookup("foo"), [1, 2, 3])
        np.testing.assert_allclose(table.lookup("bar"), [4, 5, 6])

    def test_trailing_space_does_not_hide_a_short_row(self, tmp_path):
        path = self.write_table(tmp_path, ["1 3", "foo 1 2 "])
        with pytest.raises(CorpusError, match="has 2 values"):
            load_embeddings(path)

    def test_duplicate_token_keeps_first(self, tmp_path):
        path = self.write_table(tmp_path, ["2 2", "kya 1 2", "kya 3 4"])
        table = load_embeddings(path)
        np.testing.assert_allclose(table.lookup("kya"), [1, 2])

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = self.write_table(tmp_path, ["3 2", "kya 1 2", "baat 3 4"])
        with pytest.raises(CorpusError, match="declared 3"):
            load_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_row_and_token(self, tmp_path, value):
        path = self.write_table(tmp_path, ["2 2", "kya 1 2", f"a 3 {value}"])
        with pytest.raises(CorpusError) as err:
            load_embeddings(path)
        assert str(err.value) == (f"{path}:3: token 'a' has a non-finite "
                                  f"value")

    def test_bad_header_rejected(self, tmp_path):
        path = self.write_table(tmp_path, ["3", "kya 1 2"])
        with pytest.raises(CorpusError, match="header"):
            load_embeddings(path)


BLOCK = EMBEDDING_BLOCK_ROWS
# a table of two full blocks and a partial third
TABLE_ROWS = 2 * BLOCK + 5

FAULTS = {
    "short": ("1 2", "token {token!r} has 2 values, header declared 3"),
    "non-numeric": ("1 x 3", "non-numeric value"),
    "non-finite": ("1 nan 3", "token {token!r} has a non-finite value"),
}


def write_blocks_table(tmp_path, faults=(), bad_byte_row=None):
    """A 3-wide table of TABLE_ROWS rows; row k sits on line k + 2.

    ``faults`` maps row indices to FAULTS keys; ``bad_byte_row`` gets a
    0xff byte in its token.
    """
    faults = dict(faults)
    lines = [f"{TABLE_ROWS} 3".encode()]
    for k in range(TABLE_ROWS):
        values = FAULTS[faults[k]][0] if k in faults else f"{k} 0.5 -2e-3"
        token = b"w\xff" if k == bad_byte_row else f"w{k}".encode()
        lines.append(token + b" " + values.encode())
    path = tmp_path / "blocks.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def fault_message(path, row, fault):
    return f"{path}:{row + 2}: " + FAULTS[fault][1].format(token=f"w{row}")


class TestEmbeddingBlocks:
    """Rows are parsed a block at a time; every check still names its row."""

    def test_seeded_table_matches_float_on_every_field(self, tmp_path):
        rng = np.random.default_rng(16)
        forms = (repr, "{:.5f}".format, "{:e}".format, "{:.3E}".format,
                 lambda v: str(int(v * 10)), lambda v: f"+{abs(v):.2f}",
                 lambda v: "-0", lambda v: f".{int(abs(v) * 1e4)}",
                 lambda v: f"{v:.17g}")
        rows = {}
        for k in range(2 * BLOCK + 17):
            rows[f"t{k}"] = [forms[int(rng.integers(len(forms)))](v)
                             for v in rng.normal(0.0, 3.0, size=7).tolist()]
        path = tmp_path / "seeded.vec"
        path.write_text(f"{len(rows)} 7\n" + "".join(
            f"{token} {' '.join(fields)} \n"
            for token, fields in rows.items()), encoding="utf-8")
        table = load_embeddings(path)
        for token, fields in rows.items():
            expected = np.array([float(field) for field in fields])
            assert table.lookup(token).tobytes() == expected.tobytes(), token

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("row", [0, BLOCK - 1, BLOCK, TABLE_ROWS - 1],
                             ids=["first", "block end", "next block",
                                  "last"])
    def test_bad_row_is_named_by_its_line(self, tmp_path, row, fault):
        path = write_blocks_table(tmp_path, {row: fault})
        with pytest.raises(CorpusError) as err:
            load_embeddings(path)
        assert str(err.value) == fault_message(path, row, fault)

    @pytest.mark.parametrize("first, second", [
        ((3, "non-finite"), (5, "short")),
        ((3, "short"), (4, "non-numeric")),
        ((2, "non-numeric"), (BLOCK - 1, "non-finite")),
        ((BLOCK - 1, "non-finite"), (BLOCK, "short")),
        ((5, "non-finite"), (BLOCK + 3, "non-numeric")),
    ], ids=["non-finite before short", "short before non-numeric",
            "same block", "adjacent blocks", "two blocks"])
    def test_first_of_two_bad_rows_is_named(self, tmp_path, first, second):
        path = write_blocks_table(tmp_path, dict([first, second]))
        with pytest.raises(CorpusError) as err:
            load_embeddings(path)
        assert str(err.value) == fault_message(path, *first)

    def test_bad_row_before_a_bad_byte_in_its_block_is_named(self, tmp_path):
        path = write_blocks_table(tmp_path, {3: "non-finite"},
                                  bad_byte_row=6)
        with pytest.raises(CorpusError) as err:
            load_embeddings(path)
        assert str(err.value) == fault_message(path, 3, "non-finite")

    def test_bad_byte_after_clean_rows_is_named(self, tmp_path):
        path = write_blocks_table(tmp_path, bad_byte_row=BLOCK + 1)
        with pytest.raises(CorpusError) as err:
            load_embeddings(path)
        assert str(err.value) == (f"{path}:{BLOCK + 3}: not UTF-8 text "
                                  f"(byte 0xff at column 2)")

    @pytest.mark.filterwarnings("error")
    def test_token_without_values_is_short_not_skipped(self, tmp_path):
        path = tmp_path / "bare.vec"
        path.write_text("1 3\nkya \n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_embeddings(path)
        assert str(err.value) == (f"{path}:2: token 'kya' has 0 values, "
                                  f"header declared 3")

    @pytest.mark.parametrize("value", ["1_0", "\uff11"])
    def test_python_only_number_syntax_is_non_numeric(self, tmp_path, value):
        # float() reads these; the table's number syntax does not
        path = tmp_path / "syntax.vec"
        path.write_text(f"2 2\nkya 1 2\nbaat 3 {value}\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}:3: non-numeric value"


class TestEmbedUtterance:
    def table(self):
        t = EmbeddingTable(2)
        t.add("a", np.array([1.0, 0.0]))
        t.add("b", np.array([0.0, 1.0]))
        return t

    def test_repeated_token(self):
        out = embed_utterance(["a", "a"], self.table())
        np.testing.assert_array_equal(out, [[1, 0], [1, 0]])

    def test_all_oov(self):
        out = embed_utterance(["x", "y"], self.table())
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_partial_oov_rate(self):
        # one OOV token in four: exactly one zero row, the last
        out = embed_utterance(["a", "b", "a", "zz"], self.table())
        assert out.shape == (4, 2)
        zero_rows = np.flatnonzero(~out.any(axis=1))
        assert zero_rows.tolist() == [3]
        np.testing.assert_array_equal(out[:3], [[1, 0], [0, 1], [1, 0]])

    def test_oov_rows_have_zero_norm(self):
        out = embed_utterance(["a", "zz", "b"], self.table())
        norms = np.linalg.norm(out, axis=1)
        assert norms[1] == 0.0
        assert norms[0] > 0 and norms[2] > 0

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            embed_utterance([], self.table())


class TestSplit:
    def corpus(self, tmp_path, n):
        path = synthdata.masac_shaped_corpus(
            tmp_path / f"c{n}.jsonl", n, n * 3, n, n)
        return load_corpus(path)

    def test_masac_sized_split(self, tmp_path):
        dialogs = self.corpus(tmp_path, 1100)
        train, val = split_train_val(dialogs, fraction=0.10, seed=3)
        assert (len(train), len(val)) == (990, 110)

    def test_ten_dialog_split(self, tmp_path):
        train, val = split_train_val(self.corpus(tmp_path, 10), 0.10, seed=0)
        assert (len(train), len(val)) == (9, 1)

    def test_same_seed_same_partition(self, tmp_path):
        dialogs = self.corpus(tmp_path, 40)
        a = split_train_val(dialogs, 0.10, seed=11)
        b = split_train_val(dialogs, 0.10, seed=11)
        assert [d.dialog_id for d in a[0]] == [d.dialog_id for d in b[0]]
        assert [d.dialog_id for d in a[1]] == [d.dialog_id for d in b[1]]

    def test_partition_is_disjoint_and_complete(self, tmp_path):
        dialogs = self.corpus(tmp_path, 30)
        train, val = split_train_val(dialogs, 0.20, seed=2)
        train_ids = {d.dialog_id for d in train}
        val_ids = {d.dialog_id for d in val}
        assert not train_ids & val_ids
        assert train_ids | val_ids == {d.dialog_id for d in dialogs}

    def test_dialog_level_split_keeps_dialogs_whole(self, tmp_path):
        dialogs = self.corpus(tmp_path, 12)
        sizes = {d.dialog_id: len(d.utterances) for d in dialogs}
        train, val = split_train_val(dialogs, 0.25, seed=1)
        for d in train + val:
            assert len(d.utterances) == sizes[d.dialog_id]

    def test_too_small_corpus_rejected(self, tmp_path):
        dialogs = self.corpus(tmp_path, 3)
        with pytest.raises(CorpusError, match="too small"):
            split_train_val(dialogs, 0.05, seed=0)

    def test_bad_fraction_rejected(self, tmp_path):
        dialogs = self.corpus(tmp_path, 10)
        with pytest.raises(ValueError):
            split_train_val(dialogs, 1.5, seed=0)

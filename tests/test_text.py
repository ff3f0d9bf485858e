import tracemalloc

import pytest

from maskaug import text
from maskaug.classify import write_records
from maskaug.cli import _write_json
from maskaug.styletransfer import write_style_pairs
from maskaug.synthetic import write_rows_tsv
from maskaug.text import (
    CLS_ID,
    LabeledExample,
    PAD_ID,
    ParseError,
    UNK_ID,
    build_vocab,
    decode,
    encode,
    load_tsv,
    load_vocab,
    read_tsv,
    save_vocab,
    tokenize,
    write_text,
)
from maskaug.training import write_metrics


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The actors is good") == ["the", "actors", "is", "good"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_detached(self):
        assert tokenize("good, bad.") == ["good", ",", "bad", "."]

    def test_whitespace_and_mixed(self):
        assert tokenize("It's  GREAT!") == ["it", "'", "s", "great", "!"]


class TestBuildVocab:
    def test_single_sentence_counts(self):
        vocab = build_vocab([["a", "a", "b"]], min_freq=1)
        assert len(vocab) == 6
        assert vocab.id_of("a") == 4  # more frequent, earlier id
        assert vocab.id_of("b") == 5

    def test_min_freq_filters(self):
        vocab = build_vocab([["a", "a", "b"]], min_freq=2)
        assert "a" in vocab and "b" not in vocab

    def test_truncation_tie_broken_alphabetically(self):
        # zed and ant tie at frequency 1; only one non-special slot remains
        vocab = build_vocab([["zed", "ant"]], max_size=5)
        assert "ant" in vocab and "zed" not in vocab

    @pytest.mark.parametrize("min_freq", [0, -3])
    def test_min_freq_below_one_is_refused(self, min_freq):
        with pytest.raises(ValueError) as info:
            build_vocab([["a"]], min_freq=min_freq)
        assert str(info.value) == f"min_freq must be >= 1, got {min_freq}"

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], max_size=3)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_deterministic(self):
        corpus = [tokenize("the cat sat"), tokenize("the dog ran the end")]
        a = build_vocab(corpus)
        b = build_vocab(corpus)
        assert a.id_to_token == b.id_to_token

    def test_token_to_id_is_derived_from_id_to_token(self):
        vocab = text.Vocabulary(text.SPECIAL_TOKENS + ("cat", "dog"))
        assert vocab.token_to_id == {t: i for i, t in enumerate(vocab.id_to_token)}
        with pytest.raises(TypeError):  # a second map that could disagree is not taken
            text.Vocabulary(vocab.id_to_token, {"cat": 0})


class TestEncodeDecode:
    @pytest.fixture
    def vocab(self):
        return build_vocab([tokenize("the cat sat on the mat")])

    def test_round_trip(self, vocab):
        ids = encode("the cat sat", vocab, max_len=16)
        assert ids[0] == CLS_ID
        assert decode(ids, vocab) == "the cat sat"

    def test_oov_becomes_unk(self, vocab):
        ids = encode("the zebra", vocab, max_len=16)
        assert ids[2] == UNK_ID

    def test_truncation(self, vocab):
        ids = encode("the cat sat on the mat", vocab, max_len=4)
        assert len(ids) == 4

    def test_decode_skips_pad_and_cls(self, vocab):
        ids = encode("the cat", vocab, max_len=8) + [PAD_ID, PAD_ID]
        assert decode(ids, vocab) == "the cat"

    def test_decode_out_of_range(self, vocab):
        with pytest.raises(IndexError):
            decode([len(vocab)], vocab)

    def test_encode_is_idempotent_normal_form(self, vocab):
        ids = encode("the cat sat on the zebra", vocab, max_len=16)
        again = encode(decode(ids, vocab), vocab, max_len=16)
        assert again == ids


class TestVocabFile:
    def test_round_trip(self, tmp_path):
        vocab = build_vocab([tokenize("alpha beta gamma alpha")])
        save_vocab(vocab, tmp_path / "vocab.txt")
        loaded = load_vocab(tmp_path / "vocab.txt")
        assert loaded.id_to_token == vocab.id_to_token

    def test_specials_enforced(self, tmp_path):
        (tmp_path / "bad.txt").write_text("<pad>\n<unk>\nalpha\nbeta\n")
        with pytest.raises(ParseError):
            load_vocab(tmp_path / "bad.txt")

    def test_token_listed_twice_is_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<unk>\n<mask>\n<cls>\nalpha\nbeta\nalpha\n")
        with pytest.raises(ParseError) as exc:
            load_vocab(path)
        assert str(exc.value) == f"{path}:7: 'alpha' is listed twice"

    def test_non_utf8_is_parse_error_naming_path(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"<pad>\n<unk>\n<mask>\n<cls>\ncaf\xe9\n")
        with pytest.raises(ParseError) as exc:
            load_vocab(path)
        assert f"{path}:5:" in str(exc.value)


class TestReadTsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("0\tgood film\n1\tbad film\n")
        assert read_tsv(path) == [(0, "good film"), (1, "bad film")]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("# some-format v1\n0\tgood film\t3\tcbert\t4\n")
        assert read_tsv(path) == [(0, "good film")]

    # int() reads the last four as 10, 1, 0 and 3
    @pytest.mark.parametrize("label", ["x", "1_0", "+1", " 0", "\u0663"])
    def test_non_integer_label(self, tmp_path, label):
        path = tmp_path / "d.tsv"
        path.write_text(f"0\tfine\n{label}\tbad\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_tsv(path)
        assert str(exc.value) == f"{path}:2: label must be a non-negative integer, got {label!r}"

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("just some text\n")
        with pytest.raises(ParseError):
            read_tsv(path)

    def test_negative_label(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("-1\toops\n")
        with pytest.raises(ParseError, match="label must be a non-negative integer, got '-1'"):
            read_tsv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_tsv(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "d.tsv"
        path.write_bytes(newline.join([b"0\tgood film", b"", b"1\tbad \xc3\xa9t\xc3\xa9", b""]))
        assert read_tsv(path) == [(0, "good film"), (1, "bad \u00e9t\u00e9")]

    def test_non_utf8_is_parse_error_naming_path_and_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"0\tfine\r\n1\tok\r\n1\tbad \xff byte\r\n")
        with pytest.raises(ParseError) as exc:
            read_tsv(path)
        assert f"{path}:3:" in str(exc.value) and "0xff" in str(exc.value)


class TestLoadTsv:
    @pytest.fixture
    def vocab(self):
        return build_vocab([tokenize("good bad fine awful film story")])

    def test_num_labels(self, tmp_path, vocab):
        path = tmp_path / "d.tsv"
        path.write_text("0\tgood film\n1\tbad film\n")
        dataset = load_tsv(path, vocab, val_fraction=0.0)
        assert dataset.num_labels == 2
        assert len(dataset.train) == 2 and not dataset.val and not dataset.test

    def test_gap_in_labels_warns(self, tmp_path, vocab):
        path = tmp_path / "d.tsv"
        path.write_text("0\tgood\n2\tbad\n")
        with pytest.warns(UserWarning, match=r"\[1\]"):
            dataset = load_tsv(path, vocab, val_fraction=0.0)
        assert dataset.num_labels == 3

    def test_a_far_label_warns_without_building_the_label_range(self, tmp_path, vocab):
        # the old check built set(range(10**9 + 1)), gigabytes for one label
        path = tmp_path / "d.tsv"
        path.write_text(f"1\tgood\n3\tbad\n{10**9}\tfine\n")
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning) as caught:
                dataset = load_tsv(path, vocab, val_fraction=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        assert dataset.num_labels == 10**9 + 1
        [warning] = caught
        assert str(warning.message) == (
            f"{path}: labels [0, 2, 4, 5, 6, ...] ({10**9 - 2} in all) never occur but lie "
            f"below the maximum label {10**9}; the label set is taken as 0..{10**9}"
        )

    @staticmethod
    def _distinct_rows(n):
        # n distinct sentences whose every token stays in the vocabulary
        words = ["good", "bad", "fine", "awful", "film", "story"]
        rows = []
        for i in range(n):
            sentence = " ".join(words[(i + j) % len(words)] for j in range(2 + i % 4))
            rows.append(f"{i % 2}\t{sentence} {'film ' * (i // len(words))}".rstrip())
        return rows

    def test_split_deterministic_and_disjoint(self, tmp_path, vocab):
        path = tmp_path / "d.tsv"
        path.write_text("\n".join(self._distinct_rows(30)) + "\n")
        a = load_tsv(path, vocab, val_fraction=0.1, seed=5)
        b = load_tsv(path, vocab, val_fraction=0.1, seed=5)
        assert a.train == b.train and a.val == b.val
        assert len(a.val) == 3 and len(a.train) == 27
        overlap = {ex.tokens for ex in a.train} & {ex.tokens for ex in a.val}
        # sentences are unique by construction, so disjointness is checkable
        assert not overlap

    def test_order_preserved(self, tmp_path, vocab):
        path = tmp_path / "d.tsv"
        path.write_text("\n".join(self._distinct_rows(20)) + "\n")
        dataset = load_tsv(path, vocab, val_fraction=0.2, seed=1)
        full = load_tsv(path, vocab, val_fraction=0.0)
        assert len(dataset.val) == 4
        merged = []
        it_train, it_val = iter(dataset.train), iter(dataset.val)
        train_set = {ex.tokens for ex in dataset.train}
        for ex in full.train:
            merged.append(next(it_train) if ex.tokens in train_set else next(it_val))
        assert merged == full.train

    def test_test_path(self, tmp_path, vocab):
        train = tmp_path / "train.tsv"
        test = tmp_path / "test.tsv"
        train.write_text("0\tgood\n1\tbad\n")
        test.write_text("2\tfine\n")
        dataset = load_tsv(train, vocab, val_fraction=0.0, test_path=test)
        assert dataset.num_labels == 3
        assert len(dataset.test) == 1

    @pytest.mark.parametrize(
        "setting, named",
        [
            pytest.param({"val_fraction": 1.0}, "got 1.0", id="val-fraction-1"),
            pytest.param({"val_fraction": 1.5}, "got 1.5", id="val-fraction-1.5"),
            pytest.param({"val_fraction": -0.1}, "got -0.1", id="val-fraction-negative"),
            pytest.param({"max_len": 1}, "max_len must be >= 2", id="max-len-1"),
            pytest.param({"max_len": 0}, "max_len must be >= 2", id="max-len-0"),
        ],
    )
    def test_out_of_range_setting_is_rejected(self, setting, named, tmp_path, vocab):
        path = tmp_path / "d.tsv"
        path.write_text("0\tgood film\n1\tbad film\n")
        with pytest.raises(ValueError) as exc:
            load_tsv(path, vocab, **setting)
        assert named in str(exc.value)


def _pairs_writer(path):
    vocab = build_vocab([tokenize("alpha beta")])
    original, generated = (LabeledExample(tuple(encode(w, vocab, 4)), 0) for w in ("alpha", "beta"))
    write_style_pairs(path, [(original, generated)], vocab)


# artifact writers of six modules; each must write through write_text
ARTIFACT_WRITERS = {
    "vocab": lambda path: save_vocab(build_vocab([tokenize("alpha beta")]), path),
    "rows-tsv": lambda path: write_rows_tsv([(0, "a dull plot"), (1, "a fine cast")], path),
    "metrics": lambda path: write_metrics(
        [{"epoch": 1, "split": "val", "loss": 0.5, "masked_acc": 0.25}], path
    ),
    "records": lambda path: write_records(
        [{"arm": "none", "seed": 1, "test_accuracy": 0.5, "train_size": 4, "epochs_used": 2}],
        path,
    ),
    "style-pairs": _pairs_writer,
    "json": lambda path: _write_json(path, {"generated": 3}),
}


class TestWriteText:
    def test_writes_utf8_through_a_rename(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, "0\tcafé\n")
        write_text(path, "1\tnaïve\n")
        assert path.read_bytes() == "1\tnaïve\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("writer", ARTIFACT_WRITERS.values(), ids=ARTIFACT_WRITERS.keys())
    def test_failed_rename_keeps_the_previous_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(text.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            writer(path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

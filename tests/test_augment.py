import warnings

import numpy as np
import pytest

from maskaug.augment import (
    CHUNK_SIZE,
    AugmentationPolicy,
    _keep_top_k,
    _refill,
    SynonymTable,
    augment_dataset,
    augment_sentence,
    sample_replacement,
    synonym_augment,
    synonym_augment_dataset,
    write_augmented_tsv,
)
from maskaug.encoder import EncoderConfig, init_params, mlm_distribution
from maskaug.seeding import derive_rng
from maskaug.text import (
    CLS_ID,
    NUM_SPECIALS,
    Dataset,
    LabeledExample,
    ParseError,
    read_tsv,
    build_vocab,
)
from maskaug.training import IGNORE_ID, MaskPolicy, SkipExample, mask_tokens, maskable_positions


@pytest.fixture(scope="module")
def model():
    config = EncoderConfig(
        vocab_size=16, layers=1, hidden=8, heads=2, ff=16, max_len=10,
        num_conditions=2, dropout=0.0,
    )
    params = init_params(config, np.random.default_rng(3))
    return params, config


def example(n_words: int, label: int = 1) -> LabeledExample:
    return LabeledExample((CLS_ID,) + tuple(NUM_SPECIALS + i for i in range(n_words)), label)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentationPolicy(k=0)
        with pytest.raises(ValueError):
            AugmentationPolicy(k=(2, 1))
        with pytest.raises(ValueError):
            AugmentationPolicy(sampler="beam")
        with pytest.raises(ValueError):
            AugmentationPolicy(temperature=0.0)
        with pytest.raises(ValueError):
            AugmentationPolicy(multiplier=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("top_k", "5"), ("temperature", "hot"), ("multiplier", 1.5),
            ("k", (1, 2, 3)), ("k", (2,)), ("k", "12"), ("k", True), ("k", (1.5, 2)),
            ("k", (0, 2)), ("k", [1, 2]),
        ],
    )
    def test_ill_typed_field_raises_value_error_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            AugmentationPolicy(**{field: value})

    def test_nan_temperature_is_rejected(self):
        with pytest.raises(ValueError) as info:
            AugmentationPolicy(temperature=float("nan"))
        assert str(info.value) == "temperature must be > 0, got nan"


class TestSampleReplacement:
    def test_specials_never_sampled(self):
        probs = np.full(8, 0.125)
        policy = AugmentationPolicy(k=1, sampler="top_k", top_k=8, exclude_original=False)
        rng = np.random.default_rng(0)
        picks = {sample_replacement(probs, 5, policy, rng) for _ in range(200)}
        assert all(p >= NUM_SPECIALS for p in picks)

    def test_exclude_original_forces_change(self):
        probs = np.zeros(8)
        probs[5] = 0.9
        probs[6] = 0.1
        policy = AugmentationPolicy(k=1, sampler="greedy", exclude_original=True)
        assert sample_replacement(probs, 5, policy, None) == 6

    def test_falls_back_to_original_when_alone(self):
        probs = np.zeros(5)
        probs[4] = 1.0
        policy = AugmentationPolicy(k=1, sampler="greedy", exclude_original=True)
        assert sample_replacement(probs, 4, policy, None) == 4

    def test_top_k_restricts_support(self):
        probs = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.3, 0.15, 0.05])
        policy = AugmentationPolicy(k=1, sampler="top_k", top_k=2, exclude_original=False)
        rng = np.random.default_rng(1)
        picks = {sample_replacement(probs, 7, policy, rng) for _ in range(200)}
        assert picks <= {4, 5}

    @pytest.mark.parametrize("sampler", ["greedy", "top_k", "temperature"])
    def test_small_temperature_picks_the_top_content_id(self, sampler):
        # p ** (1/T) underflows every candidate to 0 here; tempered against the max, the top stays
        probs = np.array([0.3, 0.0, 0.0, 0.0, 0.2, 0.35, 0.1, 0.05])
        policy = AugmentationPolicy(k=1, sampler=sampler, temperature=1e-4, exclude_original=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            picks = {
                sample_replacement(probs, 4, policy, np.random.default_rng(seed))
                for seed in range(20)
            }
        assert picks == {5}


    @staticmethod
    def _stable_sort_top_k(p, k):
        keep = np.argsort(-p, kind="stable")[:k]
        kept = np.zeros_like(p)
        kept[keep] = p[keep]
        return kept

    def test_top_k_matches_stable_sort_on_random_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.random(int(rng.integers(1, 80)))
            p[rng.random(p.size) < 0.2] = 0.0
            k = int(rng.integers(1, p.size + 3))
            assert np.array_equal(_keep_top_k(p, k), self._stable_sort_top_k(p, k))

    def test_top_k_matches_stable_sort_with_ties_at_the_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            above, tied = int(rng.integers(0, 5)), int(rng.integers(2, 8))
            p = rng.permutation(
                np.concatenate([rng.uniform(0.6, 1.0, above), np.full(tied, 0.5),
                                rng.uniform(0.0, 0.4, int(rng.integers(0, 20)))])
            )
            k = above + int(rng.integers(1, tied))  # the k-th value is the tied one
            assert np.array_equal(_keep_top_k(p, k), self._stable_sort_top_k(p, k))


class TestAugmentSentence:
    def test_greedy_k1_changes_exactly_one_position(self, model):
        params, config = model
        policy = AugmentationPolicy(k=1, sampler="greedy", exclude_original=True)
        source = example(5)
        out = augment_sentence(params, config, source, policy, np.random.default_rng(0))
        diff = [i for i, (a, b) in enumerate(zip(source.tokens, out.tokens)) if a != b]
        assert len(diff) == 1
        assert out.label == source.label
        assert len(out.tokens) == len(source.tokens)

    def test_output_never_contains_specials(self, model):
        params, config = model
        policy = AugmentationPolicy(k=(1, 2), sampler="top_k", top_k=5)
        for seed in range(20):
            out = augment_sentence(
                params, config, example(6), policy, np.random.default_rng(seed)
            )
            assert all(t >= NUM_SPECIALS for t in out.tokens[1:])
            assert out.tokens[0] == CLS_ID

    def test_too_short_raises_skip(self, model):
        params, config = model
        policy = AugmentationPolicy(k=3, sampler="greedy")
        with pytest.raises(SkipExample):
            augment_sentence(params, config, example(2), policy, np.random.default_rng(0))

    def test_label_always_copied(self, model):
        params, config = model
        policy = AugmentationPolicy(k=1, sampler="top_k")
        for label in (0, 1):
            out = augment_sentence(
                params, config, example(4, label), policy, np.random.default_rng(2)
            )
            assert out.label == label

    def test_unconditional_copies_label_too(self, model):
        params, config = model
        policy = AugmentationPolicy(k=1, sampler="greedy")
        dataset = Dataset(train=[example(4, label=1)], val=[], test=[], num_labels=2)
        out, report = augment_dataset(params, config, dataset, policy, unconditional=True)
        assert report.generated == 1 and report.provenance[0][1] == "bert"
        assert out.train[1].label == 1

    def test_deterministic_under_seed(self, model):
        params, config = model
        policy = AugmentationPolicy(k=(1, 2), sampler="top_k", top_k=6)
        a = augment_sentence(params, config, example(6), policy, np.random.default_rng(11))
        b = augment_sentence(params, config, example(6), policy, np.random.default_rng(11))
        assert a == b

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_masks_the_positions_fixed_k_training_masks(self, model, k):
        # greedy with the original excluded changes every masked slot
        params, config = model
        policy = AugmentationPolicy(k=k, sampler="greedy", exclude_original=True)
        for seed in range(20):
            source = example(6)
            _, targets = mask_tokens(
                source, MaskPolicy(mode="fixed_k", k=k), config.vocab_size,
                np.random.default_rng(seed),
            )
            out = augment_sentence(params, config, source, policy, np.random.default_rng(seed))
            changed = [i for i, (a, b) in enumerate(zip(source.tokens, out.tokens)) if a != b]
            assert changed == [i for i, t in enumerate(targets) if t != IGNORE_ID]


def test_refill_bert_pick_keeps_the_label_under_condition_0(model):
    params, config = model
    policy = AugmentationPolicy(k=2, sampler="top_k", top_k=5)
    ex = example(5, label=1)
    positions = [2, 4]
    [(out, slots)] = _refill(
        params, config, policy, [(ex, np.random.default_rng(4), (positions, 0, ex.label))]
    )
    probs = mlm_distribution(params, config, ex.tokens, positions, cond_id=0)
    rng = np.random.default_rng(4)
    want = list(ex.tokens)
    for row, pos in enumerate(positions):
        want[pos] = sample_replacement(probs[row], ex.tokens[pos], policy, rng)
    assert out == LabeledExample(tuple(want), 1)
    assert slots == (2, 4)


class TestDatasetPass:
    def make_dataset(self, n=8, words=5):
        return Dataset(
            train=[example(words, label=i % 2) for i in range(n)],
            val=[], test=[], num_labels=2,
        )

    def test_counting_with_multiplier(self, model):
        params, config = model
        dataset = self.make_dataset(n=6)
        policy = AugmentationPolicy(k=1, sampler="greedy", multiplier=3, seed=0)
        out, report = augment_dataset(params, config, dataset, policy)
        assert len(out.train) == 6 * (1 + 3)
        assert report.generated == 18 and report.skipped == 0
        assert out.train[:6] == dataset.train  # originals verbatim and first

    def test_deterministic_under_seed(self, model):
        params, config = model
        dataset = self.make_dataset()
        policy = AugmentationPolicy(k=(1, 2), sampler="top_k", seed=5)
        a, _ = augment_dataset(params, config, dataset, policy)
        b, _ = augment_dataset(params, config, dataset, policy)
        assert a.train == b.train

    def test_skips_tallied(self, model):
        params, config = model
        dataset = Dataset(
            train=[example(5), example(1), example(5)], val=[], test=[], num_labels=2
        )
        policy = AugmentationPolicy(k=2, sampler="greedy", seed=0)
        out, report = augment_dataset(params, config, dataset, policy)
        assert report.skipped == 1 and report.generated == 2
        assert len(out.train) == 5

    def test_generated_length_matches_source(self, model):
        params, config = model
        dataset = self.make_dataset(n=5, words=6)
        policy = AugmentationPolicy(k=(1, 2), seed=3)
        out, report = augment_dataset(params, config, dataset, policy)
        for ex, (src, _, _) in zip(out.train[5:], report.provenance):
            assert len(ex.tokens) == len(dataset.train[src].tokens)

    def test_conditional_and_unconditional_share_mask_positions(self, model):
        params, config = model
        dataset = self.make_dataset()
        policy = AugmentationPolicy(k=(1, 2), sampler="top_k", seed=21)
        _, rep_cond = augment_dataset(params, config, dataset, policy)
        _, rep_unc = augment_dataset(params, config, dataset, policy, unconditional=True)
        assert [p for _, _, p in rep_cond.provenance] == [p for _, _, p in rep_unc.provenance]



def serial_augment(params, config, dataset, policy, unconditional):
    """The per-sentence formula the chunked pass must reproduce: one
    stream, one batch-1 cloze query and one sampler run per sentence
    (k given as a (lo, hi) range)."""
    generated, provenance, skipped = [], [], 0
    for round_no in range(1, policy.multiplier + 1):
        for idx, ex in enumerate(dataset.train):
            rng = derive_rng(policy.seed, "augment", "mlm", round_no, idx)
            candidates = maskable_positions(ex.tokens)
            lo, hi = policy.k
            k = int(rng.integers(lo, hi + 1))
            if len(candidates) < k:
                skipped += 1
                continue
            chosen = sorted(rng.choice(len(candidates), size=k, replace=False).tolist())
            positions = [candidates[i] for i in chosen]
            cond = 0 if unconditional else ex.label
            probs = mlm_distribution(params, config, ex.tokens, positions, cond)
            tokens = list(ex.tokens)
            for row, pos in enumerate(positions):
                tokens[pos] = sample_replacement(probs[row], ex.tokens[pos], policy, rng)
            generated.append(LabeledExample(tuple(tokens), ex.label))
            provenance.append((idx, "bert" if unconditional else "cbert", tuple(positions)))
    return generated, provenance, skipped


class TestChunkedPass:
    @staticmethod
    def dataset():
        # one chunk plus three rows, mixed lengths and labels; rows 5 and 9
        # sit inside the first chunk and are too short for some or all k
        words = [(i * 5) % 9 + 1 for i in range(CHUNK_SIZE + 3)]
        words[5], words[9] = 0, 1
        train = [example(n, label=(i // 2) % 2) for i, n in enumerate(words)]
        return Dataset(train=train, val=[], test=[], num_labels=2)

    @pytest.mark.parametrize("unconditional", [False, True], ids=["cbert", "bert"])
    @pytest.mark.parametrize("sampler", ["greedy", "top_k"])
    def test_matches_serial_reference(self, model, sampler, unconditional):
        params, config = model
        dataset = self.dataset()
        policy = AugmentationPolicy(k=(1, 2), sampler=sampler, top_k=5, multiplier=2, seed=13)
        out, report = augment_dataset(params, config, dataset, policy, unconditional=unconditional)
        generated, provenance, skipped = serial_augment(
            params, config, dataset, policy, unconditional
        )
        assert report.provenance == provenance
        assert out.train[len(dataset.train):] == generated
        assert report.skipped == skipped >= 2
        assert report.generated == len(generated)

    def test_sampler_skip_drops_only_its_sentence(self, model, monkeypatch):
        params, config = model
        dataset = self.dataset()
        policy = AugmentationPolicy(k=1, sampler="greedy", seed=2)
        _, full = augment_dataset(params, config, dataset, policy)
        refused_word = NUM_SPECIALS + 1
        hit = {
            idx for idx, _, (pos,) in full.provenance
            if dataset.train[idx].tokens[pos] == refused_word
        }
        assert 0 < len(hit) < full.generated
        sample = sample_replacement

        def refuse(probs, original, policy, rng):
            if original == refused_word:
                raise SkipExample("refused")
            return sample(probs, original, policy, rng)

        monkeypatch.setattr("maskaug.augment.sample_replacement", refuse)
        _, report = augment_dataset(params, config, dataset, policy)
        assert report.skipped == full.skipped + len(hit)
        assert report.provenance == [entry for entry in full.provenance if entry[0] not in hit]

class TestSynonyms:
    @pytest.fixture
    def vocab(self):
        return build_vocab([["good", "great", "fine", "film", "story", "bad"]])

    def table(self, entries):
        return SynonymTable(entries)

    def test_single_option(self, vocab):
        table = self.table({"good": ("great",)})
        ex = LabeledExample(
            (CLS_ID, vocab.id_of("good"), vocab.id_of("film")), 1
        )
        out = synonym_augment(ex, table, k=1, rng=np.random.default_rng(0), vocab=vocab)
        assert out.tokens == (CLS_ID, vocab.id_of("great"), vocab.id_of("film"))
        assert out.label == 1

    def test_uncovered_words_untouched(self, vocab):
        table = self.table({"good": ("great",)})
        ex = LabeledExample(
            (CLS_ID, vocab.id_of("good"), vocab.id_of("story"), vocab.id_of("film")), 0
        )
        out = synonym_augment(ex, table, k=3, rng=np.random.default_rng(0), vocab=vocab)
        assert out.tokens[2] == ex.tokens[2]
        assert out.tokens[3] == ex.tokens[3]

    def test_more_covered_words_than_k_change_exactly_k(self, vocab):
        table = self.table({"good": ("great", "fine"), "film": ("story",), "bad": ("fine",)})
        words = ("good", "film", "bad", "film", "good")
        ex = LabeledExample((CLS_ID, *map(vocab.id_of, words)), 1)
        for seed in range(10):
            out = synonym_augment(ex, table, k=2, rng=np.random.default_rng(seed), vocab=vocab)
            changed = [i for i, (a, b) in enumerate(zip(ex.tokens, out.tokens)) if a != b]
            assert len(changed) == 2
            for i in changed:
                assert vocab.token_of(out.tokens[i]) in table.alternatives(words[i - 1])

    def test_no_coverage_raises_skip(self, vocab):
        table = self.table({"zebra": ("horse",)})
        ex = LabeledExample((CLS_ID, vocab.id_of("film")), 0)
        with pytest.raises(SkipExample):
            synonym_augment(ex, table, k=1, rng=np.random.default_rng(0), vocab=vocab)

    def test_out_of_vocab_synonyms_never_chosen(self, vocab):
        table = self.table({"good": ("stupendous", "great")})
        ex = LabeledExample((CLS_ID, vocab.id_of("good")), 1)
        for seed in range(10):
            out = synonym_augment(ex, table, k=1, rng=np.random.default_rng(seed), vocab=vocab)
            assert out.tokens[1] == vocab.id_of("great")

    def test_uniform_choice(self, vocab):
        table = self.table({"good": ("great", "fine")})
        ex = LabeledExample((CLS_ID, vocab.id_of("good")), 1)
        rng = np.random.default_rng(4)
        counts = {vocab.id_of("great"): 0, vocab.id_of("fine"): 0}
        for _ in range(1000):
            out = synonym_augment(ex, table, k=1, rng=rng, vocab=vocab)
            counts[out.tokens[1]] += 1
        assert abs(counts[vocab.id_of("great")] - 500) <= 60

    def test_self_only_entry_rejected(self):
        with pytest.raises(ValueError):
            SynonymTable({"good": ("good",)})

    def test_load_and_parse_errors(self, tmp_path, vocab):
        path = tmp_path / "syn.tsv"
        path.write_text("# maskaug-synonyms v1\ngood\tgreat,fine\nbad\tawful\n")
        table = SynonymTable.load(path)
        assert table.alternatives("good") == ("great", "fine")
        assert table.alternatives("bad") == ("awful",)
        bad = tmp_path / "bad.tsv"
        bad.write_text("goodgreat\n")
        with pytest.raises(ParseError):
            SynonymTable.load(bad)

    def test_dataset_pass(self, vocab):
        table = self.table({"good": ("great",)})
        train = [
            LabeledExample((CLS_ID, vocab.id_of("good"), vocab.id_of("film")), 1),
            LabeledExample((CLS_ID, vocab.id_of("story")), 0),
        ]
        dataset = Dataset(train=train, val=[], test=[], num_labels=2)
        out, report = synonym_augment_dataset(dataset, table, vocab, k=1, seed=0)
        assert report.generated == 1 and report.skipped == 1
        assert len(out.train) == 3


def test_augmented_tsv_round_trip(tmp_path, model):
    params, config = model
    # vocabulary sized to the model: 4 specials + 12 content words
    vocab = build_vocab([[f"word{i}" for i in range(12)]])
    assert len(vocab) == config.vocab_size
    train = [
        LabeledExample(tuple([CLS_ID] + [NUM_SPECIALS + i for i in range(5)]), lab)
        for lab in (0, 1, 1)
    ]
    dataset = Dataset(train=train, val=[], test=[], num_labels=2)
    policy = AugmentationPolicy(k=1, sampler="greedy", seed=1)
    out, report = augment_dataset(params, config, dataset, policy)
    path = tmp_path / "augmented.tsv"
    write_augmented_tsv(path, out, len(dataset.train), report, vocab)

    lines = path.read_text().splitlines()
    assert lines[0] == "# maskaug-augmented-tsv v1"
    rows = read_tsv(path)
    assert len(rows) == len(out.train)
    assert [label for label, _ in rows[:3]] == [0, 1, 1]
    # provenance column carries the source index and augmenter name
    data_lines = [l for l in lines if not l.startswith("#")]
    fields = data_lines[3].split("\t")
    assert fields[3] == "cbert" and fields[2] == "0" and fields[4]

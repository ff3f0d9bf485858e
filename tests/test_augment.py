import warnings

import numpy as np
import pytest

from maskaug.augment import (
    CHUNK_SIZE,
    AugmentationPolicy,
    _refill,
    _top_k_ids,
    SynonymTable,
    augment_dataset,
    augment_sentence,
    sample_replacement,
    sample_replacements,
    synonym_augment,
    synonym_augment_dataset,
    write_augmented_tsv,
)
from maskaug.encoder import EncoderConfig, init_params, mlm_distribution, mlm_distributions
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
from maskaug.training import (
    IGNORE_ID, MaskPolicy, SkipExample, choose_positions, mask_tokens, maskable_positions,
)


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
        assert str(info.value) == "temperature must lie in (0, inf], got nan"


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
    def _stable_sort_ids(p, k):
        """The ids of a stable descending sort's first k entries, ascending."""
        return np.sort(np.argsort(-p, kind="stable")[:k])

    @staticmethod
    def _stable_sort_top_k(p, k):
        keep = TestSampleReplacement._stable_sort_ids(p, k)
        kept = np.zeros_like(p)
        kept[keep] = p[keep]
        return kept

    def test_top_k_matches_stable_sort_on_random_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.random(int(rng.integers(2, 80)))
            p[rng.random(p.size) < 0.2] = 0.0
            k = int(rng.integers(1, p.size))  # the sampler keeps a whole row when k >= V
            assert np.array_equal(_top_k_ids(p[None], k), self._stable_sort_ids(p, k)[None])

    def test_top_k_matches_stable_sort_with_ties_at_the_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            above, tied = int(rng.integers(0, 5)), int(rng.integers(2, 8))
            p = rng.permutation(
                np.concatenate([rng.uniform(0.6, 1.0, above), np.full(tied, 0.5),
                                rng.uniform(0.0, 0.4, int(rng.integers(0, 20)))])
            )
            k = above + int(rng.integers(1, tied))  # the k-th value is the tied one
            assert np.array_equal(_top_k_ids(p[None], k), self._stable_sort_ids(p, k)[None])

    def test_top_k_works_along_the_last_axis(self):
        rng = np.random.default_rng(6)
        for v in (2, 7, 40):
            p = np.round(rng.random((30, v)) * 3) / 3  # many ties, some rows all zero
            for k in {1, 2, 5, v - 1} & set(range(1, v)):  # k below the row length
                want = np.stack([self._stable_sort_ids(row, k) for row in p])
                assert np.array_equal(_top_k_ids(p, k), want)


def serial_row(probs, original, policy):
    """The per-row sampler's weights before normalizing: exclusions, the
    fallback to the original, temperature and, for top_k, a stable-sort
    keep-set; None when nothing has mass."""
    p = probs.astype(np.float64)
    p[:NUM_SPECIALS] = 0.0
    if policy.exclude_original:
        p[original] = 0.0
    if p.sum() <= 0.0:
        p = probs.astype(np.float64)
        p[:NUM_SPECIALS] = 0.0
    if p.sum() <= 0.0:
        return None
    if policy.temperature != 1.0:
        live = p > 0.0
        log_p = np.log(p[live])
        p[live] = np.exp((log_p - log_p.max()) / policy.temperature)
    if policy.sampler == "top_k":
        p = TestSampleReplacement._stable_sort_top_k(p, policy.top_k)
    return p


def serial_sample(probs, original, policy, rng):
    """The per-row sampler `sample_replacements` stands in for: the argmax
    of `serial_row` for greedy, else `rng.choice` over it normalized; None
    when nothing has mass."""
    p = serial_row(probs, original, policy)
    if p is None:
        return None
    if policy.sampler == "greedy":
        return int(np.argmax(p))
    p = p / p.sum()
    return int(rng.choice(p.size, p=p))


class Scripted(np.random.Generator):
    """A stream whose `random()` returns the given draws in turn;
    `Generator.choice` takes its uniform draw through that method."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = list(draws)

    def random(self, size=None, dtype=np.float64, out=None):
        return self.draws.pop(0)


def serial_slots(probs, originals, policy, rngs):
    """`serial_sample` slot by slot; a stream stops at its first skip."""
    ids, stopped = [], set()
    for row, original, rng in zip(probs, originals, rngs):
        got = None if id(rng) in stopped else serial_sample(row, original, policy, rng)
        if got is None and rng is not None:
            stopped.add(id(rng))
        ids.append(-1 if got is None else got)
    return ids


def cloze_rows(rng, n, v, top_k):
    """`n` (v,)-rows of the shapes that stress the sampler, with originals:
    smooth rows, values tied at the k-th place, rows with fewer than top_k
    positive entries, mass on the original alone, mass on the specials
    alone, and an all-zero row."""
    rows = rng.random((n, v)) ** 4
    originals = rng.integers(NUM_SPECIALS, v, n)
    for i, kind in enumerate(rng.integers(0, 6, n)):
        if kind == 1:
            rows[i] = np.round(rows[i] * 4) / 4
        elif kind == 2:
            rows[i, rng.random(v) < 1 - min(top_k, v) / (2 * v)] = 0.0
        elif kind == 3:
            rows[i, NUM_SPECIALS:] = 0.0
            rows[i, originals[i]] = rng.random()
        elif kind == 4:
            rows[i, NUM_SPECIALS:] = 0.0
        elif kind == 5:
            rows[i] = 0.0
    return rows / np.maximum(rows.sum(axis=1, keepdims=True), 1e-300), originals


class TestSampleReplacements:
    """The vectorized sampler against `serial_slots`: equal ids, equal
    skips, and every stream left in the same state."""

    @staticmethod
    def streams(seed, n):
        # slots come in sentences of one to three, each sentence on one stream
        layout = np.random.default_rng(seed).integers(1, 4, n)
        rngs = [np.random.default_rng([seed, s]) for s in range(n)]
        return [rngs[s] for s, size in enumerate(layout) for _ in range(size)][:n]

    def check(self, probs, originals, policy, seed):
        mine, theirs = self.streams(seed, len(probs)), self.streams(seed, len(probs))
        before = probs.copy()
        got = sample_replacements(probs, originals, policy, mine)
        assert np.array_equal(probs, before)  # the input is not mutated
        assert got.tolist() == serial_slots(probs, originals, policy, theirs)
        assert [r.random() for r in mine] == [r.random() for r in theirs]
        return got

    @pytest.mark.parametrize("v", [5, 6, 9, 21, 64, 300, 5000])
    @pytest.mark.parametrize("sampler, top_k, temperature", [
        ("top_k", 1, 1.0), ("top_k", 3, 1.0), ("top_k", 10, 1.0), ("top_k", 10, 0.7),
        ("top_k", 4, 1e-4), ("top_k", 5000, 1.0), ("temperature", 10, 1.0),
        ("temperature", 10, 0.7), ("temperature", 10, 1e-4), ("temperature", 10, 3.0),
        ("greedy", 10, 1.0), ("greedy", 10, 0.5),
    ])
    @pytest.mark.parametrize("exclude_original", [True, False])
    def test_matches_the_serial_sampler(self, v, sampler, top_k, temperature, exclude_original):
        policy = AugmentationPolicy(k=1, sampler=sampler, top_k=top_k,
                                    temperature=temperature, exclude_original=exclude_original)
        seed = v * 1000 + top_k
        n = 40 if v == 5000 else 150
        probs, originals = cloze_rows(np.random.default_rng(seed), n, v, top_k)
        got = self.check(probs, originals, policy, seed)
        assert (got == -1).any() and (got >= NUM_SPECIALS).any()

    def test_many_draws_match_choice(self):
        # one draw per row on smooth rows: the id and the stream after it equal rng.choice's
        rng = np.random.default_rng(8)
        for v, top_k in [(5, 2), (21, 10), (300, 10), (300, 300)]:
            for sampler in ("top_k", "temperature"):
                policy = AugmentationPolicy(k=1, sampler=sampler, top_k=top_k)
                probs = rng.random((2000, v)) ** 3
                self.check(probs, rng.integers(NUM_SPECIALS, v, 2000), policy, v)

    @pytest.mark.parametrize("v, sampler, top_k, temperature", [
        (9, "top_k", 3, 1.0), (40, "temperature", 10, 1.0), (300, "top_k", 10, 1.0),
        (300, "top_k", 10, 0.7), (300, "temperature", 10, 0.7), (5000, "top_k", 10, 1.0),
    ])
    def test_draws_on_the_cumulative_steps_pick_as_choice_does(self, v, sampler, top_k,
                                                                temperature):
        # a draw equal to a step of choice's cumulative sum, or one ulp either side of it,
        # tells apart sums that differ in the last bit and a left from a right search
        policy = AugmentationPolicy(k=1, sampler=sampler, top_k=top_k, temperature=temperature)
        rng = np.random.default_rng(v)
        rows, originals, draws = [], [], []
        for row, original in zip(rng.random((10, v)) ** 3, rng.integers(NUM_SPECIALS, v, 10)):
            p = serial_row(row, original, policy)
            cdf = np.cumsum(p / p.sum())
            cdf /= cdf[-1]
            for step in rng.choice(np.flatnonzero(p)[:-1], 3):
                for u in (np.nextafter(cdf[step], 0.0), cdf[step], np.nextafter(cdf[step], 1.0)):
                    rows.append(row), originals.append(original), draws.append(u)
        got = sample_replacements(np.array(rows), originals, policy, [Scripted([u]) for u in draws])
        want = serial_slots(rows, originals, policy, [Scripted([u]) for u in draws])
        assert got.tolist() == want
        assert len(set(want)) >= 3

    def test_a_skipped_slot_stops_only_its_stream(self):
        policy = AugmentationPolicy(k=1, sampler="top_k", top_k=3)
        probs = np.tile(np.arange(1.0, 9.0), (4, 1))
        probs[1, NUM_SPECIALS:] = 0.0  # no candidate
        shared, other = np.random.default_rng(0), np.random.default_rng(1)
        ids = sample_replacements(probs, [5, 5, 5, 5], policy, [shared, shared, shared, other])
        assert ids[1:3].tolist() == [-1, -1] and ids[0] >= NUM_SPECIALS and ids[3] >= NUM_SPECIALS
        reference = np.random.default_rng(0)
        reference.random()  # slot 0 drew, slot 2 did not
        assert shared.random() == reference.random()

    def test_greedy_takes_no_stream(self):
        policy = AugmentationPolicy(k=1, sampler="greedy", exclude_original=True)
        probs = np.array([[0.0, 0.0, 0.0, 0.0, 0.5, 0.2, 0.3], [0.1, 0.1, 0.2, 0.1, 0.5, 0.0, 0.0]])
        assert sample_replacements(probs, [4, 4], policy, [None, None]).tolist() == [6, 4]

    @pytest.mark.parametrize("sampler", ["greedy", "top_k", "temperature"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_row_raises(self, sampler, bad):
        policy = AugmentationPolicy(k=1, sampler=sampler, temperature=0.5)
        probs = np.full((3, 9), 1 / 9)
        probs[1, 6] = bad
        with pytest.raises(ValueError, match="row 1 holds NaN or inf"):
            sample_replacements(probs, [5, 5, 5], policy, [np.random.default_rng(0)] * 3)
        with pytest.raises(ValueError, match="NaN or inf"):
            sample_replacement(probs[1], 5, policy, np.random.default_rng(0))


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


def test_a_skipped_slot_leaves_the_stream_as_the_serial_sampler_did(model, monkeypatch):
    params, config = model
    policy = AugmentationPolicy(k=3, sampler="top_k", top_k=5)
    source = example(6)

    def cloze(params, config, queries):
        [(_, positions, _)] = queries
        probs = np.full((len(positions), config.vocab_size), 1.0 / config.vocab_size)
        probs[1, NUM_SPECIALS:] = 0.0  # the second slot has no candidate
        return probs

    monkeypatch.setattr("maskaug.augment.mlm_distributions", cloze)
    rng = np.random.default_rng(5)
    with pytest.raises(SkipExample, match="no candidate tokens outside the specials"):
        augment_sentence(params, config, source, policy, rng)
    reference = np.random.default_rng(5)
    choose_positions(source.tokens, 3, reference)
    reference.random()  # the first slot's draw; the skipped second stops the third
    assert rng.random() == reference.random()


def test_refill_bert_pick_keeps_the_label_under_condition_0(model):
    params, config = model
    policy = AugmentationPolicy(k=2, sampler="top_k", top_k=5)
    ex = example(5, label=1)
    positions = [2, 4]
    [(out, slots)] = _refill(
        params, config, policy, [(ex, np.random.default_rng(4), (positions, 0))]
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

    def test_a_pass_with_nothing_to_refill_makes_no_encoder_call(self, model, monkeypatch):
        params, config = model
        calls = []
        monkeypatch.setattr("maskaug.augment.mlm_distributions", lambda *args: calls.append(args))
        dataset = self.make_dataset(n=4, words=1)
        policy = AugmentationPolicy(k=2, sampler="greedy", multiplier=2, seed=0)
        out, report = augment_dataset(params, config, dataset, policy)
        assert report.skipped == 8 and report.generated == 0 and report.provenance == []
        assert out.train == dataset.train
        assert _refill(params, config, policy, []) == []
        assert calls == []

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


def recording_cloze(monkeypatch):
    """Patch the refill's encoder call to record each chunk's queries."""
    chunks = []

    def cloze(params, config, queries):
        chunks.append(list(queries))
        return mlm_distributions(params, config, queries)

    monkeypatch.setattr("maskaug.augment.mlm_distributions", cloze)
    return chunks


class TestChunkedPass:
    @staticmethod
    def dataset():
        # one chunk plus three rows, mixed lengths and labels; rows 5 and 9
        # sit inside the first chunk and are too short for some or all k
        words = [(i * 5) % 9 + 1 for i in range(CHUNK_SIZE + 3)]
        words[5], words[9] = 0, 1
        train = [example(n, label=(i // 2) % 2) for i, n in enumerate(words)]
        return Dataset(train=train, val=[], test=[], num_labels=2)

    @staticmethod
    def descending():
        # three chunks of rows whose lengths fall from 9 words to 1: length
        # order reverses the rows, so every chunk holds other sentences than
        # a cut in dataset order would
        n = 2 * CHUNK_SIZE + 6
        train = [example(9 - 9 * i // n, label=(i // 3) % 2) for i in range(n)]
        return Dataset(train=train, val=[], test=[], num_labels=2)

    @pytest.mark.parametrize("rows", ["mixed", "descending"])
    @pytest.mark.parametrize("unconditional", [False, True], ids=["cbert", "bert"])
    @pytest.mark.parametrize("sampler", ["greedy", "top_k"])
    def test_matches_serial_reference(self, model, sampler, unconditional, rows, monkeypatch):
        params, config = model
        dataset = self.dataset() if rows == "mixed" else self.descending()
        policy = AugmentationPolicy(k=(1, 2), sampler=sampler, top_k=5, multiplier=2, seed=13)
        generated, provenance, skipped = serial_augment(
            params, config, dataset, policy, unconditional
        )
        chunks = recording_cloze(monkeypatch)
        starts = []  # each round's first chunk: rounds may cut different numbers of chunks
        monkeypatch.setattr(
            "maskaug.augment._refill", lambda *args: starts.append(len(chunks)) or _refill(*args)
        )
        out, report = augment_dataset(params, config, dataset, policy, unconditional=unconditional)
        assert report.provenance == provenance
        assert out.train[len(dataset.train):] == generated
        assert report.skipped == skipped >= 2
        assert report.generated == len(generated)
        # each round's chunks run shortest first
        assert len(starts) == policy.multiplier
        for start, stop in zip(starts, starts[1:] + [len(chunks)]):
            lengths = [len(q[0]) for chunk in chunks[start:stop] for q in chunk]
            assert lengths == sorted(lengths)

    def test_chunks_hold_the_shortest_remaining_picks_and_outcomes_keep_pick_order(
        self, model, monkeypatch
    ):
        params, config = model
        dataset = self.descending()
        policy = AugmentationPolicy(k=1, sampler="top_k", top_k=5)
        # shuffled, so rows of equal length must keep pick order, not dataset order
        order = np.random.default_rng(0).permutation(len(dataset.train)).tolist()

        def picks():  # one pick per row, in `order`, each on a fresh stream of its own
            fresh = []
            for idx in order:
                ex, rng = dataset.train[idx], derive_rng(4, "test", idx)
                fresh.append((ex, rng, (choose_positions(ex.tokens, 1, rng), ex.label)))
            return fresh

        alone = [_refill(params, config, policy, [pick]) for pick in picks()]
        chunks = recording_cloze(monkeypatch)
        chunked = picks()
        outcomes = _refill(params, config, policy, chunked)
        by_length = sorted(chunked, key=lambda pick: len(pick[0].tokens))
        want = [(ex.tokens, positions, cond) for ex, _, (positions, cond) in by_length]
        assert [len(chunk) for chunk in chunks] == [CHUNK_SIZE, CHUNK_SIZE, 6]
        assert [query for chunk in chunks for query in chunk] == want
        assert chunks[0] != [(ex.tokens, *drawn) for ex, _, drawn in chunked[:CHUNK_SIZE]]
        assert outcomes == [outcome for [outcome] in alone]

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
        sample = sample_replacements

        def refuse(probs, originals, policy, rngs):
            ids = sample(probs, originals, policy, rngs)
            return np.where(np.asarray(originals) == refused_word, -1, ids)

        monkeypatch.setattr("maskaug.augment.sample_replacements", refuse)
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

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            SynonymTable({"good": ("great",), "": ("fine",)})

    @pytest.mark.parametrize("text, line, message", [
        ("good\tgreat\nbad\tbad\n", 2, "synonym entry for 'bad' offers no alternative to itself"),
        ("good\tgreat\n\ngood\tfine\n", 3, "'good' is listed twice"),
        ("good\tgreat\n \tfine\n", 2, "expected 'word<TAB>syn1,syn2,...'"),
    ], ids=["self-only", "listed-twice", "empty-word"])
    def test_load_names_the_line_of_a_bad_entry(self, tmp_path, text, line, message):
        path = tmp_path / "syn.tsv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            SynonymTable.load(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_load_drops_the_word_from_its_own_row(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("good\tgood,great\n")
        assert SynonymTable.load(path).alternatives("good") == ("great",)

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
        out, report = synonym_augment_dataset(dataset, table, vocab, AugmentationPolicy(k=1))
        assert report.generated == 1 and report.skipped == 1
        assert len(out.train) == 3

    TABLE = {"good": ("great", "fine"), "film": ("story",), "bad": ("fine",)}

    def sentences(self, vocab, n):
        """n shuffles of three table-covered words and one uncovered word."""
        rng = np.random.default_rng(0)
        words = ("good", "film", "bad", "story")
        return [LabeledExample((CLS_ID, *map(vocab.id_of, rng.permutation(words))), i % 2)
                for i in range(n)]

    @pytest.mark.parametrize("override", [False, True])
    def test_int_k_pass_is_synonym_augment_on_each_stream(self, vocab, override):
        train = self.sentences(vocab, 12)
        dataset = Dataset(train=train, val=[], test=[], num_labels=2)
        policy = AugmentationPolicy(k=2, multiplier=2, seed=0 if override else 5)
        out, report = synonym_augment_dataset(dataset, self.table(self.TABLE), vocab, policy,
                                              seed=5 if override else None)
        expected = [synonym_augment(ex, self.table(self.TABLE), 2,
                                    derive_rng(5, "augment", "synonym", round_no, idx), vocab)
                    for round_no in (1, 2) for idx, ex in enumerate(train)]
        assert report.skipped == 0
        assert out.train == train + expected
        assert [src for src, _, _ in report.provenance] == list(range(12)) * 2

    def test_k_range_is_drawn_per_sentence(self, vocab):
        train = self.sentences(vocab, 40)
        dataset = Dataset(train=train, val=[], test=[], num_labels=2)
        policy = AugmentationPolicy(k=(1, 2), multiplier=2, seed=3)
        out, report = synonym_augment_dataset(dataset, self.table(self.TABLE), vocab, policy)
        assert report.generated == 80 and report.skipped == 0
        widths = [len(positions) for _, _, positions in report.provenance]
        assert set(widths) == {1, 2}
        for ex, (src, _, positions) in zip(out.train[40:], report.provenance):
            changed = [i for i, (a, b) in enumerate(zip(train[src].tokens, ex.tokens)) if a != b]
            assert changed == list(positions)


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

"""Greedy decoding, checked against a plain reference search, and word error rate."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmu.decode import (
    decode_dataset,
    greedy_decode_ctc,
    greedy_decode_transducer,
)
from pmu.data import Utterance
from pmu.errors import InputError
from pmu.metrics import WerReport, wer, wer_corpus
from pmu.model import (
    ConformerTransducer,
    EncoderConfig,
    ModelConfig,
    PMUConfig,
    joint,
    label_encoder_forward,
)
from pmu.tokenizers import build_vocab


def tiny_model(seed=0, vocab=5):
    enc = EncoderConfig(num_layers=2, attention_dim=8, ff_dim=16, heads=2,
                        conv_kernel=3, dropout=0.0)
    cfg = ModelConfig(encoder=enc, input_dim=6, lstm_dim=8, joint_dim=8,
                      subsample_channels=2, vocab={"bpe": vocab})
    return ConformerTransducer(cfg, PMUConfig(variant="baseline"), seed=seed)


def emissions_for_path(path, vocab=4):
    """One-hot-ish emission matrix whose frame argmaxes trace `path`."""
    em = np.full((len(path), vocab), -5.0)
    for t, k in enumerate(path):
        em[t, k] = 0.0
    return em


class TestCtcCollapse:
    def test_adjacent_repeats_collapse(self):
        assert greedy_decode_ctc(emissions_for_path([1, 1, 0, 2])) == [1, 2]

    def test_blank_separates_true_repeats(self):
        assert greedy_decode_ctc(emissions_for_path([1, 0, 1, 2])) == [1, 1, 2]

    def test_all_blank_is_empty(self):
        assert greedy_decode_ctc(emissions_for_path([0, 0, 0])) == []

    def test_leading_and_trailing_blanks_dropped(self):
        assert greedy_decode_ctc(emissions_for_path([0, 3, 3, 0])) == [3]

    def test_fuzz_against_groupby(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            T = int(rng.integers(1, 12))
            path = rng.integers(0, 4, size=T).tolist()
            want = [k for k, _ in itertools.groupby(path) if k != 0]
            got = greedy_decode_ctc(emissions_for_path(path))
            assert got == want, path

    def test_custom_blank_id(self):
        em = emissions_for_path([3, 1, 3, 1])
        assert greedy_decode_ctc(em, blank_id=3) == [1, 1]


class TestTransducerGreedy:
    def test_blank_dominant_model_emits_nothing(self):
        model = tiny_model()
        model.params.get("joint/out_b").value[0] = 50.0
        out = greedy_decode_transducer(model, np.zeros((8, 6)))
        assert out == []

    def test_per_frame_cap_bounds_the_output(self):
        model = tiny_model()
        # bias the joint so some label always beats blank
        model.params.get("joint/out_b").value[2] = 50.0
        out = greedy_decode_transducer(model, np.zeros((8, 6)),
                                       max_symbols_per_frame=3)
        assert out == [2] * (2 * 3)  # T' = ceil(8/4) = 2 frames, cap 3

    def test_cap_must_be_positive(self):
        with pytest.raises(InputError, match=">= 1"):
            greedy_decode_transducer(tiny_model(), np.zeros((8, 6)),
                                     max_symbols_per_frame=0)

    def test_emits_then_stops_on_blank(self):
        """With an unbiased random model the output stays within the hard
        bound and every emitted id is a real unit."""
        model = tiny_model(seed=5)
        rng = np.random.default_rng(1)
        for trial in range(5):
            x = rng.normal(size=(int(rng.integers(4, 20)), 6))
            out = greedy_decode_transducer(model, x, max_symbols_per_frame=4)
            t_prime = math.ceil(x.shape[0] / 4)
            assert len(out) <= 4 * t_prime
            assert all(1 <= k < 5 for k in out)

    def test_decode_dataset_returns_text_for_every_id(self):
        model = tiny_model(seed=6)
        vocab = build_vocab(["ab_", "c_", "d"], word_end_marker="_")
        assert len(vocab) == 5
        utts = [Utterance(id="u1", features=np.zeros((8, 6)), transcript="x"),
                Utterance(id="u2", features=np.ones((12, 6)), transcript="y")]
        hyps = decode_dataset(model, utts, vocab)
        assert sorted(hyps) == ["u1", "u2"]
        assert all(isinstance(v, str) for v in hyps.values())


def reference_greedy(model, x, max_symbols_per_frame, blank_id=0):
    """Frame-synchronous greedy search written out plainly: at every (t, u)
    score one joint cell, with the label state read from the last row of
    label_encoder_forward over the hypothesis so far."""
    h_t = model.encode(x)[0].value
    out = []
    for t in range(h_t.shape[0]):
        for _ in range(max_symbols_per_frame):
            h_u = label_encoder_forward(out, model.params).value[-1:]
            ht_wt = h_t[t:t + 1] @ model.params.get("joint/wt").value
            k = int(joint(ht_wt, h_u, model.params)[1][0, 0].argmax())
            if k == blank_id:
                break
            out.append(k)
    return out


class TestAgainstReferenceSearch:
    # (blank bias in joint/out_b, scale of joint/wu): unbiased;
    # blank-dominant, so emissions are sparse and the search jumps frames;
    # label-biased, so most frames fill their cap; and label-state-driven,
    # where an emission often turns the next cell to blank and leaves a
    # frame part-filled before a jump
    CASES = {"unbiased": (0.0, 1.0), "blank-dominant": (0.6, 1.0),
             "label-biased": (-3.0, 1.0), "label-state-driven": (0.0, 10.0)}

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_greedy_equals_reference(self, cap, case):
        blank_bias, wu_scale = self.CASES[case]
        rng = np.random.default_rng(cap)
        emitted = 0
        for seed in range(4):
            model = tiny_model(seed=seed)
            model.params.get("joint/out_b").value[0] = blank_bias
            model.params.get("joint/wu").value[...] *= wu_scale
            for _ in range(3):
                x = rng.normal(size=(int(rng.integers(1, 40)), 6))
                want = reference_greedy(model, x, cap)
                assert greedy_decode_transducer(model, x, cap) == want
                emitted += len(want)
        assert emitted > 0


WORDS = st.sampled_from(["a", "b", "c", "d"])


def levenshtein(a: list, b: list) -> int:
    """Unit-cost edit distance, one row at a time."""
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1,
                                       prev + (x != y))
    return row[-1]


class TestWer:
    def test_exact_match(self):
        r = wer("a b c", "a b c")
        assert r.wer == 0.0 and r.ref_words == 3
        assert (r.substitutions, r.insertions, r.deletions) == (0, 0, 0)

    def test_single_substitution(self):
        r = wer("a b c", "a x c")
        assert (r.substitutions, r.insertions, r.deletions) == (1, 0, 0)
        assert r.wer == pytest.approx(1 / 3)

    def test_empty_hypothesis_is_all_deletions(self):
        r = wer("a b", "")
        assert (r.substitutions, r.insertions, r.deletions) == (0, 0, 2)
        assert r.wer == 1.0

    def test_empty_reference_is_undefined(self):
        r = wer("", "a")
        assert r.undefined
        assert r.insertions == 1
        assert "undefined" in r.format()

    def test_insertion(self):
        r = wer("a b", "a x b")
        assert (r.substitutions, r.insertions, r.deletions) == (0, 1, 0)
        assert r.wer == pytest.approx(0.5)

    def test_mixed_errors(self):
        r = wer("a b c d", "x b d")
        assert (r.substitutions, r.deletions) == (1, 1)
        assert r.insertions == 0
        assert r.wer == pytest.approx(0.5)

    def test_normalization_before_alignment(self):
        r = wer("Hello,  WORLD!", "hello world")
        assert r.wer == 0.0
        assert r.ref_words == 2

    def test_wer_can_exceed_one(self):
        r = wer("a", "x y z")
        assert r.wer == pytest.approx(3.0)  # 1 sub + 2 ins over 1 ref word

    def test_tied_alignments_resolve_deterministically(self):
        first = wer("a b", "b")
        for _ in range(5):
            again = wer("a b", "b")
            assert (again.substitutions, again.insertions,
                    again.deletions) == (first.substitutions,
                                         first.insertions, first.deletions)
        assert first.deletions == 1 and first.substitutions == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WORDS, max_size=9), st.lists(WORDS, max_size=9))
    def test_counts_obey_edit_distance_laws(self, ref, hyp):
        r = wer(" ".join(ref), " ".join(hyp))
        s, i, d = r.substitutions, r.insertions, r.deletions
        assert s + i + d == levenshtein(ref, hyp)
        assert s + d <= len(ref) == r.ref_words
        assert i - d == len(hyp) - len(ref)
        same = wer(" ".join(ref), " ".join(ref))
        assert same.wer == 0.0
        assert (same.substitutions, same.insertions, same.deletions) == (0, 0, 0)


class TestWerAggregation:
    def test_report_addition_sums_counts(self):
        a = WerReport(substitutions=1, insertions=0, deletions=0,
                      ref_words=3, wer=1 / 3)
        b = WerReport(substitutions=0, insertions=0, deletions=1,
                      ref_words=1, wer=1.0)
        c = a + b
        assert c.ref_words == 4
        assert c.wer == pytest.approx(0.5)

    def test_corpus_wer_is_count_ratio_not_mean(self):
        report = wer_corpus([("a b c", "a x c"), ("d", "")])
        # 1 sub + 1 del over 4 reference words, not mean(1/3, 1)
        assert report.wer == pytest.approx(0.5)
        assert not report.undefined

    def test_corpus_of_empty_refs_is_undefined(self):
        report = wer_corpus([("", "a"), ("", "")])
        assert report.undefined

    def test_format_line(self):
        r = WerReport(substitutions=1, insertions=2, deletions=3,
                      ref_words=12, wer=0.5)
        assert r.format() == "WER 50.00%  S=1 I=2 D=3 N=12"

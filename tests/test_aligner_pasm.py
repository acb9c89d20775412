"""Letter-phoneme EM aligner and pronunciation-derived unit extraction."""

from collections import defaultdict

import numpy as np
import pytest

from pmu.errors import FormatError, InputError
from pmu.synth import DEFAULT_WORDS, micro_lexicon
from pmu.tokenizers import (
    SPACE,
    Lexicon,
    align_lexicon,
    encode_pasm,
    extract_pasm,
    load_pasm,
    save_pasm,
    train_pasm,
    viterbi_align,
)
from pmu.tokenizers.pasm import consistent_spans, segment_word


def lex(entries: dict) -> Lexicon:
    out = Lexicon()
    for word, phones in entries.items():
        out.add(word, phones)
    return out


def random_lexicon(rng, n_words=8) -> Lexicon:
    letters = "abcdefgh"
    phones = ["AA", "BB", "CC", "DD", "EE"]
    out = Lexicon()
    seen = set()
    while len(seen) < n_words:
        word = "".join(rng.choice(list(letters), size=rng.integers(1, 6)))
        if word in seen:
            continue
        seen.add(word)
        out.add(word.upper(),
                list(rng.choice(phones, size=rng.integers(1, 5))))
    return out


class TestAligner:
    def test_single_link_saturates_in_one_iteration(self):
        table = align_lexicon(lex({"A": ["AH"]}), 1)
        assert table.prob("a", "AH") == pytest.approx(1.0)

    def test_two_word_lexicon_probabilities_sharpen(self):
        lx = lex({"A": ["AH"], "AB": ["AH", "B"]})
        # the shared letter saturates quickly; the rarer letter later
        assert align_lexicon(lx, 5).prob("a", "AH") >= 0.9
        t5 = align_lexicon(lx, 5).prob("b", "B")
        t8 = align_lexicon(lx, 8).prob("b", "B")
        t20 = align_lexicon(lx, 20).prob("b", "B")
        assert t8 >= 0.9
        assert t5 < t8 < t20 <= 1.0

    def test_likelihood_monotone_on_random_lexicons(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            table = align_lexicon(random_lexicon(rng), 12)
            lls = table.likelihoods
            assert len(lls) == 12
            for a, b in zip(lls, lls[1:]):
                assert b >= a - 1e-12

    def test_rows_normalized_after_training(self):
        rng = np.random.default_rng(12)
        table = align_lexicon(random_lexicon(rng), 6)
        sums = defaultdict(float)
        for (letter, _), p in table.t_prob.items():
            sums[letter] += p
        assert sums
        for letter, total in sums.items():
            assert total == pytest.approx(1.0, abs=1e-9), letter

    def test_empty_lexicon_rejected(self):
        with pytest.raises(InputError):
            align_lexicon(Lexicon(), 3)

    def test_viterbi_prefers_leftmost_on_ties(self):
        table = align_lexicon(lex({"AA": ["AH"]}), 3)
        # both letters have identical distributions; argmax takes the first
        assert viterbi_align(table, list("aa"), ["AH"]) == [0]


class TestConsistentSpans:
    # alignment[j] is the letter index that phoneme j maps to
    def test_span_covering_all_phonemes(self):
        # one phoneme on letter 0: "s" and "sh" consistent, "h" aligns nothing
        spans = consistent_spans("sh", [0])
        assert spans == {"s", "sh"}

    def test_noncontiguous_phoneme_group_excluded(self):
        # letter a carries phonemes {0, 2}, letter b carries {1}: the lone
        # "a" span skips phoneme 1, so it is not a consistent unit
        spans = consistent_spans("ab", [0, 1, 0])
        assert "a" not in spans
        assert "b" in spans
        assert "ab" in spans

    def test_empty_alignment_yields_no_spans(self):
        spans = consistent_spans("abc", [0, 2])
        assert "b" not in spans  # letter b aligns no phoneme
        assert {"a", "c", "ab", "bc", "abc"} <= spans


class TestExtraction:
    def test_trivial_single_letter_lexicon(self):
        table = align_lexicon(lex({"A": ["AH"]}), 2)
        model = extract_pasm(table, lex({"A": ["AH"]}), ["a"], 1, 8)
        assert "a" in model.inventory
        assert segment_word(model, "a") == ["a"]
        assert model.status == "ok"

    def test_two_letter_unit_mined(self):
        lx = lex({"SH": ["SH"]})
        table = align_lexicon(lx, 3)
        model = extract_pasm(table, lx, ["sh sh sh"], 1, 8)
        assert "sh" in model.inventory
        assert segment_word(model, "sh") == ["sh"]

    def test_greedy_longest_match(self):
        lx = lex({"AB": ["AH"], "C": ["CC"]})
        table = align_lexicon(lx, 3)
        model = extract_pasm(table, lx, ["ab ab c"], 1, 10)
        assert "ab" in model.inventory
        assert segment_word(model, "ab") == ["ab"]
        assert segment_word(model, "abc") == ["ab", "c"]
        assert segment_word(model, "ba") == ["b", "a"]

    def test_concatenation_law_on_toy_lexicon(self):
        lx = micro_lexicon(DEFAULT_WORDS)
        table = align_lexicon(lx, 5)
        corpus = [" ".join(DEFAULT_WORDS)] * 3
        model = extract_pasm(table, lx, corpus, 1, 24)
        for word in DEFAULT_WORDS:
            assert "".join(segment_word(model, word)) == word

    def test_char_fallback_when_budget_too_small(self):
        lx = micro_lexicon(DEFAULT_WORDS)
        table = align_lexicon(lx, 3)
        model = extract_pasm(table, lx, [" ".join(DEFAULT_WORDS)], 1, 2)
        assert model.status == "char_fallback"
        # all single characters survive as back-off
        chars = {c for w in DEFAULT_WORDS for c in w}
        assert chars <= set(model.inventory)

    def test_min_count_filters_rare_units(self):
        lx = lex({"AB": ["AH", "B"]})
        table = align_lexicon(lx, 5)
        rare = extract_pasm(table, lx, ["ab"], 5, 10)
        assert all(len(u) == 1 for u in rare.inventory)

    def test_inventory_budget_respected(self):
        lx = micro_lexicon(DEFAULT_WORDS)
        table = align_lexicon(lx, 5)
        model = extract_pasm(table, lx, [" ".join(DEFAULT_WORDS)] * 4, 1, 12)
        assert len(model.inventory) <= 12


class TestEncoding:
    @pytest.fixture()
    def model(self):
        lx = micro_lexicon(DEFAULT_WORDS)
        return train_pasm([" ".join(DEFAULT_WORDS)] * 3, lx, 5, 1, 24)

    def test_words_joined_by_space_unit(self, model):
        enc = encode_pasm(model, "bad cab")
        sep = model.vocab.id_of[SPACE]
        assert sep in enc.ids
        left = enc.units[:enc.units.index(SPACE)]
        assert "".join(left) == "bad"

    def test_unknown_character_encodes_to_unk(self, model):
        enc = encode_pasm(model, "zzz")
        assert enc.unk_count == 3
        assert all(i == model.vocab.unk_id for i in enc.ids)

    def test_save_load_round_trip(self, model, tmp_path):
        path = tmp_path / "pasm.txt"
        save_pasm(model, str(path))
        loaded = load_pasm(str(path))
        assert loaded.inventory == model.inventory
        assert loaded.vocab.units == model.vocab.units
        assert loaded.status == model.status
        assert segment_word(loaded, "bead") == segment_word(model, "bead")

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("pmu-pasm v2\nstatus ok\nunit a 3\n")
        with pytest.raises(FormatError):
            load_pasm(str(path))

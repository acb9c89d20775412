"""Config files, feature/manifest formats, and the synthetic dataset."""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from pmu.config import (
    DataConfig,
    Experiment,
    TrainConfig,
    load_config,
    parse_config_text,
)
from pmu.data import (
    MAGIC,
    load_features,
    load_manifest,
    save_features,
    write_manifest,
)
from pmu.errors import FormatError, InputError
from pmu.model import EncoderConfig, head_specs, validate_configs
from pmu.synth import (
    DEFAULT_WORDS,
    ToySpec,
    materialize,
    micro_lexicon,
    parse_toy_spec,
    split_dataset,
    synth_toy_dataset,
    word_stencils,
)

GOOD_CFG = """
# comment line
[model]
num_layers = 2
attention_dim = 8
heads = 2
ff_dim = 16
conv_kernel = 3
dropout = 0.0
input_dim = 6

[pmu]
variant = para_ctc
alpha = 0.7

[train]
base_lr = 0.5
max_steps = 50

[data]
train_manifest = toy/train.tsv
"""



def load_text(tmp_path, text, name="exp.cfg"):
    """load_config of `text` written to tmp_path/name."""
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return load_config(str(p))


class TestConfigParsing:
    def test_happy_path(self):
        table = parse_config_text(GOOD_CFG.splitlines())
        assert table["model"]["num_layers"] == "2"
        assert table["pmu"]["variant"] == "para_ctc"
        assert table["data"]["train_manifest"] == "toy/train.tsv"

    def test_syntax_errors_all_reported(self):
        text = "[nosuch]\nx = 1\n[model]\nnot a pair\n[model]\nnum_layers = 2\nnum_layers = 3\n"
        with pytest.raises(InputError) as exc:
            parse_config_text(text.splitlines(), path="f.cfg")
        msg = str(exc.value)
        assert "f.cfg:1: unknown section [nosuch]" in msg
        assert "f.cfg:2: key outside any section" in msg
        assert "f.cfg:4: expected `key = value`" in msg
        assert "f.cfg:7: duplicate key 'num_layers'" in msg

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(InputError, match="unknown key 'frobnicate'"):
            load_text(tmp_path, "[train]\nfrobnicate = 1\n")

    def test_bad_value_rejected_with_context(self, tmp_path):
        with pytest.raises(InputError, match=r"\[train\] base_lr"):
            load_text(tmp_path, "[train]\nbase_lr = fast\n")

    def test_bool_coercion(self, tmp_path):
        pca = "[model]\nnum_layers = 2\n[pmu]\nvariant = pca_ctc\nn1 = 1\nn3 = 1\n"
        exp = load_text(tmp_path, pca + "sc_enabled = true\n")
        assert exp.pmu.sc_enabled is True
        exp = load_text(tmp_path, pca + "sc_enabled = off\n")
        assert exp.pmu.sc_enabled is False
        with pytest.raises(InputError, match="not a boolean"):
            load_text(tmp_path, "[pmu]\nsc_enabled = maybe\n")

    def test_semantic_errors_carry_path(self, tmp_path):
        with pytest.raises(InputError, match="bad.cfg: .*max_steps"):
            load_text(tmp_path, "[train]\nmax_steps = -5\n", "bad.cfg")

    def test_infinite_clip_norm_means_never_clip(self, tmp_path):
        exp = load_text(tmp_path, "[train]\ngrad_clip_norm = inf\n")
        assert exp.train.grad_clip_norm == math.inf

    def test_defaults_from_empty_text(self, tmp_path):
        exp = load_text(tmp_path, "")
        assert isinstance(exp, Experiment)
        assert exp.train == TrainConfig()
        assert exp.data == DataConfig()
        assert exp.pmu.variant == "baseline"

    def test_every_config_problem_reported_at_once(self, tmp_path):
        text = ("[model]\nnum_layers = 0\nconv_kernel = 4\ninput_dim = 0\n"
                "[pmu]\nvariant = bogus\n")
        with pytest.raises(InputError) as exc:
            load_text(tmp_path, text, "bad.cfg")
        msg = str(exc.value)
        for problem in ("num_layers must be >= 1", "conv_kernel must be odd",
                        "input_dim must be >= 1", "variant must be one of"):
            assert problem in msg

    def test_layer_sum_reported_with_the_other_problems(self, tmp_path):
        text = ("[model]\nnum_layers = 2\n"
                "[pmu]\nvariant = pca_ctc\nn1 = 1\nn3 = 2\n"
                "[train]\nmax_steps = -5\nbatch_size = many\n")
        with pytest.raises(InputError) as exc:
            load_text(tmp_path, text, "bad.cfg")
        msg = str(exc.value)
        for problem in ("bad.cfg: n1+n2+n3 = 3 != num_layers = 2",
                        "bad.cfg: max_steps must be positive",
                        "bad.cfg: [train] batch_size: invalid literal"):
            assert problem in msg

    def test_variant_alone_fixes_the_ctc_units(self, tmp_path):
        exp = load_text(tmp_path, "[pmu]\nvariant = basic_pmu\n")
        exp.model.vocab = {"pasm": 4, "bpe": 5}
        validate_configs(exp.model, exp.pmu)
        assert [s.units for s in head_specs(exp.pmu)] == ["pasm"]

    def test_subsampling_is_a_constant(self):
        assert "subsample_factor" not in [f.name for f in fields(EncoderConfig)]
        assert EncoderConfig().subsample_factor == 4

    def test_full_round_trip_through_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(GOOD_CFG, encoding="utf-8")
        exp = load_config(str(p))
        assert exp.model.encoder.num_layers == 2
        assert exp.model.input_dim == 6
        assert exp.pmu.alpha == 0.7
        assert exp.train.base_lr == 0.5
        assert exp.data.train_manifest == "toy/train.tsv"

    def test_bundled_presets_load(self):
        import pmu
        import os
        pre = os.path.join(os.path.dirname(pmu.__file__), "presets")
        toy = load_config(os.path.join(pre, "toy-desk.cfg"))
        assert toy.pmu.variant == "para_ctc"
        paper = load_config(os.path.join(pre, "paper-libri.cfg"))
        assert paper.pmu.variant == "pca_ctc"
        assert paper.model.encoder.num_layers == 12
        assert (paper.pmu.n1, paper.pmu.n2, paper.pmu.n3) == (4, 4, 4)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        p = str(tmp_path / "a.pmuf")
        feats = np.random.default_rng(0).normal(size=(7, 3))
        save_features(p, feats)
        back = load_features(p)
        np.testing.assert_array_equal(back, feats.astype("<f4").astype(np.float64))
        assert back.dtype == np.float64

    def test_rejects_bad_shapes_and_values(self, tmp_path):
        p = str(tmp_path / "bad.pmuf")
        with pytest.raises(InputError, match="matrix"):
            save_features(p, np.zeros(5))
        with pytest.raises(InputError, match="matrix"):
            save_features(p, np.zeros((0, 4)))
        with pytest.raises(InputError, match="non-finite"):
            save_features(p, np.array([[1.0, np.inf]]))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.pmuf"
        p.write_bytes(b"JUNK" + b"\0" * 12)
        with pytest.raises(FormatError, match="bad magic.*at byte 0"):
            load_features(str(p))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.pmuf"
        p.write_bytes(MAGIC + b"\0" * 4)
        with pytest.raises(FormatError, match="truncated header"):
            load_features(str(p))

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "x.pmuf"
        p.write_bytes(MAGIC + struct.pack("<III", 9, 1, 1) + b"\0" * 4)
        with pytest.raises(FormatError, match="version 9 at byte 4"):
            load_features(str(p))

    def test_payload_length_mismatch_reports_offsets(self, tmp_path):
        p = str(tmp_path / "x.pmuf")
        save_features(p, np.ones((2, 3)))
        blob = open(p, "rb").read()
        with open(p, "wb") as fh:
            fh.write(blob[:-4])
        with pytest.raises(FormatError,
                           match=r"ends at byte 36, expected 40.*\(2, 3\)"):
            load_features(p)


class TestManifests:
    def write_set(self, tmp_path, entries):
        for utt_id, rel, _ in entries:
            save_features(str(tmp_path / rel),
                          np.full((4, 2), float(len(utt_id))))
        mpath = str(tmp_path / "set.tsv")
        write_manifest(mpath, entries)
        return mpath

    def test_round_trip_with_relative_paths(self, tmp_path):
        m = self.write_set(tmp_path, [("u1", "a.pmuf", "bad cab"),
                                      ("u2", "b.pmuf", "ace")])
        utts = load_manifest(m)
        assert [u.id for u in utts] == ["u1", "u2"]
        assert utts[0].transcript == "bad cab"
        assert utts[0].features.shape == (4, 2)

    def test_without_features(self, tmp_path):
        m = self.write_set(tmp_path, [("u1", "a.pmuf", "bad")])
        utts = load_manifest(m, with_features=False)
        assert utts[0].features is None

    def test_field_count_error_names_line(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("u1\tonly-two-fields\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"m\.tsv:1: expected 3"):
            load_manifest(str(p))

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "m.tsv"
        save_features(str(tmp_path / "a.pmuf"), np.ones((2, 2)))
        p.write_text("u1\ta.pmuf\tbad\nu1\ta.pmuf\tcab\n", encoding="utf-8")
        with pytest.raises(InputError, match="duplicate utterance id 'u1'"):
            load_manifest(str(p))

    def test_empty_transcript_rejected(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("u1\ta.pmuf\t???\n", encoding="utf-8")
        with pytest.raises(InputError, match="empty transcript"):
            load_manifest(str(p))

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="empty manifest"):
            load_manifest(str(p))

    def test_tabs_in_fields_rejected_at_write(self, tmp_path):
        with pytest.raises(InputError, match="tabs"):
            write_manifest(str(tmp_path / "m.tsv"),
                           [("u\t1", "a.pmuf", "bad")])


class TestToySpec:
    def test_parse_overrides(self, tmp_path):
        p = tmp_path / "toy.spec"
        p.write_text("words = bad, cab\nnum_utts = 10\nnoise_sigma = 0\n"
                     "adjacent_repeats = true\n", encoding="utf-8")
        spec = parse_toy_spec(str(p))
        assert spec.words == ("bad", "cab")
        assert spec.num_utts == 10
        assert spec.noise_sigma == 0.0
        assert spec.adjacent_repeats is True

    @pytest.mark.parametrize("raw, want", [("on", True), ("off", False),
                                           ("Yes", True), ("0", False)])
    def test_booleans_read_as_in_experiment_configs(self, tmp_path, raw, want):
        p = tmp_path / "toy.spec"
        p.write_text(f"adjacent_repeats = {raw}\n", encoding="utf-8")
        assert parse_toy_spec(str(p)).adjacent_repeats is want

    def test_parse_errors_collected_with_lines(self, tmp_path):
        p = tmp_path / "toy.spec"
        p.write_text("num_utts = 5\nno equals here\nnum_utts = 6\n[words]\n",
                     encoding="utf-8")
        with pytest.raises(InputError) as exc:
            parse_toy_spec(str(p))
        msg = str(exc.value)
        assert "toy.spec:2: expected `key = value`" in msg
        assert "toy.spec:3: duplicate key 'num_utts'\n" in msg
        assert "toy.spec:4: unknown section [words]" in msg

    def test_key_errors_collected(self, tmp_path):
        p = tmp_path / "toy.spec"
        p.write_text("num_utts = many\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(InputError) as exc:
            parse_toy_spec(str(p))
        msg = str(exc.value)
        assert "toy.spec: num_utts: invalid literal" in msg
        assert "toy.spec: unknown key 'bogus'" in msg

    def test_validate_rules(self):
        assert ToySpec().problems() == []
        assert "duplicate word types" in ToySpec(words=("bad", "bad")).problems()
        assert "need 1..12 word types, got 13" in ToySpec(
            words=tuple(f"w{i}" for i in range(13))).problems()
        assert "bad inter-word gap range (5, 2)" in ToySpec(
            gap_min=5, gap_max=2).problems()
        assert "bad frames-per-word range (0, 28)" in ToySpec(
            frames_min=0).problems()


class TestSynth:
    def test_deterministic(self):
        spec = ToySpec(num_utts=6)
        a, _ = synth_toy_dataset(spec, seed=3)
        b, _ = synth_toy_dataset(spec, seed=3)
        for ua, ub in zip(a, b):
            assert ua.transcript == ub.transcript
            np.testing.assert_array_equal(ua.features, ub.features)
        c, _ = synth_toy_dataset(spec, seed=4)
        assert any(ua.transcript != uc.transcript or
                   not np.array_equal(ua.features, uc.features)
                   for ua, uc in zip(a, c))

    def test_noiseless_gapless_render_is_tiled_stencils(self):
        spec = ToySpec(words=("bad", "cab"), num_utts=8, words_min=1,
                       words_max=1, frames_min=5, frames_max=5,
                       gap_min=0, gap_max=0, noise_sigma=0.0)
        utts, _ = synth_toy_dataset(spec, seed=1)
        stencils = word_stencils(spec, seed=1)
        for u in utts:
            np.testing.assert_array_equal(
                u.features, np.tile(stencils[u.transcript], (5, 1)))

    def test_gaps_are_silent_frames(self):
        spec = ToySpec(words=("bad", "cab"), num_utts=4, words_min=2,
                       words_max=2, frames_min=5, frames_max=5,
                       gap_min=3, gap_max=3, noise_sigma=0.0)
        utts, _ = synth_toy_dataset(spec, seed=0)
        for u in utts:
            assert u.features.shape[0] == 5 + 3 + 5
            np.testing.assert_array_equal(u.features[5:8],
                                          np.zeros((3, spec.feature_dim)))

    def test_adjacent_words_distinct_by_default(self):
        utts, _ = synth_toy_dataset(ToySpec(num_utts=100), seed=0)
        for u in utts:
            words = u.transcript.split()
            assert all(a != b for a, b in zip(words, words[1:]))

    def test_adjacent_repeats_opt_in(self):
        spec = ToySpec(num_utts=300, adjacent_repeats=True)
        utts, _ = synth_toy_dataset(spec, seed=0)
        assert any(a == b for u in utts
                   for a, b in zip(u.transcript.split(),
                                   u.transcript.split()[1:]))

    def test_micro_lexicon_letters(self):
        lex = micro_lexicon(("bad", "ace"))
        assert lex.entries["BAD"][0] == ["B", "A", "D"]
        assert lex.entries["ACE"][0] == ["A", "C", "E"]
        assert sorted(lex.entries) == ["ACE", "BAD"]

    def test_split_is_deterministic_tail(self):
        utts, _ = synth_toy_dataset(ToySpec(num_utts=20), seed=0)
        train, dev = split_dataset(utts, 0.1)
        assert len(dev) == 2 and len(train) == 18
        assert [u.id for u in dev] == [u.id for u in utts[-2:]]
        # round(24.1) is 24, not ceil's 25
        train, dev = split_dataset([utts[i % 20] for i in range(241)], 0.1)
        assert len(dev) == 24 and len(train) == 217
        with pytest.raises(InputError, match="whole dataset"):
            split_dataset(utts[:1], 0.9)

    def test_materialize_writes_everything(self, tmp_path):
        spec = ToySpec(num_utts=10)
        paths = materialize(str(tmp_path), spec, seed=0)
        utts = load_manifest(paths["train_manifest"])
        assert len(utts) == 9
        dev = load_manifest(paths["dev_manifest"])
        assert len(dev) == 1
        corpus = open(paths["corpus"], encoding="utf-8").read().splitlines()
        assert corpus == [u.transcript for u in utts]
        assert {w.upper() for w in DEFAULT_WORDS} == {
            line.split()[0]
            for line in open(str(tmp_path / "lexicon.txt"), encoding="utf-8")
            if not line.startswith(";;;")}

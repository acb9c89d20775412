"""Deterministic synthetic task for desk-scale convergence runs.

Every word type gets a fixed random stencil vector; an utterance renders
its words as stencil segments of random duration separated by short
silence gaps, plus Gaussian noise over the whole thing.  By default
adjacent words are sampled distinct: back-to-back copies of the same
word are acoustically near-identical segments, which the transducer
branch only learns to split after far more steps than a desk-scale run
spends (the gaps make them learnable, just slowly).  A paired
micro-lexicon maps each word to letter-named pseudo-phonemes so the
phonetic tokenizer pipeline runs end to end on the toy data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import assign_fields, parse_config_text
from .data import Utterance, save_features, write_manifest
from .errors import InputError, raise_problems, read_lines
from .tokenizers import Lexicon, normalize_text

DEFAULT_WORDS = ("bad", "cab", "dab", "ace", "bead", "fad")


def parse_toy_spec(path: str) -> "ToySpec":
    """A `key = value` file without section headers; `words` is a
    comma-separated list."""
    spec = ToySpec()
    table = parse_config_text(read_lines(path), path, sections=("",))
    errors = assign_fields(table[""], [spec], f"{path}:")
    raise_problems(errors + [f"{path}: {p}" for p in spec.problems()], "\n")
    return spec


@dataclass
class ToySpec:
    words: tuple = DEFAULT_WORDS
    num_utts: int = 240
    feature_dim: int = 16
    words_min: int = 2
    words_max: int = 4
    frames_min: int = 20
    frames_max: int = 28
    gap_min: int = 6
    gap_max: int = 10
    noise_sigma: float = 0.1
    dev_fraction: float = 0.1
    adjacent_repeats: bool = False

    def problems(self) -> list[str]:
        errors = []
        if not (1 <= len(self.words) <= 12):
            errors.append(f"need 1..12 word types, got {len(self.words)}")
        for w in self.words:
            if normalize_text(w) != w or " " in w or not w:
                errors.append(f"word {w!r} is not a single normalized token")
        if len(set(self.words)) != len(self.words):
            errors.append("duplicate word types")
        if self.num_utts < 1:
            errors.append("num_utts must be >= 1")
        if self.feature_dim < 1:
            errors.append("feature_dim must be >= 1")
        if not (1 <= self.words_min <= self.words_max):
            errors.append(f"bad words-per-utterance range "
                          f"({self.words_min}, {self.words_max})")
        if not (1 <= self.frames_min <= self.frames_max):
            errors.append(f"bad frames-per-word range "
                          f"({self.frames_min}, {self.frames_max})")
        if not (0 <= self.gap_min <= self.gap_max):
            errors.append(f"bad inter-word gap range "
                          f"({self.gap_min}, {self.gap_max})")
        if not 0 <= self.noise_sigma < math.inf:
            errors.append(f"noise_sigma must be finite and >= 0, "
                          f"got {self.noise_sigma}")
        if not (0.0 <= self.dev_fraction < 1.0):
            errors.append("dev_fraction must be in [0,1)")
        return errors


def micro_lexicon(words) -> Lexicon:
    """Word -> its letters as uppercase pseudo-phonemes."""
    lex = Lexicon()
    for w in sorted(set(words)):
        lex.add(w, [c.upper() for c in w])
    return lex


def word_stencils(spec: ToySpec, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, 0xA11CE])
    return {w: rng.normal(size=spec.feature_dim)
            for w in sorted(spec.words)}


def synth_toy_dataset(spec: ToySpec, seed: int) -> tuple[list[Utterance], Lexicon]:
    raise_problems(spec.problems())
    stencils = word_stencils(spec, seed)
    utts = []
    for i in range(spec.num_utts):
        rng = np.random.default_rng([seed, 1, i])
        n_words = int(rng.integers(spec.words_min, spec.words_max + 1))
        chosen: list[str] = []
        for _ in range(n_words):
            pool = spec.words
            if not spec.adjacent_repeats and chosen and len(spec.words) > 1:
                pool = tuple(w for w in spec.words if w != chosen[-1])
            chosen.append(pool[int(rng.integers(len(pool)))])
        segments = []
        for w in chosen:
            if segments and spec.gap_max > 0:
                gap = int(rng.integers(spec.gap_min, spec.gap_max + 1))
                if gap:
                    segments.append(np.zeros((gap, spec.feature_dim)))
            dur = int(rng.integers(spec.frames_min, spec.frames_max + 1))
            seg = np.tile(stencils[w], (dur, 1))
            segments.append(seg)
        feats = np.concatenate(segments, axis=0)
        if spec.noise_sigma > 0:
            feats = feats + spec.noise_sigma * rng.normal(size=feats.shape)
        utts.append(Utterance(id=f"toy{i:04d}", features=feats,
                              transcript=" ".join(chosen)))
    return utts, micro_lexicon(spec.words)


def split_dataset(utts: list[Utterance], dev_fraction: float):
    """Deterministic tail split: the last max(1, round(n*f)) utterances are
    dev, none when f is 0.  `round`, not ceil, and halves go to even:
    n=241, f=0.1 gives 24."""
    n_dev = max(1, round(len(utts) * dev_fraction)) if dev_fraction > 0 else 0
    if n_dev >= len(utts):
        raise InputError("dev split would consume the whole dataset")
    return utts[:len(utts) - n_dev], utts[len(utts) - n_dev:]


def materialize(out_dir: str, spec: ToySpec, seed: int) -> dict:
    """Write features, train/dev manifests, corpus text, and the lexicon.

    Returns the paths of everything written, for CLI reporting.
    """
    utts, lex = synth_toy_dataset(spec, seed)
    train, dev = split_dataset(utts, spec.dev_fraction)
    feat_dir = os.path.join(out_dir, "feats")
    os.makedirs(feat_dir, exist_ok=True)

    def dump(subset, name):
        entries = []
        for u in subset:
            rel = os.path.join("feats", f"{u.id}.pmuf")
            save_features(os.path.join(out_dir, rel), u.features)
            entries.append((u.id, rel, u.transcript))
        manifest = os.path.join(out_dir, f"{name}.tsv")
        write_manifest(manifest, entries)
        return manifest

    paths = {"train_manifest": dump(train, "train"),
             "dev_manifest": dump(dev, "dev")}

    corpus_path = os.path.join(out_dir, "corpus.txt")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for u in train:
            fh.write(u.transcript + "\n")
    paths["corpus"] = corpus_path

    lex_path = os.path.join(out_dir, "lexicon.txt")
    with open(lex_path, "w", encoding="utf-8") as fh:
        fh.write(";;; toy micro-lexicon\n")
        for word in sorted(lex.entries):
            fh.write(f"{word}  {' '.join(lex.entries[word][0])}\n")
    paths["lexicon"] = lex_path
    paths["num_train"] = len(train)
    paths["num_dev"] = len(dev)
    return paths

"""Byte-pair-encoding trainer and encoder.

Training is greedy most-frequent-pair merging over word types weighted by
corpus frequency.  Ties break deterministically: earliest first occurrence
in corpus scan order, then lexicographic pair order, so retraining on the
same corpus reproduces the merge list byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ..errors import FormatError, InputError
from .vocab import (EncodedText, Vocabulary, build_vocab, normalize_text,
                    read_model_file)

DEFAULT_MARKER = "_"
FORMAT_HEADER = "pmu-bpe v1"


@dataclass
class BpeModel:
    merges: list[tuple[str, str]]
    vocab: Vocabulary
    word_end_marker: str = DEFAULT_MARKER
    seed_chars: tuple[str, ...] = ()


def _word_symbols(word: str, marker: str) -> list[str]:
    return list(word) + [marker]


def _pair_stats(words: list[tuple[list[str], int]]):
    counts: Counter = Counter()
    first_occ: dict[tuple[str, str], int] = {}
    pos = 0
    for symbols, freq in words:
        for a, b in zip(symbols, symbols[1:]):
            counts[(a, b)] += freq
            if (a, b) not in first_occ:
                first_occ[(a, b)] = pos
            pos += 1
        pos += 1
    return counts, first_occ


def _apply_merge(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    a, b = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def train_bpe(corpus: Iterable[str], num_merges: int,
              word_end_marker: str = DEFAULT_MARKER) -> BpeModel:
    if num_merges < 0:
        raise InputError(f"num_merges must be >= 0, got {num_merges}")
    word_freq: dict[str, int] = {}
    for line in corpus:
        for word in normalize_text(line).split():
            word_freq[word] = word_freq.get(word, 0) + 1
    if not word_freq:
        raise InputError("train_bpe: empty corpus after normalization")
    if word_end_marker in "".join(word_freq):
        raise InputError(f"word-end marker {word_end_marker!r} collides with corpus text")

    # dict preserves first-seen order, which fixes the tie-break scan order
    words = [(_word_symbols(w, word_end_marker), f) for w, f in word_freq.items()]
    seed = sorted({c for w in word_freq for c in w} | {word_end_marker})

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts, first_occ = _pair_stats(words)
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], first_occ[p], p))
        merges.append(best)
        words = [(_apply_merge(s, best), f) for s, f in words]

    units = set(seed)
    for a, b in merges:
        units.add(a + b)
    vocab = build_vocab(units, word_end_marker=word_end_marker)
    return BpeModel(merges=merges, vocab=vocab, word_end_marker=word_end_marker,
                    seed_chars=tuple(seed))


def segment_word(model: BpeModel, word: str) -> list[str]:
    symbols = _word_symbols(word, model.word_end_marker)
    for pair in model.merges:
        symbols = _apply_merge(symbols, pair)
    return symbols


def encode_bpe(model: BpeModel, text: str) -> EncodedText:
    """Tokenize normalized text; characters outside the model's seed set
    surface as unk ids (counted, never silently dropped)."""
    units: list[str] = []
    for word in normalize_text(text).split():
        units.extend(segment_word(model, word))
    return model.vocab.encode(units)


def save_bpe(model: BpeModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"marker {model.word_end_marker}\n")
        for c in model.seed_chars:
            fh.write(f"char {c}\n")
        for a, b in model.merges:
            fh.write(f"merge {a} {b}\n")


def load_bpe(path: str) -> BpeModel:
    _, records = read_model_file(path, (FORMAT_HEADER,))
    marker = None
    seed: list[str] = []
    merges: list[tuple[str, str]] = []
    for lineno, line in enumerate(records, 2):
        fields = line.split(" ")
        if fields[0] == "marker" and len(fields) == 2:
            marker = fields[1]
        elif fields[0] == "char" and len(fields) == 2:
            seed.append(fields[1])
        elif fields[0] == "merge" and len(fields) == 3:
            merges.append((fields[1], fields[2]))
        else:
            raise FormatError(f"{path}:{lineno}: bad record {line!r}")
    if marker is None or not seed:
        raise FormatError(f"{path}: missing marker or seed characters")
    units = set(seed)
    for a, b in merges:
        units.add(a + b)
    vocab = build_vocab(units, word_end_marker=marker)
    return BpeModel(merges=merges, vocab=vocab, word_end_marker=marker,
                    seed_chars=tuple(sorted(seed)))

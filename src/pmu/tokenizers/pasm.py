"""Pronunciation-derived subword units.

The pipeline: Viterbi-align each lexicon entry with a trained
:class:`~pmu.tokenizers.aligner.AlignmentTable`, mine letter spans whose
aligned phonemes form one contiguous group (consistent pairs), rank the
mined spans by corpus frequency, truncate to a target inventory size with
single characters always kept as back-off, and segment by greedy
longest-match.  Concatenating a word's segments always reproduces the word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import FormatError, InputError
from .aligner import AlignmentTable, align_lexicon, viterbi_align
from .vocab import (SPACE, EncodedText, Lexicon, Vocabulary, build_vocab,
                    normalize_text, read_model_file)

FORMAT_HEADER = "pmu-pasm v1"


@dataclass
class PasmModel:
    inventory: dict[str, int]          # unit string -> corpus count, ranked
    vocab: Vocabulary = None
    status: str = "ok"                 # "ok" or "char_fallback"
    _max_len: int = field(init=False, default=1)

    def __post_init__(self):
        self._max_len = max((len(u) for u in self.inventory), default=1)


def consistent_spans(word: str, alignment: list[int]) -> set[str]:
    """Letter n-grams of `word` whose aligned phoneme set is non-empty and
    contiguous.  `alignment[j]` is the letter index of phoneme j."""
    n = len(word)
    spans: set[str] = set()
    for i1 in range(n):
        for i2 in range(i1, n):
            aligned = [j for j, a in enumerate(alignment) if i1 <= a <= i2]
            if not aligned:
                continue
            if aligned[-1] - aligned[0] + 1 == len(aligned):
                spans.add(word[i1:i2 + 1])
    return spans


def extract_pasm(table: AlignmentTable, lexicon: Lexicon, corpus: Iterable[str],
                 min_count: int, target_size: int) -> PasmModel:
    if target_size < 1:
        raise InputError(f"target_size must be >= 1, got {target_size}")
    if min_count < 0:
        raise InputError(f"min_count must be >= 0, got {min_count}")

    word_freq: Counter = Counter()
    for line in corpus:
        word_freq.update(normalize_text(line).split())
    if not word_freq:
        raise InputError("extract_pasm: empty corpus after normalization")

    chars = sorted({c for w in word_freq for c in w})
    char_count: Counter = Counter()
    for w, f in word_freq.items():
        for c in w:
            char_count[c] += f

    mined: Counter = Counter()
    for w, f in word_freq.items():
        pron = lexicon.first(w)
        if pron is None:
            continue
        alignment = viterbi_align(table, list(w), pron)
        for span in consistent_spans(w, alignment):
            mined[span] += f

    if target_size < len(chars):
        inventory = {c: char_count[c] for c in chars}
        return _finish(inventory, status="char_fallback")

    multi = [(u, c) for u, c in mined.items()
             if len(u) > 1 and c >= max(min_count, 1)]
    multi.sort(key=lambda uc: (-uc[1], -len(uc[0]), uc[0]))
    budget = target_size - len(chars)
    inventory = {c: char_count[c] for c in chars}
    for u, c in multi[:budget]:
        inventory[u] = c
    return _finish(inventory, status="ok")


def _finish(inventory: dict[str, int], status: str) -> PasmModel:
    vocab = build_vocab(inventory.keys(), extra_specials=(SPACE,))
    return PasmModel(inventory=inventory, vocab=vocab, status=status)


def train_pasm(corpus: Iterable[str], lexicon: Lexicon, iterations: int,
               min_count: int, target_size: int) -> PasmModel:
    """Aligner training and unit extraction in one call.  The corpus is
    materialized because both stages scan it."""
    lines = list(corpus)
    table = align_lexicon(lexicon, iterations)
    return extract_pasm(table, lexicon, lines, min_count, target_size)


def segment_word(model: PasmModel, word: str) -> list[str]:
    """Greedy longest-match left to right.  A character outside the
    inventory is passed through as its own unit (it encodes to unk)."""
    out: list[str] = []
    i = 0
    n = len(word)
    while i < n:
        end = min(n, i + model._max_len)
        for j in range(end, i, -1):
            if word[i:j] in model.inventory:
                out.append(word[i:j])
                i = j
                break
        else:
            out.append(word[i])
            i += 1
    return out


def encode_pasm(model: PasmModel, text: str) -> EncodedText:
    """Utterance tokenizer: words segmented independently and joined with
    the word-boundary unit."""
    units: list[str] = []
    for k, word in enumerate(normalize_text(text).split()):
        units += ([SPACE] if k else []) + segment_word(model, word)
    return model.vocab.encode(units)


def save_pasm(model: PasmModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"status {model.status}\n")
        for u, c in model.inventory.items():
            fh.write(f"unit {u} {c}\n")


def load_pasm(path: str) -> PasmModel:
    _, records = read_model_file(path, (FORMAT_HEADER,))
    status = "ok"
    inventory: dict[str, int] = {}
    for lineno, line in enumerate(records, 2):
        fields = line.split(" ")
        if fields[0] == "status" and len(fields) == 2:
            status = fields[1]
        elif fields[0] == "unit" and len(fields) == 3 and fields[2].isdecimal():
            inventory[fields[1]] = int(fields[2])
        else:
            raise FormatError(f"{path}:{lineno}: bad record {line!r}")
    if not inventory:
        raise FormatError(f"{path}: no units")
    return _finish(inventory, status=status)

"""Vocabularies, text normalization, and lexicon loading.

Conventions: blank sits at id 0 and is never a text unit; unk at id 1;
unit strings are lowercase; lexicon words are uppercase (CMU style).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import FormatError, InputError, read_lines

BLANK = "<blank>"
UNK = "<unk>"
SPACE = "<sp>"

# Keep letters, digits and apostrophes; everything else becomes a word break.
_STRIP_RE = re.compile(r"[^a-z0-9']+")


def normalize_text(text: str) -> str:
    """Shared normalizer: lowercase, punctuation stripped, apostrophes kept,
    whitespace collapsed to single spaces."""
    return " ".join(w for w in _STRIP_RE.split(text.lower()) if w)


@dataclass
class EncodedText:
    """Tokenized utterance: unit ids plus bookkeeping for unk emissions."""
    ids: list[int]
    units: list[str]
    unk_count: int = 0


@dataclass
class Vocabulary:
    units: list[str]
    id_of: dict[str, int]
    unk_id: int
    word_end_marker: str | None = None

    def __len__(self):
        return len(self.units)

    def encode(self, units: list[str]) -> EncodedText:
        """Ids of `units`; a unit outside the vocabulary becomes unk and is
        counted."""
        return EncodedText(ids=[self.id_of.get(u, self.unk_id) for u in units],
                           units=units,
                           unk_count=sum(u not in self.id_of for u in units))

    def unit(self, idx: int) -> str:
        return self.units[idx]


def vocab_from_units(units, word_end_marker: str | None = None,
                     source: str = "vocabulary") -> Vocabulary:
    """Vocabulary over the list `units` in its order.  The units must be
    distinct strings, blank first and unk second; anything else is a
    FormatError naming `source`."""
    id_of = {u: i for i, u in enumerate(units) if isinstance(u, str)}
    if (len(id_of) != len(units) or units[:2] != [BLANK, UNK]
            or not isinstance(word_end_marker, (str, type(None)))):
        raise FormatError(f"{source}: a vocabulary lists distinct unit "
                          f"strings, {BLANK!r} first and {UNK!r} second")
    return Vocabulary(units=units, id_of=id_of, unk_id=1,
                      word_end_marker=word_end_marker)


def build_vocab(units, extra_specials: tuple[str, ...] = (),
                word_end_marker: str | None = None) -> Vocabulary:
    """Deterministic vocabulary: blank, unk, extra specials, then the unit
    set deduplicated and sorted."""
    head = [BLANK, UNK, *extra_specials]
    return vocab_from_units(head + sorted(set(units) - set(head)),
                            word_end_marker)


def decode_units(vocab: Vocabulary, ids) -> str:
    """Ids back to text: units concatenated, word-end markers and the space
    special turned into spaces."""
    parts = []
    for i in ids:
        u = vocab.unit(int(i))
        if u == BLANK:
            continue
        parts.append(" " if u == SPACE else u)
    text = "".join(parts)
    if vocab.word_end_marker:
        text = text.replace(vocab.word_end_marker, " ")
    return " ".join(text.split())


def read_model_file(path: str, headers) -> tuple[str, list[str]]:
    """(header, records) of a tokenizer model file whose first line is one
    of `headers`, newlines stripped.  Any other file, also one that is not
    UTF-8 text, is a FormatError naming it."""
    header, *records = read_lines(path) or [""]
    if header not in headers:
        raise FormatError(f"{path}: unrecognized tokenizer header {header!r}, "
                          f"expected {' or '.join(map(repr, headers))}")
    return header, records


@dataclass
class Lexicon:
    """Word → pronunciations (phoneme-string sequences); first one wins."""
    entries: dict[str, list[list[str]]] = field(default_factory=dict)

    def first(self, word: str) -> list[str] | None:
        prons = self.entries.get(word.upper())
        return prons[0] if prons else None

    def add(self, word: str, phones: list[str]):
        if not phones or any(not p for p in phones):
            raise InputError(f"lexicon entry {word!r} has empty phonemes")
        self.entries.setdefault(word.upper(), []).append(list(phones))

    def __len__(self):
        return len(self.entries)


_VARIANT_RE = re.compile(r"\(\d+\)$")


def load_lexicon(path: str) -> Lexicon:
    """CMU dictionary format: `WORD  PH1 PH2 ...`, `;;;` comment lines
    ignored, `WORD(2)` alternate pronunciations folded into the base word."""
    lex = Lexicon()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(";;;"):
                continue
            fields = line.split()
            if len(fields) < 2:
                raise FormatError(f"{path}:{lineno}: lexicon line needs a word "
                                  f"and at least one phoneme")
            word = _VARIANT_RE.sub("", fields[0])
            lex.add(word, fields[1:])
    if not lex.entries:
        raise InputError(f"{path}: empty lexicon")
    return lex

"""Target-unit inventories: text-induced BPE and phonetic-induced PASM.

`load_tokenizer` and `encode` are the one place that tells the two
families apart; callers hold a model of either kind.
"""

from __future__ import annotations

from . import bpe, pasm
from .vocab import (BLANK, SPACE, UNK, EncodedText, Lexicon, Vocabulary,
                    build_vocab, decode_units, load_lexicon, normalize_text,
                    read_model_file, vocab_from_units)
from .bpe import BpeModel, encode_bpe, load_bpe, save_bpe, train_bpe
from .aligner import AlignmentTable, align_lexicon, viterbi_align
from .pasm import (PasmModel, encode_pasm, extract_pasm, load_pasm, save_pasm,
                   train_pasm)


def load_tokenizer(path: str) -> BpeModel | PasmModel:
    """The BPE or PASM model saved at `path`, by the file's header line."""
    loaders = {bpe.FORMAT_HEADER: load_bpe, pasm.FORMAT_HEADER: load_pasm}
    return loaders[read_model_file(path, loaders)[0]](path)


def encode(tok: BpeModel | PasmModel, text: str) -> EncodedText:
    """Tokenize `text` with a model of either family."""
    return (encode_pasm if isinstance(tok, PasmModel) else encode_bpe)(tok, text)


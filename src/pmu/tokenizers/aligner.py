"""Statistical letter-to-phoneme aligner.

A one-to-many translation model in the IBM Model 1 family: every phoneme of
a pronunciation is generated by exactly one letter of the spelling, and
``t_prob[(letter, phoneme)]`` holds the per-letter emission distribution.
Expectation-maximization over a lexicon is guaranteed to make the corpus
log-likelihood non-decreasing, which the table records per iteration.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from ..errors import InputError
from .vocab import Lexicon


@dataclass
class AlignmentTable:
    t_prob: dict[tuple[str, str], float]
    likelihoods: list[float] = field(default_factory=list)

    def prob(self, letter: str, phoneme: str) -> float:
        return self.t_prob.get((letter, phoneme), 0.0)


def align_lexicon(lexicon: Lexicon, iterations: int) -> AlignmentTable:
    """Train the letter→phoneme table by EM.

    Initialization is uniform over the phonemes each letter co-occurs with;
    each iteration records the log-likelihood of the lexicon under the
    parameters *entering* that iteration, so ``likelihoods`` is monotone
    non-decreasing up to floating-point noise.
    """
    if iterations < 1:
        raise InputError(f"iterations must be >= 1, got {iterations}")
    if len(lexicon) == 0:
        raise InputError("align_lexicon: empty lexicon")

    pairs = [(list(word.lower()), lexicon.first(word)) for word in lexicon.entries]
    cooc: dict[str, set] = defaultdict(set)
    for letters, phones in pairs:
        for e in letters:
            cooc[e].update(phones)
    t = {(e, f): 1.0 / len(fs) for e, fs in cooc.items() for f in fs}

    likelihoods: list[float] = []
    for _ in range(iterations):
        counts: dict[tuple[str, str], float] = defaultdict(float)
        totals: dict[str, float] = defaultdict(float)
        ll = 0.0
        for letters, phones in pairs:
            for f in phones:
                denom = sum(t.get((e, f), 0.0) for e in letters)
                ll += math.log(denom / len(letters))
                for e in letters:
                    c = t.get((e, f), 0.0) / denom
                    counts[(e, f)] += c
                    totals[e] += c
        likelihoods.append(ll)
        t = {(e, f): c / totals[e] for (e, f), c in counts.items()}

    return AlignmentTable(t_prob=t, likelihoods=likelihoods)


def viterbi_align(table: AlignmentTable, letters, phonemes) -> list[int]:
    """Hard alignment: each phoneme goes to its most probable letter
    (leftmost on ties).  Returns one letter index per phoneme."""
    letters = list(letters)
    if not letters:
        raise InputError("viterbi_align: empty letter sequence")
    out = []
    for f in phonemes:
        best_i, best_p = 0, table.prob(letters[0], f)
        for i in range(1, len(letters)):
            p = table.prob(letters[i], f)
            if p > best_p:
                best_i, best_p = i, p
        out.append(best_i)
    return out

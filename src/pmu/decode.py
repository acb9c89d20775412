"""Greedy decoding for the CTC heads and the transducer branch."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .losses import collapse
from .model import ConformerTransducer, joint, label_encoder_step


def greedy_decode_ctc(emissions: np.ndarray, blank_id: int = 0) -> list[int]:
    """Frame-wise argmax, collapse adjacent repeats, delete blanks."""
    return list(collapse(np.asarray(emissions).argmax(axis=-1).tolist(), blank_id))


def greedy_decode_transducer(model: ConformerTransducer, x,
                             max_symbols_per_frame: int = 5) -> list[int]:
    """Frame-synchronous greedy search: emit argmax symbols at (t, u) until
    blank (id 0) wins or the per-frame cap is hit, then advance t.

    The label state changes only when a symbol is emitted, so one joint call
    scores every remaining frame against it and the search jumps to the
    first frame whose argmax is not blank.  The frames are projected once,
    a last frame alone (a one-row product rounds otherwise), and the label
    state advances off the tape, by the LSTM cell that training runs."""
    if max_symbols_per_frame < 1:
        raise InputError(f"max_symbols_per_frame must be >= 1, "
                         f"got {max_symbols_per_frame}")
    ps = model.params
    h_t = model.encode(x)[0].value
    wt = ps.get("joint/wt").value
    ht_wt = h_t @ wt
    zeros = np.zeros((1, ps.get("lab/embed").value.shape[1]))
    state = label_encoder_step(0, (zeros, zeros), ps)
    out: list[int] = []
    t, at_t = 0, 0  # at_t: symbols emitted at frame t so far
    while t < h_t.shape[0]:
        rows = ht_wt[t:] if t + 1 < len(h_t) else h_t[t:] @ wt
        best = joint(rows, state[0], ps)[1][:, 0].argmax(axis=-1)
        hits = np.flatnonzero(best != 0)
        if hits.size == 0:
            break
        if hits[0] > 0:
            t, at_t = t + int(hits[0]), 0
        k = int(best[hits[0]])
        out.append(k)
        state = label_encoder_step(k, state, ps)
        at_t += 1
        if at_t == max_symbols_per_frame:
            t, at_t = t + 1, 0
    return out


def decode_dataset(model: ConformerTransducer, utts, vocab,
                   max_symbols_per_frame: int = 5) -> dict[str, str]:
    """id -> detokenized greedy-transducer hypothesis."""
    from .tokenizers import decode_units
    hyps = {}
    for u in utts:
        ids = greedy_decode_transducer(model, u.features, max_symbols_per_frame)
        hyps[u.id] = decode_units(vocab, ids)
    return hyps

"""Exact CTC and transducer losses in the log semiring.

Both losses consume *normalized* log-probabilities and return the negative
log posterior together with its analytic gradient w.r.t. those log-probs.
`ctc_brute_force` and `transducer_brute_force` are deliberately naive
enumeration oracles for small instances; they share no code with the
dynamic-programming paths they check.

Each kernel runs a whole batch of rows at once, padded with -inf: the
CTC frame loop over (frame, row, state) arrays, and the transducer's
sweep (Graves 2012, arXiv:1211.3711) over the anti-diagonals t+u of
(diagonal, row, u) arrays, one vectorised `np.logaddexp` per diagonal.
Every real cell adds the same two addends through the same `np.logaddexp`
as a cell-by-cell recursion over its row alone, so values and gradients
equal that recursion's bit for bit; `ctc_loss` and `transducer_loss` are
the batch-of-one case.

The output layer's math is written once: `log_softmax`, and `smoothed`,
which adds label smoothing's term to a kernel's result and carries the
gradient back through the log-softmax.  `ctc_node` (each CTC tap's loss)
and `model.joint_transducer` (the transducer's) both build on them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ContractViolation, InputError

# Floor for log-probabilities: keeps the log-semiring free of -inf while
# leaving anything down to log(1e-30) untouched.
LOG_FLOOR = -1.0e30

BRUTE_FORCE_LIMIT = 10 ** 6


@dataclass
class LossResult:
    """A kernel's value, status and gradient w.r.t. its log-probs: dense,
    but in `transducer_losses` results only the entries that can be
    non-zero, the blank column (T, U+1) and the labels' entries `emit`."""
    value: float
    grad: np.ndarray
    status: str = "ok"
    emit: np.ndarray | None = None


def _labels(labels, V: int, who: str) -> np.ndarray:
    y = np.asarray([int(i) for i in labels], dtype=np.intp)
    if (y == 0).any():
        raise ContractViolation(f"{who}: labels must not contain blank id 0")
    if ((y < 0) | (y >= V)).any():
        raise ContractViolation(f"{who}: label id out of range for V={V}")
    return y


def _clamp(logprobs: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(logprobs, dtype=np.float64), LOG_FLOOR)


def _result(logz, grad, emit=None) -> LossResult:
    """Below LOG_FLOOR / 2 every path crosses a floored entry: "unreachable"
    (callers skip the sample), value +inf, and the kernels leave grad zero."""
    if logz < LOG_FLOOR / 2:
        return LossResult(math.inf, grad, "unreachable", emit)
    return LossResult(float(-logz), grad, "ok", emit)


# ---------------------------------------------------------------------------
# CTC

def ctc_losses(rows) -> list[LossResult]:
    """CTC loss of each (emissions, labels) row: (T, V) log-probs and the
    label ids, blank id 0.  Row i's log posterior is read at its own last
    frame, where its beta starts.  A target too long for its T frames is
    unreachable."""
    lps, exts = [], []
    for emissions, labels in rows:
        lp = np.asarray(emissions, dtype=np.float64)
        if lp.ndim != 2 or len(lp) < 1:
            raise InputError(f"ctc_loss: emissions {lp.shape} are not (T >= 1, V)")
        ext = np.zeros(2 * len(labels) + 1, dtype=np.intp)
        ext[1::2] = _labels(labels, lp.shape[1], "ctc_loss")
        lps.append(lp)
        exts.append(ext)
    N, T, S = len(rows), max(len(lp) for lp in lps), max(len(e) for e in exts)
    NEG = -np.inf
    # mask[i, s] is 0 where row i's paths may jump from state s-2 to s
    # (distinct non-blank labels), else -inf, as on the padding states
    mask = np.full((N, S + 2), NEG)
    emit = np.full((T, N, S), NEG)
    seed = np.full((N, S), NEG)  # beta at a row's last frame
    ends: dict[int, list] = {}  # frame -> the rows that end there
    for i, (lp, ext) in enumerate(zip(lps, exts)):
        n = len(ext)
        mask[i, 2:n][(ext[2:] != 0) & (ext[2:] != ext[:-2])] = 0.0
        emit[:len(lp), i, :n] = _clamp(lp[:, ext])
        seed[i, max(n - 2, 0):n] = 0.0
        ends.setdefault(len(lp) - 1, []).append(i)
    # Shifted rows are views of rows padded with two -inf states: before
    # the S states in alpha, after them in `nxt`.  `jump` is the one
    # buffer the frame loops write.
    jump = np.empty((N, S))
    alpha_p = np.full((T, N, S + 2), NEG)
    alpha = alpha_p[:, :, 2:]
    alpha[0, :, :2] = emit[0, :, :2]
    for t in range(1, T):
        prev, cur = alpha_p[t - 1], alpha[t]
        np.logaddexp(prev[:, 2:], prev[:, 1:-1], out=cur)
        np.add(prev[:, :-2], mask[:, :S], out=jump)
        np.logaddexp(cur, jump, out=cur)
        cur += emit[t]

    # beta[t, i, s]: log prob of completing from state s at time t, not
    # counting the emission at time t (it already sits inside alpha).  The
    # loop computes a row's last frame from the padding, then its seed.
    beta = np.full((T, N, S), NEG)
    nxt = np.full((N, S + 2), NEG)
    for t in range(T - 1, -1, -1):
        if t < T - 1:
            np.add(beta[t + 1], emit[t + 1], out=nxt[:, :S])
            np.logaddexp(nxt[:, :S], nxt[:, 1:-1], out=beta[t])
            np.add(nxt[:, 2:], mask[:, 2:], out=jump)
            np.logaddexp(beta[t], jump, out=beta[t])
        if t in ends:
            beta[t, ends[t]] = seed[ends[t]]

    results = []
    for i, (lp, ext) in enumerate(zip(lps, exts)):
        Ti, Si = lp.shape[0], len(ext)
        logz = alpha[Ti - 1, i, 0] if Si == 1 else np.logaddexp(
            alpha[Ti - 1, i, Si - 1], alpha[Ti - 1, i, Si - 2])
        grad = np.zeros_like(lp)
        if not logz < LOG_FLOOR / 2:
            with np.errstate(under="ignore"):  # (Ti, Si) state posteriors
                post = np.exp(alpha[:Ti, i, :Si] + beta[:Ti, i, :Si] - logz)
            np.subtract.at(grad, (slice(None), ext), post)  # in state order
        results.append(_result(logz, grad))
    return results


def ctc_loss(emissions: np.ndarray, labels) -> LossResult:
    """`ctc_losses` on one row."""
    return ctc_losses([(emissions, labels)])[0]


def collapse(path, blank: int) -> tuple:
    """CTC's many-to-one map: merge adjacent repeats, then delete blanks."""
    out = []
    prev = None
    for symbol in path:
        if symbol != prev and symbol != blank:
            out.append(symbol)
        prev = symbol
    return tuple(out)


def ctc_brute_force(emissions: np.ndarray, labels) -> float:
    """-log sum of path probabilities over every length-T string that
    collapses to `labels`.  Enumerates V**T strings; refuses big instances."""
    lp = np.asarray(emissions, dtype=np.float64)
    T, V = lp.shape
    if V ** T > BRUTE_FORCE_LIMIT:
        raise InputError(f"ctc_brute_force: V**T = {V}**{T} exceeds {BRUTE_FORCE_LIMIT}")
    target = tuple(int(i) for i in labels)
    total = 0.0
    for path in itertools.product(range(V), repeat=T):
        if collapse(path, 0) != target:
            continue
        p = 1.0
        for t, s in enumerate(path):
            p *= math.exp(lp[t, s])
        total += p
    return math.inf if total == 0.0 else -math.log(total)


# ---------------------------------------------------------------------------
# transducer

def transducer_losses(rows) -> list[LossResult]:
    """Transducer loss of each (lattice, labels) row: (T, U+1, V) log-probs
    and the label ids, blank id 0.  Emitting does not consume a frame, so
    only a lattice where every alignment crosses a LOG_FLOOR entry is
    unreachable."""
    shapes, blanks, emits = [], [], []
    for lattice, labels in rows:
        lattice, U = np.asarray(lattice), len(labels)
        if lattice.ndim != 3 or len(lattice) < 1 or lattice.shape[1] != U + 1:
            raise InputError(f"transducer_loss: lattice {lattice.shape} is "
                             f"not (T >= 1, U+1 = {U + 1}, V)")
        y = _labels(labels, lattice.shape[2], "transducer_loss")
        # only blank and label entries enter the lattice and are clamped
        shapes.append((len(lattice), U))
        blanks.append(_clamp(lattice[:, :, 0]))
        emits.append(_clamp(lattice[:, np.arange(U), y]))
    B = len(rows)
    T, U = (max(s) for s in zip(*shapes))
    NEG = -np.inf
    blank = np.full((B, T, U + 1), NEG)
    emit = np.full((B, T, U), NEG)
    last: dict[int, list] = {}  # diagonal -> the rows whose lattice ends there
    for i, (Ti, Ui) in enumerate(shapes):
        blank[i, :Ti, :Ui + 1] = blanks[i]
        emit[i, :Ti, :Ui] = emits[i]
        last.setdefault(Ti + Ui - 1, []).append(i)
    # Skewed layout: [n, i] holds row i's anti-diagonal t+u = n, cell (t, u)
    # at column u+1.  Columns 0 and U+2 and every cell off a row's lattice
    # are -inf padding, so edge cells go through the same logaddexp as
    # inner ones.  Step n covers the columns any row's diagonal n may hold.
    D = T + U
    diag, cols = np.indices((T, U + 1))
    diag += cols  # t + u
    cols += 1     # u + 1
    skew_blank = np.full((D, B, U + 3), NEG)
    skew_blank[diag, :, cols] = blank.transpose(1, 2, 0)
    skew_emit = np.full((D, B, U + 3), NEG)
    skew_emit[diag[:, :U], :, cols[:, :U]] = emit.transpose(1, 2, 0)

    # alpha(t, u) = logaddexp(alpha(t-1, u) + blank(t-1, u),
    #                         alpha(t, u-1) + emit(t, u-1))
    a = np.full((D, B, U + 3), NEG)
    a[0, :, 1] = 0.0
    for n in range(1, max(last) + 1):
        on = slice(max(1, n - T + 2), min(n, U) + 2)
        left = slice(on.start - 1, on.stop - 1)
        np.logaddexp(a[n - 1, :, on] + skew_blank[n - 1, :, on],
                     a[n - 1, :, left] + skew_emit[n - 1, :, left],
                     out=a[n, :, on])

    # beta(t, u) = logaddexp(blank(t, u) + beta(t+1, u),
    #                        emit(t, u) + beta(t, u+1))
    b = np.full((D, B, U + 3), NEG)
    for n in range(max(last), -1, -1):
        on = slice(max(1, n - T + 2), min(n, U) + 2)
        right = slice(on.start + 1, on.stop + 1)
        if n < max(last):
            np.logaddexp(skew_blank[n, :, on] + b[n + 1, :, on],
                         skew_emit[n, :, on] + b[n + 1, :, right],
                         out=b[n, :, on])
        for i in last.get(n, ()):
            b[n, i, shapes[i][1] + 1] = blanks[i][-1, -1]

    rows_i = np.arange(B)
    alpha = a[diag, rows_i[:, None, None], cols]  # (B, T, U+1)
    beta = b[diag, rows_i[:, None, None], cols]
    Ts, Us = np.array(shapes).T
    logz = alpha[rows_i, Ts - 1, Us] + blank[rows_i, Ts - 1, Us]
    out = logz < LOG_FLOOR / 2
    with np.errstate(under="ignore"):
        # blank transitions: next state is (t+1, u); the final blank ends.
        nxt = np.full((B, T, U + 1), NEG)
        nxt[:, :-1] = beta[:, 1:]
        nxt[rows_i, Ts - 1, Us] = 0.0
        lz = np.where(out, 0.0, logz)[:, None, None]
        g_blank = -np.exp(alpha + blank + nxt - lz)
        g_emit = 0.0 - np.exp(alpha[:, :, :U] + emit + beta[:, :, 1:] - lz)
    g_blank[out] = g_emit[out] = 0.0
    return [_result(logz[i], g_blank[i, :Ti, :Ui + 1], g_emit[i, :Ti, :Ui])
            for i, (Ti, Ui) in enumerate(shapes)]


def dense_grad(res: LossResult, labels, shape) -> np.ndarray:
    """A `transducer_losses` result's gradient as a zero array of `shape`
    (T, U+1, V) holding its blank column and the labels' entries."""
    dense = np.zeros(shape)
    dense[:, :, 0] = res.grad
    dense[:, np.arange(len(labels)), [int(i) for i in labels]] = res.emit
    return dense


def transducer_loss(lattice: np.ndarray, labels) -> LossResult:
    """`transducer_losses` on one row, with the dense gradient."""
    res = transducer_losses([(lattice, labels)])[0]
    return LossResult(res.value, dense_grad(res, labels, np.shape(lattice)),
                      res.status)


def transducer_brute_force(lattice: np.ndarray, labels) -> float:
    """Enumerate every monotonic path (orderings of U emits among T-1 frame
    advances, closed by the final blank) and sum their probabilities."""
    lp = np.asarray(lattice, dtype=np.float64)
    T, U1, _ = lp.shape
    y = [int(i) for i in labels]
    U = len(y)
    if U1 != U + 1:
        raise InputError("transducer_brute_force: lattice/label mismatch")
    if math.comb(T - 1 + U, U) > BRUTE_FORCE_LIMIT:
        raise InputError(
            f"transducer_brute_force: C({T - 1 + U},{U}) exceeds {BRUTE_FORCE_LIMIT}")
    total = 0.0
    moves = T - 1 + U
    for emit_slots in itertools.combinations(range(moves), U):
        t = u = 0
        p = 1.0
        for m in range(moves):
            if m in emit_slots:
                p *= math.exp(lp[t, u, y[u]])
                u += 1
            else:
                p *= math.exp(lp[t, u, 0])
                t += 1
        p *= math.exp(lp[T - 1, U, 0])
        total += p
    return math.inf if total == 0.0 else -math.log(total)


# ---------------------------------------------------------------------------
# the output layer: log-softmax, label smoothing, and the CTC tape node

def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis: the row max is subtracted first."""
    lp = z - z.max(axis=-1, keepdims=True)
    lp -= np.log(np.exp(lp).sum(axis=-1, keepdims=True))
    return lp


def smoothed(res: LossResult, logprobs: np.ndarray, label_smoothing: float,
             labels=None):
    """(value, backward) of a kernel's ok result `res` on `logprobs` =
    log_softmax(logits), with label smoothing's term added: label_smoothing
    times the mean over positions of KL(uniform || p), which is
    -mean(logprobs) - log V.  `backward` maps the upstream gradient to the
    gradient w.r.t. the logits, a transducer result's entries scattered by
    its `labels`.  The ops are those a tape graph of the loss plus the
    scaled KL over a log-softmax node runs, in its backward order, so value
    and gradient equal that graph's bit for bit."""
    value = res.value
    if label_smoothing > 0.0:
        kl = logprobs.sum() * (-1.0 / logprobs.size) + -math.log(logprobs.shape[-1])
        value = value + kl * label_smoothing

    def backward(g) -> np.ndarray:
        grad = res.grad if labels is None else dense_grad(res, labels,
                                                          logprobs.shape)
        dlog = float(g) * grad
        if label_smoothing > 0.0:
            dlog += (g * label_smoothing) * (-1.0 / logprobs.size)
        soft = np.exp(logprobs)
        soft *= dlog.sum(axis=-1, keepdims=True)
        dlog -= soft  # log_softmax
        return dlog

    return value, backward


def ctc_node(logits: Node, logprobs: np.ndarray, res: LossResult,
             label_smoothing: float) -> Node:
    """The CTC loss of `logprobs` = log_softmax(logits), whose ok kernel
    result is `res`, label smoothing's term included, as one tape node."""
    value, backward = smoothed(res, logprobs, label_smoothing)
    return ad.vjp_node("ctc", lambda _: (value, lambda g: (backward(g),)), logits)


# ---------------------------------------------------------------------------
# self-check suites (backing the loss-check CLI and the acceptance tests)

def random_logprob_matrix(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return log_softmax(rng.normal(size=shape))


def oracle_equivalence_suite(instances: int = 200, seed: int = 0) -> dict:
    """Compare both DP losses against their enumeration oracles on random
    small instances; returns max absolute deviations in nats."""
    rng = np.random.default_rng(seed)
    max_ctc = max_trans = 0.0
    for _ in range(instances):
        V = int(rng.integers(2, 5))
        T = int(rng.integers(1, 5))
        U = int(rng.integers(0, 4))
        emissions = random_logprob_matrix(rng, T, V)
        labels = [int(rng.integers(1, V)) for _ in range(U)]
        exact = ctc_loss(emissions, labels)
        brute = ctc_brute_force(emissions, labels)
        if math.isinf(brute) or math.isinf(exact.value):
            if math.isinf(brute) != math.isinf(exact.value):
                max_ctc = math.inf
        else:
            max_ctc = max(max_ctc, abs(exact.value - brute))
        lattice = random_logprob_matrix(rng, T, U + 1, V)
        exact_t = transducer_loss(lattice, labels)
        brute_t = transducer_brute_force(lattice, labels)
        max_trans = max(max_trans, abs(exact_t.value - brute_t))
    return {"ctc_max_dev": max_ctc, "transducer_max_dev": max_trans,
            "instances": instances}


def gradient_suite(seeds: int = 20) -> dict:
    """Finite-difference check of both loss gradients; returns max relative
    errors (scaled by max(1, |analytic|, |numeric|) per entry)."""
    worst_ctc = worst_trans = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        V = int(rng.integers(2, 5))
        T = int(rng.integers(2, 5))
        U = int(rng.integers(0, 3))
        labels = [int(rng.integers(1, V)) for _ in range(U)]

        emissions = random_logprob_matrix(rng, T, V)
        if ctc_loss(emissions, labels).status == "ok":
            analytic = ctc_loss(emissions, labels).grad
            fd = ad.finite_diff_grad(lambda: ctc_loss(emissions, labels).value,
                                     [emissions])[0]
            worst_ctc = max(worst_ctc, relative_error(analytic, fd))

        lattice = random_logprob_matrix(rng, T, U + 1, V)
        analytic = transducer_loss(lattice, labels).grad
        fd = ad.finite_diff_grad(lambda: transducer_loss(lattice, labels).value,
                                 [lattice])[0]
        worst_trans = max(worst_trans, relative_error(analytic, fd))
    return {"ctc_max_rel_err": worst_ctc, "transducer_max_rel_err": worst_trans,
            "seeds": seeds}


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0

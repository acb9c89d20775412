"""Exact CTC and transducer losses in the log semiring.

Both losses consume *normalized* log-probabilities and return the negative
log posterior together with its analytic gradient w.r.t. those log-probs.
`ctc_brute_force` and `transducer_brute_force` are deliberately naive
enumeration oracles for small instances; they share no code with the
dynamic-programming paths they check.

The transducer forward-backward follows Graves (2012, arXiv:1211.3711).  A
lattice cell (t, u) depends only on cells of the anti-diagonal t+u-1 (alpha)
or t+u+1 (beta), so each pass sweeps the T+U anti-diagonals with one
vectorised `np.logaddexp` per diagonal: T+U numpy steps instead of T*U
scalar ones.  Every cell still adds the same two addends through the same
`np.logaddexp`, so values and gradients equal those of a cell-by-cell
recursion bit for bit.

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
    value: float
    grad: np.ndarray
    status: str = "ok"


def _clamp(logprobs: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(logprobs, dtype=np.float64), LOG_FLOOR)


# ---------------------------------------------------------------------------
# CTC

def ctc_loss(emissions: np.ndarray, labels) -> LossResult:
    """Forward-backward CTC loss over a (T, V) matrix of log-probs.

    Blank id is 0.  Unreachable targets (T too short for the label string,
    or every path crossing a LOG_FLOOR entry) give value +inf, zero
    gradient, and status "unreachable" so callers can skip the sample
    instead of aborting.
    """
    lp = _clamp(emissions)
    T, V = lp.shape
    y = [int(i) for i in labels]
    if any(i == 0 for i in y):
        raise ContractViolation("ctc_loss: labels must not contain blank id 0")
    if any(not (0 < i < V) for i in y):
        raise ContractViolation(f"ctc_loss: label id out of range for V={V}")
    U, ids = len(y), np.asarray(y, dtype=np.intp)
    if T < U + int(np.count_nonzero(ids[1:] == ids[:-1])):
        return LossResult(math.inf, np.zeros_like(lp), "unreachable")

    ext = np.zeros(2 * U + 1, dtype=np.intp)
    ext[1::2] = ids
    S = len(ext)
    NEG = -np.inf
    # mask[s] is 0 where a path may jump from state s-2 to s (distinct
    # non-blank labels), else -inf, as on its two padding states past S
    mask = np.full(S + 2, NEG)
    mask[2:S][(ext[2:] != 0) & (ext[2:] != ext[:-2])] = 0.0
    emit = lp[:, ext]
    # Shifted rows are views of rows padded with two -inf states: before
    # the S states in alpha, after them in `nxt`.  `jump` is the one
    # buffer the frame loops write.
    jump = np.empty(S)
    alpha_p = np.full((T, S + 2), NEG)
    alpha = alpha_p[:, 2:]
    alpha[0, :2] = emit[0, :2]
    for t in range(1, T):
        prev, cur = alpha_p[t - 1], alpha[t]
        np.logaddexp(prev[2:], prev[1:-1], out=cur)
        np.add(prev[:-2], mask[:S], out=jump)
        np.logaddexp(cur, jump, out=cur)
        cur += emit[t]

    logz = alpha[T - 1, S - 1] if S == 1 else np.logaddexp(alpha[T - 1, S - 1],
                                                           alpha[T - 1, S - 2])
    if logz < LOG_FLOOR / 2:  # every path crosses a floored emission
        return LossResult(math.inf, np.zeros_like(lp), "unreachable")

    # beta[t, s]: log prob of completing from state s at time t, not counting
    # the emission at time t (it already sits inside alpha).
    beta = np.full((T, S), NEG)
    beta[T - 1, S - 2:] = 0.0
    nxt = np.full(S + 2, NEG)
    for t in range(T - 2, -1, -1):
        np.add(beta[t + 1], emit[t + 1], out=nxt[:S])
        np.logaddexp(nxt[:S], nxt[1:-1], out=beta[t])
        np.add(nxt[2:], mask[2:], out=jump)
        np.logaddexp(beta[t], jump, out=beta[t])

    grad = np.zeros_like(lp)
    post = alpha + beta - logz  # (T, S) state posteriors
    with np.errstate(under="ignore"):
        post = np.exp(post)
    np.subtract.at(grad, (slice(None), ext), post)  # in state order
    return LossResult(float(-logz), grad, "ok")


def _collapse(path) -> tuple:
    out = []
    prev = None
    for symbol in path:
        if symbol != prev and symbol != 0:
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
        if _collapse(path) != target:
            continue
        p = 1.0
        for t, s in enumerate(path):
            p *= math.exp(lp[t, s])
        total += p
    return math.inf if total == 0.0 else -math.log(total)


# ---------------------------------------------------------------------------
# transducer

def transducer_loss(lattice: np.ndarray, labels) -> LossResult:
    """Negative log posterior over all monotonic emit/blank alignments.

    `lattice` is (T, U+1, V) normalized log-probs; blank id 0.  Emitting
    does not consume a frame, so only a lattice where every alignment
    crosses a LOG_FLOOR entry is unreachable: value +inf, zero gradient and
    status "unreachable", returned before the gradient's exp overflows.
    """
    lattice = np.asarray(lattice)
    if lattice.ndim != 3:
        raise ContractViolation(
            f"transducer_loss: lattice must be 3-D, got {lattice.shape}")
    T, U1, V = lattice.shape
    y = [int(i) for i in labels]
    U = len(y)
    if T < 1:
        raise InputError("transducer_loss: empty lattice (T < 1)")
    if U1 != U + 1:
        raise InputError(
            f"transducer_loss: lattice label axis {U1} != U+1 = {U + 1}")
    if any(i == 0 for i in y):
        raise ContractViolation("transducer_loss: labels must not contain blank id 0")
    if any(not (0 < i < V) for i in y):
        raise ContractViolation(f"transducer_loss: label id out of range for V={V}")

    NEG = -np.inf
    # only blank and label entries enter the lattice, so only they are clamped
    u_ids, y_ids = np.arange(U), np.asarray(y, dtype=np.intp)
    emit = _clamp(lattice[:, u_ids, y_ids])
    blank = _clamp(lattice[:, :, 0])

    # Skewed layout: row n holds the anti-diagonal t+u = n, cell (t, u) at
    # column u+1.  Columns 0 and U+2 and every cell off the lattice are -inf
    # padding, so edge cells go through the same logaddexp as inner ones.
    # Diagonal n covers max(0, n-T+1) <= u <= min(n, U); only those cells
    # are ever written.
    D = T + U
    rows, cols = np.indices((T, U + 1))
    rows += cols  # t + u
    cols += 1     # u + 1
    skew_blank = np.full((D, U + 3), NEG)
    skew_blank[rows, cols] = blank
    skew_emit = np.full((D, U + 3), NEG)
    skew_emit[rows[:, :U], cols[:, :U]] = emit

    # alpha(t, u) = logaddexp(alpha(t-1, u) + blank(t-1, u),
    #                         alpha(t, u-1) + emit(t, u-1))
    a = np.full((D, U + 3), NEG)
    a[0, 1] = 0.0
    for n in range(1, D):
        on = slice(max(1, n - T + 2), min(n, U) + 2)
        left = slice(on.start - 1, on.stop - 1)
        np.logaddexp(a[n - 1, on] + skew_blank[n - 1, on],
                     a[n - 1, left] + skew_emit[n - 1, left], out=a[n, on])

    # beta(t, u) = logaddexp(blank(t, u) + beta(t+1, u),
    #                        emit(t, u) + beta(t, u+1))
    b = np.full((D, U + 3), NEG)
    b[D - 1, U + 1] = blank[T - 1, U]
    for n in range(D - 2, -1, -1):
        on = slice(max(1, n - T + 2), min(n, U) + 2)
        right = slice(on.start + 1, on.stop + 1)
        np.logaddexp(skew_blank[n, on] + b[n + 1, on],
                     skew_emit[n, on] + b[n + 1, right], out=b[n, on])

    alpha = a[rows, cols]
    beta = b[rows, cols]
    logz = alpha[T - 1, U] + blank[T - 1, U]
    grad = np.zeros(lattice.shape)
    if logz < LOG_FLOOR / 2:
        return LossResult(math.inf, grad, "unreachable")
    with np.errstate(under="ignore"):
        # blank transitions: next state is (t+1, u); the final blank ends.
        nxt = np.full((T, U + 1), NEG)
        nxt[:-1] = beta[1:]
        nxt[T - 1, U] = 0.0
        grad[:, :, 0] = -np.exp(alpha + blank + nxt - logz)
        grad[:, u_ids, y_ids] -= np.exp(alpha[:, :U] + emit + beta[:, 1:] - logz)
    return LossResult(float(-logz), grad, "ok")


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


def smoothed(res: LossResult, logprobs: np.ndarray, label_smoothing: float):
    """(value, backward) of a kernel's ok result `res` on `logprobs` =
    log_softmax(logits), with label smoothing's term added: label_smoothing
    times the mean over positions of KL(uniform || p), which is
    -mean(logprobs) - log V.  `backward` maps the upstream gradient to the
    gradient w.r.t. the logits.  The ops are those a tape graph of the loss
    plus the scaled KL over a log-softmax node runs, in its backward order,
    so value and gradient equal that graph's bit for bit."""
    value = res.value
    if label_smoothing > 0.0:
        kl = logprobs.sum() * (-1.0 / logprobs.size) + -math.log(logprobs.shape[-1])
        value = value + kl * label_smoothing

    def backward(g) -> np.ndarray:
        dlog = float(g) * res.grad
        if label_smoothing > 0.0:
            dlog += (g * label_smoothing) * (-1.0 / logprobs.size)
        soft = np.exp(logprobs)
        soft *= dlog.sum(axis=-1, keepdims=True)
        dlog -= soft  # log_softmax
        return dlog

    return value, backward


def ctc_node(logits: Node, labels, label_smoothing: float) -> tuple[Node, str]:
    """The CTC loss of log_softmax(logits), label smoothing's term included,
    as one tape node; returns (node, status).  An unreachable target gives
    a node with no parents, so it carries no gradient."""
    lp = log_softmax(logits.value)
    res = ctc_loss(lp, labels)
    if res.status != "ok":
        return Node(np.asarray(res.value)), res.status
    value, backward = smoothed(res, lp, label_smoothing)
    out = Node(np.asarray(value), (logits,), "ctc")
    out._backward = lambda g: ad._acc(logits, backward(g))
    return out, "ok"


# ---------------------------------------------------------------------------
# self-check suites (backing the loss-check CLI and the acceptance tests)

def random_logprob_matrix(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return log_softmax(rng.normal(size=shape))


def oracle_equivalence_suite(instances: int = 200, seed: int = 0) -> dict:
    """Compare both DP losses against their enumeration oracles on random
    small instances; returns max absolute deviations in nats."""
    rng = np.random.default_rng(seed)
    max_ctc = 0.0
    max_trans = 0.0
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
    worst_ctc = 0.0
    worst_trans = 0.0
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

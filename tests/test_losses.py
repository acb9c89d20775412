"""Lattice losses: hand-worked cases, enumeration oracles, gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pmu.autodiff as ad
import pmu.nn as nn
from pmu.errors import ContractViolation, InputError
from pmu.losses import (
    LOG_FLOOR,
    LossResult,
    ctc_brute_force,
    ctc_loss,
    ctc_losses,
    dense_grad,
    log_softmax,
    oracle_equivalence_suite,
    random_logprob_matrix,
    smoothed,
    transducer_brute_force,
    transducer_loss,
    transducer_losses,
)
from pmu.model import self_condition
from finite_diff import ctc_node_of
from tape_ops import smoothed_loss_node, tape_log_softmax, tape_mul, tape_sum


def logp(*rows):
    return np.log(np.asarray(rows, dtype=np.float64))


class TestCtc:
    def test_single_frame_single_label(self):
        em = logp([0.2, 0.5, 0.3])  # blank, a, b
        res = ctc_loss(em, [1])
        assert res.value == pytest.approx(-math.log(0.5), abs=1e-12)
        assert res.status == "ok"

    def test_single_frame_empty_target_is_blank_prob(self):
        em = logp([0.2, 0.5, 0.3])
        res = ctc_loss(em, [])
        assert res.value == pytest.approx(-math.log(0.2), abs=1e-12)

    def test_two_frames_hand_enumeration(self):
        # V={blank,a}, y=[a]; preimages a.blank, blank.a, a.a
        em = logp([0.4, 0.6], [0.7, 0.3])
        want = -(math.log(0.6 * 0.7 + 0.4 * 0.3 + 0.6 * 0.3))
        assert ctc_loss(em, [1]).value == pytest.approx(want, abs=1e-12)
        assert ctc_brute_force(em, [1]) == pytest.approx(want, abs=1e-12)

    def test_near_certain_blank_frame_shifts_empty_target_loss(self):
        rng = np.random.default_rng(0)
        em = random_logprob_matrix(rng, 3, 4)
        base = ctc_loss(em, []).value
        blank_row = np.full((1, 4), math.log(1e-12))
        blank_row[0, 0] = math.log(1.0 - 3e-12)
        grown = ctc_loss(np.vstack([em, blank_row]), []).value
        assert grown - base == pytest.approx(-blank_row[0, 0], abs=1e-9)

    def test_unreachable_target_inf_zero_grad(self):
        em = random_logprob_matrix(np.random.default_rng(1), 2, 4)
        res = ctc_loss(em, [1, 2, 3])  # U=3 > T=2
        assert res.value == math.inf
        assert res.status == "unreachable"
        assert np.all(res.grad == 0.0)
        assert ctc_brute_force(em, [1, 2, 3]) == math.inf

    def test_repeat_needs_separating_blank(self):
        em = random_logprob_matrix(np.random.default_rng(2), 2, 3)
        res = ctc_loss(em, [1, 1])  # needs T >= 3
        assert res.value == math.inf
        assert res.status == "unreachable"

    def test_blank_in_labels_rejected(self):
        em = random_logprob_matrix(np.random.default_rng(3), 3, 3)
        with pytest.raises(ContractViolation):
            ctc_loss(em, [0, 1])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            T, V = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            U = int(rng.integers(0, 4))
            em = random_logprob_matrix(rng, T, V)
            y = list(rng.integers(1, V, size=U))
            got = ctc_loss(em, y).value
            want = ctc_brute_force(em, y)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert abs(got - want) <= 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 3))

        def f():
            return ctc_node_of(ad.Node(z), [1, 2], 0.0).value

        node = ad.Node(z)
        ad.backward(ctc_node_of(node, [1, 2], 0.0))
        fd = ad.finite_diff_grad(f, [z], eps=1e-5)[0]
        rel = np.max(np.abs(node.grad - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel <= 1e-5

    def test_extreme_log_floor_stays_finite(self):
        em = np.full((3, 3), math.log(1e-30))
        res = ctc_loss(em, [1])
        assert math.isfinite(res.value)
        assert np.isfinite(res.grad).all()

    def test_floored_emissions_are_unreachable(self):
        """Every path emits label 1 once; flooring that column leaves no
        path above LOG_FLOOR, so the posteriors would overflow."""
        em = random_logprob_matrix(np.random.default_rng(7), 3, 3)
        em[:, 1] = 2 * LOG_FLOOR
        with np.errstate(over="raise"):
            res = ctc_loss(em, [1])
        assert (res.status, res.value) == ("unreachable", math.inf)
        assert res.grad.shape == em.shape and not res.grad.any()

    def test_brute_force_refuses_huge_instances(self):
        em = random_logprob_matrix(np.random.default_rng(6), 25, 10)
        with pytest.raises(InputError):
            ctc_brute_force(em, [1])


class TestTransducer:
    def test_single_frame_empty_target(self):
        lat = random_logprob_matrix(np.random.default_rng(0), 1, 1, 3)
        res = transducer_loss(lat, [])
        assert res.value == pytest.approx(-lat[0, 0, 0], abs=1e-12)

    def test_single_frame_single_label_unique_path(self):
        lat = np.log(np.full((1, 2, 2), 0.5))
        lat[0, 0] = np.log([0.4, 0.6])   # blank, y1
        lat[0, 1] = np.log([0.7, 0.3])
        res = transducer_loss(lat, [1])
        assert res.value == pytest.approx(-math.log(0.6 * 0.7), abs=1e-12)

    def test_two_frame_two_path_enumeration(self):
        rng = np.random.default_rng(1)
        lat = random_logprob_matrix(rng, 2, 2, 3)
        y = [2]
        p = np.exp(lat)
        # emit@t0 then blanks at (0,1),(1,1); or blank@(0,0), emit@t1, blank@(1,1)
        want = -math.log(p[0, 0, 2] * p[0, 1, 0] * p[1, 1, 0]
                         + p[0, 0, 0] * p[1, 0, 2] * p[1, 1, 0])
        assert transducer_loss(lat, y).value == pytest.approx(want, abs=1e-12)
        assert transducer_brute_force(lat, y) == pytest.approx(want, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            T, V = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            U = int(rng.integers(0, 4))
            lat = random_logprob_matrix(rng, T, U + 1, V)
            y = list(rng.integers(1, V, size=U))
            got = transducer_loss(lat, y).value
            want = transducer_brute_force(lat, y)
            assert abs(got - want) <= 1e-9

    def test_floored_lattice_is_unreachable(self):
        """Every alignment ends on the last blank; flooring it leaves no
        path above LOG_FLOOR, so the gradient would overflow."""
        lat = random_logprob_matrix(np.random.default_rng(6), 4, 3, 5)
        lat[3, 2, 0] = 2 * LOG_FLOOR
        with np.errstate(over="raise"):
            res = transducer_loss(lat, [1, 2])
        assert res.status == "unreachable"
        assert res.value == math.inf
        assert res.grad.shape == lat.shape and not res.grad.any()

    def test_lattice_label_mismatch_rejected(self):
        lat = random_logprob_matrix(np.random.default_rng(3), 2, 2, 3)
        with pytest.raises((ContractViolation, InputError)):
            transducer_loss(lat, [1, 2])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(3, 3, 4))

        def f():
            return transducer_loss(log_softmax(z), [1, 3]).value

        lp = log_softmax(z)
        res = transducer_loss(lp, [1, 3])
        assert res.status == "ok"
        grad = smoothed(res, lp, 0.0)[1](np.asarray(1.0))
        fd = ad.finite_diff_grad(f, [z], eps=1e-5)[0]
        rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel <= 1e-5

    def test_brute_force_refuses_huge_instances(self):
        lat = random_logprob_matrix(np.random.default_rng(5), 200, 31, 4)
        with pytest.raises(InputError):
            transducer_brute_force(lat, list(range(1, 31)))


def scalar_transducer_reference(lattice, labels):
    """The cell-by-cell T x U forward-backward the vectorised kernel must
    reproduce bit for bit: same addends, same np.logaddexp, per cell."""
    lp = np.maximum(np.asarray(lattice, dtype=np.float64), LOG_FLOOR)
    T, U1, _ = lp.shape
    U = U1 - 1
    NEG = -np.inf
    emit = np.full((T, U), NEG) if U else np.zeros((T, 0))
    for u, lab in enumerate(labels):
        emit[:, u] = lp[:, u, lab]
    blank = lp[:, :, 0]

    alpha = np.full((T, U + 1), NEG)
    alpha[0, 0] = 0.0
    for u in range(1, U + 1):
        alpha[0, u] = alpha[0, u - 1] + emit[0, u - 1]
    for t in range(1, T):
        alpha[t, 0] = alpha[t - 1, 0] + blank[t - 1, 0]
        for u in range(1, U + 1):
            alpha[t, u] = np.logaddexp(alpha[t - 1, u] + blank[t - 1, u],
                                       alpha[t, u - 1] + emit[t, u - 1])
    logz = alpha[T - 1, U] + blank[T - 1, U]

    beta = np.full((T, U + 1), NEG)
    beta[T - 1, U] = blank[T - 1, U]
    for u in range(U - 1, -1, -1):
        beta[T - 1, u] = emit[T - 1, u] + beta[T - 1, u + 1]
    for t in range(T - 2, -1, -1):
        beta[t, U] = blank[t, U] + beta[t + 1, U]
        for u in range(U - 1, -1, -1):
            beta[t, u] = np.logaddexp(blank[t, u] + beta[t + 1, u],
                                      emit[t, u] + beta[t, u + 1])

    grad = np.zeros_like(lp)
    with np.errstate(under="ignore"):
        nxt = np.full((T, U + 1), NEG)
        nxt[:-1] = beta[1:]
        nxt[T - 1, U] = 0.0
        grad[:, :, 0] = -np.exp(alpha + blank + nxt - logz)
        for u, lab in enumerate(labels):
            grad[:, u, lab] -= np.exp(alpha[:, u] + emit[:, u] + beta[:, u + 1] - logz)
    return float(-logz), grad


def bit_exactness_lattices():
    """Seeded lattices over the shapes where an anti-diagonal sweep could
    slip: T=1, U=0, V=2, repeated labels, U much larger than T, and entries
    at or below LOG_FLOOR."""
    rng = np.random.default_rng(2024)
    fixed = [(1, 0, 2), (1, 5, 3), (5, 0, 2), (1, 1, 2), (2, 40, 7),
             (3, 60, 4), (40, 1, 9), (23, 3, 30), (25, 6, 21)]
    shapes = fixed + [(int(rng.integers(1, 40)), int(rng.integers(0, 30)),
                       int(rng.integers(2, 30))) for _ in range(120)]
    cases = []
    for i, (T, U, V) in enumerate(shapes):
        lat = random_logprob_matrix(rng, T, U + 1, V)
        if i % 4 == 1:
            lat *= 40.0  # peaked distributions, wide dynamic range
        if i % 4 == 2:
            lat[rng.random(lat.shape) < 0.3] = 2 * LOG_FLOOR
        y = [int(k) for k in rng.integers(1, V, size=U)]
        if i % 3 == 0 and U:
            y = [y[0]] * U
        cases.append((lat, y))
    return cases


def test_transducer_matches_scalar_recursion_bit_for_bit():
    floored = 0
    for lat, y in bit_exactness_lattices():
        res = transducer_loss(lat, y)
        # where every alignment crosses a floored entry, logz is ~-1e30 and
        # the reference's gradient exp overflows; the kernel reports those
        # lattices unreachable before it computes a gradient
        with np.errstate(over="ignore"):
            want_value, want_grad = scalar_transducer_reference(lat, y)
        if -want_value < LOG_FLOOR / 2:
            floored += 1
            assert (res.status, res.value) == ("unreachable", math.inf)
            assert not res.grad.any(), (lat.shape, y)
            continue
        assert res.status == "ok"
        assert res.value == want_value, (lat.shape, y)
        assert np.array_equal(res.grad, want_grad), (lat.shape, y)
    assert floored  # the floored branch is exercised


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_transducer_matches_brute_force_property(data):
    T = data.draw(st.integers(1, 5), label="T")
    U = data.draw(st.integers(0, 4), label="U")
    V = data.draw(st.integers(2, 5), label="V")
    y = data.draw(st.lists(st.integers(1, V - 1), min_size=U, max_size=U),
                  label="labels")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    lat = random_logprob_matrix(np.random.default_rng(seed), T, U + 1, V)
    assert transducer_loss(lat, y).value == pytest.approx(
        transducer_brute_force(lat, y), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(T=st.integers(1, 6), V=st.integers(2, 4),
       raw=st.lists(st.integers(1, 3), max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(T=1, V=3, raw=[], seed=0)        # one frame, empty target
@example(T=1, V=3, raw=[2], seed=1)       # one frame, one label
@example(T=3, V=2, raw=[1, 1], seed=2)    # a repeat needs a blank between
@example(T=2, V=2, raw=[1, 1], seed=3)    # ... so two frames cannot hold it
@example(T=4, V=4, raw=[3, 3, 3], seed=4)
def test_ctc_matches_brute_force_property(T, V, raw, seed):
    # labels folded into 1..V-1: a small V makes repeated labels common
    y = [1 + (k - 1) % (V - 1) for k in raw]
    em = random_logprob_matrix(np.random.default_rng(seed), T, V)
    res = ctc_loss(em, y)
    want = ctc_brute_force(em, y)
    assert (res.status == "unreachable") == math.isinf(want), (T, V, y)
    if math.isinf(want):
        assert res.value == math.inf and not res.grad.any()
    else:
        assert res.status == "ok"
        assert res.value == pytest.approx(want, abs=1e-12)


def reference_ctc_loss(emissions, labels) -> LossResult:
    """The frame-by-frame CTC kernel that `ctc_loss` replaced, kept verbatim
    (clamping inlined) as the reference its values and gradients must equal
    bit for bit."""
    lp = np.maximum(np.asarray(emissions, dtype=np.float64), LOG_FLOOR)
    T, V = lp.shape
    y = [int(i) for i in labels]
    if any(i == 0 for i in y):
        raise ContractViolation("ctc_loss: labels must not contain blank id 0")
    if any(not (0 < i < V) for i in y):
        raise ContractViolation(f"ctc_loss: label id out of range for V={V}")
    U = len(y)
    repeats = sum(1 for a, b in zip(y, y[1:]) if a == b)
    if T < U + repeats:
        return LossResult(math.inf, np.zeros_like(lp), "unreachable")

    ext = [0]
    for i in y:
        ext.extend([i, 0])
    S = len(ext)
    ext = np.asarray(ext)
    # skip[s]: path may jump from s-2 to s (distinct non-blank labels only)
    skip = np.zeros(S, dtype=bool)
    for s in range(2, S):
        skip[s] = ext[s] != 0 and ext[s] != ext[s - 2]

    NEG = -np.inf
    alpha = np.full((T, S), NEG)
    alpha[0, 0] = lp[0, 0]
    if S > 1:
        alpha[0, 1] = lp[0, ext[1]]
    for t in range(1, T):
        stay = alpha[t - 1]
        move = np.full(S, NEG)
        move[1:] = alpha[t - 1, :-1]
        jump = np.full(S, NEG)
        jump[2:] = alpha[t - 1, :-2]
        jump[~skip] = NEG
        alpha[t] = np.logaddexp(np.logaddexp(stay, move), jump) + lp[t, ext]

    logz = alpha[T - 1, S - 1] if S == 1 else np.logaddexp(alpha[T - 1, S - 1],
                                                           alpha[T - 1, S - 2])
    if not np.isfinite(logz):
        return LossResult(math.inf, np.zeros_like(lp), "unreachable")

    # beta[t, s]: log prob of completing from state s at time t, not counting
    # the emission at time t (it already sits inside alpha).
    beta = np.full((T, S), NEG)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + lp[t + 1, ext]
        stay = nxt
        move = np.full(S, NEG)
        move[:-1] = nxt[1:]
        jump = np.full(S, NEG)
        jump[:-2] = np.where(skip[2:], nxt[2:], NEG)
        beta[t] = np.logaddexp(np.logaddexp(stay, move), jump)

    grad = np.zeros_like(lp)
    post = alpha + beta - logz  # (T, S) state posteriors
    with np.errstate(under="ignore"):
        post = np.exp(post)
    for s in range(S):
        grad[:, ext[s]] -= post[:, s]
    return LossResult(float(-logz), grad, "ok")


@settings(max_examples=300, deadline=None)
@given(T=st.integers(1, 40), V=st.integers(2, 9),
       raw=st.lists(st.integers(1, 8), max_size=16),
       peaked=st.booleans(), floored=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(T=1, V=3, raw=[], peaked=False, floored=False, seed=0)  # T=1, U=0
@example(T=7, V=2, raw=[], peaked=False, floored=False, seed=1)  # U=0
@example(T=1, V=3, raw=[2], peaked=False, floored=False, seed=2)  # T=1
@example(T=6, V=2, raw=[1, 1, 1], peaked=True, floored=False, seed=3)  # repeats
@example(T=9, V=5, raw=[2, 2, 3, 3, 3, 1], peaked=False, floored=True, seed=4)
@example(T=2, V=2, raw=[1, 1], peaked=False, floored=False, seed=5)  # unreachable
@example(T=3, V=5, raw=[1, 2, 3, 4], peaked=False, floored=False, seed=6)  # U > T
@example(T=4, V=3, raw=[2], peaked=False, floored=True, seed=7)
def test_ctc_equals_the_reference_kernel_bit_for_bit(T, V, raw, peaked,
                                                    floored, seed):
    y = [1 + (k - 1) % (V - 1) for k in raw]
    rng = np.random.default_rng(seed)
    em = random_logprob_matrix(rng, T, V)
    if peaked:
        em *= 40.0  # wide dynamic range
    if floored:
        em[rng.random(em.shape) < 0.3] = 2 * LOG_FLOOR
    res = ctc_loss(em, y)
    # where every path crosses a floored entry, logz is ~-1e30 and the
    # reference's posterior exp overflows; the kernel reports those targets
    # unreachable before it computes a gradient
    with np.errstate(over="ignore"):
        want = reference_ctc_loss(em, y)
    if want.status == "ok" and -want.value < LOG_FLOOR / 2:
        assert (res.status, res.value) == ("unreachable", math.inf), (T, V, y)
        assert not res.grad.any(), (T, V, y)
        return
    assert (res.status, res.value) == (want.status, want.value), (T, V, y)
    assert np.array_equal(res.grad, want.grad), (T, V, y)


def ragged_batch(rng, kind, size):
    """`size` rows of (T, labels, V) for a batch of the `kind` ("ctc" or
    "transducer") kernel, ragged in T, U and V, led by the edge rows: T=1
    with U=0, U=0, T=1, and repeated labels."""
    shapes = [(1, 0), (int(rng.integers(2, 30)), 0), (1, int(rng.integers(1, 4))),
              (int(rng.integers(8, 30)), -4)]
    shapes += [(int(rng.integers(1, 30)), int(rng.integers(0, 11)))
               for _ in range(size - len(shapes))]
    rows = []
    V = int(rng.integers(2, 24))
    for T, U in shapes:
        V = V if kind == "transducer" else int(rng.integers(2, 24))
        y = [int(k) for k in rng.integers(1, V, size=abs(U))]
        rows.append((T, [y[0]] * abs(U) if U < 0 else y, V))
    return rows


def floored(rng, lp):
    """Some entries at LOG_FLOOR and some below it."""
    lp[rng.random(lp.shape) < 0.1] = LOG_FLOOR
    lp[rng.random(lp.shape) < 0.1] = 2 * LOG_FLOOR
    return lp


def per_row_result(reference, *row):
    """(status, value, gradient) the batched kernel must give a row: the
    reference's, but unreachable with a zero gradient where every path
    crosses a floored entry (the reference's exp then overflows)."""
    with np.errstate(over="ignore"):
        value, grad = reference(*row)
    if -value < LOG_FLOOR / 2 or math.isinf(value):
        return "unreachable", math.inf, np.zeros_like(grad)
    return "ok", value, grad


def reference_ctc(emissions, labels):
    res = reference_ctc_loss(emissions, labels)
    return res.value, res.grad


def assert_rows_equal(got, want):
    for i, (res, (status, value, grad)) in enumerate(zip(got, want)):
        assert (res.status, res.value) == (status, value), i
        assert np.array_equal(res.grad, grad), i
        assert np.array_equal(np.signbit(res.grad), np.signbit(grad)), i


@pytest.mark.parametrize("seed", range(8))
def test_batched_ctc_equals_the_per_row_reference(seed):
    """Every row of a ragged batch gets the frame-by-frame reference's
    value (==) and gradient (array_equal, signs of zero included); one row
    too short for its target is unreachable with a zero gradient, and its
    neighbours are as in the batch without it."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, (T, y, V) in enumerate(ragged_batch(rng, "ctc", 10)):
        em = random_logprob_matrix(rng, T, V) * (40.0 if i % 3 else 1.0)
        rows.append((floored(rng, em) if i % 2 else em, y))
    short = (random_logprob_matrix(rng, 2, 4), [1, 2, 3])
    with_short = rows[:5] + [short] + rows[5:]
    got = ctc_losses(with_short)
    assert_rows_equal(got, [per_row_result(reference_ctc, *r)
                            for r in with_short])
    assert got[5].status == "unreachable" and not got[5].grad.any()
    assert_rows_equal(got[:5] + got[6:], [(r.status, r.value, r.grad)
                                          for r in ctc_losses(rows)])


@pytest.mark.parametrize("seed", range(8))
def test_batched_transducer_equals_the_per_row_reference(seed):
    """The same for the transducer: each row's value and dense gradient
    equal the cell-by-cell reference's, and a row whose every alignment
    crosses a floored entry alone is unreachable."""
    rng = np.random.default_rng(100 + seed)
    rows = []
    for i, (T, y, V) in enumerate(ragged_batch(rng, "transducer", 9)):
        lat = random_logprob_matrix(rng, T, len(y) + 1, V)
        lat *= 40.0 if i % 3 else 1.0
        rows.append((floored(rng, lat) if i % 2 else lat, y))
    dead = random_logprob_matrix(rng, 5, 3, rows[0][0].shape[2])
    dead[-1, -1, 0] = 2 * LOG_FLOOR  # every alignment ends on it
    with_dead = rows[:4] + [(dead, [1, 1])] + rows[4:]
    got = transducer_losses(with_dead)
    dense = [LossResult(r.value, dense_grad(r, y, lat.shape), r.status)
             for r, (lat, y) in zip(got, with_dead)]
    assert_rows_equal(dense, [per_row_result(scalar_transducer_reference, *r)
                              for r in with_dead])
    assert got[4].status == "unreachable"
    assert not got[4].grad.any() and not got[4].emit.any()
    alone = [LossResult(r.value, dense_grad(r, y, lat.shape), r.status)
             for r, (lat, y) in zip(transducer_losses(rows), rows)]
    assert_rows_equal(dense[:4] + dense[5:],
                      [(r.status, r.value, r.grad) for r in alone])


def uniform_kl(logprobs):
    """Label smoothing's uniform-KL term as `smoothed` adds it to a loss."""
    zero = LossResult(0.0, np.zeros_like(logprobs))
    return smoothed(zero, logprobs, 1.0)[0]


class TestRegularizers:
    def test_uniform_kl_zero_at_uniform(self):
        lp = np.log(np.full((5, 4), 0.25))
        assert uniform_kl(lp) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_kl_positive_otherwise(self):
        lp = log_softmax(np.random.default_rng(0).normal(size=(5, 4)))
        kl = uniform_kl(lp)
        assert kl > 0
        want = np.mean(-lp) - math.log(4)
        assert kl == pytest.approx(want, abs=1e-12)


def test_log_softmax_normalized_in_log_domain():
    z = np.array([[1e3, -1e3, 0.0]])
    lp = log_softmax(z)
    assert np.isfinite(lp).all()
    assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-12)


def composed_ctc(logits, labels, label_smoothing):
    """The CTC node's graph before it was fused: a log-softmax node, the
    kernel's loss node and the uniform-KL nodes."""
    return smoothed_loss_node(ctc_loss, tape_log_softmax(logits), labels,
                              label_smoothing)


def ctc_tap_case(T, V, labels, sc, seed):
    """A tap's trunk rows, head weight and bias and, with `sc`, the
    self-conditioning projection (all non-zero), for (T, V) logits."""
    rng = np.random.default_rng(seed)
    d = 6
    shapes = [(T, d), (d, V), (V,)] + ([(V, d), (d,)] if sc else [])
    return [rng.normal(size=shape) for shape in shapes]


class TestCtcNode:
    @pytest.mark.parametrize("label_smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("T,V,labels,sc", [
        (1, 3, [2], False), (1, 4, [], False), (6, 3, [1, 1, 2, 2], False),
        (23, 11, [4, 7, 7], False), (9, 5, [3, 1, 1], True)],
        ids=["T1", "T1-U0", "repeats", "T23-U3", "self-conditioned"])
    def test_equals_the_composed_graph_bit_for_bit(self, T, V, labels, sc,
                                                   label_smoothing):
        """The value and the gradients of the logits, the trunk and the
        head's parameters are those of the composed graph, bit for bit,
        under an upstream gradient that is not 1.  A self-conditioned tap's
        logits also feed its softmax posterior, a second consumer."""
        arrays = ctc_tap_case(T, V, labels, sc, seed=T + V)
        results = []
        for build in (ctc_node_of, composed_ctc):
            nodes = [ad.Node(a.copy()) for a in arrays]
            logits = nn.linear(*nodes[:3])
            node = build(logits, labels, label_smoothing)
            root = ad.scale(node, 0.37)
            if sc:
                h = self_condition(nodes[0], ad.softmax(logits), *nodes[3:])
                root = ad.add(root, tape_sum(tape_mul(h, h)))
            ad.backward(root)
            results.append([node.value, logits.grad] + [n.grad for n in nodes])
        fused, composed = results
        names = ["value", "logits", "h", "w", "b", "sc_w", "sc_b"]
        for name, a, b in zip(names, fused, composed):
            assert np.array_equal(a, b), name


def test_oracle_suite_self_reports_small_deviation():
    out = oracle_equivalence_suite(instances=50, seed=123)
    assert out["ctc_max_dev"] <= 1e-9
    assert out["transducer_max_dev"] <= 1e-9
    assert out["instances"] == 50

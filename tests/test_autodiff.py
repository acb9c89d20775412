"""Reverse-mode engine: primitive gradients (and those of the nn layers
with hand-written backward rules), graph laws, ParamStore,
finite-difference oracles."""

import numpy as np
import pytest

import pmu.autodiff as ad
import pmu.nn as nn
from finite_diff import (
    ctc_node_case,
    encoder_node_cases,
    finite_diff_sample,
    joint_transducer_case,
)
from pmu.errors import ContractViolation
from tape_ops import (
    tape_conv2d,
    tape_depthwise_conv1d,
    tape_glu,
    tape_matmul,
    tape_mul,
    tape_multi_head_attention,
    tape_reshape,
    tape_sigmoid,
    tape_sum,
    tape_swish,
    tape_take_slice,
    tape_transpose,
)


def _check_grads(build, arrays, eps=1e-4, tol=1e-5):
    """Backward grads of build(arrays...) vs central finite differences."""
    nodes = [ad.Node(a) for a in arrays]
    out = build(*nodes)
    loss = tape_sum(tape_mul(out, out))  # smooth scalarizer
    ad.backward(loss)

    def f():
        ns = [ad.Node(a) for a in arrays]
        o = build(*ns)
        return float(tape_sum(tape_mul(o, o)).value)

    fd = ad.finite_diff_grad(f, arrays, eps=eps)
    for node, est in zip(nodes, fd):
        err = np.max(np.abs(node.grad - est)) / max(1.0, np.max(np.abs(est)))
        assert err <= tol, f"grad mismatch {err:.3e}"


def test_primitive_gradients():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    v = rng.normal(size=(4,))
    m = rng.normal(size=(4, 5))
    lstm = [rng.normal(size=(3, 2)), rng.normal(size=(2, 8)),
            rng.normal(size=(2, 8)), rng.normal(size=(8,))]
    cases = [
        (lambda x, y: ad.add(x, y), [a.copy(), b.copy()]),
        (lambda x, y: tape_mul(x, y), [a.copy(), b.copy()]),
        (lambda x: ad.scale(x, 1.7), [a.copy()]),
        (lambda x: tape_sigmoid(x), [a.copy()]),
        (lambda x: tape_swish(x), [a.copy()]),
        (lambda x: ad.softmax(x), [a.copy()]),
        (lambda x, y: tape_matmul(x, y), [a[:, :4].copy(), m.copy()]),
        (lambda x: tape_reshape(x, (4, 3)), [a.copy()]),
        (lambda x: tape_transpose(x, (1, 0)), [a.copy()]),
        (lambda x: tape_take_slice(x, 1), [a.copy()]),
        (lambda t, wx, wh, bias: nn.lstm_sequence(t, [0, 2, 2, 1], wx, wh, bias),
         [arr.copy() for arr in lstm]),
        # the layers with hand-written backward rules, one by one, and the
        # encoder's fused nodes
        (nn.layer_norm, [a.copy(), rng.normal(size=(4,)), rng.normal(size=(4,))]),
        (tape_depthwise_conv1d, [a.copy(), rng.normal(size=(3, 4))]),
        (tape_conv2d, [rng.normal(size=(5, 4, 2)),
                       rng.normal(size=(3, 3, 2, 3)), rng.normal(size=(3,))]),
        (tape_glu, [a.copy()]),
        (lambda q, k, val: tape_multi_head_attention(q, k, val, 2),
         [a.copy(), rng.normal(size=(5, 4)), rng.normal(size=(5, 4))]),
        joint_transducer_case(rng),
        ctc_node_case(rng),
        *encoder_node_cases(rng),
    ]
    for build, arrays in cases:
        _check_grads(build, arrays)
    del v


def test_broadcast_gradients_unbroadcast():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    row = rng.normal(size=(1, 4))
    col = rng.normal(size=(3, 1))
    scalar = rng.normal(size=())
    _check_grads(lambda x, y: ad.add(x, y), [a.copy(), row.copy()])
    _check_grads(lambda x, y: tape_mul(x, y), [a.copy(), col.copy()])
    _check_grads(lambda x, y: ad.add(x, y), [a.copy(), scalar.copy()])


def test_two_consumer_graph_sums_path_gradients():
    x = ad.Node(np.array(3.0))
    y = ad.add(tape_mul(x, x), ad.scale(x, 5.0))  # x^2 + 5x
    ad.backward(y)
    assert y.value == pytest.approx(24.0)
    assert x.grad == pytest.approx(2 * 3.0 + 5.0)


def test_grad_accumulates_across_shared_subgraph():
    x = ad.Node(np.array([1.0, 2.0]))
    s = tape_sum(x)
    out = ad.add(s, s)
    ad.backward(out)
    assert np.allclose(x.grad, [2.0, 2.0])


def test_backward_handles_deep_chains():
    x = ad.Node(np.array(0.5))
    node = x
    for _ in range(5000):
        node = ad.add(node, ad.Node(np.array(0.0)))
    ad.backward(node)
    assert x.grad == pytest.approx(1.0)


def test_softmax_rows_are_simplex_points():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(scale=rng.uniform(0.1, 50), size=(4, 7))
        p = ad.softmax(ad.Node(z)).value
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_shape_mismatch_raises_contract_violation():
    with pytest.raises(ContractViolation):
        tape_matmul(ad.Node(np.zeros((2, 3))), ad.Node(np.zeros((4, 5))))
    with pytest.raises(ContractViolation):
        ad.add(ad.Node(np.zeros((2, 3))), ad.Node(np.zeros((2, 4))))


def test_finite_diff_quadratic():
    w = np.array(3.0)
    est = ad.finite_diff_grad(lambda: float(w * w), [w], eps=1e-4)[0]
    assert est == pytest.approx(6.0, abs=1e-7)


def test_finite_diff_constant_function():
    w = np.random.default_rng(3).normal(size=(4,))
    est = ad.finite_diff_grad(lambda: 1.25, [w])[0]
    assert np.max(np.abs(est)) <= 1e-8


def test_finite_diff_sample_hits_requested_count():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(6, 6))
    picks = finite_diff_sample(lambda: float((w * w).sum()), [w],
                               per_array=5, rng=rng)
    idx, est = picks[0]
    assert len(idx) == 5
    assert np.allclose(est, 2 * w.reshape(-1)[idx], atol=1e-6)


class TestParamStore:
    def test_init_depends_on_path_and_seed_only(self):
        a = ad.ParamStore(rng_seed=7)
        b = ad.ParamStore(rng_seed=7)
        a.create("x/w", (3, 3))
        a.create("y/w", (3, 3))
        # opposite creation order must not change values
        b.create("y/w", (3, 3))
        b.create("x/w", (3, 3))
        assert np.array_equal(a.get("x/w").value, b.get("x/w").value)
        assert np.array_equal(a.get("y/w").value, b.get("y/w").value)
        assert not np.array_equal(a.get("x/w").value, a.get("y/w").value)

    def test_different_seed_different_values(self):
        a = ad.ParamStore(rng_seed=0)
        b = ad.ParamStore(rng_seed=1)
        a.create("w", (4,))
        b.create("w", (4,))
        assert not np.array_equal(a.get("w").value, b.get("w").value)

    def test_alias_shares_the_node(self):
        ps = ad.ParamStore()
        ps.create("a/w", (2, 2))
        ps.alias("b/w", "a/w")
        assert ps.get("b/w") is ps.get("a/w")

    def test_alias_to_missing_target_rejected(self):
        ps = ad.ParamStore()
        with pytest.raises(ContractViolation):
            ps.alias("b/w", "nope/w")

    def test_alias_to_an_alias_rejected(self):
        ps = ad.ParamStore()
        ps.create("a/w", (2, 2))
        ps.alias("b/w", "a/w")
        with pytest.raises(ContractViolation, match="not a parameter"):
            ps.alias("c/w", "b/w")

    def test_duplicate_create_rejected(self):
        ps = ad.ParamStore()
        ps.create("w", (2,))
        with pytest.raises(ContractViolation):
            ps.create("w", (2,))

    def test_zeros_init(self):
        ps = ad.ParamStore()
        node = ps.create("sc/w", (3, 4), init="zeros")
        assert np.array_equal(node.value, np.zeros((3, 4)))


class TestArenas:
    """A packed store holds its values and gradients as views of two
    float64 arenas in sorted path order."""

    @staticmethod
    def packed():
        ps = ad.ParamStore(rng_seed=3)
        ps.create("b/w", (2, 3))
        ps.create("a/w", (4,))
        ps.alias("c/w", "b/w")
        before = [n.value.copy() for _, n in ps.items()]
        ps.pack()
        return ps, before

    def test_pack_lays_out_the_arenas_in_sorted_path_order(self):
        ps, before = self.packed()
        a, b = ps.get("a/w"), ps.get("b/w")
        assert ps.layout == [["a/w", [4]], ["b/w", [2, 3]]]
        assert ps.values.tobytes() == b"".join(v.tobytes() for v in before)
        assert ps.get("c/w") is b and b.value.flags.c_contiguous
        b.grad[...] = 1.0
        ps.values[:4] = 7.0
        assert ps.grads.tolist() == [0.0] * 4 + [1.0] * 6
        assert a.value.tolist() == [7.0] * 4
        ps.zero_grad()
        assert not ps.grads.any() and b.grad.base is ps.grads

    def test_first_write_into_a_zeroed_view_is_laid_out_as_g_plus_zero(self):
        """What keeps the arenas bit-identical: `_acc` adds a parameter's
        first gradient into its zeroed view, which gives the bits of the
        fresh buffer an unpacked node gets, signed zeros and NaN included."""
        ps, _ = self.packed()
        g = np.array([-0.0, 0.0, 1e-310, -np.inf, np.nan, 3.5])
        ad._acc(ps.get("b/w"), g.reshape(2, 3))
        assert ps.get("b/w").grad.tobytes() == ad.laid_out_as(
            np.zeros((2, 3)), g.reshape(2, 3)).tobytes()

    @pytest.mark.parametrize("late", [lambda ps: ps.create("z/w", (2,)),
                                      lambda ps: ps.alias("z/w", "a/w")],
                             ids=["create", "alias"])
    def test_no_parameter_joins_a_packed_store(self, late):
        """The arena would not hold it, so Adam would never update it."""
        ps, _ = self.packed()
        with pytest.raises(ContractViolation, match="'z/w'.*packed"):
            late(ps)

    @pytest.mark.parametrize("field", ["value", "grad"])
    def test_zero_grad_names_a_rebound_parameter(self, field):
        """A value or gradient rebound off the arenas would be skipped by
        Adam without an error."""
        ps, _ = self.packed()
        setattr(ps.get("c/w"), field, np.ones((2, 3)))
        with pytest.raises(ContractViolation, match="'b/w' does not view"):
            ps.zero_grad()

    def test_zero_grad_needs_a_packed_store(self):
        ps = ad.ParamStore()
        ps.create("a/w", (2,))
        with pytest.raises(ContractViolation, match="'a/w' does not view"):
            ps.zero_grad()

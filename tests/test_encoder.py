"""The encoder's fused nodes: each conformer module and the subsampling
equal the graphs of tape ops they replace bit for bit, the convolution's
matmuls and layer norm's reductions equal the einsum and np.mean forms
they replace, a dropout site's mask of T rows is the prefix of its longer
masks, and a training utterance's graph stays small."""

import os

import numpy as np
import pytest

import pmu.autodiff as ad
import pmu.nn as nn
from pmu import config
from pmu.model import (
    MODULES,
    ConformerTransducer,
    EncoderConfig,
    ModelConfig,
    PMUConfig,
    RunCtx,
    _subsample,
    build_params,
    conformer_module,
    subsampled_length,
)
from tape_ops import (
    composed_module,
    composed_subsample,
    einsum_conv2d_vjp,
    loop_depthwise_conv1d_vjp,
    mean_layer_norm_vjp,
    table_positions,
    tape_mul,
    tape_sum,
)
from test_model import reachable

PRESET = os.path.join(os.path.dirname(config.__file__), "presets",
                      "toy-desk.cfg")


def desk_case(heads, seed):
    """toy-desk's widths with `heads` heads, one block, and every parameter
    drawn from a normal (non-zero biases, gains off one)."""
    cfg = ModelConfig(encoder=EncoderConfig(num_layers=1, attention_dim=32,
                                            ff_dim=64, heads=heads,
                                            conv_kernel=7, dropout=0.1),
                      input_dim=16, subsample_channels=8,
                      vocab={"bpe": 5})
    ps = build_params(cfg, PMUConfig(), seed)
    rng = np.random.default_rng(seed)
    for _, node in ps.items():
        node.value[...] = rng.normal(scale=0.3, size=node.value.shape)
    return cfg, ps, rng


def run(build, x, ps, w, external):
    """build(x node) under upstream gradient `w`; with `external`, x feeds
    one more consumer, whose gradient reaches x before the node's does.
    Returns the value, x's gradient and {path: gradient}, copied out of the
    gradient arena that the next run zeroes."""
    ps.zero_grad()
    x = ad.Node(x.copy())
    node = build(x)
    root = tape_sum(tape_mul(node, ad.Node(w)))
    if external is not None:
        root = ad.add(tape_sum(tape_mul(x, ad.Node(external))), root)
    ad.backward(root)
    return node.value, x.grad, {p: n.grad.copy() for p, n in ps.items()}


def assert_same(fused, composed, input_grad=True):
    value, dx, grads = fused
    want_value, want_dx, want_grads = composed
    assert np.array_equal(value, want_value), "value"
    if input_grad:
        assert np.array_equal(dx, want_dx), "input gradient"
    assert any(g.any() for g in want_grads.values())
    for path, g in want_grads.items():
        assert np.array_equal(grads[path], g), path


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("T", [1, 2, 23, 160])
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("module", list(MODULES))
def test_module_equals_the_composed_graph_bit_for_bit(module, train, T,
                                                      heads):
    """Value, input gradient and every parameter gradient equal those of
    the module's graph of tape ops (==), under an upstream gradient that is
    not 1, with the input also feeding another consumer."""
    cfg, ps, rng = desk_case(heads, seed=T + heads)
    h, w, ext = (rng.normal(size=(T, 32)) for _ in range(3))
    ctx = RunCtx(train=train, seed=5, step=3)
    fused = run(lambda x: conformer_module(x, ps, "enc/l00", module,
                                           cfg.encoder, ctx), h, ps, w, ext)
    composed = run(lambda x: composed_module(x, ps, "enc/l00", module,
                                             cfg.encoder, ctx), h, ps, w, ext)
    assert_same(fused, composed)


@pytest.mark.parametrize("T", [1, 2, 23, 160])
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_subsampling_equals_the_composed_graph_bit_for_bit(train, T):
    """Value and every parameter gradient; the features are not trained,
    so the node gives them no gradient."""
    cfg, ps, rng = desk_case(2, seed=T)
    frames = 4 * T - 1  # ceil(frames / 4) == T
    x, w = rng.normal(size=(frames, 16)), rng.normal(size=(T, 32))
    ctx = RunCtx(train=train, seed=5, step=3)
    fused = run(lambda f: _subsample([f], cfg, ps, ctx), x, ps, w, None)
    composed = run(lambda f: composed_subsample(f, cfg, ps, ctx), x, ps, w,
                   None)
    assert fused[0].shape == (subsampled_length(frames, 4), 32)
    assert fused[1] is None
    assert_same(fused, composed, input_grad=False)


def assert_same_bits(fn, reference, args, g):
    """fn and reference give the same value and gradients under g: equal
    entries, equal signs (zeros included) and equal strides, except on axes
    of length 1, whose stride addresses nothing."""
    value, back = fn(*args)
    want, want_back = reference(*args)
    for i, (got, ref) in enumerate(zip((value, *back(g)), (want, *want_back(g)))):
        assert np.array_equal(got, ref), i
        assert np.array_equal(np.signbit(got), np.signbit(ref)), i
        assert all(a == b for a, b, n in zip(got.strides, ref.strides,
                                             got.shape) if n > 1), i


# (H, W): Ho = 1 at H 1-3, odd and even sides, and the desk (92 frames) and
# long (640 frames) utterances at conv1's and at conv2's input
@pytest.mark.parametrize("H,W", [(1, 16), (2, 7), (3, 8), (5, 5), (6, 4),
                                 (92, 16), (640, 16), (46, 8), (320, 8)])
@pytest.mark.parametrize("cin", [1, 8])
def test_conv2d_matmuls_equal_einsum_bit_for_bit(H, W, cin):
    rng = np.random.default_rng(H * W * cin)
    x = rng.normal(size=(H, W, cin))
    x[::3] = -0.0  # signed zeros beside the padding's
    w, b = rng.normal(size=(3, 3, cin, 8)), rng.normal(size=8)
    g = rng.normal(size=((H - 1) // 2 + 1, (W - 1) // 2 + 1, 8))
    assert_same_bits(nn.conv2d_vjp, einsum_conv2d_vjp, (x, w, b), g)


@pytest.mark.parametrize("T", [1, 2, 23, 92, 160, 300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_layer_norm_reductions_equal_mean_bit_for_bit(T, order):
    rng = np.random.default_rng(T)
    x, g = (np.asarray(rng.normal(size=(T, 32)), order=order) for _ in range(2))
    args = (x, rng.normal(size=32), rng.normal(size=32))
    assert_same_bits(nn.layer_norm_vjp, mean_layer_norm_vjp, args, g)


@pytest.mark.parametrize("lengths", [(1,), (23,), (1, 2), (18, 1, 28, 3),
                                     (160, 23, 1, 92)])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_stacked_depthwise_conv_equals_each_utterance_alone(lengths, k):
    """On a stack of utterances, the depthwise convolution's value, input
    gradient and each utterance's kernel gradient equal those of the
    utterance convolved alone (equal entries and signs, zeros included)."""
    rng = np.random.default_rng(k * len(lengths))
    ends = np.cumsum(lengths)
    spans = tuple(zip([0, *ends[:-1]], ends))
    x, g = (rng.normal(size=(ends[-1], 32)) for _ in range(2))
    x[::5] = -0.0
    kernel = rng.normal(size=(k, 32))
    value, back = nn.depthwise_conv1d_vjp(x, kernel, spans)
    dx, dkers = back(g)
    for (a, b), dker in zip(spans, dkers):
        want, want_back = loop_depthwise_conv1d_vjp(x[a:b], kernel)
        for got, ref in zip((value[a:b], dx[a:b], dker), (want, *want_back(g[a:b]))):
            assert np.array_equal(got, ref) and np.array_equal(
                np.signbit(got), np.signbit(ref)), (a, b)


@pytest.mark.parametrize("d", [4, 32, 36, 64])
def test_positions_equal_the_table_of_T_rows(d):
    """Each table `nn.sinusoid_positions` returns, a prefix of one computed
    for more rows, equals the table computed for its T rows alone (equal
    entries and signs) and cannot be written to."""
    for T in (1, 2, 23, 63, 64, 65, 160, 700):
        got, want = nn.sinusoid_positions(T, d), table_positions(T, d)
        assert np.array_equal(got, want), T
        assert np.array_equal(np.signbit(got), np.signbit(want)), T
        assert not got.flags.writeable


@pytest.mark.parametrize("site,width", [
    ("sub/d", 32), ("enc/l00/ff1/d1", 64), ("enc/l00/ff2/d2", 32),
    ("enc/l01/mhsa/d", 32), ("enc/l01/conv/d", 32)])
def test_mask_of_T_rows_is_the_prefix_of_a_longer_one(site, width):
    """For each site kind, the mask a context draws for T rows is the first
    T rows of the site's mask at 199 rows, whether the context drew for T
    alone or grows after a shorter draw."""
    longest = RunCtx(train=True, seed=3, step=7).mask(0.1, site, (199, width))
    assert 0 < (longest == 0).sum() < longest.size
    growing = RunCtx(train=True, seed=3, step=7)
    for T in (1, 2, 23, 160, 198):
        alone = RunCtx(train=True, seed=3, step=7).mask(0.1, site, (T, width))
        for mask in (alone, growing.mask(0.1, site, (T, width))):
            assert np.array_equal(mask, longest[:T]), T
    assert RunCtx(train=False).mask(0.1, site, (5, width)) is None


def test_training_forward_does_not_depend_on_the_batch():
    """With dropout on, an utterance's prepared forward and loss in a
    stacked batch of four, one of T' = 1, equal (==) those of the utterance
    prepared alone."""
    cfg, _, _ = desk_case(2, seed=0)
    cfg.encoder.num_layers = 2
    cfg.vocab = {"pasm": 6, "bpe": 7}
    model = ConformerTransducer(cfg, PMUConfig(variant="para_ctc"), seed=1)
    rng = np.random.default_rng(2)
    xs = [rng.normal(size=(T, 16)) for T in (40, 93, 3, 61)]
    targets = [{"pasm": [1, 2], "bpe": [3, 1, 4]}] * 2 + [
        {"pasm": [5], "bpe": [2]}, {"pasm": [1, 2], "bpe": [3, 1, 4]}]
    batch = model.prepare(xs, targets, train=True, step=4)
    for x, t, out in zip(xs, targets, batch):
        alone = model.prepare([x], [t], train=True, step=4)[0]
        assert np.array_equal(out.h_n3.value, alone.h_n3.value)
        assert model.loss(out, t).l_total == model.loss(alone, t).l_total


def test_desk_training_utterance_graph_is_small():
    """A desk-train training utterance (the toy-desk preset, T' = 23)
    builds at most 30 op nodes, and every leaf is a parameter: the
    features are not trained, so they are not on the tape."""
    exp = config.load_config(PRESET)
    exp.model.vocab = {"pasm": 27, "bpe": 21}
    model = ConformerTransducer(exp.model, exp.pmu, seed=0)
    x = np.random.default_rng(0).normal(size=(92, exp.model.input_dim))
    targets = {"pasm": [1, 4, 2, 7], "bpe": [3, 5, 9]}
    out = model.prepare([x], [targets], train=True, step=1)[0]
    graph = reachable(model.loss(out, targets, label_smoothing=0.1).node)
    ops = [n for n in graph.values() if n.parents]
    leaves = [n for n in graph.values()
              if not n.parents and not n.op.startswith("param:")]
    assert len(ops) <= 30, len(ops)
    assert not leaves

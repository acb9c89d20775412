"""Tape ops the program computes inside fused nodes, kept here as node-by-node
references: the full sum (the gradient checks' scalarizer), the product,
sigmoid, swish, reshape, transpose and slice ops, log-softmax, a loss
kernel as a node, label smoothing's uniform-KL term, GLU, multi-head
attention and per-call dropout, and the array forms `pmu.nn` replaced with
the same arithmetic: the convolution as np.pad plus einsum and layer norm's
means as np.mean.  From them come the graphs the fused nodes replace: each
conformer module and the subsampling as the composed graph of tape ops, for
the fused nodes' bit-equality tests."""

import math
import zlib

import numpy as np

import pmu.autodiff as ad
import pmu.nn as nn
from pmu.autodiff import Node


def tape_sum(a):
    """Sum of every entry."""
    out = Node(a.value.sum(), (a,), "sum")
    out._backward = lambda g: ad._acc(a, np.broadcast_to(g, a.value.shape))
    return out


def tape_mul(a, b):
    """Elementwise product, with numpy broadcasting."""
    a, b = ad.as_node(a), ad.as_node(b)
    out = Node(ad._combine("mul", lambda x, y: x * y, a, b), (a, b), "mul")

    def _bw(g):
        ad._acc(a, g * b.value)
        ad._acc(b, g * a.value)

    out._backward = _bw
    return out


def tape_matmul(a, b):
    """Matrix product with numpy broadcasting on leading (batch) dims."""
    a, b = ad.as_node(a), ad.as_node(b)
    out = Node(ad._combine("matmul", lambda x, y: x @ y, a, b), (a, b), "matmul")

    def _bw(g):
        ga = g @ np.swapaxes(b.value, -1, -2)
        gb = np.swapaxes(a.value, -1, -2) @ g
        ad._acc(a, ga)
        ad._acc(b, gb)

    out._backward = _bw
    return out


def tape_linear(x, w, b):
    """x @ w + b as a product node and a sum node."""
    return ad.add(tape_matmul(x, w), b)


def tape_sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.value))
    out = Node(y, (a,), "sigmoid")
    out._backward = lambda g: ad._acc(a, g * y * (1.0 - y))
    return out


def tape_swish(a):
    """x * sigmoid(x), a single tape node."""
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = Node(a.value * s, (a,), "swish")
    out._backward = lambda g: ad._acc(a, g * (s + a.value * s * (1.0 - s)))
    return out


def tape_reshape(a, shape):
    out = Node(a.value.reshape(shape), (a,), "reshape")
    out._backward = lambda g: ad._acc(a, g.reshape(a.value.shape))
    return out


def tape_transpose(a, axes):
    inv = np.argsort(axes)
    out = Node(a.value.transpose(axes), (a,), "transpose")
    out._backward = lambda g: ad._acc(a, g.transpose(inv))
    return out


def tape_take_slice(a, index):
    """Basic (slice/int tuple) indexing with scatter-add backward."""
    out = Node(a.value[index], (a,), "slice")

    def _bw(g):
        buf = np.zeros_like(a.value)
        buf[index] = g
        ad._acc(a, buf)

    out._backward = _bw
    return out


def tape_log_softmax(z):
    """Log-softmax along the last axis, stabilized by the row max."""
    shifted = z.value - z.value.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Node(y, (z,), "log_softmax")
    out._backward = lambda g: ad._acc(
        z, g - np.exp(y) * g.sum(axis=-1, keepdims=True))
    return out


def tape_loss_node(kernel, x, labels):
    """`kernel` (ctc_loss or transducer_loss) on x's value as a scalar node;
    the kernel's result must be ok."""
    res = kernel(x.value, labels)
    assert res.status == "ok", res.status
    out = Node(np.asarray(res.value), (x,), kernel.__name__)
    out._backward = lambda g: ad._acc(x, float(g) * res.grad)
    return out


def tape_uniform_kl(logprobs):
    """Mean over positions of KL(uniform || p) over the last axis."""
    ce = ad.scale(tape_sum(logprobs), -1.0 / logprobs.value.size)
    return ad.add(ce, Node(np.asarray(-math.log(logprobs.value.shape[-1]))))


def smoothed_loss_node(kernel, logprobs, labels, label_smoothing):
    """The loss node plus label_smoothing times the uniform-KL term, as the
    objective composed them before the fused nodes."""
    node = tape_loss_node(kernel, logprobs, labels)
    if label_smoothing > 0.0:
        node = ad.add(node, ad.scale(tape_uniform_kl(logprobs), label_smoothing))
    return node


def tape_glu(x):
    """Gated linear unit: split the last axis in half, gate with sigmoid."""
    n = x.value.shape[-1]
    a = tape_take_slice(x, (..., slice(0, n // 2)))
    b = tape_take_slice(x, (..., slice(n // 2, n)))
    return tape_mul(a, tape_sigmoid(b))


def tape_multi_head_attention(q, k, v, num_heads):
    """Scaled dot-product attention over (T, d) sequences."""
    Tq, d = q.value.shape
    Tk = k.value.shape[0]
    dh = d // num_heads

    def split(x, T):
        return tape_transpose(tape_reshape(x, (T, num_heads, dh)), (1, 0, 2))

    qh = split(q, Tq)  # (h, Tq, dh)
    kh = split(k, Tk)
    vh = split(v, Tk)
    scores = ad.scale(tape_matmul(qh, tape_transpose(kh, (0, 2, 1))),
                      1.0 / np.sqrt(dh))
    ctx = tape_matmul(ad.softmax(scores), vh)  # (h, Tq, dh)
    return tape_reshape(tape_transpose(ctx, (1, 0, 2)), (Tq, d))


def tape_dropout(x, p, ctx, site):
    """Inverted dropout with the mask drawn for this call alone, at x's
    shape, from (seed, step, site)."""
    if not ctx.train or p <= 0.0:
        return x
    rng = np.random.default_rng([ctx.seed & 0xFFFFFFFFFFFFFFFF, ctx.step,
                                 zlib.crc32(site.encode("utf-8"))])
    mask = (rng.random(x.value.shape) >= p) / (1.0 - p)
    return tape_mul(x, Node(mask))


def einsum_conv2d_vjp(x, w, b):
    """`nn.conv2d_vjp` as np.pad plus einsum(optimize=True), whose matmuls
    it runs: the reference its products equal bit for bit."""
    H, W, _ = x.shape
    kh, kw, _, _ = w.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    Ho = (H + 2 - kh) // 2 + 1
    Wo = (W + 2 - kw) // 2 + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    cols = win[::2, ::2]  # (Ho, Wo, Cin, kh, kw)
    y = np.einsum("xycij,ijco->xyo", cols, w, optimize=True) + b

    def back(g):
        g = ad.laid_out_as(y, g)  # the einsums and sum follow its layout
        dw = np.einsum("xycij,xyo->ijco", cols, g, optimize=True)
        dcols = np.einsum("xyo,ijco->xycij", g, w, optimize=True)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[i:i + Ho * 2:2, j:j + Wo * 2:2] += dcols[:, :, :, i, j]
        return dxp[1:1 + H, 1:1 + W], dw, g.sum(axis=(0, 1))

    return y, back


def loop_depthwise_conv1d_vjp(x, kernel):
    """One utterance's depthwise convolution, padded alone, with the
    kernel's gradient summed tap by tap: the reference `nn.
    depthwise_conv1d_vjp` equals on each utterance of a stack."""
    T, d = x.shape
    k = kernel.shape[0]
    pad = (k - 1) // 2
    xp = np.zeros((T + 2 * pad, d), dtype=x.dtype)
    xp[pad:pad + T] = x
    y = np.zeros_like(x)
    for j in range(k):
        y += xp[j:j + T] * kernel[j]

    def back(g):
        dxp = np.zeros_like(xp)
        dker = np.zeros_like(kernel)
        for j in range(k):
            dxp[j:j + T] += g * kernel[j]
            dker[j] = (g * xp[j:j + T]).sum(axis=0)
        return dxp[pad:pad + T], dker

    return y, back


def table_positions(T, d):
    """The sinusoidal table of exactly T rows: the reference whose values
    `nn.sinusoid_positions`, a prefix of a longer table, equals."""
    pos = np.arange(T, dtype=np.float64)[:, None]
    dim = np.arange(0, d, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, dim / d)
    pe = np.zeros((T, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    return pe


def mean_layer_norm_vjp(x, gain, bias):
    """`nn.layer_norm_vjp` with its means taken by np.mean: the reference
    it equals bit for bit."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + nn.LN_EPS)
    xhat = xc * inv

    def back(g):
        gg = g * gain
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        return ((gg - m1 - xhat * m2) * inv, (g * xhat).reshape(-1, d).sum(axis=0),
                g.reshape(-1, d).sum(axis=0))

    return xhat * gain + bias, back


def tape_layer_norm(x, gain, bias):
    return ad.vjp_node("layer_norm", mean_layer_norm_vjp, x, gain, bias)


def tape_conv2d(x, w, b):
    return ad.vjp_node("conv2d", nn.conv2d_vjp, x, w, b)


def tape_depthwise_conv1d(x, kernel):
    return ad.vjp_node("depthwise_conv1d", nn.depthwise_conv1d_vjp, x, kernel)


def composed_module(h, ps, p, module, cfg, ctx):
    """Module `module` (ff1, mhsa, conv or ff2) of block `p`, residual add
    included, as the graph of tape ops `model.conformer_module` replaces."""
    def get(leaf):
        return ps.get(f"{p}/{module}/{leaf}")

    def drop(x, site):
        return tape_dropout(x, cfg.dropout, ctx, f"{p}/{module}/{site}")

    y = tape_layer_norm(h, get("ln_g"), get("ln_b"))
    if module in ("ff1", "ff2"):
        y = tape_swish(tape_linear(y, get("w1"), get("b1")))
        y = tape_linear(drop(y, "d1"), get("w2"), get("b2"))
        return ad.add(h, ad.scale(drop(y, "d2"), 0.5))
    if module == "mhsa":
        q, k, v = (tape_linear(y, get(f"w{m}"), get(f"b{m}")) for m in "qkv")
        y = tape_multi_head_attention(q, k, v, cfg.heads)
        y = tape_linear(y, get("wo"), get("bo"))
    else:
        y = tape_glu(tape_linear(y, get("pw1_w"), get("pw1_b")))
        y = tape_depthwise_conv1d(y, get("dw_k"))
        y = tape_layer_norm(y, get("ln2_g"), get("ln2_b"))
        y = tape_linear(tape_swish(y), get("pw2_w"), get("pw2_b"))
    return ad.add(h, drop(y, "d"))


def composed_subsample(x, cfg, ps, ctx):
    """The subsampling as the graph of tape ops `model._subsample`
    replaces."""
    d = cfg.encoder.attention_dim
    x = ad.as_node(x)
    T = x.value.shape[0]
    y = tape_reshape(x, (T, cfg.input_dim, 1))
    for conv in ("sub/conv1", "sub/conv2"):
        y = tape_swish(ad.vjp_node("conv2d", einsum_conv2d_vjp, y,
                                   ps.get(f"{conv}/w"), ps.get(f"{conv}/b")))
    Tp, f, C = y.value.shape
    h = tape_linear(tape_reshape(y, (Tp, f * C)), ps.get("sub/proj/w"),
                  ps.get("sub/proj/b"))
    pe = nn.sinusoid_positions(Tp, d)
    h = ad.add(ad.scale(h, math.sqrt(d)), Node(pe))
    return tape_dropout(h, cfg.encoder.dropout, ctx, "sub/d")

"""Neural-network primitives built on the autodiff tape.

Composite layers (linear, glu, attention) are compositions of tape ops and
inherit their gradients; layer_norm, the convolutions and the LSTM sequence
node carry hand-written backward rules, all verified against finite
differences.  `lstm_cell` is the one LSTM formula: the sequence node runs it
for training and decode calls it directly, off the tape.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Node, as_node
from .errors import ContractViolation

# Variance floor of layer_norm.
LN_EPS = 1e-5


def linear(x, w, b=None) -> Node:
    """x @ w (+ b), with w shaped (in_dim, out_dim)."""
    x, w = as_node(x), as_node(w)
    if x.value.shape[-1] != w.value.shape[0]:
        raise ContractViolation(
            f"linear: input dim {x.value.shape[-1]} != weight rows {w.value.shape[0]}")
    y = ad.matmul(x, w)
    if b is not None:
        y = ad.add(y, b)
    return y


def layer_norm(x, gain, bias) -> Node:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_node(x), as_node(gain), as_node(bias)
    d = x.value.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ContractViolation(
            f"layer_norm: gain/bias must be ({d},), got {gain.value.shape}/{bias.value.shape}")
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = Node(xhat * gain.value + bias.value, (x, gain, bias), "layer_norm")

    def _bw(g):
        gg = g * gain.value
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        ad._acc(x, (gg - m1 - xhat * m2) * inv)
        ad._acc(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        ad._acc(bias, g.reshape(-1, d).sum(axis=0))

    out._backward = _bw
    return out


def glu(x) -> Node:
    """Gated linear unit: split the last axis in half, gate with sigmoid."""
    x = as_node(x)
    n = x.value.shape[-1]
    if n % 2 != 0:
        raise ContractViolation(f"glu: last axis size {n} is odd")
    a = ad.take_slice(x, (..., slice(0, n // 2)))
    b = ad.take_slice(x, (..., slice(n // 2, n)))
    return ad.mul(a, ad.sigmoid(b))


def depthwise_conv1d(x, kernel) -> Node:
    """Per-channel 1-D convolution with same padding; kernel is (k, d), k odd."""
    x, kernel = as_node(x), as_node(kernel)
    T, d = x.value.shape
    k, dk = kernel.value.shape
    if dk != d:
        raise ContractViolation(f"depthwise_conv1d: kernel dim {dk} != input dim {d}")
    if k % 2 == 0:
        raise ContractViolation(f"depthwise_conv1d: kernel size {k} must be odd")
    pad = (k - 1) // 2
    xp = np.zeros((T + 2 * pad, d), dtype=x.value.dtype)
    xp[pad:pad + T] = x.value
    y = np.zeros_like(x.value)
    for j in range(k):
        y += xp[j:j + T] * kernel.value[j]
    out = Node(y, (x, kernel), "depthwise_conv1d")

    def _bw(g):
        dxp = np.zeros_like(xp)
        dker = np.zeros_like(kernel.value)
        for j in range(k):
            dxp[j:j + T] += g * kernel.value[j]
            dker[j] = (g * xp[j:j + T]).sum(axis=0)
        ad._acc(x, dxp[pad:pad + T])
        ad._acc(kernel, dker)

    out._backward = _bw
    return out


def conv2d(x, w, b) -> Node:
    """2-D convolution with stride 2 and zero padding 1 on both spatial axes:
    x (H, W, Cin), w (kh, kw, Cin, Cout), bias b (Cout,)."""
    x, w, b = as_node(x), as_node(w), as_node(b)
    H, W, cin = x.value.shape
    kh, kw, wcin, cout = w.value.shape
    if wcin != cin:
        raise ContractViolation(f"conv2d: input channels {cin} != weight channels {wcin}")
    xp = np.pad(x.value, ((1, 1), (1, 1), (0, 0)))
    Ho = (H + 2 - kh) // 2 + 1
    Wo = (W + 2 - kw) // 2 + 1
    if Ho < 1 or Wo < 1:
        raise ContractViolation(
            f"conv2d: output would be empty for input {x.value.shape} kernel ({kh},{kw})")
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    cols = win[::2, ::2]  # (Ho, Wo, Cin, kh, kw)
    y = np.einsum("xycij,ijco->xyo", cols, w.value, optimize=True) + b.value
    out = Node(y, (x, w, b), "conv2d")

    def _bw(g):
        dw = np.einsum("xycij,xyo->ijco", cols, g, optimize=True)
        dcols = np.einsum("xyo,ijco->xycij", g, w.value, optimize=True)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[i:i + Ho * 2:2, j:j + Wo * 2:2] += dcols[:, :, :, i, j]
        ad._acc(x, dxp[1:1 + H, 1:1 + W])
        ad._acc(w, dw)
        ad._acc(b, g.sum(axis=(0, 1)))

    out._backward = _bw
    return out


def multi_head_attention(q, k, v, num_heads: int) -> Node:
    """Scaled dot-product attention over (T, d) sequences."""
    q, k, v = as_node(q), as_node(k), as_node(v)
    Tq, d = q.value.shape
    Tk, dk_ = k.value.shape
    if d != dk_ or v.value.shape != (Tk, d):
        raise ContractViolation(
            f"multi_head_attention: incompatible shapes q{q.value.shape} "
            f"k{k.value.shape} v{v.value.shape}")
    if d % num_heads != 0:
        raise ContractViolation(
            f"multi_head_attention: dim {d} not divisible by heads {num_heads}")
    dh = d // num_heads

    def split(x, T):
        return ad.transpose(ad.reshape(x, (T, num_heads, dh)), (1, 0, 2))

    qh = split(q, Tq)  # (h, Tq, dh)
    kh = split(k, Tk)
    vh = split(v, Tk)
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(dh))
    attn = ad.softmax(scores)
    ctx = ad.matmul(attn, vh)  # (h, Tq, dh)
    return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (Tq, d))


def lstm_cell(x, h, c, wx, wh, b):
    """One LSTM step on numpy (1, d) rows, off the tape, with the gates
    [input, forget, cell, output] along the 4d axis.  Returns (h, c, sig, g,
    tc): the new state, every gate's sigmoid, the cell gate and tanh(c)."""
    d = h.shape[-1]
    z = (x @ wx + h @ wh) + b
    sig = 1.0 / (1.0 + np.exp(-z))
    g = np.tanh(z[:, 2 * d:3 * d])
    c = sig[:, d:2 * d] * c + sig[:, :d] * g
    tc = np.tanh(c)
    return sig[:, 3 * d:] * tc, c, sig, g, tc


def lstm_sequence(table, ids, wx, wh, b) -> Node:
    """Embed `ids` as rows of `table` and run `lstm_cell` over them from a
    zero state, as one tape node; row u is the hidden state after ids[u].

    The forward keeps every gate; the backward is hand-written BPTT.  Each
    row is its own (1, d) matmul and every parameter gradient gets one
    addition per step, last step first, so value and gradients equal those
    of a chain of per-step tape ops bit for bit."""
    table, wx, wh, b = as_node(table), as_node(wx), as_node(wh), as_node(b)
    d4 = wx.value.shape[1]
    if d4 % 4 != 0 or wh.value.shape != (d4 // 4, d4) or b.value.shape != (d4,):
        raise ContractViolation("lstm_sequence: gate weights must have 4*d columns")
    d = d4 // 4
    ids = np.asarray(ids, dtype=np.intp)
    n = len(ids)
    xs = table.value[ids]
    h = c = np.zeros((1, d))
    steps = []
    for u in range(n):
        steps.append(lstm_cell(xs[u:u + 1], h, c, wx.value, wh.value, b.value))
        h, c = steps[-1][:2]
    hs, cs, sig, g, tc = (np.concatenate(rows, axis=0) for rows in zip(*steps))
    h_prev, c_prev = (np.concatenate([np.zeros((1, d)), m[:-1]]) for m in (hs, cs))
    # dz = ([dc, dc, dc, dh] * partner * act) * dact is each gate's gradient
    # as the tape's mul, sigmoid and tanh rules compute it
    partner = np.concatenate([g, c_prev, sig[:, :d], tc], axis=1)
    act, dact = sig.copy(), 1.0 - sig
    act[:, 2 * d:3 * d], dact[:, 2 * d:3 * d] = 1.0, 1.0 - g * g
    dtanh_c = 1.0 - tc * tc
    out = Node(hs, (table, wx, wh, b), "lstm_sequence")

    def _bw(grad):
        gwx, gwh, gb = wx.ensure_grad(), wh.ensure_grad(), b.ensure_grad()
        dz = np.empty((n, 1, d4))
        dh_next = dc_next = 0.0
        for u in range(n - 1, -1, -1):
            dh = grad[u:u + 1] + dh_next
            dc = (dh * sig[u, 3 * d:]) * dtanh_c[u] + dc_next
            dz[u] = (np.concatenate([dc, dc, dc, dh], axis=1) * partner[u]
                     * act[u]) * dact[u]
            dh_next = dz[u] @ wh.value.T
            dc_next = dc * sig[u, d:2 * d]
            # x^T dz and h^T dz hold one product per entry, as matmul's do
            gwx += xs[u:u + 1].T * dz[u]
            gwh += h_prev[u:u + 1].T * dz[u]
            gb += dz[u, 0]
        # one (1, 4d) @ (4d, d) product per row, added last step first
        np.add.at(table.ensure_grad(), ids[::-1], (dz @ wx.value.T)[::-1, 0])

    out._backward = _bw
    return out


def dropout(x, p: float, seed: int, step: int, site: str, train: bool) -> Node:
    """Inverted dropout with a deterministic (seed, step, site) mask."""
    if not train or p <= 0.0:
        return as_node(x)
    x = as_node(x)
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, step,
                                 zlib.crc32(site.encode("utf-8"))])
    mask = (rng.random(x.value.shape) >= p) / (1.0 - p)
    return ad.mul(x, Node(mask.astype(x.value.dtype)))


def sinusoid_positions(T: int, d: int) -> np.ndarray:
    """Classic sin/cos absolute positional table, shape (T, d)."""
    pos = np.arange(T, dtype=np.float64)[:, None]
    dim = np.arange(0, d, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, dim / d)
    pe = np.zeros((T, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    return pe

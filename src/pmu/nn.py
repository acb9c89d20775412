"""Neural-network primitives for the autodiff tape and its fused nodes.

A `*_vjp` function computes on arrays and returns (value, back), where
back(g) is a tuple of the gradients of its array inputs.  The fused nodes of
`model` compose them, and `ad.vjp_node` makes one a tape node, as `linear`
and `layer_norm` are.  Given `spans`, the (start, stop) rows of stacked
utterances, products, column sums and convolution edges run per utterance,
and a parameter's gradient is the list of the utterances' contributions.
`lstm_sequence` is a node with hand-written BPTT over `lstm_cell`, the one
LSTM formula, which decode calls directly, off the tape.  Every backward
rule is verified against finite differences.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Node, as_node
from .errors import ContractViolation

# Variance floor of layer_norm.
LN_EPS = 1e-5


def linear_vjp(x: np.ndarray, w: np.ndarray, b: np.ndarray, spans=None):
    """x @ w + b, with w shaped (in_dim, out_dim), on arrays: (value, back),
    back(g) -> (dx, dw, db), db unsummed.  Each product runs per span: a
    stacked one rounds some rows otherwise, by shape and BLAS kernel.  The
    products take g C-ordered, as the tape's gradient buffer of a matmul is."""
    if x.shape[-1] != w.shape[0]:
        raise ContractViolation(
            f"linear: input dim {x.shape[-1]} != weight rows {w.shape[0]}")
    spans = spans or ((0, len(x)),)

    def per_span(a, m):
        return a @ m if len(spans) == 1 else np.concatenate([a[s:e] @ m for s, e in spans])

    def back(g):
        g = np.ascontiguousarray(g)
        return (per_span(g, w.T), [x[s:e].T @ g[s:e] for s, e in spans],
                [g[s:e] for s, e in spans])

    return per_span(x, w) + b, back


def linear(x, w, b) -> Node:
    return ad.vjp_node("linear", linear_vjp, x, w, b)


def stack_rows(arrays: list) -> np.ndarray:
    """The arrays' rows in one array; one array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def swish_vjp(a: np.ndarray):
    """x * sigmoid(x) on arrays: (value, back)."""
    s = 1.0 / (1.0 + np.exp(-a))
    return a * s, lambda g: (g * (s + a * s * (1.0 - s)),)


def layer_norm_vjp(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, spans=None):
    """Normalize over the last axis, then scale and shift, on arrays:
    (value, back), back(g) -> (dx, dgain, dbias), the parameters' gradients
    summed over all rows or, given spans, over each span's."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ContractViolation(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    # np.add.reduce(a) / d is np.mean's arithmetic without its wrappers
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv

    def sums(a):
        a = a.reshape(-1, d)
        return a.sum(axis=0) if spans is None else [a[s:e].sum(axis=0) for s, e in spans]

    def back(g):
        gg = g * gain
        m1 = np.add.reduce(gg, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(gg * xhat, axis=-1, keepdims=True) / d
        return (gg - m1 - xhat * m2) * inv, sums(g * xhat), sums(g)

    return xhat * gain + bias, back


def layer_norm(x, gain, bias, spans=None) -> Node:
    return ad.vjp_node("layer_norm", lambda *a: layer_norm_vjp(*a, spans),
                       x, gain, bias)


def depthwise_conv1d_vjp(x: np.ndarray, kernel: np.ndarray, spans=None):
    """Per-channel 1-D convolution with same padding, kernel (k, d) with k
    odd, on arrays: (value, back), back(g) -> (dx, dkernel).  Stacked
    utterances run `pad` zero rows apart, each as if alone."""
    T, d = x.shape
    k, dk = kernel.shape
    if dk != d:
        raise ContractViolation(f"depthwise_conv1d: kernel dim {dk} != input dim {d}")
    if k % 2 == 0:
        raise ContractViolation(f"depthwise_conv1d: kernel size {k} must be odd")
    pad = (k - 1) // 2
    # utterance i's rows start at row o = a + i * pad of the output
    spans = [(a, b, a + i * pad) for i, (a, b) in enumerate(spans or ((0, T),))]
    L = T + (len(spans) - 1) * pad

    def gapped(rows):  # the output's layout, with `pad` zero rows each side
        out = np.zeros((L + 2 * pad, d))
        for a, b, o in spans:
            out[o + pad:o + pad + b - a] = rows[a:b]
        return out

    def unpad(rows):
        return stack_rows([rows[o:o + b - a] for a, b, o in spans])

    xp = gapped(x)
    y = np.zeros((L, d))
    for j in range(k):
        y += xp[j:j + L] * kernel[j]

    def back(g):
        g = gapped(g)[pad:pad + L]
        dxp = np.zeros_like(xp)
        for j in range(k):
            dxp[j:j + L] += g * kernel[j]
        s0, s1 = xp.strides  # windows[t, j] = xp[t + j]
        dker = g[:, None, :] * np.lib.stride_tricks.as_strided(
            xp, (L, k, d), (s0, s0, s1))
        return unpad(dxp[pad:pad + L]), [dker[o:o + b - a].sum(axis=0)
                                         for a, b, o in spans]

    return unpad(y), back


def conv2d_vjp(x: np.ndarray, w: np.ndarray, b: np.ndarray, input_grad: bool = True):
    """2-D convolution with stride 2 and zero padding 1 on both spatial axes,
    x (H, W, Cin), w (kh, kw, Cin, Cout), bias b (Cout,), on arrays: (value,
    back), back(g) -> (dx, dw, db), dx None without `input_grad`.  Each
    product is the matmul that numpy's einsum(optimize=True) runs for it,
    operand order, K = (kh, kw, Cin) order and the value's channel-major
    layout included, so values and gradients are einsum's bit for bit unless
    Wo = 1 and Ho or Cout is 1 too."""
    H, W, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if wcin != cin:
        raise ContractViolation(f"conv2d: input channels {cin} != weight channels {wcin}")
    Ho, Wo = (H + 2 - kh) // 2 + 1, (W + 2 - kw) // 2 + 1
    if Ho < 1 or Wo < 1:
        raise ContractViolation(
            f"conv2d: output would be empty for input {x.shape} kernel ({kh},{kw})")
    xp = np.zeros((H + 2, W + 2, cin), dtype=x.dtype)
    xp[1:1 + H, 1:1 + W] = x
    s0, s1, s2 = xp.strides  # cols: (Ho, Wo, Cin, kh, kw) windows
    cols = np.lib.stride_tricks.as_strided(xp, (Ho, Wo, cin, kh, kw),
                                           (2 * s0, 2 * s1, s2, s0, s1))
    K, M = kh * kw * cin, Ho * Wo
    y = (w.transpose(3, 0, 1, 2).reshape(cout, K)
         @ cols.transpose(3, 4, 2, 0, 1).reshape(K, M)
         ).reshape(cout, Ho, Wo).transpose(1, 2, 0) + b

    def back(g):
        g = ad.laid_out_as(y, g)  # the products and sum follow its layout
        go = g.transpose(2, 0, 1).reshape(cout, M)
        dw = (go @ cols.reshape(M, K)).reshape(cout, cin, kh, kw).transpose(2, 3, 1, 0)
        if not input_grad:
            return None, dw, g.sum(axis=(0, 1))
        dcols = (w.reshape(K, cout) @ go).reshape(kh, kw, cin, Ho, Wo).transpose(3, 4, 2, 0, 1)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[i:i + Ho * 2:2, j:j + Wo * 2:2] += dcols[:, :, :, i, j]
        return dxp[1:1 + H, 1:1 + W], dw, g.sum(axis=(0, 1))

    return y, back


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


def dropout_mask(p: float, seed: int, step: int, site: str, shape: tuple):
    """Inverted dropout's keep mask, scaled by 1/(1-p), for (seed, step,
    site).  The draw fills rows in order, so the mask of T rows is the first
    T rows of any longer one: a step's utterances share each site's mask
    prefix."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, step,
                                 zlib.crc32(site.encode("utf-8"))])
    return (rng.random(shape) >= p) / (1.0 - p)


def sinusoid_positions(T: int, d: int) -> np.ndarray:
    """Classic sin/cos absolute positional table, shape (T, d), read-only.
    Each entry depends on its own position alone, so this is the first T
    rows of a table computed once for T rounded up to a power of two."""
    return _position_table(1 << (max(T, 64) - 1).bit_length(), d)[:T]


@functools.lru_cache(maxsize=8)
def _position_table(T: int, d: int) -> np.ndarray:
    pos = np.arange(T, dtype=np.float64)[:, None]
    dim = np.arange(0, d, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, dim / d)
    pe = np.zeros((T, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    pe.flags.writeable = False
    return pe

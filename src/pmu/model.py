"""Conformer-Transducer with multi-target CTC heads.

The encoder is a stack of pre-norm conformer blocks over 4x-subsampled
features.  The subsampling and each block's four residual modules are one
tape node each, whose backward replays the numpy ops of the graph of tape
ops it replaces, so values and gradients equal that graph's bit for bit.
The variant's CTC heads come from one table, `head_specs`: each entry names
the head's units, the block after which it taps the trunk (the top for
baseline / basic_pmu / para_ctc, between block groups for pca_ctc), its
weight group in the objective, and whether its posterior is fed back into
the trunk through a zero-initialized linear projection (self-conditioning).
Parameters, the forward taps, targets, vocabulary sizes and the weighted
objective all loop over that table.  Head and projection sharing is
expressed as parameter-path aliasing, so "shared" literally means identical
parameter nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, asdict
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import losses, nn
from .autodiff import Node, ParamStore
from .errors import ContractViolation, InputError, raise_problems

VARIANTS = ("baseline", "basic_pmu", "para_ctc", "pca_ctc")
UNIT_CHOICES = ("pasm", "bpe")


# ---------------------------------------------------------------------------
# configuration

@dataclass
class EncoderConfig:
    num_layers: int = 6
    attention_dim: int = 64
    ff_dim: int = 128
    heads: int = 2
    conv_kernel: int = 7
    dropout: float = 0.1
    # two stride-2 convolutions; a class constant, not a settable field
    subsample_factor: ClassVar[int] = 4

    def problems(self) -> list[str]:
        errors = []
        if self.num_layers < 1:
            errors.append(f"num_layers must be >= 1, got {self.num_layers}")
        if self.heads < 1:
            errors.append(f"heads must be >= 1, got {self.heads}")
        elif self.attention_dim % self.heads != 0:
            errors.append(f"attention_dim {self.attention_dim} not divisible "
                          f"by heads {self.heads}")
        if self.conv_kernel % 2 != 1 or self.conv_kernel < 1:
            errors.append(f"conv_kernel must be odd and positive, "
                          f"got {self.conv_kernel}")
        if not (0.0 <= self.dropout < 1.0):
            errors.append(f"dropout must be in [0,1), got {self.dropout}")
        return errors


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    input_dim: int = 16
    lstm_dim: int = 64
    joint_dim: int = 64
    subsample_channels: int = 16
    vocab: dict = field(default_factory=dict)  # unit kind -> vocabulary size

    def problems(self) -> list[str]:
        return self.encoder.problems() + [
            f"{name} must be >= 1"
            for name in ("input_dim", "lstm_dim", "joint_dim", "subsample_channels")
            if getattr(self, name) < 1]


@dataclass
class PMUConfig:
    variant: str = "baseline"
    lambda_trans: float = 0.5
    lambda_ctc: float = 0.5
    alpha: float = 0.7
    beta: float = 0.5
    n1: int = 0
    n2: int = 0
    n3: int = 0
    sc_enabled: bool = False
    heads_shared: bool = False
    trans_units: str = "bpe"

    def problems(self, num_layers: int) -> list[str]:
        errors = []
        if self.variant not in VARIANTS:
            errors.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (0.0 <= self.lambda_trans <= 1.0):
            errors.append(f"lambda_trans {self.lambda_trans} not in [0,1]")
        if not (0.0 <= self.lambda_ctc <= 1.0):
            errors.append(f"lambda_ctc {self.lambda_ctc} not in [0,1]")
        if not (0.0 < self.alpha < 1.0):
            errors.append(f"alpha {self.alpha} not in (0,1)")
        if not (0.0 < self.beta < 1.0):
            errors.append(f"beta {self.beta} not in (0,1)")
        if self.trans_units not in UNIT_CHOICES:
            errors.append(f"trans_units must be one of {UNIT_CHOICES}")
        if self.variant == "pca_ctc":
            if min(self.n1, self.n2, self.n3) < 0 or self.n1 < 1 or self.n3 < 1:
                errors.append(f"pca_ctc needs n1 >= 1, n2 >= 0, n3 >= 1, "
                              f"got ({self.n1},{self.n2},{self.n3})")
            layers = self.n1 + self.n2 + self.n3
            if layers != num_layers:
                errors.append(f"n1+n2+n3 = {layers} != num_layers = {num_layers}")
        else:
            if self.sc_enabled:
                errors.append("sc_enabled requires variant pca_ctc")
            if self.heads_shared:
                errors.append("heads_shared requires variant pca_ctc")
        if self.heads_shared:
            if not self.sc_enabled:
                errors.append("heads_shared requires sc_enabled (the shared "
                              "projections are the SC layers)")
            if self.n2 == 0:
                errors.append("heads_shared requires n2 > 0 (two taps to share)")
        return errors


def config_problems(cfg: ModelConfig, pmu: PMUConfig,
                    unsized: set = frozenset()) -> list[str]:
    """Every problem of a model and PMU config, vocabulary sizes too.  The
    unit kinds in `unsized` have no size yet (their tokenizer is reported
    missing) and add no second problem."""
    errors = cfg.problems() + pmu.problems(cfg.encoder.num_layers)
    pasm, small = cfg.vocab.get("pasm", 0), cfg.vocab.get("bpe_small", 0)
    if pmu.heads_shared and pasm != small and not {"pasm", "bpe_small"} & unsized:
        errors.append(f"heads_shared requires equal head sizes, got "
                      f"vocabulary sizes pasm={pasm} vs bpe_small={small}")
    for kind in unit_kinds(pmu):
        if cfg.vocab.get(kind, 0) < 2 and kind not in unsized:
            errors.append(f"the {kind} vocabulary needs >= 2 entries (blank "
                          f"plus one unit), got {cfg.vocab.get(kind, 0)}")
    return errors


def validate_configs(cfg: ModelConfig, pmu: PMUConfig):
    raise_problems(config_problems(cfg, pmu))


@dataclass(frozen=True)
class HeadSpec:
    """One CTC head.  `units` keys the vocabulary size, tokenizer and
    target ("pasm", "bpe" or "bpe_small"); `tap` is the number of blocks
    after which the head reads the trunk (None: the top).  Heads of one
    `group` are summed, then scaled by their common `weight`.  `sc` is the
    path of the self-conditioning projection, if any; `shares` names an
    earlier head whose tap and projection parameters this one reuses."""
    name: str
    units: str
    tap: int | None = None
    group: int = 0
    weight: float = 1.0
    sc: str | None = None
    shares: str | None = None


def head_specs(pmu: PMUConfig) -> list[HeadSpec]:
    """The variant's CTC heads in forward order."""
    if pmu.variant == "baseline":
        return [HeadSpec(pmu.trans_units, pmu.trans_units)]
    if pmu.variant == "basic_pmu":
        return [HeadSpec("pasm", "pasm")]
    if pmu.variant == "para_ctc":
        return [HeadSpec("pasm", "pasm", weight=pmu.alpha),
                HeadSpec("bpe", "bpe", group=1, weight=1.0 - pmu.alpha)]
    sc = pmu.sc_enabled
    w = pmu.beta / 2.0 if pmu.n2 else pmu.beta
    mid = [HeadSpec("bpe_n2", "bpe_small", pmu.n1 + pmu.n2, 0, w,
                    "sc/n2" if sc else None,
                    "pasm_n1" if pmu.heads_shared else None)] if pmu.n2 else []
    return [HeadSpec("pasm_n1", "pasm", pmu.n1, 0, w, "sc/n1" if sc else None),
            *mid, HeadSpec("bpe_n3", "bpe", group=1, weight=1.0 - pmu.beta)]


def unit_kinds(pmu: PMUConfig) -> list[str]:
    """The unit kinds the variant trains on, sorted: every head's and the
    transducer's.  Each needs a tokenizer, a vocabulary size and a target."""
    return sorted({spec.units for spec in head_specs(pmu)} | {pmu.trans_units})


def subsampled_length(T: int, factor: int) -> int:
    """Frame count after the subsampling convolutions: ceil(T / factor)."""
    return -(-T // factor)


# ---------------------------------------------------------------------------
# parameter construction

def build_params(cfg: ModelConfig, pmu: PMUConfig, seed: int = 0) -> ParamStore:
    """Create every parameter the configured variant needs, then pack them.

    Initial values depend only on (seed, path), so two configs that differ
    in one component still agree on all common parameters.
    """
    validate_configs(cfg, pmu)
    e = cfg.encoder
    d = e.attention_dim
    ps = ParamStore(seed)

    # subsampling convolutions + projection to the attention dimension
    C = cfg.subsample_channels
    ps.create("sub/conv1/w", (3, 3, 1, C), fan_in=9)
    ps.create("sub/conv1/b", (C,), init="zeros")
    ps.create("sub/conv2/w", (3, 3, C, C), fan_in=9 * C)
    ps.create("sub/conv2/b", (C,), init="zeros")
    freq = (cfg.input_dim + 3) // 4  # after two stride-2 convolutions
    ps.create("sub/proj/w", (freq * C, d))
    ps.create("sub/proj/b", (d,), init="zeros")

    for i in range(e.num_layers):
        p = f"enc/l{i:02d}"
        for ff in ("ff1", "ff2"):
            ps.create(f"{p}/{ff}/ln_g", (d,), init="ones")
            ps.create(f"{p}/{ff}/ln_b", (d,), init="zeros")
            ps.create(f"{p}/{ff}/w1", (d, e.ff_dim))
            ps.create(f"{p}/{ff}/b1", (e.ff_dim,), init="zeros")
            ps.create(f"{p}/{ff}/w2", (e.ff_dim, d))
            ps.create(f"{p}/{ff}/b2", (d,), init="zeros")
        ps.create(f"{p}/mhsa/ln_g", (d,), init="ones")
        ps.create(f"{p}/mhsa/ln_b", (d,), init="zeros")
        for w in ("wq", "wk", "wv", "wo"):
            ps.create(f"{p}/mhsa/{w}", (d, d))
        for b in ("bq", "bk", "bv", "bo"):
            ps.create(f"{p}/mhsa/{b}", (d,), init="zeros")
        ps.create(f"{p}/conv/ln_g", (d,), init="ones")
        ps.create(f"{p}/conv/ln_b", (d,), init="zeros")
        ps.create(f"{p}/conv/pw1_w", (d, 2 * d))
        ps.create(f"{p}/conv/pw1_b", (2 * d,), init="zeros")
        ps.create(f"{p}/conv/dw_k", (e.conv_kernel, d), fan_in=e.conv_kernel)
        ps.create(f"{p}/conv/ln2_g", (d,), init="ones")
        ps.create(f"{p}/conv/ln2_b", (d,), init="zeros")
        ps.create(f"{p}/conv/pw2_w", (d, d))
        ps.create(f"{p}/conv/pw2_b", (d,), init="zeros")
        ps.create(f"{p}/fin_g", (d,), init="ones")
        ps.create(f"{p}/fin_b", (d,), init="zeros")

    heads = {}
    for spec in head_specs(pmu):
        heads[spec.name] = spec
        if spec.shares:
            owner = heads[spec.shares]
            for leaf in ("w", "b"):
                ps.alias(f"tap/{spec.name}/{leaf}", f"tap/{owner.name}/{leaf}")
                if spec.sc:
                    ps.alias(f"{spec.sc}/{leaf}", f"{owner.sc}/{leaf}")
            continue
        V = cfg.vocab[spec.units]
        ps.create(f"tap/{spec.name}/w", (d, V))
        ps.create(f"tap/{spec.name}/b", (V,), init="zeros")
        if spec.sc:
            # zero init makes self-conditioning an exact no-op at step 0
            ps.create(f"{spec.sc}/w", (V, d), init="zeros")
            ps.create(f"{spec.sc}/b", (d,), init="zeros")

    V = cfg.vocab[pmu.trans_units]
    ps.create("lab/embed", (V, cfg.lstm_dim))
    ps.create("lab/lstm/wx", (cfg.lstm_dim, 4 * cfg.lstm_dim))
    ps.create("lab/lstm/wh", (cfg.lstm_dim, 4 * cfg.lstm_dim))
    ps.create("lab/lstm/b", (4 * cfg.lstm_dim,), init="zeros")

    ps.create("joint/wt", (d, cfg.joint_dim))
    ps.create("joint/wu", (cfg.lstm_dim, cfg.joint_dim))
    ps.create("joint/b", (cfg.joint_dim,), init="zeros")
    ps.create("joint/out_w", (cfg.joint_dim, V))
    ps.create("joint/out_b", (V,), init="zeros")
    ps.pack()
    return ps


# ---------------------------------------------------------------------------
# forward pieces

@dataclass
class RunCtx:
    """Per-forward switches: dropout only fires when train is set.  A
    site's mask, a pure function of (seed, step, site), is drawn once at
    `rows` rows or more (`prepare` sets the batch's longest T'), and an
    activation of T rows takes its first T rows."""
    train: bool = False
    seed: int = 0
    step: int = 0
    rows: int = 0
    masks: dict = field(default_factory=dict)

    def mask(self, p: float, site: str, shape: tuple):
        """The mask for an activation of `shape`, or None: no dropout."""
        if not self.train or p <= 0.0:
            return None
        if len(self.masks.get(site, ())) < shape[0]:
            self.masks[site] = nn.dropout_mask(
                p, self.seed, self.step, site, (max(self.rows, shape[0]), shape[1]))
        return self.masks[site][:shape[0]]


def _drop(x, mask):
    return x if mask is None else x * mask


# The modules' bodies on the normed input y, on arrays: body(y, *parameter
# values, mask(site, shape), heads) returns (value, back), and back(g) the
# gradients of y and of each parameter.

def _ff(y, w1, b1, w2, b2, mask, heads):
    """Half-step feed-forward: 0.5 * drop(W2 drop(swish(W1 y)))."""
    s, lin1 = nn.linear_vjp(y, w1, b1)
    s, swish = nn.swish_vjp(s)
    m1 = mask("d1", s.shape)
    l, lin2 = nn.linear_vjp(_drop(s, m1), w2, b2)
    m2 = mask("d2", l.shape)

    def back(g):
        ds, dw2, db2 = lin2(_drop(g * 0.5, m2))
        return (*lin1(swish(_drop(ds, m1))[0]), dw2, db2)

    return _drop(l, m2) * 0.5, back


def _mhsa(y, wq, bq, wk, bk, wv, bv, wo, bo, mask, heads):
    """Multi-head scaled dot-product self-attention, the output projection
    and dropout."""
    T, d = y.shape
    dh = d // heads
    (q, lq), (k, lk), (v, lv) = (nn.linear_vjp(y, w, b) for w, b in
                                 ((wq, bq), (wk, bk), (wv, bv)))
    qh, kh, vh = (m.reshape(T, heads, dh).transpose(1, 0, 2) for m in (q, k, v))
    c = 1.0 / np.sqrt(dh)
    attn, softmax = ad.softmax_vjp((qh @ kh.transpose(0, 2, 1)) * c)
    l, lo = nn.linear_vjp((attn @ vh).transpose(1, 0, 2).reshape(T, d), wo, bo)
    m = mask("d", l.shape)

    def back(g):
        do, dwo, dbo = lo(_drop(g, m))
        dctx = np.ascontiguousarray(do.reshape(T, heads, dh).transpose(1, 0, 2))
        ds = softmax(dctx @ vh.transpose(0, 2, 1))[0] * c
        # the (heads, T, dh) gradients of q, k and v, each back to (T, d)
        grads = [lin(dm.transpose(1, 0, 2).reshape(T, d)) for lin, dm in (
            (lq, ds @ kh), (lk, (qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1)),
            (lv, attn.transpose(0, 2, 1) @ dctx))]
        dy = grads[0][0] + grads[1][0]
        dy += grads[2][0]  # as the composed graph adds them: q's, k's, then v's
        return (dy, *(gp for gr in grads for gp in gr[1:]), dwo, dbo)

    return _drop(l, m), back


def _conv(y, w1, b1, dw_k, ln2_g, ln2_b, w2, b2, mask, heads):
    """Convolution module: pointwise conv to 2d, GLU, depthwise conv, layer
    norm, swish, pointwise conv, dropout."""
    d = y.shape[1]
    z, lin1 = nn.linear_vjp(y, w1, b1)
    a, sg = z[:, :d], 1.0 / (1.0 + np.exp(-z[:, d:]))
    u, dwconv = nn.depthwise_conv1d_vjp(a * sg, dw_k)
    u, ln2 = nn.layer_norm_vjp(u, ln2_g, ln2_b)
    u, swish = nn.swish_vjp(u)
    l, lin2 = nn.linear_vjp(u, w2, b2)
    m = mask("d", l.shape)

    def back(g):
        du, dw2, db2 = lin2(_drop(g, m))
        du, dg2, dbeta2 = ln2(swish(du)[0])
        du, dk = dwconv(du)
        dy, dw1, db1 = lin1(np.concatenate([du * sg, du * a * sg * (1.0 - sg)], 1))
        return dy, dw1, db1, dk, dg2, dbeta2, dw2, db2

    return _drop(l, m), back


_FF = (_ff, ("w1", "b1", "w2", "b2"))
# a block's modules in order: body, and its parameters after the layer norm's
MODULES = {"ff1": _FF,
           "mhsa": (_mhsa, ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")),
           "conv": (_conv, ("pw1_w", "pw1_b", "dw_k", "ln2_g", "ln2_b",
                            "pw2_w", "pw2_b")),
           "ff2": _FF}


def conformer_module(h, ps: ParamStore, p: str, module: str,
                     cfg: EncoderConfig, ctx: RunCtx) -> Node:
    """h + body(layer_norm(h)), the pre-norm residual `module` of block `p`,
    as one tape node."""
    body, leaves = MODULES[module]
    p = f"{p}/{module}"

    def fn(x, ln_g, ln_b, *values):
        y, ln = nn.layer_norm_vjp(x, ln_g, ln_b)
        r, back = body(y, *values[:-1], lambda site, shape: ctx.mask(
            cfg.dropout, f"{p}/{site}", shape), cfg.heads)

        def residual_back(g):
            dy, *grads = back(g)
            dx, *ln_grads = ln(dy)
            return (g, *ln_grads, *grads, dx)

        return x + r, residual_back

    # h is the first and the last parent: the residual's gradient reaches
    # it before the layer norm's, as in the composed graph
    return ad.vjp_node(module, fn, h, *(ps.get(f"{p}/{leaf}") for leaf in
                                        ("ln_g", "ln_b", *leaves)), h)


def conformer_block(h, ps: ParamStore, p: str, cfg: EncoderConfig, ctx: RunCtx):
    """Pre-norm conformer block: half-FF, self-attention, convolution
    module and half-FF, each one residual node, then the closing layer norm."""
    for module in MODULES:
        h = conformer_module(h, ps, p, module, cfg, ctx)
    return nn.layer_norm(h, ps.get(f"{p}/fin_g"), ps.get(f"{p}/fin_b"))


SUB_LEAVES = ("conv1/w", "conv1/b", "conv2/w", "conv2/b", "proj/w", "proj/b")


def _subsample(x, cfg: ModelConfig, ps: ParamStore, ctx: RunCtx) -> Node:
    """Two stride-2 convolutions with swish, the projection to the attention
    dimension scaled by sqrt(d), sinusoidal positions and dropout: one node."""
    x = ad.as_node(x)
    if x.value.ndim != 2 or x.value.shape[1] != cfg.input_dim:
        raise ContractViolation(f"expected features (T, {cfg.input_dim}), "
                                f"got {x.value.shape}")
    d = cfg.encoder.attention_dim

    def fn(x, w1, b1, w2, b2, pw, pb):
        y, conv1 = nn.conv2d_vjp(x.reshape(*x.shape, 1), w1, b1)
        y, swish1 = nn.swish_vjp(y)
        y, conv2 = nn.conv2d_vjp(y, w2, b2)
        y, swish2 = nn.swish_vjp(y)
        h, proj = nn.linear_vjp(y.reshape(len(y), -1), pw, pb)
        m = ctx.mask(cfg.encoder.dropout, "sub/d", h.shape)

        def back(g):
            dh, dpw, dpb = proj(_drop(g, m) * math.sqrt(d))
            dy, dw2, db2 = conv2(swish2(dh.reshape(y.shape))[0])
            dx, dw1, db1 = conv1(swish1(dy)[0])
            return dx.reshape(x.shape), dw1, db1, dw2, db2, dpw, dpb

        return _drop(h * math.sqrt(d) + nn.sinusoid_positions(len(h), d), m), back

    return ad.vjp_node("subsample", fn, x, *(ps.get(f"sub/{leaf}")
                                             for leaf in SUB_LEAVES))


def ctc_head(h, ps: ParamStore, name: str):
    """The logits of the tap's emission head."""
    return nn.linear(h, ps.get(f"tap/{name}/w"), ps.get(f"tap/{name}/b"))


def self_condition(h, ctc_posterior, w, b):
    """h' = h + posterior @ w + b, frame-wise; the conditioning signal is
    the tap's softmax posterior projected back to the trunk dimension."""
    return ad.add(h, nn.linear(ctc_posterior, w, b))


@dataclass
class ForwardOutputs:
    """One utterance's forward, built whole by `prepare`; `results` holds
    the batched kernels' results, name or "trans" -> LossResult."""
    h_n3: Node  # the top of the trunk
    ctc_heads: dict  # head name -> logits
    h_u: Node  # the label encoder's rows
    ctc_logprobs: dict  # head name -> log-probs
    lattice: tuple  # the joint's (z, logprobs)
    results: dict = field(default_factory=dict)


def aencoder_forward(x, cfg: ModelConfig, pmu: PMUConfig, ps: ParamStore,
                     ctx: RunCtx) -> tuple[Node, dict]:
    """Subsampling, the conformer blocks, and the variant's CTC taps: a tap
    reads the trunk after its block and, with a projection, conditions the
    blocks above it on its softmax posterior.  Returns the trunk's top and
    {head name: logits}."""
    e = cfg.encoder
    h = _subsample(x, cfg, ps, ctx)
    heads = {}
    specs = head_specs(pmu)
    for i in range(e.num_layers):
        h = conformer_block(h, ps, f"enc/l{i:02d}", e, ctx)
        for spec in specs:
            if (spec.tap or e.num_layers) == i + 1:
                logits = heads[spec.name] = ctc_head(h, ps, spec.name)
                if spec.sc:
                    h = self_condition(h, ad.softmax(logits),
                                       ps.get(f"{spec.sc}/w"),
                                       ps.get(f"{spec.sc}/b"))
    return h, heads


def label_encoder_forward(y_prefix, ps: ParamStore) -> Node:
    """LSTM over the label prefix; row u is the state after consuming the
    first u labels, with the blank (id 0) embedding as the start symbol."""
    embed = ps.get("lab/embed")
    V = embed.value.shape[0]
    ids = [0] + [int(t) for t in y_prefix]
    for t in ids:
        if not (0 <= t < V):
            raise ContractViolation(f"label id {t} outside vocabulary of {V}")
    return nn.lstm_sequence(embed, ids, ps.get("lab/lstm/wx"),
                            ps.get("lab/lstm/wh"), ps.get("lab/lstm/b"))


def label_encoder_step(token: int, state, ps: ParamStore):
    """Consume one label off the tape: embed it and advance the LSTM from
    `state`, an (h, c) pair of (1, d) arrays.  Returns the new (h, c)."""
    h, c, *_ = nn.lstm_cell(ps.get("lab/embed").value[[token]], *state,
                            ps.get("lab/lstm/wx").value,
                            ps.get("lab/lstm/wh").value,
                            ps.get("lab/lstm/b").value)
    return h, c


JOINT_LEAVES = ("wt", "wu", "b", "out_w", "out_b")  # the joint's parameters


def joint(ht_wt, h_u, ps: ParamStore):
    """The joint network, forward only, on arrays: z = tanh(W_t h_t + W_u h_u
    + b) and the log-probs log_softmax(W_out z + b_out) on every (t, u) pair,
    given the frames' projection ht_wt = h_t @ joint/wt.  Returns (z,
    logprobs), shaped (T, U+1, J) and (T, U+1, V); training's
    `joint_transducer` and greedy decode both call it."""
    wu, b, out_w, out_b = (ps.get(f"joint/{leaf}").value
                           for leaf in JOINT_LEAVES[1:])
    T, U1, J = ht_wt.shape[0], h_u.shape[0], b.shape[0]
    z = np.add(ht_wt.reshape(T, 1, J), (h_u @ wu + b).reshape(1, U1, J))
    np.tanh(z, out=z)
    logits = z @ out_w
    logits += out_b
    return z, losses.log_softmax(logits)


def joint_transducer(h_t, h_u, labels, lattice: tuple, res: losses.LossResult,
                     ps: ParamStore, label_smoothing: float) -> Node:
    """The transducer loss of `lattice`, the joint's (z, logprobs) on h_t, h_u,
    with ok kernel result `res`, plus label smoothing's uniform-KL term, as
    one tape node.  The backward runs the numpy ops of the composed graph's
    backward (log_softmax by `losses.smoothed`, the output layer, tanh, the
    broadcast add, the two input projections) in the same order, so the
    value and every gradient equal that graph's bit for bit, while only z,
    the log-probs and the loss gradient's blank and label entries stay
    alive until backward."""
    z, lp = lattice
    value, dlogits = losses.smoothed(res, lp, label_smoothing, labels)
    wt, wu, b, out_w, out_b = params = [ps.get(f"joint/{leaf}")
                                        for leaf in JOINT_LEAVES]
    out = Node(np.asarray(value), (h_t, h_u, *params), "joint_transducer")

    def _bw(g):
        dlog = dlogits(g)
        ad._acc(out_b, dlog)
        dz = dlog @ np.swapaxes(out_w.value, -1, -2)
        ad._acc(out_w, np.swapaxes(z, -1, -2) @ dlog)
        dz *= 1.0 - z * z  # tanh
        T, U1, J = z.shape
        dt = ad._unbroadcast(dz, (T, 1, J)).reshape(T, J)
        ad._acc(h_t, dt @ np.swapaxes(wt.value, -1, -2))
        ad._acc(wt, np.swapaxes(h_t.value, -1, -2) @ dt)
        du = ad._unbroadcast(dz, (1, U1, J)).reshape(U1, J)
        ad._acc(b, du)
        ad._acc(h_u, du @ np.swapaxes(wu.value, -1, -2))
        ad._acc(wu, np.swapaxes(h_u.value, -1, -2) @ du)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# objective

@dataclass
class LossBundle:
    l_trans: float = math.inf
    l_ctc_components: dict = field(default_factory=dict)
    l_total: float = math.inf
    node: Node | None = None
    skipped_samples: int = 0
    status: str = "ok"


def _weighted_total(pmu: PMUConfig, l_trans, comps: dict, add, scale):
    """lambda_trans * L_trans + lambda_ctc * (sum over groups of weight *
    (sum of the group's head losses)), on floats or on tape nodes.  Sums run
    left to right in head order; a weight of 1 adds no scale."""
    term = None
    for _, group in itertools.groupby(head_specs(pmu), key=lambda s: s.group):
        group = list(group)
        g = functools.reduce(add, (comps[spec.name] for spec in group))
        if group[0].weight != 1.0:
            g = scale(g, group[0].weight)
        term = g if term is None else add(term, g)
    return add(scale(l_trans, pmu.lambda_trans), scale(term, pmu.lambda_ctc))


def combine_losses(pmu: PMUConfig, l_trans: float, comps: dict) -> float:
    """The variant's weighting formula on plain floats; the emitted total
    must match this recomputation exactly."""
    return _weighted_total(pmu, l_trans, comps, operator.add, operator.mul)


def _target(targets: dict, units: str, what: str):
    """targets[units]; a missing one is an InputError naming its user."""
    if targets.get(units) is None:
        raise InputError(f"missing target for {what} ({units} units)")
    return targets[units]


# ---------------------------------------------------------------------------
# the assembled model

class ConformerTransducer:
    """Parameter store plus the forward graph for one configured variant."""

    def __init__(self, cfg: ModelConfig, pmu: PMUConfig, seed: int = 0):
        self.cfg = cfg
        self.pmu = pmu
        self.seed = seed
        self.params = build_params(cfg, pmu, seed)

    def encode(self, x) -> tuple[Node, dict]:
        """The trunk's top and {head name: logits}, dropout off."""
        return aencoder_forward(x, self.cfg, self.pmu, self.params, RunCtx())

    def prepare(self, xs: list, targets: list[dict], train: bool = False,
                step: int = 0) -> list[ForwardOutputs]:
        """Phases 1 and 2 of `train.train_step`: each utterance's forward
        (encoder, label encoder, taps' log-probs, joint's (z, logprobs)),
        with each dropout mask drawn once for the batch, then one `losses.ctc_losses` call over every (utterance, head) row
        and one `losses.transducer_losses` call over every utterance."""
        specs = head_specs(self.pmu)
        y_trans = [_target(t, self.pmu.trans_units, "the transducer")
                   for t in targets]
        ctx = RunCtx(train, self.seed, step, max(subsampled_length(
            len(x), self.cfg.encoder.subsample_factor) for x in xs))
        outs = []
        for x, y in zip(xs, y_trans):
            top, heads = aencoder_forward(x, self.cfg, self.pmu, self.params, ctx)
            h_u = label_encoder_forward(y, self.params)
            outs.append(ForwardOutputs(
                top, heads, h_u,
                {name: losses.log_softmax(logits.value)
                 for name, logits in heads.items()},
                joint(top.value @ self.params.get("joint/wt").value,
                      h_u.value, self.params)))
        ctc = iter(losses.ctc_losses([
            (out.ctc_logprobs[s.name], _target(t, s.units, f"active head {s.name!r}"))
            for out, t in zip(outs, targets) for s in specs]))
        trans = losses.transducer_losses([(out.lattice[1], y)
                                          for out, y in zip(outs, y_trans)])
        for out, res in zip(outs, trans):
            out.results = {**{s.name: next(ctc) for s in specs}, "trans": res}
        return outs

    def loss(self, x, targets: dict, label_smoothing: float = 0.0) -> LossBundle:
        """One utterance's weighted multi-task objective.  `x` is its
        features, prepared here as a batch of one with dropout off, or, in
        `train.train_step`'s third phase, its ForwardOutputs from `prepare`;
        `targets` maps each unit kind ("pasm", "bpe", "bpe_small") to its
        label ids.

        An unreachable target marks the sample as skipped (infinite total,
        no gradient node) rather than aborting; the first head in
        `head_specs` order, then the transducer, names it.  With
        label_smoothing > 0 each component carries a uniform-KL regularizer
        before weighting, so the logged components still recombine exactly
        into the total."""
        out = x if isinstance(x, ForwardOutputs) else self.prepare([x], [targets])[0]
        nodes: dict[str, Node] = {}
        for spec in head_specs(self.pmu):
            res = out.results[spec.name]
            if res.status != "ok":
                return LossBundle(l_ctc_components={spec.name: math.inf},
                                  skipped_samples=1,
                                  status=f"{res.status}:{spec.name}")
            nodes[spec.name] = losses.ctc_node(
                out.ctc_heads[spec.name], out.ctc_logprobs[spec.name], res,
                label_smoothing)
        comps = {name: float(node.value) for name, node in nodes.items()}
        y_trans = _target(targets, self.pmu.trans_units, "the transducer")
        res = out.results["trans"]
        if res.status != "ok":
            return LossBundle(l_ctc_components=comps, skipped_samples=1,
                              status=f"{res.status}:trans")
        trans = joint_transducer(out.h_n3, out.h_u, y_trans, out.lattice, res,
                                 self.params, label_smoothing)
        total = _weighted_total(self.pmu, trans, nodes, ad.add, ad.scale)
        return LossBundle(l_trans=float(trans.value), l_ctc_components=comps,
                          l_total=float(total.value), node=total)

    def config_dict(self) -> dict:
        return {"model": asdict(self.cfg), "pmu": asdict(self.pmu)}


def configs_from_dict(d: dict) -> tuple[ModelConfig, PMUConfig]:
    """Inverse of ConformerTransducer.config_dict."""
    enc = EncoderConfig(**d["model"]["encoder"])
    rest = {k: v for k, v in d["model"].items() if k != "encoder"}
    return ModelConfig(encoder=enc, **rest), PMUConfig(**d["pmu"])

"""Conformer-Transducer with multi-target CTC heads.

The encoder is a stack of pre-norm conformer blocks over 4x-subsampled
features.  The variant's CTC heads come from one table, `head_specs`: each
entry names the head's units, the block after which it taps the trunk (the
top for baseline / basic_pmu / para_ctc, between block groups for pca_ctc),
its weight group in the objective, and whether its posterior is fed back
into the trunk through a zero-initialized linear projection
(self-conditioning).  Parameters, the forward taps, targets, vocabulary
sizes and the weighted objective all loop over that table.  Head and
projection sharing is expressed as parameter-path aliasing, so "shared"
literally means identical parameter nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, asdict
from typing import ClassVar

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


def validate_configs(cfg: ModelConfig, pmu: PMUConfig):
    """One InputError listing every config problem, vocabulary sizes too."""
    errors = cfg.problems() + pmu.problems(cfg.encoder.num_layers)
    pasm, small = cfg.vocab.get("pasm", 0), cfg.vocab.get("bpe_small", 0)
    if pmu.heads_shared and pasm != small:
        errors.append(f"heads_shared requires equal head sizes, got "
                      f"vocabulary sizes pasm={pasm} vs bpe_small={small}")
    for kind in unit_kinds(pmu):
        if cfg.vocab.get(kind, 0) < 2:
            errors.append(f"the {kind} vocabulary needs >= 2 entries (blank "
                          f"plus one unit), got {cfg.vocab.get(kind, 0)}")
    raise_problems(errors)


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
    """Create every parameter the configured variant needs.

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
    return ps


# ---------------------------------------------------------------------------
# forward pieces

@dataclass
class RunCtx:
    """Per-forward switches: dropout only fires when train is set, and its
    masks are a pure function of (seed, step, site)."""
    train: bool = False
    seed: int = 0
    step: int = 0

    def drop(self, x, p: float, site: str):
        return nn.dropout(x, p, self.seed, self.step, site, self.train)


def _ff(h, ps, p, cfg: EncoderConfig, ctx: RunCtx):
    y = nn.layer_norm(h, ps.get(f"{p}/ln_g"), ps.get(f"{p}/ln_b"))
    y = ad.swish(nn.linear(y, ps.get(f"{p}/w1"), ps.get(f"{p}/b1")))
    y = ctx.drop(y, cfg.dropout, f"{p}/d1")
    y = nn.linear(y, ps.get(f"{p}/w2"), ps.get(f"{p}/b2"))
    return ctx.drop(y, cfg.dropout, f"{p}/d2")


def conformer_block(h, ps: ParamStore, p: str, cfg: EncoderConfig, ctx: RunCtx):
    """Pre-norm conformer block: half-FF, self-attention, convolution
    module, half-FF, closing layer norm."""
    h = ad.add(h, ad.scale(_ff(h, ps, f"{p}/ff1", cfg, ctx), 0.5))

    y = nn.layer_norm(h, ps.get(f"{p}/mhsa/ln_g"), ps.get(f"{p}/mhsa/ln_b"))
    q = nn.linear(y, ps.get(f"{p}/mhsa/wq"), ps.get(f"{p}/mhsa/bq"))
    k = nn.linear(y, ps.get(f"{p}/mhsa/wk"), ps.get(f"{p}/mhsa/bk"))
    v = nn.linear(y, ps.get(f"{p}/mhsa/wv"), ps.get(f"{p}/mhsa/bv"))
    y = nn.multi_head_attention(q, k, v, cfg.heads)
    y = nn.linear(y, ps.get(f"{p}/mhsa/wo"), ps.get(f"{p}/mhsa/bo"))
    h = ad.add(h, ctx.drop(y, cfg.dropout, f"{p}/mhsa/d"))

    y = nn.layer_norm(h, ps.get(f"{p}/conv/ln_g"), ps.get(f"{p}/conv/ln_b"))
    y = nn.glu(nn.linear(y, ps.get(f"{p}/conv/pw1_w"), ps.get(f"{p}/conv/pw1_b")))
    y = nn.depthwise_conv1d(y, ps.get(f"{p}/conv/dw_k"))
    y = nn.layer_norm(y, ps.get(f"{p}/conv/ln2_g"), ps.get(f"{p}/conv/ln2_b"))
    y = nn.linear(ad.swish(y), ps.get(f"{p}/conv/pw2_w"), ps.get(f"{p}/conv/pw2_b"))
    h = ad.add(h, ctx.drop(y, cfg.dropout, f"{p}/conv/d"))

    h = ad.add(h, ad.scale(_ff(h, ps, f"{p}/ff2", cfg, ctx), 0.5))
    return nn.layer_norm(h, ps.get(f"{p}/fin_g"), ps.get(f"{p}/fin_b"))


def _subsample(x, cfg: ModelConfig, ps: ParamStore, ctx: RunCtx):
    e = cfg.encoder
    d = e.attention_dim
    x = ad.as_node(x)
    T = x.value.shape[0]
    if x.value.ndim != 2 or x.value.shape[1] != cfg.input_dim:
        raise ContractViolation(f"expected features (T, {cfg.input_dim}), "
                                f"got {x.value.shape}")
    y = ad.reshape(x, (T, cfg.input_dim, 1))
    for conv in ("sub/conv1", "sub/conv2"):
        y = ad.swish(nn.conv2d(y, ps.get(f"{conv}/w"), ps.get(f"{conv}/b")))
    Tp, f, C = y.value.shape
    h = nn.linear(ad.reshape(y, (Tp, f * C)), ps.get("sub/proj/w"),
                  ps.get("sub/proj/b"))
    pe = nn.sinusoid_positions(Tp, d)
    h = ad.add(ad.scale(h, math.sqrt(d)), Node(pe))
    return ctx.drop(h, e.dropout, "sub/d")


def ctc_head(h, ps: ParamStore, name: str):
    """Returns (logprobs, posterior) of the tap's emission head; both views
    share the same logits node."""
    logits = nn.linear(h, ps.get(f"tap/{name}/w"), ps.get(f"tap/{name}/b"))
    return ad.log_softmax(logits), ad.softmax(logits)


def self_condition(h, ctc_posterior, w, b):
    """h' = h + posterior @ w + b, frame-wise; the conditioning signal is
    the tap's softmax posterior projected back to the trunk dimension."""
    h, post = ad.as_node(h), ad.as_node(ctc_posterior)
    V, d = ad.as_node(w).value.shape
    if post.value.shape[-1] != V or h.value.shape[-1] != d:
        raise ContractViolation(
            f"self_condition: posterior {post.value.shape} and projection "
            f"({V},{d}) incompatible with trunk {h.value.shape}")
    return ad.add(h, nn.linear(post, w, b))


@dataclass
class ForwardOutputs:
    h_n3: Node | None = None  # the top of the trunk
    ctc_heads: dict = field(default_factory=dict)
    lattice: Node | None = None
    h_u: Node | None = None


def aencoder_forward(x, cfg: ModelConfig, pmu: PMUConfig, ps: ParamStore,
                     ctx: RunCtx | None = None) -> ForwardOutputs:
    """Subsampling, the conformer blocks, and the variant's CTC taps: a tap
    reads the trunk after its block and, with a projection, conditions the
    blocks above it on its posterior."""
    ctx = ctx or RunCtx()
    e = cfg.encoder
    h = _subsample(x, cfg, ps, ctx)
    out = ForwardOutputs()
    specs = head_specs(pmu)
    for i in range(e.num_layers):
        h = conformer_block(h, ps, f"enc/l{i:02d}", e, ctx)
        for spec in specs:
            if (spec.tap or e.num_layers) == i + 1:
                out.ctc_heads[spec.name], post = ctc_head(h, ps, spec.name)
                if spec.sc:
                    h = self_condition(h, post, ps.get(f"{spec.sc}/w"),
                                       ps.get(f"{spec.sc}/b"))
    out.h_n3 = h
    return out


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


def joint(h_t_all, h_u_all, ps: ParamStore) -> Node:
    """log_softmax(W_out tanh(W_t h_t + W_u h_u + b)) on every (t, u) pair."""
    h_t_all, h_u_all = ad.as_node(h_t_all), ad.as_node(h_u_all)
    T = h_t_all.value.shape[0]
    U1 = h_u_all.value.shape[0]
    J = ps.get("joint/b").value.shape[0]
    at = ad.reshape(nn.linear(h_t_all, ps.get("joint/wt")), (T, 1, J))
    au = ad.reshape(nn.linear(h_u_all, ps.get("joint/wu"), ps.get("joint/b")),
                    (1, U1, J))
    z = ad.tanh(ad.add(at, au))
    logits = ad.add(ad.matmul(z, ps.get("joint/out_w")), ps.get("joint/out_b"))
    return ad.log_softmax(logits)


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


def assemble_objective(outputs: ForwardOutputs, targets: dict, pmu: PMUConfig,
                       label_smoothing: float = 0.0) -> LossBundle:
    """Weighted multi-task objective over the active heads; `targets` maps
    each unit kind ("pasm", "bpe", "bpe_small") to its label ids.

    An unreachable target marks the sample as skipped (infinite total,
    no gradient node) rather than aborting.  With label_smoothing > 0 each
    component carries a uniform-KL regularizer before weighting, so the
    logged components still recombine exactly into the total.
    """
    comp_nodes: dict[str, Node] = {}
    comps: dict[str, float] = {}
    for spec in head_specs(pmu):
        name = spec.name
        head = outputs.ctc_heads.get(name)
        if head is None:
            raise InputError(f"forward outputs carry no CTC head {name!r}")
        target = _target(targets, spec.units, f"active head {name!r}")
        node, status = losses.loss_node(losses.ctc_loss, head, target)
        if status != "ok":
            return LossBundle(l_ctc_components={name: math.inf},
                              skipped_samples=1, status=f"{status}:{name}")
        if label_smoothing > 0.0:
            node = ad.add(node, ad.scale(losses.uniform_kl(head), label_smoothing))
        comp_nodes[name] = node
        comps[name] = float(node.value)

    if outputs.lattice is None:
        raise InputError("forward outputs carry no transducer lattice")
    y_trans = _target(targets, pmu.trans_units, "the transducer")
    trans_node, status = losses.loss_node(losses.transducer_loss,
                                          outputs.lattice, y_trans)
    if status != "ok":
        return LossBundle(l_ctc_components=comps, skipped_samples=1,
                          status=f"{status}:trans")
    if label_smoothing > 0.0:
        trans_node = ad.add(trans_node,
                            ad.scale(losses.uniform_kl(outputs.lattice),
                                     label_smoothing))
    l_trans = float(trans_node.value)
    total = _weighted_total(pmu, trans_node, comp_nodes, ad.add, ad.scale)
    return LossBundle(l_trans=l_trans, l_ctc_components=comps,
                      l_total=float(total.value), node=total)


# ---------------------------------------------------------------------------
# the assembled model

class ConformerTransducer:
    """Parameter store plus the forward graph for one configured variant."""

    def __init__(self, cfg: ModelConfig, pmu: PMUConfig, seed: int = 0):
        self.cfg = cfg
        self.pmu = pmu
        self.seed = seed
        self.params = build_params(cfg, pmu, seed)

    def encode(self, x, train: bool = False, step: int = 0) -> ForwardOutputs:
        ctx = RunCtx(train=train, seed=self.seed, step=step)
        return aencoder_forward(x, self.cfg, self.pmu, self.params, ctx)

    def forward(self, x, y_trans, train: bool = False, step: int = 0) -> ForwardOutputs:
        out = self.encode(x, train=train, step=step)
        out.h_u = label_encoder_forward(y_trans, self.params)
        out.lattice = joint(out.h_n3, out.h_u, self.params)
        return out

    def loss(self, x, targets: dict, train: bool = False, step: int = 0,
             label_smoothing: float = 0.0) -> LossBundle:
        y_trans = _target(targets, self.pmu.trans_units, "the transducer")
        out = self.forward(x, y_trans, train=train, step=step)
        return assemble_objective(out, targets, self.pmu,
                                  label_smoothing=label_smoothing)

    def config_dict(self) -> dict:
        return {"model": asdict(self.cfg), "pmu": asdict(self.pmu)}


def configs_from_dict(d: dict) -> tuple[ModelConfig, PMUConfig]:
    """Inverse of ConformerTransducer.config_dict."""
    enc = EncoderConfig(**d["model"]["encoder"])
    rest = {k: v for k, v in d["model"].items() if k != "encoder"}
    return ModelConfig(encoder=enc, **rest), PMUConfig(**d["pmu"])

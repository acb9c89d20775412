"""Optimization loop: schedule, Adam, clipping, checkpoints, experiments.

Everything a run does is a pure function of (config, seed): parameter
init is keyed by path, dropout by (seed, step, site), batch sampling by
(seed, step).  The persisted run log carries no wall-clock data, so two
runs of the same config are byte-identical; timing goes to stdout only.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore
from .config import DataConfig, Experiment, TrainConfig
from .data import Utterance, check_feature_dim, load_manifest
from .decode import decode_dataset
from .errors import FormatError, InputError, TrainingError, raise_problems
from .metrics import wer_corpus
from .model import (ConformerTransducer, LossBundle, PMUConfig,
                    config_problems, configs_from_dict, unit_kinds)
from .tokenizers import PasmModel, encode, load_tokenizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9

CKPT_MAGIC = b"PMU2"


# ---------------------------------------------------------------------------
# schedule / optimizer

def lr_at(step: int, cfg: TrainConfig) -> float:
    """Inverse-square-root schedule with linear warmup; the two rules meet
    exactly at step == warmup_steps."""
    if step < 1:
        raise InputError(f"lr_at: step must be >= 1, got {step}")
    return cfg.base_lr * min(step ** -0.5, step * cfg.warmup_steps ** -1.5)


@dataclass
class AdamState:
    m: np.ndarray  # the moment arenas, laid out as `ParamStore.values`
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, ps: ParamStore) -> "AdamState":
        return cls(np.zeros_like(ps.values), np.zeros_like(ps.values))


def clip_gradients(ps: ParamStore, max_norm: float) -> float:
    """Scale the gradient arena so the global norm is at most max_norm;
    returns the pre-clip norm, summed per parameter in sorted order."""
    total = 0.0
    for _, node in ps.items():
        total += float((node.grad * node.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        ps.grads *= max_norm / norm
    return norm


def adam_update(ps: ParamStore, state: AdamState, lr: float):
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    g, m, v = ps.grads, state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    ps.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# samples and steps

@dataclass
class Sample:
    id: str
    features: np.ndarray
    targets: dict  # unit kind ("pasm", "bpe", "bpe_small") -> label ids


def train_step(model: ConformerTransducer, batch: list[Sample],
               cfg: TrainConfig, opt: AdamState, step: int) -> tuple[LossBundle, dict]:
    """One optimizer update in three phases: the batch's stacked forward and
    one batched call of each loss kernel (`model.prepare`), each utterance's
    objective (`model.loss`), then one backward from the sum of those not
    skipped, each scaled to a mean; every gradient adds as in one backward
    per utterance, in batch order."""
    model.params.zero_grad()
    outs = model.prepare([s.features for s in batch], [s.targets for s in batch],
                         train=True, step=step)
    bundles = []
    skipped = 0
    for s, out in zip(batch, outs):
        b = model.loss(out, s.targets, label_smoothing=cfg.label_smoothing)
        if b.skipped_samples:
            skipped += 1
            continue
        if not math.isfinite(b.l_total):
            raise TrainingError(
                f"non-finite loss at utterance {s.id!r} (step {step}): "
                f"l_trans={b.l_trans}, components={b.l_ctc_components}")
        bundles.append(b)

    lr = lr_at(step, cfg)
    if not bundles:
        agg = LossBundle(skipped_samples=skipped, status="all_skipped")
        return agg, {"lr": lr, "grad_norm": 0.0, "updated": False}

    n = len(bundles)
    ad.backward(functools.reduce(ad.add, [ad.scale(b.node, 1.0 / n) for b in bundles]))
    norm = clip_gradients(model.params, cfg.grad_clip_norm)
    if not math.isfinite(norm):
        # a NaN norm compares false against the clip bound, so it must be
        # stopped here, before Adam folds it into parameters and moments
        bad = [p for p, node in model.params.items()
               if not np.isfinite(node.grad).all()]
        where = (f"first at parameter {bad[0]!r}" if bad
                 else "every entry finite, the squared norm overflows")
        raise TrainingError(f"non-finite gradient norm {norm} at step {step} "
                            f"({where})")
    adam_update(model.params, opt, lr)

    agg = LossBundle(
        l_trans=sum(b.l_trans for b in bundles) / n,
        l_ctc_components={name: sum(b.l_ctc_components[name] for b in bundles) / n
                          for name in bundles[0].l_ctc_components},
        l_total=sum(b.l_total for b in bundles) / n,
        skipped_samples=skipped)
    return agg, {"lr": lr, "grad_norm": norm, "updated": True}


def sample_batch(n: int, batch_size: int, seed: int, step: int) -> list[int]:
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 7, step])
    return [int(i) for i in rng.choice(n, size=batch_size, replace=n < batch_size)]


# ---------------------------------------------------------------------------
# run log

def _write_atomic(path: str, fill):
    """Write `path` through `fill(fh)` on a binary temp file beside it, then
    move the temp file into place: a failure leaves `path` as it was and
    removes the temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class RunLog:
    """Append-only event list; one JSON object per line when persisted."""

    def __init__(self):
        self.entries: list[dict] = []
        self._last_step = 0

    def add_step(self, step: int, lr: float, bundle: LossBundle, grad_norm: float):
        if step <= self._last_step:
            raise InputError(f"run log steps must increase, got {step} "
                             f"after {self._last_step}")
        self._last_step = step
        self.entries.append({
            "kind": "step", "step": step, "lr": float(lr),
            "l_total": float(bundle.l_total), "l_trans": float(bundle.l_trans),
            "l_ctc": {k: float(v) for k, v in sorted(bundle.l_ctc_components.items())},
            "skipped": int(bundle.skipped_samples),
            "grad_norm": float(grad_norm)})

    def add_eval(self, step: int, report):
        self.entries.append({
            "kind": "eval", "step": step, "wer": float(report.wer),
            "S": report.substitutions, "I": report.insertions,
            "D": report.deletions, "N": report.ref_words})

    def dumps(self) -> str:
        return "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
                       for e in self.entries)

    def write(self, path: str):
        _write_atomic(path, lambda fh: fh.write(self.dumps().encode("utf-8")))


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path: str, model: ConformerTransducer, opt: AdamState,
                    next_step: int, meta: dict | None = None):
    """Magic, u32 header length, JSON header, then the float64 little-endian
    arenas of the parameters, Adam's m and Adam's v, laid out as `params`."""
    header = {**model.config_dict(), "opt_t": opt.t, "next_step": next_step,
              "seed": model.seed, "params": model.params.layout}
    if meta:
        header["meta"] = meta
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def fill(fh):
        fh.write(CKPT_MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        for arena in (model.params.values, opt.m, opt.v):
            fh.write(arena.astype("<f8").tobytes())

    _write_atomic(path, fill)


def load_checkpoint(path: str) -> tuple[dict, bytes]:
    """Returns (header dict, payload bytes), the payload's length checked
    against the header's `params` shapes."""
    with open(path, "rb") as fh:
        magic, blen = fh.read(4), int.from_bytes(fh.read(4), "little")
        blob, payload = fh.read(blen), fh.read()
    if magic != CKPT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{path}: checkpoint header is not JSON ({e})")
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    if not isinstance(header.get("meta", {}), dict):
        raise FormatError(f"{path}: checkpoint meta is not a JSON object")
    try:
        want = 3 * 8 * sum(math.prod(shape) for _, shape in header["params"])
    except (KeyError, TypeError, ValueError):
        raise FormatError(f"{path}: checkpoint header has no params list of "
                          f"[path, shape] pairs") from None
    if len(payload) != want:
        what = ("truncated while reading the payload" if len(payload) < want
                else "trailing bytes after the payload")
        raise FormatError(f"{path}: {what} (wanted {want} bytes, "
                          f"got {len(payload)})")
    return header, payload


def restore_model(path: str) -> tuple[ConformerTransducer, AdamState, dict]:
    """Rebuild a model + optimizer from a checkpoint, validating its integer
    header fields, its config and its `params` list against that config."""
    header, payload = load_checkpoint(path)
    for key in ("seed", "opt_t", "next_step"):
        if type(header.get(key)) is not int:
            raise FormatError(f"{path}: checkpoint header has no integer {key!r}")
    try:
        cfg, pmu = configs_from_dict(header)
        problems = config_problems(cfg, pmu)
        if problems:
            raise FormatError(f"{path}: checkpoint header holds an invalid "
                              f"model config: {'; '.join(problems)}")
        model = ConformerTransducer(cfg, pmu, seed=header["seed"])
    except (AttributeError, KeyError, TypeError) as e:
        raise FormatError(f"{path}: checkpoint header does not hold a model "
                          f"config ({type(e).__name__}: {e})")
    if header["params"] != model.params.layout:
        raise FormatError(f"{path}: checkpoint params list does not match "
                          f"the parameters its config builds")
    values, m, v = np.frombuffer(payload, dtype="<f8").reshape(3, -1)
    model.params.values[...] = values
    return model, AdamState(m.copy(), v.copy(), header["opt_t"]), header


# ---------------------------------------------------------------------------
# full experiment

def build_samples(utts: list[Utterance], pmu: PMUConfig, tokenizers: dict) -> list[Sample]:
    kinds = unit_kinds(pmu)
    return [Sample(u.id, u.features,
                   {k: encode(tokenizers[k], u.transcript).ids for k in kinds})
            for u in utts]


def load_tokenizers(dcfg: DataConfig, pmu: PMUConfig) -> tuple[dict, list[str]]:
    """(unit kind -> tokenizer, problems), read from `[data] <kind>_model`;
    the "pasm" kind takes a PASM model and the BPE kinds take BPE models."""
    errors = []
    toks = {}
    for kind in unit_kinds(pmu):
        path = getattr(dcfg, f"{kind}_model")
        if not path:
            errors.append(f"[data] {kind}_model is required for variant "
                          f"settings but not configured")
            continue
        if not os.path.exists(path):
            errors.append(f"[data] {kind} model file not found: {path}")
            continue
        toks[kind] = load_tokenizer(path)
        if isinstance(toks[kind], PasmModel) != (kind == "pasm"):
            errors.append(f"[data] {kind}_model {path} holds a "
                          f"{type(toks[kind]).__name__}")
    return toks, errors


def run_experiment(exp: Experiment, resume: str | None = None,
                   quiet: bool = False, problems: list[str] | tuple = (),
                   source: str = "") -> dict:
    """Tokenize, train, periodically evaluate, and checkpoint the best-WER
    model.  One InputError lists every config, tokenizer and manifest-path
    problem, after `problems` (a config file's, from `config.read_config`),
    before any feature file is read; `source`, that file's path, names the
    problems found here, as `config.load_config` names them."""
    tcfg, pmu, mcfg, dcfg = exp.train, exp.pmu, exp.model, exp.data
    toks, found = load_tokenizers(dcfg, pmu)
    mcfg.vocab = {kind: len(tok.vocab) for kind, tok in toks.items()}
    found = [*tcfg.problems(),
             *config_problems(mcfg, pmu, set(unit_kinds(pmu)) - set(toks)),
             *found, *(f"[data] {key} is required" for key in
                       ("train_manifest", "dev_manifest") if not getattr(dcfg, key))]
    raise_problems([*problems, *(f"{source}: {p}" if source else p for p in found)])
    trans_tok = toks[pmu.trans_units]

    if resume:
        model, opt, header = restore_model(resume)
        if (model.cfg, model.pmu, model.seed) != (mcfg, pmu, tcfg.seed):
            raise InputError(f"{resume}: checkpoint config does not match "
                             f"the experiment config")
        start_step = header["next_step"]
    else:
        model = ConformerTransducer(mcfg, pmu, seed=tcfg.seed)
        opt = AdamState.for_params(model.params)
        start_step = 1

    train_utts = load_manifest(dcfg.train_manifest)
    dev_utts = load_manifest(dcfg.dev_manifest)
    check_feature_dim(train_utts + dev_utts, mcfg.input_dim)
    samples = build_samples(train_utts, pmu, toks)
    os.makedirs(tcfg.out_dir, exist_ok=True)
    log = RunLog()
    best_wer = math.inf
    best_path = os.path.join(tcfg.out_dir, "best.ckpt")
    if resume and os.path.exists(best_path):
        # a resumed run replaces best.ckpt only with a better model
        best_wer = load_checkpoint(best_path)[0].get("meta", {}).get("best_wer")
        if not isinstance(best_wer, (int, float)):
            raise FormatError(f"{best_path}: checkpoint meta carries no best_wer")
    final_path = os.path.join(tcfg.out_dir, "final.ckpt")
    vocab_meta = {"trans_vocab": list(trans_tok.vocab.units),
                  "word_end_marker": trans_tok.vocab.word_end_marker}
    t_start = time.time()

    for step in range(start_step, tcfg.max_steps + 1):
        idx = sample_batch(len(samples), tcfg.batch_size, tcfg.seed, step)
        batch = [samples[i] for i in idx]
        bundle, info = train_step(model, batch, tcfg, opt, step)
        log.add_step(step, info["lr"], bundle, info["grad_norm"])
        if not quiet:
            rec = dict(log.entries[-1])
            rec["wall_ms"] = round(1000 * (time.time() - t_start), 1)
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")),
                  file=sys.stdout)
        if step % tcfg.eval_every == 0 or step == tcfg.max_steps:
            hyps = decode_dataset(model, dev_utts, trans_tok.vocab,
                                  tcfg.max_symbols_per_frame)
            report = wer_corpus([(u.transcript, hyps[u.id]) for u in dev_utts])
            log.add_eval(step, report)
            if not quiet:
                print(json.dumps(log.entries[-1], sort_keys=True,
                                 separators=(",", ":")), file=sys.stdout)
            if report.wer < best_wer:
                best_wer = report.wer
                save_checkpoint(best_path, model, opt, step + 1,
                                meta={**vocab_meta, "best_wer": report.wer,
                                      "eval_step": step})

    save_checkpoint(final_path, model, opt, tcfg.max_steps + 1, meta=vocab_meta)
    log_path = os.path.join(tcfg.out_dir, "runlog.jsonl")
    log.write(log_path)
    return {"log": log, "log_path": log_path, "final_ckpt": final_path,
            "best_ckpt": best_path if math.isfinite(best_wer) else None,
            "best_wer": best_wer, "model": model,
            "wall_s": time.time() - t_start}

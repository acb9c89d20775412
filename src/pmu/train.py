"""Optimization loop: schedule, Adam, clipping, checkpoints, experiments.

Everything a run does is a pure function of (config, seed): parameter
init is keyed by path, dropout by (seed, step, site), batch sampling by
(seed, step).  The persisted run log carries no wall-clock data, so two
runs of the same config are byte-identical; timing goes to stdout only.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore
from .config import DataConfig, Experiment, TrainConfig
from .data import Utterance, check_feature_dim, load_manifest
from .decode import decode_dataset
from .errors import FormatError, InputError, TrainingError, raise_problems
from .metrics import wer_corpus
from .model import (ConformerTransducer, LossBundle, PMUConfig,
                    configs_from_dict, unit_kinds)
from .tokenizers import PasmModel, encode, load_tokenizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9

CKPT_MAGIC = b"PMU1"


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
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, ps: ParamStore) -> "AdamState":
        state = cls()
        for path, node in ps.items():
            state.m[path] = np.zeros_like(node.value)
            state.v[path] = np.zeros_like(node.value)
        return state


def clip_gradients(ps: ParamStore, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm; returns
    the pre-clip norm."""
    total = 0.0
    for _, node in ps.items():
        total += float((node.grad * node.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, node in ps.items():
            node.grad *= factor
    return norm


def adam_update(ps: ParamStore, state: AdamState, lr: float):
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for path, node in ps.items():
        g = node.grad
        m = state.m[path]
        v = state.v[path]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        node.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# samples and steps

@dataclass
class Sample:
    id: str
    features: np.ndarray
    targets: dict  # unit kind ("pasm", "bpe", "bpe_small") -> label ids


def train_step(model: ConformerTransducer, batch: list[Sample],
               cfg: TrainConfig, opt: AdamState, step: int) -> tuple[LossBundle, dict]:
    """One optimizer update over a batch; per-utterance graphs are built
    independently and gradients accumulate by summation, scaled to a mean."""
    model.params.zero_grad()
    bundles = []
    skipped = 0
    for s in batch:
        b = model.loss(s.features, s.targets, train=True, step=step,
                       label_smoothing=cfg.label_smoothing)
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
    for b in bundles:
        ad.backward(ad.scale(b.node, 1.0 / n))
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

    comps: dict[str, float] = {}
    for name in bundles[0].l_ctc_components:
        comps[name] = sum(b.l_ctc_components[name] for b in bundles) / n
    agg = LossBundle(
        l_trans=sum(b.l_trans for b in bundles) / n,
        l_ctc_components=comps,
        l_total=sum(b.l_total for b in bundles) / n,
        skipped_samples=skipped)
    return agg, {"lr": lr, "grad_norm": norm, "updated": True}


def sample_batch(n: int, batch_size: int, seed: int, step: int) -> list[int]:
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 7, step])
    replace = n < batch_size
    return [int(i) for i in rng.choice(n, size=batch_size, replace=replace)]


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

def _pack_record(fh, path: str, arr: np.ndarray):
    raw = path.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(arr.astype("<f8").tobytes(order="C"))


def save_checkpoint(path: str, model: ConformerTransducer, opt: AdamState,
                    next_step: int, meta: dict | None = None):
    header = dict(model.config_dict())
    header["opt_t"] = opt.t
    header["next_step"] = next_step
    header["seed"] = model.seed
    if meta:
        header["meta"] = meta
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    records = []
    for p, node in model.params.items():
        records.append((p, node.value))
    for p in sorted(opt.m):
        records.append((f"opt/m/{p}", opt.m[p]))
    for p in sorted(opt.v):
        records.append((f"opt/v/{p}", opt.v[p]))

    def fill(fh):
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(records)))
        for p, arr in records:
            _pack_record(fh, p, np.asarray(arr))

    _write_atomic(path, fill)


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated while reading {what} "
                          f"(wanted {n} bytes, got {len(data)})")
    return data


def load_checkpoint(path: str):
    """Returns (header dict, {record path: float64 array})."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path, "magic") != CKPT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        (blen,) = struct.unpack("<I", _read_exact(fh, 4, path, "header length"))
        blob = _read_exact(fh, blen, path, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise FormatError(f"{path}: checkpoint header is not JSON ({e})")
        if not isinstance(header, dict):
            raise FormatError(f"{path}: checkpoint header is not a JSON object")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path, "record count"))
        records: dict[str, np.ndarray] = {}
        for _ in range(count):
            (plen,) = struct.unpack("<H", _read_exact(fh, 2, path, "path length"))
            try:
                rpath = _read_exact(fh, plen, path, "path").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: record path is not UTF-8") from None
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path, "ndim"))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, path, "dim"))[0]
                          for _ in range(ndim))
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read_exact(fh, 8 * n, path, f"data of {rpath}"),
                                 dtype="<f8").reshape(shape)
            records[rpath] = data.copy()
    return header, records


def restore_model(path: str) -> tuple[ConformerTransducer, AdamState, dict]:
    """Rebuild a model + optimizer from a checkpoint, validating its integer
    header fields and every parameter and moment shape against its config."""
    header, records = load_checkpoint(path)
    for key in ("seed", "opt_t", "next_step"):
        if type(header.get(key)) is not int:
            raise FormatError(f"{path}: checkpoint header has no integer {key!r}")
    try:
        cfg, pmu = configs_from_dict(header)
        problems = cfg.problems() + pmu.problems(cfg.encoder.num_layers)
        if problems:
            raise FormatError(f"{path}: checkpoint header holds an invalid "
                              f"model config: {'; '.join(problems)}")
        model = ConformerTransducer(cfg, pmu, seed=header["seed"])
    except (AttributeError, KeyError, TypeError) as e:
        raise FormatError(f"{path}: checkpoint header does not hold a model "
                          f"config ({type(e).__name__}: {e})")
    opt = AdamState.for_params(model.params)
    opt.t = header["opt_t"]
    for p, node in model.params.items():
        for key, dest in ((p, node.value), (f"opt/m/{p}", opt.m[p]),
                          (f"opt/v/{p}", opt.v[p])):
            what = "optimizer" if key.startswith("opt/") else "parameter"
            if key not in records:
                raise FormatError(f"{path}: missing {what} record {key!r}")
            if records[key].shape != dest.shape:
                raise FormatError(f"{path}: {what} record {key!r} has shape "
                                  f"{records[key].shape}, config implies "
                                  f"{dest.shape}")
            dest[...] = records[key]
    known = {p for p, _ in model.params.items()}
    for rpath in records:
        base = rpath.split("/", 2)[-1] if rpath.startswith("opt/") else rpath
        if base not in known:
            raise FormatError(f"{path}: unexpected record {rpath!r}")
    return model, opt, header


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
                   quiet: bool = False) -> dict:
    """Tokenize, train, periodically evaluate, and checkpoint the best-WER
    model.  One InputError lists every config, tokenizer and manifest-path
    problem before any feature file is read."""
    tcfg, pmu, mcfg, dcfg = exp.train, exp.pmu, exp.model, exp.data
    toks, problems = load_tokenizers(dcfg, pmu)
    problems += [f"[data] {key} is required"
                 for key in ("train_manifest", "dev_manifest")
                 if not getattr(dcfg, key)]
    raise_problems(tcfg.problems() + mcfg.problems()
                   + pmu.problems(mcfg.encoder.num_layers) + problems)
    mcfg.vocab = {kind: len(tok.vocab) for kind, tok in toks.items()}
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
        best_wer = (load_checkpoint(best_path)[0].get("meta") or {}).get("best_wer")
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

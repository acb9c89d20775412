"""The benchmark's workloads: desk-train, long-train and dev-decode.

Every workload is a closed loop with one caller: a train step, an eval or
an utterance starts when the previous one has ended.  Inputs come from the
seed alone.  The program is driven through its public functions
(`train.run_experiment`, `decode.decode_dataset`), and all timing is taken
outside it, by the span wrappers of `spans.Tracer`.

Why these three: desk-train has short utterances (T'~23, U~3), so the tape
and layer bookkeeping dominate a step; long-train has long ones (T'~160,
U~55), so the lattice losses do, and it is the only workload that runs the
intermediate taps, the small BPE head and self-conditioning; dev-decode
reads the encoder forward-only plus the per-frame joint/LSTM loop, with no
backward and no loss kernel.

Every end-to-end timing is taken at the reference host speed of
`hostclock.HostClock`; the per-layer timings of a traced run are wall
times.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import pmu.autodiff as ad
import pmu.config as config
import pmu.data as data
import pmu.decode as decode
import pmu.losses as losses
import pmu.metrics as metrics
import pmu.model as model_mod
import pmu.synth as synth
import pmu.tokenizers as tokenizers
import pmu.train as train

from spans import Tracer

PRESET = os.path.join("src", "pmu", "presets", "toy-desk.cfg")
REF_SEED = 0
LOSS_RTOL = 1e-9  # admits reordered float sums, not changed arithmetic
GRAD_MASS_TOL = 1e-9
FRAME_SHIFT_S = 0.010
SETUP_REPEATS = 9
REF_STEPS = {"desk-train": 3, "long-train": 2, "dev-decode": 3}
REF_HYPS = 8

LONG_WORDS = ("bad", "cab", "dab", "ace", "bead", "fad",
              "deaf", "face", "cafe", "bed", "fed", "dace")

# (T, U, V) of the loss-kernel probes
GRID = ((25, 6, 21), (100, 25, 64), (250, 100, 256))


@dataclass
class Shape:
    """Sizes of one workload; `smoke` shrinks them to a few operations."""
    spec: synth.ToySpec
    merges: int
    small_merges: int | None
    round_steps: int  # steps per run_experiment call, which ends in an eval
    min_steps: int
    warmup_steps: int = 0
    decode_utts: int = 0
    wer_bound: float | None = None
    smoke: bool = False


def shape_of(workload: str, smoke: bool) -> Shape:
    if workload == "long-train":
        # 60 dev utterances, so the eval latency percentiles rest on many
        # distinct lengths rather than on the few longest of a small set
        spec = synth.ToySpec(words=LONG_WORDS, num_utts=16 if smoke else 240,
                             words_min=16, words_max=24, dev_fraction=0.25)
        return Shape(spec, merges=2, small_merges=1,
                     round_steps=2 if smoke else 20,
                     min_steps=2 if smoke else 100, smoke=smoke)
    # the default `pmu synth` spec with 360 utterances instead of 240 and a
    # third of them as dev: decode time per toy utterance barely depends on
    # its length, so decode_rtf follows the dev set's mean length, which
    # varies across seeds by 4% over 60 utterances and less over 120
    spec = synth.ToySpec(num_utts=40 if smoke else 360, dev_fraction=1 / 3)
    if workload == "desk-train":
        # 20-step calls, each ending in an eval: the decode figures then
        # rest on at least five differently trained models, whose emission
        # rates differ
        return Shape(spec, merges=12, small_merges=None,
                     round_steps=4 if smoke else 20,
                     min_steps=4 if smoke else 100, smoke=smoke)
    return Shape(spec, merges=12, small_merges=None, round_steps=0,
                 min_steps=0,
                 warmup_steps=4 if smoke else 120,
                 decode_utts=10 if smoke else 600,
                 wer_bound=None if smoke else 0.9, smoke=smoke)


# ---------------------------------------------------------------------------
# bookkeeping

class Ledger:
    """Operations attempted and failed.  An operation is a train step, a
    decoded utterance or a probe; it fails by raising, by a non-finite
    loss, or by failing an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _node_counter() -> int:
    """Next `Node.id`, read without drawing from the counter."""
    return int(re.fullmatch(r"count\((\d+)\)", repr(ad._node_ids)).group(1))


def _rel_close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= LOSS_RTOL * max(1.0, abs(b))


class Checks:
    """Output checks installed around the program's public functions.  A
    step that raises is counted by the caller that catches it."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.bad_utts = 0
        self.samples = 0
        self.skipped = 0

    def install(self, tracer: Tracer):
        tracer.replace(model_mod.ConformerTransducer, "loss", self._loss)
        tracer.replace(train, "train_step", self._step)

    def _loss(self, fn):
        def loss(model, *args, **kwargs):
            b = fn(model, *args, **kwargs)
            if b.status == "ok":
                want = model_mod.combine_losses(model.pmu, b.l_trans,
                                                b.l_ctc_components)
                if not (math.isfinite(b.l_total) and b.l_total == want):
                    self.bad_utts += 1
            return b
        return loss

    def _step(self, fn):
        def step(model, batch, cfg, opt, step_no):
            self.bad_utts = 0
            bundle, info = fn(model, batch, cfg, opt, step_no)
            values = [bundle.l_total, bundle.l_trans,
                      *bundle.l_ctc_components.values()]
            ok = self.bad_utts == 0 and all(math.isfinite(v) for v in values)
            self.ledger.check(ok, f"step {step_no}: loss check failed "
                                  f"({self.bad_utts} bad utterances, {values})")
            self.samples += len(batch)
            self.skipped += bundle.skipped_samples
            return bundle, info
        return step


def install_spans(tracer: Tracer):
    """Spans around each layer's public functions.  train.run, train.step
    and decode.utt feed the end-to-end metrics and always record; the
    others are layer spans, recorded only in traced calls."""
    utt = itertools.count()
    node0 = []

    def set_step(a, k):
        tracer.op = f"step{a[4]}"

    def set_utt(a, k):
        tracer.op = f"utt{next(utt)}"

    def nodes_before(a, k):
        node0.append(_node_counter())

    def utt_count(a, k, r):
        """(input frames, emitted symbols, encoder frames)"""
        frames = np.asarray(a[1]).shape[0]
        return (frames, len(r), model_mod.subsampled_length(
            frames, a[0].cfg.encoder.subsample_factor))

    tracer.patch(train, "run_experiment", "train.run")
    tracer.patch(train, "train_step", "train.step", on_enter=set_step,
                 count=lambda a, k, r: sum(s.features.shape[0] for s in a[1]))
    tracer.patch(decode, "greedy_decode_transducer", "decode.utt",
                 on_enter=set_utt, count=utt_count)

    layer = functools.partial(tracer.patch, layer=True)
    for attr, name in (("sample_batch", "train.sample_batch"),
                       ("clip_gradients", "train.clip"),
                       ("adam_update", "train.adam"),
                       ("save_checkpoint", "train.ckpt_save"),
                       ("build_samples", "train.build_samples")):
        layer(train, attr, name)
    layer(ad, "backward", "autodiff.backward")
    layer(model_mod.ConformerTransducer, "loss", "model.loss",
          on_enter=nodes_before,
          count=lambda a, k, r: _node_counter() - node0.pop())
    for attr, name in (("aencoder_forward", "model.encoder"),
                       ("conformer_block", "model.conformer_block"),
                       ("ctc_head", "model.ctc_head"),
                       ("self_condition", "model.self_condition"),
                       ("label_encoder_forward", "model.label_encoder"),
                       ("joint", "model.joint")):
        layer(model_mod, attr, name)
    layer(losses, "transducer_loss", "losses.transducer",
          count=lambda a, k, r: a[0].shape[0] * a[0].shape[1])
    layer(losses, "ctc_loss", "losses.ctc",
          count=lambda a, k, r: a[0].shape[0] * (2 * len(a[1]) + 1))
    layer(decode, "decode_dataset", "decode.dataset")
    layer(tokenizers, "train_bpe", "tokenizers.train_bpe")
    layer(tokenizers, "train_pasm", "tokenizers.train_pasm")
    layer(tokenizers, "encode_bpe", "tokenizers.encode")
    layer(tokenizers, "encode_pasm", "tokenizers.encode")
    layer(synth, "materialize", "synth.materialize")
    layer(data, "load_manifest", "data.load_manifest")
    layer(metrics, "wer_corpus", "metrics.wer_corpus")


# ---------------------------------------------------------------------------
# inputs

def make_inputs(root: str, shape: Shape, seed: int) -> dict:
    """`pmu synth` data plus the tokenizers the model needs."""
    paths = synth.materialize(root, shape.spec, seed)
    with open(paths["corpus"], "r", encoding="utf-8") as fh:
        corpus = fh.read().splitlines()
    paths["bpe"] = os.path.join(root, "bpe.tok")
    tokenizers.save_bpe(tokenizers.train_bpe(corpus, shape.merges), paths["bpe"])
    if shape.small_merges is not None:
        paths["bpe_small"] = os.path.join(root, "bpe_small.tok")
        tokenizers.save_bpe(tokenizers.train_bpe(corpus, shape.small_merges),
                            paths["bpe_small"])
    paths["pasm"] = os.path.join(root, "pasm.tok")
    tokenizers.save_pasm(
        tokenizers.train_pasm(corpus, synth.micro_lexicon(shape.spec.words),
                              6, 1, 24), paths["pasm"])
    return paths


def experiment(workload: str, paths: dict, out_dir: str, seed: int,
               max_steps: int, eval_every: int) -> config.Experiment:
    """The toy-desk preset; long-train swaps in pca_ctc with 1+1+1 layers,
    self-conditioning and batch 4."""
    exp = config.load_config(PRESET)
    exp.train.seed = seed
    exp.train.max_steps = max_steps
    exp.train.eval_every = eval_every
    exp.train.out_dir = out_dir
    exp.data = config.DataConfig(
        train_manifest=paths["train_manifest"],
        dev_manifest=paths["dev_manifest"], bpe_model=paths["bpe"],
        pasm_model=paths["pasm"], bpe_small_model=paths.get("bpe_small", ""))
    if workload == "long-train":
        exp.model.encoder.num_layers = 3
        exp.pmu = model_mod.PMUConfig(
            variant="pca_ctc", n1=1, n2=1, n3=1, sc_enabled=True, beta=0.5,
            lambda_trans=exp.pmu.lambda_trans, lambda_ctc=exp.pmu.lambda_ctc)
        exp.train.batch_size = 4
    return exp


def decode_set(root: str, shape: Shape, seed: int) -> str:
    """Utterances past the training data's, drawn with the same stencils,
    written as a manifest."""
    spec = replace(shape.spec, num_utts=shape.spec.num_utts + shape.decode_utts)
    utts, _ = synth.synth_toy_dataset(spec, seed)
    os.makedirs(os.path.join(root, "feats"), exist_ok=True)
    entries = []
    for u in utts[shape.spec.num_utts:]:
        rel = os.path.join("feats", f"{u.id}.pmuf")
        data.save_features(os.path.join(root, rel), u.features)
        entries.append((u.id, rel, u.transcript))
    manifest = os.path.join(root, "decode.tsv")
    data.write_manifest(manifest, entries)
    return manifest


# ---------------------------------------------------------------------------
# reference values: fixed-seed losses and hypotheses recorded from the seed code

def warm_up(shape: Shape, paths: dict, root: str, seed: int):
    """dev-decode's model: desk-train's, trained for `warmup_steps` steps
    on the inputs in `paths`, made with `seed`."""
    exp = experiment("dev-decode", paths, os.path.join(root, "run"), seed,
                     shape.warmup_steps, shape.warmup_steps)
    return exp, train.run_experiment(exp, quiet=True)


def reference_probe(workload: str, shape: Shape, root: str) -> dict:
    """The values compared with reference.json, all on REF_SEED inputs of
    the workload's shape: the losses of the first REF_STEPS steps and, on
    dev-decode, the hypotheses of the whole warm-up's model on REF_HYPS
    decode utterances.  A smoke model has trained a few steps only: its
    argmax margins are so small that a reordered float sum could flip a
    symbol, so its hypotheses are not compared."""
    paths = make_inputs(root, shape, REF_SEED)
    steps = REF_STEPS[workload]
    if workload == "dev-decode":
        _, result = warm_up(shape, paths, root, REF_SEED)
    else:
        exp = experiment(workload, paths, os.path.join(root, "run"), REF_SEED,
                         steps, steps)
        result = train.run_experiment(exp, quiet=True)
    out = {"steps": [{k: e[k] for k in ("l_total", "l_trans", "l_ctc")}
                     for e in result["log"].entries if e["kind"] == "step"][:steps]}
    if workload == "dev-decode" and not shape.smoke:
        utts = data.load_manifest(decode_set(
            os.path.join(root, "dec"), replace(shape, decode_utts=REF_HYPS),
            REF_SEED))
        vocab = tokenizers.load_bpe(paths["bpe"]).vocab
        out["hyps"] = decode.decode_dataset(result["model"], utts, vocab)
    return out


def compare_reference(got: dict, want: dict, ledger: Ledger):
    for i, (g, w) in enumerate(zip(got["steps"], want["steps"])):
        ok = (_rel_close(g["l_total"], w["l_total"])
              and _rel_close(g["l_trans"], w["l_trans"])
              and sorted(g["l_ctc"]) == sorted(w["l_ctc"])
              and all(_rel_close(g["l_ctc"][k], w["l_ctc"][k]) for k in w["l_ctc"]))
        ledger.check(ok, f"reference step {i + 1}: {g} != {w}")
    ledger.check(len(got["steps"]) == len(want["steps"]),
                 "reference step count differs")
    for utt_id, hyp in want.get("hyps", {}).items():
        ledger.check(got.get("hyps", {}).get(utt_id) == hyp,
                     f"reference hypothesis of {utt_id} differs")


def grid_probes(ledger: Ledger, reps: int) -> dict:
    """Direct loss-kernel calls at the (T, U, V) grid, with the gradient
    mass checks: the transducer gradient sums to -(T+U), and every CTC
    frame sums to -1.  The reported error is relative to that mass."""
    rng = np.random.default_rng([REF_SEED, 0x6121D])
    out = {}
    worst = 0.0
    for T, U, V in GRID:
        tag = f"T{T}-U{U}-V{V}"
        labels = [int(v) for v in rng.integers(1, V, size=U)]
        lattice = losses.random_logprob_matrix(rng, T, U + 1, V)
        emissions = losses.random_logprob_matrix(rng, T, V)
        for kind, fn, arg, mass in (
                ("transducer", losses.transducer_loss, lattice,
                 lambda g: abs(float(g.sum()) + (T + U)) / (T + U)),
                ("ctc", losses.ctc_loss, emissions,
                 lambda g: float(np.abs(g.sum(axis=1) + 1.0).max()))):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                res = fn(arg, labels)
                times.append(time.perf_counter() - t0)
            err = mass(res.grad)
            worst = max(worst, err)
            ledger.check(res.status == "ok" and math.isfinite(res.value)
                         and err <= GRAD_MASS_TOL,
                         f"grid {kind} {tag}: status {res.status}, "
                         f"gradient mass error {err:.3e}")
            out[f"losses.grid.{kind}_ms.{tag}"] = 1e3 * statistics.median(times)
    out["losses.grid.grad_mass_err"] = worst
    return out


# ---------------------------------------------------------------------------
# the measured loops

@dataclass
class Outcome:
    metrics: dict      # end-to-end, or per-layer when traced
    samples: dict      # sample count behind each timing
    ledger: Ledger


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
        root: str, reference: dict, tracer: Tracer) -> Outcome:
    """One workload.  `reference` holds its reference values, and `tracer`
    receives every span; layer spans are recorded in traced calls only."""
    shape = shape_of(workload, smoke)
    ledger = Ledger()
    checks = Checks(ledger)
    checks.install(tracer)
    install_spans(tracer)
    try:
        # untimed, and first: it also loads lazy imports and warms caches
        try:
            got = reference_probe(workload, shape, os.path.join(root, "ref"))
        except Exception as e:  # counted as a failed probe
            ledger.check(False, f"reference probe raised {e!r}")
        else:
            compare_reference(got, reference, ledger)
        checks.samples = checks.skipped = 0
        loop = _decode_loop if workload == "dev-decode" else _train_loop
        out = loop(workload, shape, seed, seconds, root, tracer, traced, ledger)
        if traced:
            out.metrics.update(layer_metrics(tracer.traced()))
            out.metrics["train.skipped_share"] = (
                checks.skipped / checks.samples if checks.samples else 0.0)
            out.metrics.update(grid_probes(ledger, reps=1 if smoke else 3))
        return out
    finally:
        tracer.unpatch()


def _round_trip(result: dict, ledger: Ledger):
    restored, _, _ = train.restore_model(result["final_ckpt"])
    live = result["model"].params
    ok = all(np.array_equal(node.value, live.get(p).value)
             for p, node in restored.params.items())
    ledger.check(ok and restored.params.paths() == live.paths(),
                 f"{result['final_ckpt']} does not round-trip")


def _make_inputs_repeated(root, shape, seed, tracer, traced):
    """SETUP_REPEATS input set-ups, each between two calibrations: the
    inputs and each set-up's (start, end).  Repeats after the first
    overwrite the first one's files: creating files costs 45 to 300 ms per
    set-up on a shared disk, depending on the disk's load, not on the
    program."""
    spans = []
    tracer.layers = traced
    try:
        for _ in range(SETUP_REPEATS):
            tracer.clock.run()
            t0 = time.perf_counter()
            paths = make_inputs(os.path.join(root, "in"), shape, seed)
            spans.append((t0, time.perf_counter()))
        tracer.clock.run()
    finally:
        tracer.layers = False
    return paths, spans


def _median_s(clock, spans) -> float:
    return statistics.median(clock.seconds(a, b) for a, b in spans)


def _runs(tracer: Tracer, start: int) -> list[tuple]:
    """(run span, its train.step spans, its decode.utt spans) per
    run_experiment call recorded from span index `start` on.  Spans are
    listed in start order, so a run's descendants are the spans after it
    that start before it ends."""
    spans = tracer.spans
    out = []
    for i in range(start, len(spans)):
        r = spans[i]
        if r is None or r[0] != "train.run":
            continue
        inner = []
        for c in spans[i + 1:]:
            if c is None or c[1] > r[2]:
                break
            inner.append(c)
        out.append((r, [c for c in inner if c[0] == "train.step"],
                    [c for c in inner if c[0] == "decode.utt"]))
    return out


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _train_metrics(runs, clock) -> tuple[dict, dict]:
    steps = [c for _, st, _ in runs for c in st]
    step_ms = [1e3 * clock.seconds(c[1], c[2]) for c in steps]
    loop_s = sum(clock.seconds(st[0][1], r[2]) for r, st, _ in runs if st)
    frames = sum(c[5] for c in steps)
    m = {"train_frames_per_s": frames / loop_s if loop_s else 0.0,
         "train_step_ms.p50": _percentile(step_ms, 50),
         "train_step_ms.p90": _percentile(step_ms, 90)}
    return m, {"train_steps": len(steps), "train_runs": len(runs)}


def _decode_metrics(passes, clock) -> tuple[dict, dict]:
    """`passes` holds the decode.utt spans of each pass over one utterance
    set, in the set's order: the passes of dev-decode, or the in-run evals
    of a train workload.  An utterance's latency is its median over the
    passes, so a host stall during one pass does not reach the tail: the
    p95 of pooled spans of desk-train's 3 ms utterances spread 0.20 over
    ten seeds, and that of the medians 0.07."""
    passes = [[c for c in p if c[5]] for p in passes]
    per_utt: dict[int, list[float]] = {}
    ms_sum = audio_s = 0.0
    for p in passes:
        for k, c in enumerate(p):
            ms = 1e3 * clock.seconds(c[1], c[2])
            per_utt.setdefault(k, []).append(ms)
            ms_sum += ms
            audio_s += FRAME_SHIFT_S * c[5][0]
    lat = [statistics.median(v) for v in per_utt.values()]
    m = {"decode_rtf": 1e-3 * ms_sum / audio_s if audio_s else 0.0,
         "decode_utt_ms.p50": _percentile(lat, 50),
         "decode_utt_ms.p95": _percentile(lat, 95)}
    return m, {"decode_utts": sum(map(len, passes)),
               "decode_passes": len(passes)}


def _overhead(walls) -> float:
    """Traced over untraced wall time, minus 1, from (seconds, traced)."""
    on = sum(w for w, t in walls if t)
    off = sum(w for w, t in walls if not t)
    return on / off - 1.0 if off and on else 0.0


def _ckpt_bytes(result) -> int:
    return os.path.getsize(result["final_ckpt"]) if result else 0


def _train_loop(workload, shape, seed, seconds, root, tracer, traced,
                ledger) -> Outcome:
    """SETUP_REPEATS input set-ups, then a run_experiment call (steps,
    in-run evals, checkpoint writes) again and again until the deadline has
    passed and at least `min_steps` steps ran.  Call k trains with seed
    `1000 * seed + k`, so every call samples other batches.  setup_s is
    the median input set-up plus the median time from a call's start to
    its first step.  Traced runs alternate untraced and traced calls of
    equal size."""
    try:
        paths, inputs = _make_inputs_repeated(root, shape, seed, tracer,
                                              traced)
    except Exception as e:  # nothing to train on
        ledger.check(False, f"input set-up raised {e!r}")
        return Outcome({}, {}, ledger)
    start = len(tracer.spans)
    deadline = time.perf_counter() + seconds
    calls, result = 0, None
    while True:
        tracer.layers = traced and calls % 2 == 1
        try:
            exp = experiment(workload, paths, os.path.join(root, "run"),
                             1000 * seed + calls, shape.round_steps,
                             shape.round_steps)
            result = train.run_experiment(exp, quiet=True)
            _round_trip(result, ledger)
        except Exception as e:  # counted as one failed operation
            ledger.check(False, f"call {calls} raised {e!r}")
        finally:
            tracer.layers = False
        calls += 1
        if (time.perf_counter() >= deadline
                and calls * shape.round_steps >= shape.min_steps
                and (not traced or calls % 2 == 0)):
            break

    clock = tracer.clock
    runs = _runs(tracer, start)
    m, samples = _train_metrics(runs, clock)
    dm, ds = _decode_metrics([du for _, _, du in runs], clock)
    m.update(dm)
    samples.update(ds)
    pre = [(r[1], st[0][1]) for r, st, _ in runs if st]
    m["setup_s"] = _median_s(clock, inputs) + (
        _median_s(clock, pre) if pre else 0.0)
    samples.update(setup_inputs=len(inputs), setup_calls=len(pre))
    if traced:
        m = {"trace_overhead_share": _overhead(
            [(r[2] - r[1], r[6]) for r, _, _ in runs]),
             "train.ckpt_bytes": _ckpt_bytes(result)}
    return Outcome(m, samples, ledger)


def _decode_loop(workload, shape, seed, seconds, root, tracer, traced,
                 ledger) -> Outcome:
    """Set-up: SETUP_REPEATS input set-ups, the decode set and the warm-up
    training, all from `seed`; the decode set is drawn past the training
    data, with the same word stencils.  Then greedy passes over the decode
    set until the deadline.  setup_s is the median input set-up plus the
    rest of the set-up."""
    try:
        paths, inputs = _make_inputs_repeated(root, shape, seed, tracer,
                                              traced)
        t0 = time.perf_counter()
        tracer.layers = traced
        utts = data.load_manifest(decode_set(os.path.join(root, "dec"),
                                             shape, seed))
        vocab = tokenizers.load_bpe(paths["bpe"]).vocab
        tracer.layers = False
        warm_start = len(tracer.spans)
        exp, result = warm_up(shape, paths, root, seed)
        rest = (t0, time.perf_counter())
        tracer.clock.run()
        _round_trip(result, ledger)
    except Exception as e:  # nothing to decode with
        ledger.check(False, f"set-up raised {e!r}")
        return Outcome({}, {}, ledger)
    finally:
        tracer.layers = False
    model = result["model"]

    deadline = time.perf_counter() + seconds
    first = None
    walls, passes = [], []
    while True:
        on = traced and len(walls) % 2 == 1
        tracer.layers = on
        passes.append(len(tracer.spans))
        t1 = time.perf_counter()
        try:
            hyps = decode.decode_dataset(model, utts, vocab,
                                         exp.train.max_symbols_per_frame)
        except Exception as e:  # each utterance then fails its check below
            hyps = {"error": repr(e)}
        finally:
            tracer.layers = False
        walls.append((time.perf_counter() - t1, on))
        if first is None:
            first = hyps
            if shape.wer_bound is not None:
                report = metrics.wer_corpus(
                    [(u.transcript, hyps.get(u.id, "")) for u in utts])
                ledger.check(report.wer < shape.wer_bound,
                             f"decode WER {report.wer:.3f} not under "
                             f"{shape.wer_bound}")
        for u in utts:
            ledger.check(u.id in hyps and hyps[u.id] == first.get(u.id),
                         f"hypothesis of {u.id} missing or changed "
                         f"{hyps.get('error', '')}")
        if (time.perf_counter() >= deadline
                and (not traced or len(walls) % 2 == 0)):
            break

    clock = tracer.clock
    m, samples = _train_metrics(_runs(tracer, warm_start), clock)
    passes.append(len(tracer.spans))
    dm, ds = _decode_metrics(
        [[s for s in tracer.spans[a:b] if s and s[0] == "decode.utt"]
         for a, b in zip(passes, passes[1:])], clock)
    m.update(dm)
    samples.update(ds)
    m["setup_s"] = _median_s(clock, inputs) + clock.seconds(*rest)
    samples["setup_inputs"] = len(inputs)
    if traced:
        m = {"trace_overhead_share": _overhead(walls),
             "train.ckpt_bytes": _ckpt_bytes(result)}
    return Outcome(m, samples, ledger)


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

def layer_metrics(t: Tracer) -> dict:
    def total(name, parent=None):
        return sum(t.durations(name, parent))

    def per_call_ms(name, parent=None):
        d = t.durations(name, parent)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    spans = t.closed()
    step_s = total("train.step")
    n_steps = t.calls("train.step")
    m = {"autodiff.backward_ms": 1e3 * ratio(total("autodiff.backward"), n_steps),
         "autodiff.backward_share": ratio(total("autodiff.backward"), step_s)}
    nodes = [s[5] for s in spans if s[0] == "model.loss"]
    m["autodiff.nodes_per_utt"] = ratio(sum(nodes), len(nodes))
    m["model.encoder_fwd_ms"] = per_call_ms("model.encoder")
    m["model.encoder_fwd_share"] = ratio(total("model.encoder", "model.loss"), step_s)
    for name in ("conformer_block", "ctc_head", "self_condition",
                 "label_encoder", "joint"):
        m[f"model.{name}_fwd_ms"] = per_call_ms(f"model.{name}")
    for kind in ("transducer", "ctc"):
        d = t.durations(f"losses.{kind}")
        cells = t.counts(f"losses.{kind}")
        m[f"losses.{kind}_ms"] = 1e3 * ratio(sum(d), len(d))
        m[f"losses.{kind}_calls"] = len(d)
        m[f"losses.{kind}_cells"] = cells
        m[f"losses.{kind}_ns_per_cell"] = 1e9 * ratio(sum(d), cells)
        m[f"losses.{kind}_share"] = ratio(sum(d), step_s)
    for name in ("adam", "clip", "sample_batch", "ckpt_save", "build_samples"):
        m[f"train.{name}_ms"] = per_call_ms(f"train.{name}")
    evals = t.durations("decode.dataset", "train.run")
    m["train.eval_ms"] = 1e3 * ratio(
        sum(evals) + total("metrics.wer_corpus", "train.run"), len(evals))
    utts = [s for s in spans if s[0] == "decode.utt"]
    self_s = t.self_times().get("decode.utt", 0.0)
    m["decode.encode_ms"] = 1e3 * ratio(total("model.encoder", "decode.utt"), len(utts))
    m["decode.search_ms"] = 1e3 * ratio(self_s, len(utts))
    m["decode.symbols_per_frame"] = ratio(sum(s[5][1] for s in utts if s[5]),
                                          sum(s[5][2] for s in utts if s[5]))
    for name in ("tokenizers.train_bpe", "tokenizers.train_pasm",
                 "tokenizers.encode", "synth.materialize",
                 "data.load_manifest", "metrics.wer_corpus"):
        m[f"{name}_ms"] = per_call_ms(name)
    return m

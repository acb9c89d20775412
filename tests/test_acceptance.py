"""Release acceptance gate: seven criteria, one PASS/FAIL verdict each.

1. Lattice losses match brute-force path enumeration.
2. Gradients match central finite differences, from primitives up to the
   full model.
3. The multi-task objective weighting is exact arithmetic.
4. Head sharing, self-conditioning zero-init, and tap structure hold.
5. Every training variant converges on the synthetic task.
6. Tokenizer determinism and algebraic laws hold.
7. Training runs are byte-for-byte reproducible.
"""

import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

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
from pmu.autodiff import finite_diff_grad
from pmu.config import DataConfig, Experiment, TrainConfig
from pmu.losses import (
    gradient_suite,
    oracle_equivalence_suite,
    relative_error,
)
from pmu.model import (
    ConformerTransducer,
    EncoderConfig,
    ModelConfig,
    PMUConfig,
    combine_losses,
    head_specs,
    joint,
    self_condition,
)
from pmu.synth import DEFAULT_WORDS, ToySpec, materialize, micro_lexicon
from pmu.tokenizers import align_lexicon, decode_units, encode_bpe
from pmu.tokenizers.bpe import save_bpe, train_bpe
from pmu.tokenizers.pasm import save_pasm, segment_word, train_pasm
from pmu.tokenizers.vocab import Lexicon
from pmu.train import run_experiment
from tape_ops import (
    tape_matmul,
    tape_mul,
    tape_reshape,
    tape_sigmoid,
    tape_sum,
    tape_swish,
    tape_take_slice,
    tape_transpose,
)


# ---------------------------------------------------------------------------
# shared small-model helpers

def tiny_cfg(num_layers=2, **over):
    enc = EncoderConfig(num_layers=num_layers, attention_dim=8, ff_dim=16,
                        heads=2, conv_kernel=3, dropout=0.0)
    base = dict(encoder=enc, input_dim=6, lstm_dim=8, joint_dim=8,
                subsample_channels=2,
                vocab={"pasm": 4, "bpe": 5, "bpe_small": 4})
    base.update(over)
    return ModelConfig(**base)


def pca(n1=1, n2=0, n3=1, **over):
    return PMUConfig(variant="pca_ctc", n1=n1, n2=n2, n3=n3, **over)


# ---------------------------------------------------------------------------
# criterion 1: exact losses vs enumeration oracles

def test_criterion_1_losses_match_enumeration(acceptance):
    """Dynamic-programming CTC and transducer losses agree with summing
    every path explicitly, on 200 random small instances each."""
    t0 = time.monotonic()
    suite = oracle_equivalence_suite(instances=200, seed=0)
    elapsed = time.monotonic() - t0
    worst = max(suite["ctc_max_dev"], suite["transducer_max_dev"])
    ok = worst <= 1e-9 and elapsed < 60.0
    acceptance(f"[criterion 1] losses match enumeration oracles: "
               f"{'PASS' if ok else 'FAIL'} "
               f"(200 instances each, max dev {worst:.2e}, {elapsed:.1f}s)")
    assert suite["ctc_max_dev"] <= 1e-9
    assert suite["transducer_max_dev"] <= 1e-9
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: gradients vs finite differences

def _primitive_worst(seeds: int) -> float:
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
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
            joint_transducer_case(rng),
            ctc_node_case(rng),
            *encoder_node_cases(rng),
        ]
        for build, arrays in cases:
            nodes = [ad.Node(arr) for arr in arrays]
            ad.backward(tape_sum(tape_mul(build(*nodes), build(*nodes))))

            def f():
                ns = [ad.Node(arr) for arr in arrays]
                return float(tape_sum(tape_mul(build(*ns), build(*ns))).value)

            fd = finite_diff_grad(f, arrays, eps=1e-4)
            for node, est in zip(nodes, fd):
                worst = max(worst, relative_error(node.grad, est))
    return worst


def _sc_path_worst(seeds: int) -> float:
    """Gradient of a loss through posterior computation + feedback
    projection, w.r.t. the trunk input and every projection weight."""
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(100 + seed)
        arrays = [rng.normal(size=(3, 6)),              # trunk frames
                  rng.normal(size=(6, 4)) * 0.5,        # head weight
                  rng.normal(size=(4,)) * 0.1,          # head bias
                  rng.normal(size=(4, 6)) * 0.5,        # feedback weight
                  rng.normal(size=(6,)) * 0.1]          # feedback bias

        def build(h, w, b, sw, sb):
            post = ad.softmax(ad.add(tape_matmul(h, w), b))
            return self_condition(h, post, sw, sb)

        nodes = [ad.Node(arr) for arr in arrays]
        ad.backward(tape_sum(tape_mul(build(*nodes), build(*nodes))))

        def f():
            ns = [ad.Node(arr) for arr in arrays]
            return float(tape_sum(tape_mul(build(*ns), build(*ns))).value)

        fd = finite_diff_grad(f, arrays, eps=1e-4)
        for node, est in zip(nodes, fd):
            worst = max(worst, relative_error(node.grad, est))
    return worst


_MODEL_GRAD_PATHS = ("sub/proj/w", "enc/l00/mhsa/wq", "enc/l00/ff1/w1",
                     "enc/l01/conv/dw_k", "tap/pasm/w", "tap/bpe/w",
                     "lab/embed", "lab/lstm/wh", "joint/wt", "joint/out_w")


def _full_model_worst(seeds: int) -> float:
    worst = 0.0
    for seed in range(seeds):
        model = ConformerTransducer(tiny_cfg(), PMUConfig(variant="para_ctc"),
                                    seed=seed)
        x = np.random.default_rng(500 + seed).normal(size=(8, 6))

        def run():
            return model.loss(x, {"pasm": [1], "bpe": [1, 2]}).l_total

        model.params.zero_grad()
        ad.backward(model.loss(x, {"pasm": [1], "bpe": [1, 2]}).node)
        rng = np.random.default_rng(seed)
        picks = (_MODEL_GRAD_PATHS[seed % len(_MODEL_GRAD_PATHS)],
                 _MODEL_GRAD_PATHS[(3 * seed + 1) % len(_MODEL_GRAD_PATHS)])
        for path in picks:
            node = model.params.get(path)
            (idx, est), = finite_diff_sample(run, [node.value], per_array=3,
                                             rng=rng, eps=1e-4)
            got = node.grad.reshape(-1)[idx]
            worst = max(worst, relative_error(got, est))
    return worst


def test_criterion_2_gradients_match_finite_differences(acceptance):
    t0 = time.monotonic()
    seeds = 20
    prim = _primitive_worst(seeds)
    suite = gradient_suite(seeds=seeds)
    loss_worst = max(suite["ctc_max_rel_err"], suite["transducer_max_rel_err"])
    sc = _sc_path_worst(seeds)
    full = _full_model_worst(seeds)
    elapsed = time.monotonic() - t0
    worst = max(prim, loss_worst, sc, full)
    ok = worst <= 1e-4 and elapsed < 300.0
    acceptance(f"[criterion 2] gradients match finite differences: "
               f"{'PASS' if ok else 'FAIL'} "
               f"(primitives {prim:.1e}, losses {loss_worst:.1e}, "
               f"feedback path {sc:.1e}, full model {full:.1e}, "
               f"{seeds} seeds, {elapsed:.1f}s)")
    assert prim <= 1e-4
    assert loss_worst <= 1e-4
    assert sc <= 1e-4
    assert full <= 1e-4
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 3: objective arithmetic

def test_criterion_3_objective_arithmetic(acceptance):
    """The emitted training total equals the variant's weighting formula,
    recomputed here from scratch, for 100 random loss tuples per variant
    and for real forward passes."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        lt, c_pasm, c_bpe2, c_bpe = [float(v)
                                     for v in rng.uniform(0.05, 8.0, size=4)]
        wt, wc = [float(v) for v in rng.uniform(0.0, 1.0, size=2)]
        alpha = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.05, 0.95))

        checks = [
            (PMUConfig(variant="baseline", lambda_trans=wt, lambda_ctc=wc),
             {"bpe": c_bpe}, wt * lt + wc * c_bpe),
            (PMUConfig(variant="basic_pmu", lambda_trans=wt,
                       lambda_ctc=wc),
             {"pasm": c_pasm}, wt * lt + wc * c_pasm),
            (PMUConfig(variant="para_ctc", alpha=alpha, lambda_trans=wt,
                       lambda_ctc=wc),
             {"pasm": c_pasm, "bpe": c_bpe},
             wt * lt + wc * (alpha * c_pasm + (1.0 - alpha) * c_bpe)),
            (pca(beta=beta, lambda_trans=wt, lambda_ctc=wc),
             {"pasm_n1": c_pasm, "bpe_n3": c_bpe},
             wt * lt + wc * (beta * c_pasm + (1.0 - beta) * c_bpe)),
            (pca(n2=1, beta=beta, lambda_trans=wt, lambda_ctc=wc),
             {"pasm_n1": c_pasm, "bpe_n2": c_bpe2, "bpe_n3": c_bpe},
             wt * lt + wc * ((beta / 2.0) * (c_pasm + c_bpe2)
                             + (1.0 - beta) * c_bpe)),
        ]
        for pmu_cfg, comps, want in checks:
            worst = max(worst, abs(combine_losses(pmu_cfg, lt, comps) - want))

    # the same law on live forward passes, totals recomputed from the
    # logged components
    live_worst = 0.0
    live_cases = [
        ("baseline", PMUConfig(variant="baseline"), 2, {"bpe": [1, 2]}),
        ("basic_pmu", PMUConfig(variant="basic_pmu"), 2,
         {"pasm": [1], "bpe": [1, 2]}),
        ("para_ctc", PMUConfig(variant="para_ctc"), 2,
         {"pasm": [1], "bpe": [1, 2]}),
        ("pca_ctc", pca(), 2, {"pasm": [1], "bpe": [1, 2]}),
        ("pca_ctc_n2", pca(n2=1), 3,
         {"pasm": [1], "bpe": [1, 2], "bpe_small": [1]}),
    ]
    for _, pmu_cfg, layers, targets in live_cases:
        for seed in range(3):
            model = ConformerTransducer(tiny_cfg(layers), pmu_cfg, seed=seed)
            x = np.random.default_rng(seed).normal(size=(10, 6))
            bundle = model.loss(x, targets)
            want = combine_losses(pmu_cfg, bundle.l_trans,
                                  bundle.l_ctc_components)
            live_worst = max(live_worst, abs(bundle.l_total - want),
                             abs(bundle.l_total - float(bundle.node.value)))

    ok = worst <= 1e-12 and live_worst <= 1e-12
    acceptance(f"[criterion 3] objective weighting arithmetic: "
               f"{'PASS' if ok else 'FAIL'} "
               f"(100 tuples x 5 variants, max dev {worst:.1e}; "
               f"live passes {live_worst:.1e})")
    assert worst <= 1e-12
    assert live_worst <= 1e-12


# ---------------------------------------------------------------------------
# criterion 4: structural laws

def test_criterion_4_structure(acceptance):
    problems = []

    # shared heads mean literally identical parameter nodes
    shared = ConformerTransducer(
        tiny_cfg(3), pca(n2=1, sc_enabled=True, heads_shared=True), seed=0)
    for a, b in [("tap/bpe_n2/w", "tap/pasm_n1/w"),
                 ("tap/bpe_n2/b", "tap/pasm_n1/b"),
                 ("sc/n2/w", "sc/n1/w"), ("sc/n2/b", "sc/n1/b")]:
        if shared.params.get(a) is not shared.params.get(b):
            problems.append(f"{a} not shared with {b}")

    # the unshared build keeps every head/feedback parameter distinct
    unshared = ConformerTransducer(tiny_cfg(3), pca(n2=1, sc_enabled=True),
                                   seed=0)
    head_paths = [p for p in unshared.params.paths()
                  if p.startswith(("tap/", "sc/"))]
    for pa, pb in itertools.combinations(head_paths, 2):
        if unshared.params.get(pa) is unshared.params.get(pb):
            problems.append(f"unshared build aliases {pa} and {pb}")

    # zero-initialized feedback projections change nothing at step 0
    x = np.random.default_rng(0).normal(size=(11, 6))
    plain = ConformerTransducer(tiny_cfg(3), pca(n2=1), seed=4)
    cond = ConformerTransducer(tiny_cfg(3), pca(n2=1, sc_enabled=True), seed=4)
    targets = {"pasm": [1], "bpe_small": [1], "bpe": [1, 2]}
    out_p = plain.prepare([x], [targets])[0]
    out_c = cond.prepare([x], [targets])[0]
    if not np.array_equal(out_p.h_n3.value, out_c.h_n3.value):
        problems.append("conditioned trunk differs at init")
    lattice_p, lattice_c = (joint(o.h_n3.value @ m.params.get("joint/wt").value,
                                  o.h_u.value, m.params)[1]
                            for o, m in ((out_p, plain), (out_c, cond)))
    if not np.array_equal(lattice_p, lattice_c):
        problems.append("conditioned lattice differs at init")
    for name in out_p.ctc_heads:
        if not np.array_equal(out_p.ctc_heads[name].value,
                              out_c.ctc_heads[name].value):
            problems.append(f"conditioned head {name} differs at init")

    # tap counts: two heads without a middle block, three with equal groups
    two = [s.name for s in head_specs(pca(n1=1, n2=0, n3=1))]
    three = [s.name for s in head_specs(pca(n1=1, n2=1, n3=1))]
    if len(two) != 2:
        problems.append(f"expected 2 taps without middle block, got {two}")
    if len(three) != 3:
        problems.append(f"expected 3 taps with equal groups, got {three}")
    _, heads2 = ConformerTransducer(tiny_cfg(2), pca(), seed=0).encode(x)
    _, heads3 = ConformerTransducer(tiny_cfg(3), pca(n2=1), seed=0).encode(x)
    if len(heads2) != 2 or len(heads3) != 3:
        problems.append("forward tap count does not match configuration")

    ok = not problems
    acceptance(f"[criterion 4] sharing / zero-init / tap structure: "
               f"{'PASS' if ok else 'FAIL'}"
               f"{'' if ok else ' (' + '; '.join(problems) + ')'}")
    assert not problems, problems


# ---------------------------------------------------------------------------
# criteria 5 and 7 share one materialized dataset + tokenizer set

@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    spec = ToySpec()
    paths = materialize(str(root / "data"), spec, seed=0)
    corpus = open(paths["corpus"], encoding="utf-8").read().splitlines()

    bpe = train_bpe(corpus, num_merges=12)
    save_bpe(bpe, str(root / "bpe.tok"))
    bpe_small = train_bpe(corpus, num_merges=4)
    save_bpe(bpe_small, str(root / "bpe_small.tok"))
    pasm = train_pasm(corpus, micro_lexicon(spec.words), iterations=6,
                      min_count=1, target_size=24)
    save_pasm(pasm, str(root / "pasm.tok"))

    return {"root": root, "spec": spec, "paths": paths, "corpus": corpus}


def desk_experiment(toy, pmu_cfg: PMUConfig, out_name: str,
                    num_layers: int = 2, max_steps: int = 1200,
                    eval_every: int = 200, seed: int = 0) -> Experiment:
    """The pinned desk-scale calibration for the synthetic task."""
    enc = EncoderConfig(num_layers=num_layers, attention_dim=32, ff_dim=64,
                        heads=2, conv_kernel=7, dropout=0.1)
    model = ModelConfig(encoder=enc, input_dim=16, lstm_dim=32, joint_dim=32,
                        subsample_channels=8)
    train = TrainConfig(base_lr=1.0, warmup_steps=100, max_steps=max_steps,
                        batch_size=8, seed=seed, eval_every=eval_every,
                        label_smoothing=0.0,
                        out_dir=str(toy["root"] / out_name))
    root = toy["root"]
    data = DataConfig(train_manifest=toy["paths"]["train_manifest"],
                      dev_manifest=toy["paths"]["dev_manifest"],
                      bpe_model=str(root / "bpe.tok"),
                      pasm_model=str(root / "pasm.tok"),
                      bpe_small_model=str(root / "bpe_small.tok"))
    return Experiment(model=model, pmu=pmu_cfg, train=train, data=data)


VARIANTS_UNDER_TEST = [
    ("baseline", PMUConfig(variant="baseline"), 2),
    ("basic_pmu", PMUConfig(variant="basic_pmu"), 2),
    ("para_ctc", PMUConfig(variant="para_ctc", alpha=0.7), 2),
    ("pca_ctc", pca(beta=0.5), 2),
    ("pca_ctc_sc", pca(beta=0.5, sc_enabled=True), 2),
    ("pca_ctc_n2", pca(n2=1, beta=0.5), 3),
]


def _train_variant(toy, name, pmu_cfg, layers):
    exp = desk_experiment(toy, pmu_cfg, f"run_{name}", num_layers=layers)
    result = run_experiment(exp, quiet=True)
    return result["log"].entries, result["wall_s"]


@pytest.mark.slow
def test_criterion_5_toy_convergence(acceptance, toy):
    """Every variant reaches <= 5% word error rate on the held-out split
    of the synthetic task, and training loss actually decreases."""
    # the six trainings are independent seeded single-process runs, so two
    # worker processes give the same logs in about half the wall time
    names, cfgs, layer_counts = zip(*VARIANTS_UNDER_TEST)
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        runs = list(pool.map(_train_variant, [toy] * len(names), names, cfgs,
                             layer_counts))
    summaries = []
    failures = []
    for name, (entries, wall) in zip(names, runs):
        evals = [(e["step"], e["wer"]) for e in entries if e["kind"] == "eval"]
        best = min(w for _, w in evals)
        hit = next((s for s, w in evals if w <= 0.05), None)
        steps = [e for e in entries if e["kind"] == "step"]
        early = float(np.mean([e["l_total"] for e in steps[:20]]))
        late = float(np.mean([e["l_total"] for e in steps[180:200]]))

        if hit is None:
            failures.append(f"{name}: best WER {100 * best:.1f}% never <= 5%")
        if wall > 900.0:
            failures.append(f"{name}: wall time {wall:.0f}s over budget")
        if not late < early:
            failures.append(f"{name}: smoothed loss did not decrease "
                            f"({early:.3f} -> {late:.3f})")
        summaries.append(f"{name} {100 * best:.1f}%@" +
                         (f"{hit}" if hit else "never") + f"/{wall:.0f}s")

    ok = not failures
    acceptance(f"[criterion 5] toy-task convergence (<=5% WER): "
               f"{'PASS' if ok else 'FAIL'} ({', '.join(summaries)})")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 6: tokenizer laws

def _fuzz_words(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    return ["".join(rng.choice(letters, size=rng.integers(1, 11)))
            for _ in range(n)]


def test_criterion_6_tokenizer_laws(acceptance, toy):
    problems = []

    # byte-pair training is deterministic and encoding round-trips
    words = _fuzz_words(1000)
    model_a = train_bpe(words, num_merges=40)
    model_b = train_bpe(list(words), num_merges=40)
    if model_a.merges != model_b.merges:
        problems.append("BPE retraining produced different merges")
    if model_a.vocab.units != model_b.vocab.units:
        problems.append("BPE retraining produced a different vocabulary")
    bad_round_trips = 0
    for w in set(words):
        enc = encode_bpe(model_a, w)
        if enc.unk_count or decode_units(model_a.vocab, enc.ids) != w:
            bad_round_trips += 1
    if bad_round_trips:
        problems.append(f"{bad_round_trips} BPE round-trip failures")
    line = " ".join(sorted(set(words))[:10])
    if decode_units(model_a.vocab, encode_bpe(model_a, line).ids) != line:
        problems.append("BPE multi-word round trip failed")

    # pronunciation-derived units concatenate back to each lexicon word
    pasm = train_pasm(toy["corpus"], micro_lexicon(DEFAULT_WORDS),
                      iterations=6, min_count=1, target_size=24)
    for w in DEFAULT_WORDS:
        if "".join(segment_word(pasm, w)) != w:
            problems.append(f"segmentation of {w!r} does not concatenate back")

    # aligner EM never decreases the training likelihood
    rng = np.random.default_rng(3)
    non_monotone = 0
    for _ in range(10):
        lexi = Lexicon()
        seen = set()
        while len(seen) < 8:
            word = "".join(rng.choice(list("abcdefgh"),
                                      size=rng.integers(1, 6)))
            if word in seen:
                continue
            seen.add(word)
            lexi.add(word.upper(),
                     list(rng.choice(["AA", "BB", "CC", "DD", "EE"],
                                     size=rng.integers(1, 5))))
        lls = align_lexicon(lexi, 12).likelihoods
        if any(b < a - 1e-12 for a, b in zip(lls, lls[1:])):
            non_monotone += 1
    if non_monotone:
        problems.append(f"{non_monotone} lexicons with decreasing likelihood")

    ok = not problems
    acceptance(f"[criterion 6] tokenizer determinism and laws: "
               f"{'PASS' if ok else 'FAIL'}"
               f"{'' if ok else ' (' + '; '.join(problems) + ')'}")
    assert not problems, problems


# ---------------------------------------------------------------------------
# criterion 7: byte-identical reruns

@pytest.mark.slow
def test_criterion_7_reproducibility(acceptance, toy):
    """Identical config + seed give byte-identical logs and checkpoints,
    and an interrupted run resumed from its checkpoint lands on the same
    final weights."""
    def run(out_name, max_steps=30, resume=None):
        # fresh config objects each call: run_experiment fills vocab sizes in
        exp = desk_experiment(toy, PMUConfig(variant="para_ctc"), out_name,
                              max_steps=max_steps, eval_every=10)
        return run_experiment(exp, quiet=True, resume=resume)

    a = run("repro_a")
    b = run("repro_b")
    log_a = open(a["log_path"], "rb").read()
    log_b = open(b["log_path"], "rb").read()
    ckpt_a = open(a["final_ckpt"], "rb").read()
    ckpt_b = open(b["final_ckpt"], "rb").read()
    best_a = open(a["best_ckpt"], "rb").read() if a["best_ckpt"] else b""
    best_b = open(b["best_ckpt"], "rb").read() if b["best_ckpt"] else b""

    half = run("repro_half", max_steps=15)
    resumed = run("repro_resumed", max_steps=30,
                  resume=half["final_ckpt"])
    ckpt_r = open(resumed["final_ckpt"], "rb").read()

    problems = []
    if log_a != log_b:
        problems.append("run logs differ between identical runs")
    if ckpt_a != ckpt_b:
        problems.append("final checkpoints differ between identical runs")
    if best_a != best_b:
        problems.append("best checkpoints differ between identical runs")
    if ckpt_r != ckpt_a:
        problems.append("resumed run's final checkpoint differs")

    ok = not problems
    acceptance(f"[criterion 7] byte-identical reruns and resume: "
               f"{'PASS' if ok else 'FAIL'} "
               f"(log {len(log_a)}B, checkpoint {len(ckpt_a)}B"
               f"{'' if ok else '; ' + '; '.join(problems)})")
    assert not problems, problems

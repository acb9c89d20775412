"""Byte-identity check of training: sha256 digests of short runs.

Usage: PYTHONPATH=src python tests/digests.py OUT

Writes `pmu synth --seed 0` data, its tokenizers and 20 toy-desk runs under
OUT, then prints `<run>/<file> <sha256>` for each run's `runlog.jsonl`,
`final.ckpt` and `best.ckpt`.  The runs are the 10 usual configs (baseline
and basic_pmu with BPE and with PASM transducer units, para_ctc, pca_ctc
1+0+1 and 1+1+1 with and without self-conditioning, and 1+1+1 with shared
heads), each at label smoothing 0 and 0.1, with seed 0, 4 steps, batch 4
and evals at steps 2 and 4.  One more run covers skipped samples: pca_ctc
1+1+1 with self-conditioning at label smoothing 0.1 on data of 4-6 frames
per word with adjacent repeats, where some but not all utterances of a
step have a tap no path reaches; it also prints each step's skipped count.
Last, it prints the sha256 of the dev hypotheses that greedy transducer
decoding of baseline_bpe_ls0.1's final model gives, a gate on decode.
Three `#` lines head the output: numpy's version, its OpenBLAS build and
the CPU features numpy dispatches on, since BLAS kernels and numpy's SIMD
loops round differently across builds and CPUs.

`tests/digests.txt` holds this output, and `tests/test_digests.py` checks
that the script still prints it, on a host whose three head lines match.  A
change that keeps the arithmetic bit-identical leaves the file as it is; a
change meant to move the arithmetic re-records it:

    PYTHONPATH=src python tests/digests.py OUT > tests/digests.txt

Pytest does not collect this file.
"""

import hashlib
import json
import os
import sys

import numpy as np

from pmu import config, synth
from pmu.data import load_manifest
from pmu.decode import decode_dataset
from pmu.model import PMUConfig
from pmu.tokenizers import (load_tokenizer, save_bpe, save_pasm, train_bpe,
                            train_pasm)
from pmu.train import run_experiment

PRESET = os.path.join(os.path.dirname(config.__file__), "presets",
                      "toy-desk.cfg")


def pca(n2, sc=False, shared=False):
    return PMUConfig(variant="pca_ctc", n1=1, n2=n2, n3=1, sc_enabled=sc,
                     heads_shared=shared)


# run name -> PMU config; a pca_ctc encoder has n1+n2+n3 blocks
CONFIGS = {
    "baseline_bpe": PMUConfig(variant="baseline"),
    "baseline_pasm": PMUConfig(variant="baseline", trans_units="pasm"),
    "basic_pmu_bpe": PMUConfig(variant="basic_pmu"),
    "basic_pmu_pasm": PMUConfig(variant="basic_pmu", trans_units="pasm"),
    "para_ctc": PMUConfig(variant="para_ctc"),
    "pca_101": pca(0),
    "pca_101_sc": pca(0, sc=True),
    "pca_111": pca(1),
    "pca_111_sc": pca(1, sc=True),
    "pca_111_shared": pca(1, sc=True, shared=True),
}
FILES = ("runlog.jsonl", "final.ckpt", "best.ckpt")
HYPS_RUN = "baseline_bpe_ls0.1"  # the run whose final model decodes dev
# data on which some utterances are too short for their CTC targets
SHORT = synth.ToySpec(frames_min=4, frames_max=6, adjacent_repeats=True)


def tokenizers(data: dict, root: str) -> dict:
    """Model paths keyed by `[data]` field: BPE with 12 and 4 merges, PASM
    of 24 units, and a PASM model with as many entries as the small BPE's
    vocabulary, which shared heads need."""
    corpus = open(data["corpus"], encoding="utf-8").read().splitlines()
    lexicon = synth.micro_lexicon(synth.ToySpec().words)
    small = train_bpe(corpus, 4)
    pasm = train_pasm(corpus, lexicon, 6, 1, 24)
    specials = len(pasm.vocab) - len(pasm.inventory)
    shared = train_pasm(corpus, lexicon, 6, 1, len(small.vocab) - specials)
    assert len(shared.vocab) == len(small.vocab)
    models = {"bpe_model": (save_bpe, train_bpe(corpus, 12)),
              "bpe_small_model": (save_bpe, small),
              "pasm_model": (save_pasm, pasm),
              "shared_pasm_model": (save_pasm, shared)}
    paths = {}
    for field, (save, model) in models.items():
        paths[field] = os.path.join(root, f"{field}.tok")
        save(model, paths[field])
    return paths


def experiment(pmu: PMUConfig, label_smoothing: float,
               data: dict, models: dict, out: str) -> config.Experiment:
    exp = config.load_config(PRESET)
    exp.pmu = pmu
    if pmu.variant == "pca_ctc":
        exp.model.encoder.num_layers = pmu.n1 + pmu.n2 + pmu.n3
    exp.train.seed = 0
    exp.train.max_steps = 4
    exp.train.batch_size = 4
    exp.train.eval_every = 2
    exp.train.label_smoothing = label_smoothing
    exp.train.out_dir = out
    pasm = models["shared_pasm_model" if pmu.heads_shared else "pasm_model"]
    exp.data = config.DataConfig(
        train_manifest=data["train_manifest"],
        dev_manifest=data["dev_manifest"], bpe_model=models["bpe_model"],
        pasm_model=pasm, bpe_small_model=models["bpe_small_model"])
    return exp


def report(out: str, run: str):
    for file in FILES:
        with open(os.path.join(out, run, file), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(f"{run}/{file} {digest}")


def host_lines() -> list[str]:
    """numpy's version, the `openblas configuration` string of its BLAS
    build and the CPU features numpy found to dispatch its SIMD loops on
    (exp and log among them), as comment lines."""
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 has no dicts mode
        info = {}
    blas = info.get("Build Dependencies", {}).get("blas", {})
    simd = info.get("SIMD Extensions", {}).get("found", ["unknown"])
    return [f"# numpy {np.__version__}",
            f"# openblas {blas.get('openblas configuration', 'unknown')}",
            f"# simd {' '.join(simd)}"]


def main(out: str):
    print(*host_lines(), sep="\n")
    data = synth.materialize(os.path.join(out, "data"), synth.ToySpec(), 0)
    models = tokenizers(data, os.path.join(out, "data"))
    for label_smoothing in (0.0, 0.1):
        for name, pmu in CONFIGS.items():
            run = f"{name}_ls{label_smoothing}"
            exp = experiment(pmu, label_smoothing, data, models,
                             os.path.join(out, run))
            model = run_experiment(exp, quiet=True)["model"]
            report(out, run)
            if run == HYPS_RUN:
                hyps = decode_dataset(model, load_manifest(data["dev_manifest"]),
                                      load_tokenizer(models["bpe_model"]).vocab)
    short = synth.materialize(os.path.join(out, "short"), SHORT, 0)
    run = "skip_path_pca_111_sc_ls0.1"
    run_experiment(experiment(CONFIGS["pca_111_sc"], 0.1, short, models,
                              os.path.join(out, run)), quiet=True)
    report(out, run)
    with open(os.path.join(out, run, "runlog.jsonl"), encoding="utf-8") as fh:
        steps = [e for e in map(json.loads, fh) if e["kind"] == "step"]
    print(f"{run}/skipped {','.join(str(e['skipped']) for e in steps)}")
    text = json.dumps(hyps, sort_keys=True).encode("utf-8")
    print(f"{HYPS_RUN}/dev_hyps {hashlib.sha256(text).hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1])

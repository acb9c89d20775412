"""Command-line entry point.

Subcommands: tokenize (train-bpe / train-pasm / encode), train, decode,
eval-wer, synth, loss-check.
"""

from __future__ import annotations

import argparse
import sys

from .errors import FormatError, InputError, TrainingError, read_lines
from .tokenizers.vocab import Vocabulary, vocab_from_units


def _cmd_train_bpe(args) -> int:
    from .tokenizers import save_bpe, train_bpe
    model = train_bpe(read_lines(args.corpus), args.merges,
                      word_end_marker=args.marker)
    save_bpe(model, args.out)
    print(f"wrote {args.out}: {len(model.merges)} merges, "
          f"vocab {len(model.vocab)}")
    return 0


def _cmd_train_pasm(args) -> int:
    from .tokenizers import load_lexicon, save_pasm, train_pasm
    lexicon = load_lexicon(args.lexicon)
    model = train_pasm(read_lines(args.corpus), lexicon, args.iters,
                       args.min_count, args.size)
    save_pasm(model, args.out)
    print(f"wrote {args.out}: {len(model.inventory)} units, "
          f"vocab {len(model.vocab)}, status {model.status}")
    return 0


def _cmd_encode(args) -> int:
    from .tokenizers import encode, load_tokenizer
    model = load_tokenizer(args.model)
    lines = sys.stdin if args.stdin else [args.text or ""]
    for line in lines:
        enc = encode(model, line.rstrip("\n"))
        ids = " ".join(str(i) for i in enc.ids)
        print(f"{' '.join(enc.units)}\t{ids}")
        if enc.unk_count:
            print(f"# {enc.unk_count} unknown unit(s)", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    from .config import load_config
    from .train import run_experiment
    result = run_experiment(load_config(args.config), resume=args.resume,
                            quiet=args.quiet)
    print(f"run log: {result['log_path']}")
    print(f"final checkpoint: {result['final_ckpt']}")
    if result["best_ckpt"]:
        print(f"best checkpoint: {result['best_ckpt']} "
              f"(wer {100 * result['best_wer']:.2f}%)")
    print(f"wall time: {result['wall_s']:.1f}s")
    return 0


def _vocab_from_meta(header: dict, path: str, size: int) -> Vocabulary:
    meta = header.get("meta") or {}
    units = meta.get("trans_vocab")
    if not isinstance(units, list) or not units:
        raise FormatError(f"{path}: checkpoint carries no vocabulary metadata; "
                          f"re-train or decode through run_experiment")
    if len(units) != size:
        raise FormatError(f"{path}: checkpoint vocabulary lists {len(units)} "
                          f"units, the model emits {size}")
    return vocab_from_units(units, meta.get("word_end_marker"), path)


def _cmd_decode(args) -> int:
    from .data import check_feature_dim, load_manifest
    from .decode import decode_dataset
    from .train import restore_model
    model, _, header = restore_model(args.ckpt)
    vocab = _vocab_from_meta(header, args.ckpt,
                             model.cfg.vocab[model.pmu.trans_units])
    utts = load_manifest(args.data)
    check_feature_dim(utts, model.cfg.input_dim)
    hyps = decode_dataset(model, utts, vocab, args.max_symbols)
    with open(args.out, "w", encoding="utf-8") as fh:
        for utt_id, text in hyps.items():
            fh.write(f"{utt_id}\t{text}\n")
    print(f"wrote {args.out}: {len(utts)} hypotheses")
    return 0


def _cmd_eval_wer(args) -> int:
    from .data import load_manifest
    from .metrics import wer_corpus
    refs = load_manifest(args.ref, with_features=False)
    known = {u.id for u in refs}
    hyps: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(args.hyp), 1):
        if not line:
            continue
        if "\t" not in line:
            raise FormatError(f"{args.hyp}:{lineno}: expected "
                              f"`id<TAB>hypothesis`")
        utt_id, _, text = line.partition("\t")
        if utt_id in hyps or utt_id not in known:
            why = "is a duplicate" if utt_id in hyps else f"is not in {args.ref}"
            raise FormatError(f"{args.hyp}:{lineno}: utterance id {utt_id!r} {why}")
        hyps[utt_id] = text
    missing = [u.id for u in refs if u.id not in hyps]
    if missing:
        raise InputError(f"{args.hyp}: no hypothesis for {missing[:5]}"
                         f"{'...' if len(missing) > 5 else ''}")
    report = wer_corpus([(u.transcript, hyps[u.id]) for u in refs])
    print(f"wer {report.wer:.6f}")
    print(f"substitutions {report.substitutions}")
    print(f"insertions {report.insertions}")
    print(f"deletions {report.deletions}")
    print(f"ref_words {report.ref_words}")
    if report.undefined:
        print("undefined true")
    print(report.format())
    return 0


def _cmd_synth(args) -> int:
    from .synth import ToySpec, materialize, parse_toy_spec
    spec = parse_toy_spec(args.spec) if args.spec else ToySpec()
    paths = materialize(args.out, spec, args.seed)
    for key in ("train_manifest", "dev_manifest", "corpus", "lexicon"):
        print(f"{key} {paths[key]}")
    print(f"utterances {paths['num_train']} train / {paths['num_dev']} dev")
    return 0


def _cmd_loss_check(args) -> int:
    from .losses import gradient_suite, oracle_equivalence_suite
    oracle = oracle_equivalence_suite(instances=args.instances)
    grads = gradient_suite(seeds=args.seeds)
    print(f"oracle ctc_max_dev {oracle['ctc_max_dev']:.3e}")
    print(f"oracle transducer_max_dev {oracle['transducer_max_dev']:.3e}")
    print(f"grad ctc_max_rel_err {grads['ctc_max_rel_err']:.3e}")
    print(f"grad transducer_max_rel_err {grads['transducer_max_rel_err']:.3e}")
    ok = (oracle["ctc_max_dev"] <= 1e-9
          and oracle["transducer_max_dev"] <= 1e-9
          and grads["ctc_max_rel_err"] <= 1e-4
          and grads["transducer_max_rel_err"] <= 1e-4)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmu",
        description="Conformer-Transducer training with multi-target "
                    "subword units (BPE + pronunciation-derived).")
    sub = parser.add_subparsers(dest="command", required=True)

    tok = sub.add_parser("tokenize", help="train or apply tokenizers")
    tok_sub = tok.add_subparsers(dest="tok_command", required=True)

    p = tok_sub.add_parser("train-bpe", help="train a byte-pair model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--merges", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--marker", default="_", help="word-end marker symbol")
    p.set_defaults(func=_cmd_train_bpe)

    p = tok_sub.add_parser("train-pasm", help="train pronunciation-derived units")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--size", type=int, required=True, help="inventory size")
    p.add_argument("--iters", type=int, required=True, help="EM iterations")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_pasm)

    p = tok_sub.add_parser("encode", help="segment text with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--stdin", action="store_true", help="read lines from stdin")
    p.add_argument("--text", help="encode this string instead of stdin")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="greedy-decode a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="manifest to decode")
    p.add_argument("--out", required=True, help="hypothesis file to write")
    p.add_argument("--max-symbols", type=int, default=5,
                   help="emission cap per frame")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval-wer", help="score hypotheses against a manifest")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.set_defaults(func=_cmd_eval_wer)

    p = sub.add_parser("synth", help="generate the synthetic toy dataset")
    p.add_argument("--spec", help="toy spec file (defaults when omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("loss-check", help="run loss oracle and gradient suites")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=_cmd_loss_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError, TrainingError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

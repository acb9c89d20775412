"""End-to-end command-line walkthrough on a miniature synthetic task."""

import json
import math
import struct

import numpy as np
import pytest
from checkpoint_edit import edited_checkpoint

from pmu.cli import main
from pmu.data import save_features
from pmu.train import load_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> tokenizers -> short train -> decode, shared by the tests."""
    root = tmp_path_factory.mktemp("cliws")
    spec = root / "toy.spec"
    spec.write_text(
        "words = bad, cab, ace\nnum_utts = 20\nfeature_dim = 8\n"
        "frames_min = 10\nframes_max = 14\ngap_min = 2\ngap_max = 4\n",
        encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--seed", "0",
                 "--out", str(root / "toy")]) == 0
    assert main(["tokenize", "train-bpe",
                 "--corpus", str(root / "toy" / "corpus.txt"),
                 "--merges", "8", "--out", str(root / "bpe.tok")]) == 0
    assert main(["tokenize", "train-pasm",
                 "--corpus", str(root / "toy" / "corpus.txt"),
                 "--lexicon", str(root / "toy" / "lexicon.txt"),
                 "--size", "12", "--iters", "4",
                 "--out", str(root / "pasm.tok")]) == 0

    cfg = root / "exp.cfg"
    cfg.write_text(f"""
[model]
num_layers = 2
attention_dim = 8
ff_dim = 16
heads = 2
conv_kernel = 3
dropout = 0.1
input_dim = 8
lstm_dim = 8
joint_dim = 8
subsample_channels = 2

[pmu]
variant = para_ctc

[train]
base_lr = 0.5
warmup_steps = 10
max_steps = 4
batch_size = 2
eval_every = 2
label_smoothing = 0.0
out_dir = {root / 'run'}

[data]
train_manifest = {root / 'toy' / 'train.tsv'}
dev_manifest = {root / 'toy' / 'dev.tsv'}
bpe_model = {root / 'bpe.tok'}
pasm_model = {root / 'pasm.tok'}
""", encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--quiet"]) == 0
    return root


def test_synth_outputs_exist(workspace):
    for name in ("train.tsv", "dev.tsv", "corpus.txt", "lexicon.txt"):
        assert (workspace / "toy" / name).exists()


def test_encode_command(workspace, capsys):
    assert main(["tokenize", "encode", "--model", str(workspace / "bpe.tok"),
                 "--text", "bad cab"]) == 0
    units, _, ids = capsys.readouterr().out.strip().partition("\t")
    assert units and ids
    assert all(tok.isdigit() for tok in ids.split())


def test_training_artifacts(workspace):
    assert (workspace / "run" / "final.ckpt").exists()
    assert (workspace / "run" / "runlog.jsonl").exists()
    lines = (workspace / "run" / "runlog.jsonl").read_text().splitlines()
    assert len(lines) == 4 + 2  # step records plus eval records


def test_decode_then_score(workspace, capsys):
    hyp = workspace / "dev.hyp"
    assert main(["decode", "--ckpt", str(workspace / "run" / "final.ckpt"),
                 "--data", str(workspace / "toy" / "dev.tsv"),
                 "--out", str(hyp)]) == 0
    capsys.readouterr()
    lines = hyp.read_text(encoding="utf-8").splitlines()
    assert lines and all("\t" in line for line in lines)

    assert main(["eval-wer", "--ref", str(workspace / "toy" / "dev.tsv"),
                 "--hyp", str(hyp)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("wer ")
    assert "ref_words" in out


@pytest.mark.parametrize("extra, message", [
    (lambda lines: lines[0], "is a duplicate"),
    (lambda lines: "bogus_id\tx", "'bogus_id' is not in"),
], ids=["duplicate-id", "unknown-id"])
def test_eval_wer_rejects_bad_hypothesis_ids(workspace, capsys, tmp_path,
                                             extra, message):
    """A hypothesis file may name each reference utterance once and no
    other; the error names the offending line."""
    ref = workspace / "toy" / "dev.tsv"
    lines = []
    for line in ref.read_text(encoding="utf-8").splitlines():
        utt_id, _, text = line.split("\t")
        lines.append(f"{utt_id}\t{text}")
    hyp = tmp_path / "bad.hyp"
    hyp.write_text("\n".join(lines + [extra(lines)]) + "\n", encoding="utf-8")
    assert main(["eval-wer", "--ref", str(ref), "--hyp", str(hyp)]) == 2
    err = assert_one_error_naming(capsys, f"{hyp}:{len(lines) + 1}:")
    assert message in err


def test_resume_continues_from_checkpoint(workspace, capsys):
    cfg = (workspace / "exp.cfg").read_text(encoding="utf-8")
    longer = workspace / "exp8.cfg"
    longer.write_text(cfg.replace("max_steps = 4", "max_steps = 8")
                      .replace(str(workspace / "run"),
                               str(workspace / "run8")),
                      encoding="utf-8")
    assert main(["train", "--config", str(longer),
                 "--resume", str(workspace / "run" / "final.ckpt"),
                 "--quiet"]) == 0
    capsys.readouterr()
    log = (workspace / "run8" / "runlog.jsonl").read_text().splitlines()
    import json
    steps = [json.loads(l)["step"] for l in log
             if json.loads(l)["kind"] == "step"]
    assert steps == [5, 6, 7, 8]


def test_bad_input_exits_2(workspace, capsys, tmp_path):
    assert main(["tokenize", "encode", "--model",
                 str(tmp_path / "missing.tok"), "--text", "x"]) == 2
    assert "error:" in capsys.readouterr().err
    # a malformed config is an input error, reported on stderr with code 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nnum_layers = soon\n", encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_and_run_problems_are_one_list(workspace, capsys, tmp_path):
    """A config file's problems and the run's are reported together, in
    one error line, each naming the file: a value that does not parse, a
    layer split that does not add up, and a missing manifest."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((workspace / "exp.cfg").read_text(encoding="utf-8")
                   .replace("variant = para_ctc",
                            "variant = pca_ctc\nn1 = 1\nn2 = 1\nn3 = 1")
                   .replace("batch_size = 2", "batch_size = many")
                   .replace(f"dev_manifest = {workspace / 'toy' / 'dev.tsv'}\n",
                            ""), encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    err = assert_one_error_naming(capsys, cfg)
    for problem in ("[train] batch_size: invalid literal",
                    "n1+n2+n3 = 3 != num_layers = 2",
                    "[data] dev_manifest is required"):
        assert f"{cfg}: {problem}" in err


def test_unknown_tokenizer_header_exits_2(workspace, capsys, tmp_path):
    junk = tmp_path / "junk.tok"
    junk.write_text("not-a-tokenizer\n", encoding="utf-8")
    assert main(["tokenize", "encode", "--model", str(junk),
                 "--text", "x"]) == 2
    assert "unrecognized tokenizer header" in capsys.readouterr().err


def test_training_error_exits_2(workspace, capsys, nan_transducer_grad):
    cfg = workspace / "exp_nan.cfg"
    cfg.write_text((workspace / "exp.cfg").read_text(encoding="utf-8")
                   .replace(str(workspace / "run"), str(workspace / "run_nan")),
                   encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite gradient norm nan at step 1")
    assert "Traceback" not in err


def assert_one_error_naming(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err
    return err


def edited_config(workspace, tmp_path, old, new):
    """The workspace's experiment config with `old` replaced by `new`,
    writing its run under `tmp_path`; returns its path."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text((workspace / "exp.cfg").read_text(encoding="utf-8")
                   .replace(old, new)
                   .replace(str(workspace / "run"), str(tmp_path / "run")),
                   encoding="utf-8")
    return cfg


@pytest.mark.parametrize("edit", [
    dict(header=lambda h: h["model"].update(bogus_key=1)),
    dict(header=lambda h: h.pop("pmu")),
    dict(blob=b"{not json"),
    # a header from before the vocabulary map: one int per unit kind
    dict(header=lambda h: h["model"].update(
        vocab_trans=h["model"]["vocab"]["bpe"],
        **{f"vocab_{k}": v for k, v in h["model"].pop("vocab").items()})),
    # headers from before the variant fixed the CTC units and subsampling
    dict(header=lambda h: h["pmu"].update(ctc_units=h["pmu"]["trans_units"])),
    dict(header=lambda h: h["model"]["encoder"].update(subsample_factor=4)),
    # the run counters have no default: a resume would restart the schedule
    dict(header=lambda h: h.pop("seed")),
    dict(header=lambda h: h.pop("opt_t")),
    dict(header=lambda h: h.pop("next_step")),
    # vocabulary rules are checked against the file that carries them
    dict(header=lambda h: h["model"]["vocab"].update(bpe=1)),
    dict(header=lambda h: h["model"]["vocab"].pop("pasm")),
    # meta is read as an object; params fixes the payload's layout
    dict(header=lambda h: h.update(meta=["x"])),
    dict(header=lambda h: h.pop("params")),
], ids=["extra-config-key", "no-pmu", "not-json", "vocab-fields", "ctc-units",
        "subsample-factor", "no-seed", "no-opt-t", "no-next-step",
        "vocab-too-small", "vocab-kind-missing", "meta-not-an-object",
        "no-params"])
def test_malformed_checkpoint_header_exits_2(workspace, capsys, tmp_path, edit):
    ckpt = edited_checkpoint(workspace / "run" / "final.ckpt",
                             tmp_path / "bad.ckpt", **edit)
    assert main(["decode", "--ckpt", str(ckpt),
                 "--data", str(workspace / "toy" / "dev.tsv"),
                 "--out", str(tmp_path / "dev.hyp")]) == 2
    assert_one_error_naming(capsys, ckpt)


def test_checkpoint_of_the_previous_layout_exits_2(workspace, capsys,
                                                   tmp_path):
    """A PMU1 file, which framed each array with its own path and shape
    records, is refused by its magic."""
    header, payload = load_checkpoint(str(workspace / "run" / "final.ckpt"))
    params = header.pop("params")
    values, start, records = np.frombuffer(payload, "<f8"), 0, []
    for prefix in ("", "opt/m/", "opt/v/"):
        for path, shape in params:
            raw, n = f"{prefix}{path}".encode("utf-8"), math.prod(shape)
            records.append(struct.pack(f"<H{len(raw)}sB{len(shape)}I", len(raw),
                                       raw, len(shape), *shape)
                           + values[start:start + n].tobytes())
            start += n
    blob = json.dumps(header).encode("utf-8")
    ckpt = tmp_path / "old.ckpt"
    ckpt.write_bytes(b"PMU1" + struct.pack("<I", len(blob)) + blob
                     + struct.pack("<I", len(records)) + b"".join(records))
    assert main(["decode", "--ckpt", str(ckpt),
                 "--data", str(workspace / "toy" / "dev.tsv"),
                 "--out", str(tmp_path / "dev.hyp")]) == 2
    assert "bad checkpoint magic" in assert_one_error_naming(capsys, ckpt)


def test_zero_frame_features_exit_2(workspace, capsys, tmp_path):
    empty = tmp_path / "empty.pmuf"
    empty.write_bytes(b"PMUF" + struct.pack("<III", 1, 0, 8))
    manifest = tmp_path / "dev.tsv"
    manifest.write_text(f"u0\t{empty}\tbad cab\n", encoding="utf-8")
    assert main(["decode", "--ckpt", str(workspace / "run" / "final.ckpt"),
                 "--data", str(manifest), "--out", str(tmp_path / "dev.hyp")]) == 2
    assert "empty feature matrix" in assert_one_error_naming(capsys, empty)


def test_invalid_config_in_checkpoint_header_exits_2(workspace, capsys,
                                                     tmp_path):
    ckpt = tmp_path / "bad.ckpt"
    edited_checkpoint(workspace / "run" / "final.ckpt", ckpt,
                      header=lambda h: (h["pmu"].update(alpha=2.0),
                                        h["model"].update(lstm_dim=0)))
    assert main(["decode", "--ckpt", str(ckpt),
                 "--data", str(workspace / "toy" / "dev.tsv"),
                 "--out", str(tmp_path / "dev.hyp")]) == 2
    err = assert_one_error_naming(capsys, ckpt)
    assert f"{ckpt}: checkpoint header" in err
    assert "lstm_dim must be >= 1" in err and "alpha 2.0 not in (0,1)" in err


def test_decode_features_of_the_wrong_width_exit_2(workspace, capsys,
                                                   tmp_path):
    save_features(str(tmp_path / "wide.pmuf"), np.zeros((40, 12)))
    manifest = tmp_path / "dev.tsv"
    manifest.write_text("wide\twide.pmuf\tbad cab\n", encoding="utf-8")
    assert main(["decode", "--ckpt", str(workspace / "run" / "final.ckpt"),
                 "--data", str(manifest), "--out", str(tmp_path / "dev.hyp")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: utterance 'wide' has feature dim 12, [model] "
                   "input_dim is 8\n")


def test_resume_against_best_without_its_wer_exits_2(workspace, capsys):
    out = workspace / "run_nobest"
    out.mkdir()
    edited_checkpoint(workspace / "run" / "best.ckpt", out / "best.ckpt",
                      header=lambda h: h["meta"].pop("best_wer"))
    cfg = workspace / "exp_nobest.cfg"
    cfg.write_text((workspace / "exp.cfg").read_text(encoding="utf-8")
                   .replace(str(workspace / "run"), str(out)), encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--quiet",
                 "--resume", str(workspace / "run" / "final.ckpt")]) == 2
    assert_one_error_naming(capsys, out / "best.ckpt")


def test_resume_against_best_whose_meta_is_not_an_object_exits_2(
        workspace, capsys, tmp_path):
    cfg = edited_config(workspace, tmp_path, "[train]", "[train]")
    (tmp_path / "run").mkdir()
    best = edited_checkpoint(workspace / "run" / "best.ckpt",
                             tmp_path / "run" / "best.ckpt",
                             header=lambda h: h.update(meta=["x"]))
    assert main(["train", "--config", str(cfg), "--quiet",
                 "--resume", str(workspace / "run" / "final.ckpt")]) == 2
    assert "meta is not a JSON object" in assert_one_error_naming(capsys, best)


def test_pasm_unit_count_not_an_integer_exits_2(workspace, capsys, tmp_path):
    lines = (workspace / "pasm.tok").read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("unit "))
    lines[first] = lines[first].rsplit(" ", 1)[0] + " many"
    bad = tmp_path / "bad.tok"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["tokenize", "encode", "--model", str(bad), "--text", "x"]) == 2
    assert_one_error_naming(capsys, bad)


@pytest.fixture
def non_utf8_file(tmp_path):
    junk = tmp_path / "junk.tok"
    junk.write_bytes(bytes(range(192, 256)))
    return junk


def test_encode_with_non_utf8_tokenizer_exits_2(capsys, non_utf8_file):
    assert main(["tokenize", "encode", "--model", str(non_utf8_file),
                 "--text", "x"]) == 2
    assert_one_error_naming(capsys, non_utf8_file)


def test_train_with_non_utf8_tokenizer_exits_2(workspace, capsys, tmp_path,
                                               non_utf8_file):
    junk = non_utf8_file
    cfg = edited_config(workspace, tmp_path, str(workspace / "bpe.tok"),
                        str(junk))
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    assert_one_error_naming(capsys, junk)


def test_tokenizer_of_the_other_family_exits_2(workspace, capsys, tmp_path):
    cfg = edited_config(workspace, tmp_path,
                        f"bpe_model = {workspace / 'bpe.tok'}",
                        f"bpe_model = {workspace / 'pasm.tok'}")
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    assert_one_error_naming(capsys, workspace / "pasm.tok")


@pytest.mark.parametrize("edit", [
    lambda units: units.remove("<blank>"),
    lambda units: units.remove("<unk>"),
    lambda units: units.insert(0, units.pop(1)),
    lambda units: units.pop(),
], ids=["no-blank", "no-unk", "blank-not-first", "short"])
def test_bad_checkpoint_vocabulary_exits_2(workspace, capsys, tmp_path, edit):
    ckpt = tmp_path / "bad.ckpt"
    edited_checkpoint(workspace / "run" / "final.ckpt", ckpt,
                      header=lambda h: edit(h["meta"]["trans_vocab"]))
    assert main(["decode", "--ckpt", str(ckpt),
                 "--data", str(workspace / "toy" / "dev.tsv"),
                 "--out", str(tmp_path / "dev.hyp")]) == 2
    assert_one_error_naming(capsys, ckpt)


@pytest.mark.parametrize("argv", [
    lambda ws, bad, tmp: ["train", "--config", bad, "--quiet"],
    lambda ws, bad, tmp: ["synth", "--spec", bad, "--out", tmp / "toy"],
    lambda ws, bad, tmp: ["tokenize", "train-bpe", "--corpus", bad,
                          "--merges", "2", "--out", tmp / "bpe.tok"],
    lambda ws, bad, tmp: ["tokenize", "train-pasm", "--corpus", bad,
                          "--lexicon", ws / "toy" / "lexicon.txt",
                          "--size", "4", "--iters", "1",
                          "--out", tmp / "pasm.tok"],
    lambda ws, bad, tmp: ["eval-wer", "--ref", bad,
                          "--hyp", ws / "toy" / "dev.tsv"],
    lambda ws, bad, tmp: ["eval-wer", "--ref", ws / "toy" / "dev.tsv",
                          "--hyp", bad],
    lambda ws, bad, tmp: ["train", "--quiet", "--config", edited_config(
        ws, tmp, str(ws / "toy" / "train.tsv"), str(bad))],
], ids=["config", "spec", "bpe-corpus", "pasm-corpus", "ref", "hyp",
        "manifest"])
def test_non_utf8_input_file_exits_2(workspace, capsys, tmp_path, argv):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes("a b\n".encode("utf-16"))  # starts ff fe
    assert main([str(a) for a in argv(workspace, bad, tmp_path)]) == 2
    assert_one_error_naming(capsys, bad)


@pytest.mark.parametrize("section, line", [
    ("[pmu]", "ctc_units = pasm"), ("[model]", "subsample_factor = 4")])
def test_removed_config_keys_exit_2(workspace, capsys, tmp_path, section, line):
    cfg = edited_config(workspace, tmp_path, f"{section}\n",
                        f"{section}\n{line}\n")
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    key = line.split(" ")[0]
    assert f"unknown key '{key}'" in assert_one_error_naming(capsys, cfg)


@pytest.mark.parametrize("old, new, problem", [
    ("base_lr = 0.5", "base_lr = nan", "base_lr must be positive"),
    ("base_lr = 0.5", "base_lr = inf", "base_lr must be finite"),
    ("[train]", "[train]\ngrad_clip_norm = nan",
     "grad_clip_norm must be positive")], ids=["lr-nan", "lr-inf", "clip-nan"])
def test_non_finite_train_values_exit_2(workspace, capsys, tmp_path, old, new,
                                        problem):
    """NaN compares false against every bound, so a check written as
    `x <= 0` would let it through and training would start.  The problem
    names the config file, as `load_config` names it."""
    cfg = edited_config(workspace, tmp_path, old, new)
    assert main(["train", "--config", str(cfg), "--quiet"]) == 2
    assert f"{cfg}: {problem}" in assert_one_error_naming(capsys, cfg)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_noise_sigma_exits_2(capsys, tmp_path, value):
    spec = tmp_path / "toy.spec"
    spec.write_text(f"noise_sigma = {value}\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out",
                 str(tmp_path / "toy")]) == 2
    err = assert_one_error_naming(capsys, spec)
    assert "noise_sigma must be finite and >= 0" in err
    assert not (tmp_path / "toy").exists()

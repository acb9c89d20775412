"""Schedule, optimizer, batching, run logs, checkpoints, and training steps."""

import json
import math
import struct

import numpy as np
import pytest

import pmu.data as data_mod
import pmu.train as train_mod
from pmu.config import DataConfig, Experiment, TrainConfig
from pmu.errors import FormatError, InputError, TrainingError
from pmu.metrics import WerReport
from pmu.model import (
    ConformerTransducer,
    EncoderConfig,
    ModelConfig,
    PMUConfig,
)
from pmu.synth import ToySpec, materialize
from pmu.tokenizers.bpe import save_bpe, train_bpe
from pmu.tokenizers.pasm import save_pasm, train_pasm
from pmu.tokenizers import Lexicon
from pmu.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    RunLog,
    Sample,
    adam_update,
    clip_gradients,
    load_checkpoint,
    lr_at,
    restore_model,
    run_experiment,
    sample_batch,
    save_checkpoint,
    train_step,
)


def tiny_cfg(num_layers=2, **over):
    enc = EncoderConfig(num_layers=num_layers, attention_dim=8, ff_dim=16,
                        heads=2, conv_kernel=3, dropout=0.0)
    base = dict(encoder=enc, input_dim=6, lstm_dim=8, joint_dim=8,
                subsample_channels=2,
                vocab={"pasm": 4, "bpe": 5, "bpe_small": 4})
    base.update(over)
    return ModelConfig(**base)


def tiny_model(variant="baseline", seed=0, **pmu_over):
    pmu = dict(variant=variant)
    if variant == "pca_ctc":
        pmu.update(n1=1, n2=0, n3=1)
    pmu.update(pmu_over)
    return ConformerTransducer(tiny_cfg(), PMUConfig(**pmu), seed=seed)


def sample(T=10, seed=0, sid="u0"):
    feats = np.random.default_rng(seed).normal(size=(T, 6))
    return Sample(sid, feats, {"pasm": [1], "bpe": [1, 2], "bpe_small": [1]})


class TestSchedule:
    def test_warmup_is_linear(self):
        cfg = TrainConfig(base_lr=2.0, warmup_steps=100)
        for step in (1, 10, 50, 99):
            assert lr_at(step, cfg) == pytest.approx(
                2.0 * step / 100 ** 1.5, rel=1e-12)

    def test_knee_joins_both_rules(self):
        cfg = TrainConfig(base_lr=2.0, warmup_steps=100)
        knee = lr_at(100, cfg)
        assert knee == pytest.approx(2.0 / math.sqrt(100), rel=1e-12)
        assert knee == pytest.approx(2.0 * 100 / 100 ** 1.5, rel=1e-12)

    def test_decay_is_inverse_sqrt(self):
        cfg = TrainConfig(base_lr=1.0, warmup_steps=100)
        assert lr_at(400, cfg) == pytest.approx(lr_at(100, cfg) / 2, rel=1e-12)
        assert lr_at(10000, cfg) == pytest.approx(0.01, rel=1e-12)

    def test_peak_is_at_the_knee(self):
        cfg = TrainConfig(base_lr=1.0, warmup_steps=50)
        lrs = [lr_at(s, cfg) for s in range(1, 300)]
        assert int(np.argmax(lrs)) + 1 == 50

    def test_step_zero_rejected(self):
        with pytest.raises(InputError, match="step must be >= 1"):
            lr_at(0, TrainConfig())


class TestAdam:
    def test_matches_hand_computation(self):
        model = tiny_model()
        ps = model.params
        opt = AdamState.for_params(ps)
        path = "joint/out_b"
        node = ps.get(path)
        before = node.value.copy()
        rng = np.random.default_rng(0)
        for _, n in ps.items():
            n.grad = np.zeros_like(n.value)
        g = rng.normal(size=node.value.shape)
        node.grad = g.copy()

        adam_update(ps, opt, lr=0.1)

        m = (1 - ADAM_BETA1) * g
        v = (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1)
        vhat = v / (1 - ADAM_BETA2)
        want = before - 0.1 * mhat / (np.sqrt(vhat) + ADAM_EPS)
        np.testing.assert_allclose(node.value, want, atol=1e-15)
        assert opt.t == 1

    def test_second_step_uses_moments(self):
        model = tiny_model()
        ps = model.params
        opt = AdamState.for_params(ps)
        path = "joint/out_b"
        node = ps.get(path)
        before = node.value.copy()
        for _, n in ps.items():
            n.grad = np.zeros_like(n.value)
        g1 = np.full_like(node.value, 1.0)
        g2 = np.full_like(node.value, -2.0)

        node.grad = g1.copy()
        adam_update(ps, opt, lr=0.1)
        node.grad = g2.copy()
        adam_update(ps, opt, lr=0.1)

        m = (1 - ADAM_BETA1) * g1
        v = (1 - ADAM_BETA2) * g1 * g1
        step1 = 0.1 * (m / (1 - ADAM_BETA1)) / (
            np.sqrt(v / (1 - ADAM_BETA2)) + ADAM_EPS)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g2
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g2 * g2
        step2 = 0.1 * (m / (1 - ADAM_BETA1 ** 2)) / (
            np.sqrt(v / (1 - ADAM_BETA2 ** 2)) + ADAM_EPS)
        np.testing.assert_allclose(node.value, before - step1 - step2,
                                   atol=1e-15)

    def test_zero_lr_leaves_values_bitwise_identical(self):
        model = tiny_model()
        ps = model.params
        opt = AdamState.for_params(ps)
        rng = np.random.default_rng(1)
        before = {p: n.value.copy() for p, n in ps.items()}
        for _, n in ps.items():
            n.grad = rng.normal(size=n.value.shape)
        adam_update(ps, opt, lr=0.0)
        for p, n in ps.items():
            np.testing.assert_array_equal(n.value, before[p])


class TestClipping:
    def test_large_gradient_scaled_to_cap(self):
        model = tiny_model()
        ps = model.params
        for _, n in ps.items():
            n.grad = np.zeros_like(n.value)
        node = ps.get("joint/out_b")
        node.grad = np.zeros_like(node.value)
        node.grad.reshape(-1)[0] = 10.0
        pre = clip_gradients(ps, 5.0)
        assert pre == pytest.approx(10.0, abs=1e-12)
        total = math.sqrt(sum(float((n.grad ** 2).sum())
                              for _, n in ps.items()))
        assert total <= 5.0 + 1e-9
        assert total == pytest.approx(5.0, abs=1e-9)

    def test_small_gradient_untouched(self):
        model = tiny_model()
        ps = model.params
        for _, n in ps.items():
            n.grad = np.zeros_like(n.value)
        node = ps.get("joint/out_b")
        node.grad.reshape(-1)[0] = 3.0
        pre = clip_gradients(ps, 5.0)
        assert pre == pytest.approx(3.0, abs=1e-12)
        assert node.grad.reshape(-1)[0] == 3.0


class TestBatchSampling:
    def test_deterministic_per_step(self):
        a = sample_batch(100, 8, seed=5, step=3)
        b = sample_batch(100, 8, seed=5, step=3)
        assert a == b
        assert len(a) == 8 and all(0 <= i < 100 for i in a)

    def test_varies_with_step_and_seed(self):
        base = sample_batch(100, 8, seed=5, step=3)
        assert base != sample_batch(100, 8, seed=5, step=4)
        assert base != sample_batch(100, 8, seed=6, step=3)

    def test_small_datasets_sample_with_replacement(self):
        idx = sample_batch(3, 8, seed=0, step=1)
        assert len(idx) == 8 and all(0 <= i < 3 for i in idx)


class TestRunLog:
    def bundle(self, total=1.0):
        from pmu.model import LossBundle
        return LossBundle(l_trans=0.5, l_ctc_components={"bpe": 0.25},
                          l_total=total)

    def test_steps_must_increase(self):
        log = RunLog()
        log.add_step(1, 0.1, self.bundle(), 2.0)
        log.add_step(2, 0.1, self.bundle(), 2.0)
        with pytest.raises(InputError, match="must increase"):
            log.add_step(2, 0.1, self.bundle(), 2.0)

    def test_serialization_is_stable(self):
        log = RunLog()
        log.add_step(1, 0.125, self.bundle(0.75), 1.5)
        text = log.dumps()
        assert text == log.dumps()
        rec = json.loads(text.splitlines()[0])
        assert rec == {"kind": "step", "step": 1, "lr": 0.125,
                       "l_total": 0.75, "l_trans": 0.5,
                       "l_ctc": {"bpe": 0.25}, "skipped": 0,
                       "grad_norm": 1.5}

    def test_eval_entries(self):
        class R:
            wer = 0.25
            substitutions = 1
            insertions = 0
            deletions = 1
            ref_words = 8
        log = RunLog()
        log.add_eval(10, R())
        assert log.entries[-1] == {"kind": "eval", "step": 10, "wer": 0.25,
                                   "S": 1, "I": 0, "D": 1, "N": 8}


class TestCheckpoints:
    def test_round_trip_restores_everything(self, tmp_path):
        model = tiny_model("pca_ctc", seed=3, sc_enabled=True)
        opt = AdamState.for_params(model.params)
        # give the optimizer some non-trivial state first
        batch = [sample(seed=1)]
        train_step(model, batch, TrainConfig(label_smoothing=0.0), opt, step=1)
        p = str(tmp_path / "m.ckpt")
        save_checkpoint(p, model, opt, next_step=2, meta={"note": "x"})

        back, opt2, header = restore_model(p)
        assert header["next_step"] == 2
        assert header["seed"] == 3
        assert header["meta"] == {"note": "x"}
        assert back.config_dict() == model.config_dict()
        assert opt2.t == opt.t
        for path, node in model.params.items():
            np.testing.assert_array_equal(back.params.get(path).value,
                                          node.value)
            np.testing.assert_array_equal(opt2.m[path], opt.m[path])
            np.testing.assert_array_equal(opt2.v[path], opt.v[path])

    def test_restored_model_trains_identically(self, tmp_path):
        model = tiny_model(seed=1)
        opt = AdamState.for_params(model.params)
        cfg = TrainConfig(label_smoothing=0.0)
        train_step(model, [sample(seed=2)], cfg, opt, step=1)
        p = str(tmp_path / "m.ckpt")
        save_checkpoint(p, model, opt, next_step=2)
        back, opt2, _ = restore_model(p)

        b1, _ = train_step(model, [sample(seed=3)], cfg, opt, step=2)
        b2, _ = train_step(back, [sample(seed=3)], cfg, opt2, step=2)
        assert b1.l_total == b2.l_total
        for path, node in model.params.items():
            np.testing.assert_array_equal(back.params.get(path).value,
                                          node.value)

    def test_failed_save_leaves_the_previous_checkpoint(self, tmp_path,
                                                         monkeypatch):
        model = tiny_model(seed=1)
        opt = AdamState.for_params(model.params)
        p = tmp_path / "m.ckpt"
        save_checkpoint(str(p), model, opt, next_step=1)
        before = p.read_bytes()

        pack, calls = train_mod._pack_record, []

        def failing_pack(fh, path, arr):
            calls.append(path)
            if len(calls) == 5:
                raise OSError("disk full")
            pack(fh, path, arr)

        monkeypatch.setattr(train_mod, "_pack_record", failing_pack)
        train_step(model, [sample(seed=2)], TrainConfig(), opt, step=1)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(p), model, opt, next_step=2)
        assert len(calls) == 5
        assert p.read_bytes() == before
        assert sorted(x.name for x in tmp_path.iterdir()) == ["m.ckpt"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError, match="bad checkpoint magic"):
            load_checkpoint(str(p))

    def test_truncation_names_what_was_read(self, tmp_path):
        model = tiny_model()
        opt = AdamState.for_params(model.params)
        p = str(tmp_path / "m.ckpt")
        save_checkpoint(p, model, opt, next_step=1)
        blob = open(p, "rb").read()
        with open(p, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="truncated while reading"):
            load_checkpoint(p)

    @staticmethod
    def rewritten_checkpoint(tmp_path, edit) -> str:
        """A tiny model's checkpoint, rebuilt with `edit(records)` applied."""
        model = tiny_model()
        opt = AdamState.for_params(model.params)
        p = str(tmp_path / "m.ckpt")
        save_checkpoint(p, model, opt, next_step=1)
        header, records = load_checkpoint(p)
        edit(records)
        blob = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode()
        with open(p, "wb") as fh:
            fh.write(b"PMU1")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(records)))
            for rp, arr in records.items():
                raw = rp.encode()
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<B", arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(arr.astype("<f8").tobytes())
        return p

    def test_missing_record_rejected(self, tmp_path):
        # rebuild the file without one parameter record
        p = self.rewritten_checkpoint(tmp_path,
                                      lambda r: r.pop("joint/out_b"))
        with pytest.raises(FormatError, match="missing parameter record"):
            restore_model(p)

    def test_shape_mismatch_rejected(self, tmp_path):
        p = self.rewritten_checkpoint(  # config implies 5
            tmp_path, lambda r: r.update({"joint/out_b": np.zeros(3)}))
        with pytest.raises(FormatError, match="shape"):
            restore_model(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.pop("opt/m/joint/out_b"),
         "missing optimizer record 'opt/m/joint/out_b'"),
        (lambda r: r.update({"opt/v/joint/out_b": np.zeros(1)}),
         r"'opt/v/joint/out_b' has shape \(1,\)"),
        (lambda r: r.update({"opt/v/joint/out_b": np.zeros(3)}),
         r"'opt/v/joint/out_b' has shape \(3,\)"),
    ], ids=["missing-moment", "broadcastable-moment", "short-moment"])
    def test_bad_optimizer_record_rejected(self, tmp_path, edit, message):
        """Adam moments are validated like parameters: none loads as zeros
        or broadcasts into the state."""
        p = self.rewritten_checkpoint(tmp_path, edit)
        with pytest.raises(FormatError, match=message):
            restore_model(p)


class TestTrainStep:
    def test_updates_parameters(self):
        model = tiny_model()
        opt = AdamState.for_params(model.params)
        before = {p: n.value.copy() for p, n in model.params.items()}
        bundle, info = train_step(model, [sample()], TrainConfig(), opt, 1)
        assert info["updated"] is True
        assert math.isfinite(bundle.l_total)
        assert info["grad_norm"] > 0.0
        changed = sum(not np.array_equal(n.value, before[p])
                      for p, n in model.params.items())
        assert changed > 0

    def test_unreachable_samples_are_skipped(self):
        model = tiny_model()
        opt = AdamState.for_params(model.params)
        # 4 frames subsample to 1; a 2-unit CTC target cannot be emitted
        bad = Sample("short", np.zeros((4, 6)), {"bpe": [1, 2]})
        before = {p: n.value.copy() for p, n in model.params.items()}
        bundle, info = train_step(model, [bad], TrainConfig(), opt, 1)
        assert bundle.skipped_samples == 1
        assert bundle.status == "all_skipped"
        assert info["updated"] is False
        for p, n in model.params.items():
            np.testing.assert_array_equal(n.value, before[p])

    def test_mixed_batch_averages_over_valid_samples(self):
        model = tiny_model()
        cfg = TrainConfig(label_smoothing=0.0)
        good = sample(seed=4, sid="good")
        bad = Sample("short", np.zeros((4, 6)), {"bpe": [1, 2]})
        solo = model.loss(good.features, good.targets).l_total
        bundle, info = train_step(model, [good, bad], cfg,
                                  AdamState.for_params(model.params), 1)
        assert bundle.skipped_samples == 1
        assert bundle.l_total == pytest.approx(solo, abs=1e-12)
        assert info["updated"] is True

    def test_non_finite_gradient_stops_before_adam(self, nan_transducer_grad):
        """A finite loss with a NaN gradient must not reach the optimizer:
        the step raises, naming itself and a parameter, and leaves the
        parameters and Adam state as they were."""
        model = tiny_model()
        opt = AdamState.for_params(model.params)
        opt.t = 2
        for p in opt.m:
            opt.m[p][...] = 0.5
            opt.v[p][...] = 0.25
        before = {p: n.value.copy() for p, n in model.params.items()}
        with pytest.raises(TrainingError, match="at step 3") as err:
            train_step(model, [sample()], TrainConfig(), opt, 3)
        bad = [p for p, n in model.params.items()
               if not np.isfinite(n.grad).all()]
        assert bad and f"first at parameter {bad[0]!r}" in str(err.value)
        assert opt.t == 2
        for p, n in model.params.items():
            np.testing.assert_array_equal(n.value, before[p])
            assert (opt.m[p] == 0.5).all() and (opt.v[p] == 0.25).all()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_transducer_loss_stops_the_step(self):
        """A NaN transducer loss is not a skipped sample: the step raises,
        naming itself and the utterance, before any parameter moves."""
        model = tiny_model()
        model.params.get("joint/out_b").value[...] = math.nan
        opt = AdamState.for_params(model.params)
        before = {p: n.value.copy() for p, n in model.params.items()}
        with pytest.raises(TrainingError,
                           match=r"non-finite loss at utterance 'u0' \(step 3\)"):
            train_step(model, [sample()], TrainConfig(), opt, 3)
        assert opt.t == 0
        for p, n in model.params.items():
            np.testing.assert_array_equal(n.value, before[p])

    def test_variants_share_the_transducer_branch_at_init(self):
        """Taps are read-only with self-conditioning off, so every variant
        built from one seed starts with the same transducer loss."""
        s = sample(seed=6)
        results = []
        for variant in ("baseline", "para_ctc", "pca_ctc"):
            model = tiny_model(variant, seed=9)
            bundle = model.loss(s.features, s.targets)
            results.append(bundle.l_trans)
        assert results[0] == results[1] == results[2]


class TestRunExperiment:
    def build_toy_experiment(self, tmp_path, max_steps=4, seed=0):
        data_dir = tmp_path / "toy"
        spec = ToySpec(num_utts=20, words=("bad", "cab", "ace"),
                       feature_dim=8, frames_min=10, frames_max=14,
                       gap_min=2, gap_max=4)
        paths = materialize(str(data_dir), spec, seed=0)
        corpus = open(paths["corpus"], encoding="utf-8").read().splitlines()
        bpe = train_bpe(corpus, num_merges=8)
        save_bpe(bpe, str(tmp_path / "bpe.tok"))
        lex = Lexicon()
        for w in spec.words:
            lex.add(w, [c.upper() for c in w])
        pasm = train_pasm(corpus, lex, iterations=4, min_count=1,
                          target_size=12)
        save_pasm(pasm, str(tmp_path / "pasm.tok"))

        enc = EncoderConfig(num_layers=2, attention_dim=8, ff_dim=16,
                            heads=2, conv_kernel=3, dropout=0.1)
        model = ModelConfig(encoder=enc, input_dim=8, lstm_dim=8,
                            joint_dim=8, subsample_channels=2)
        pmu = PMUConfig(variant="para_ctc")
        train = TrainConfig(base_lr=0.5, warmup_steps=10, max_steps=max_steps,
                            batch_size=2, seed=seed, eval_every=2,
                            label_smoothing=0.0,
                            out_dir=str(tmp_path / "run"))
        data = DataConfig(train_manifest=paths["train_manifest"],
                          dev_manifest=paths["dev_manifest"],
                          bpe_model=str(tmp_path / "bpe.tok"),
                          pasm_model=str(tmp_path / "pasm.tok"))
        return Experiment(model=model, pmu=pmu, train=train, data=data)

    def test_end_to_end_produces_log_and_checkpoints(self, tmp_path):
        exp = self.build_toy_experiment(tmp_path)
        result = run_experiment(exp, quiet=True)
        kinds = [e["kind"] for e in result["log"].entries]
        assert kinds.count("step") == 4
        assert kinds.count("eval") == 2  # steps 2 and 4
        steps = [e["step"] for e in result["log"].entries if e["kind"] == "step"]
        assert steps == [1, 2, 3, 4]
        logged = open(result["log_path"], encoding="utf-8").read()
        assert logged == result["log"].dumps()
        header, _ = load_checkpoint(result["final_ckpt"])
        assert header["next_step"] == 5
        assert "trans_vocab" in header["meta"]

    def test_missing_tokenizer_is_reported_before_compute(self, tmp_path):
        exp = self.build_toy_experiment(tmp_path)
        exp.data.pasm_model = str(tmp_path / "nope.tok")
        with pytest.raises(InputError, match="pasm model file not found"):
            run_experiment(exp, quiet=True)

    def test_feature_dim_mismatch_is_reported(self, tmp_path):
        exp = self.build_toy_experiment(tmp_path)
        exp.model.input_dim = 80
        with pytest.raises(InputError, match="input_dim"):
            run_experiment(exp, quiet=True)

    def test_every_problem_is_reported_before_any_feature_file(
            self, tmp_path, monkeypatch):
        """Train, pmu, tokenizer and manifest problems come in one InputError
        raised before a feature file is opened."""
        exp = self.build_toy_experiment(tmp_path)
        exp.train.max_steps = -5
        exp.data.pasm_model = ""
        exp.data.dev_manifest = ""
        exp.pmu = PMUConfig(variant="pca_ctc", n1=1, n2=0, n3=2)
        monkeypatch.setattr(data_mod, "load_features",
                            lambda path: pytest.fail(f"read {path}"))
        with pytest.raises(InputError) as exc:
            run_experiment(exp, quiet=True)
        msg = str(exc.value)
        for problem in ("max_steps must be positive",
                        "[data] pasm_model is required",
                        "[data] dev_manifest is required",
                        "n1+n2+n3 = 3 != num_layers = 2"):
            assert problem in msg

    def test_resume_keeps_a_better_best_checkpoint(self, tmp_path, monkeypatch):
        """A resumed run into the same out_dir replaces best.ckpt only when
        an eval beats the WER recorded in it."""
        scripted = iter([0.2, 0.5, 0.1])
        monkeypatch.setattr("pmu.train.wer_corpus",
                            lambda pairs: WerReport(wer=next(scripted)))
        exp = self.build_toy_experiment(tmp_path, max_steps=2)
        first = run_experiment(exp, quiet=True)

        def best():
            meta = load_checkpoint(first["best_ckpt"])[0]["meta"]
            return meta["eval_step"], meta["best_wer"]

        assert best() == (2, 0.2)
        exp.train.max_steps = 4
        resumed = run_experiment(exp, resume=first["final_ckpt"], quiet=True)
        assert best() == (2, 0.2)  # the eval at step 4 (0.5) is worse
        assert resumed["best_wer"] == 0.2
        exp.train.max_steps = 6
        run_experiment(exp, resume=resumed["final_ckpt"], quiet=True)
        assert best() == (6, 0.1)

    def test_resume_config_mismatch_rejected(self, tmp_path):
        exp = self.build_toy_experiment(tmp_path)
        result = run_experiment(exp, quiet=True)
        bigger = self.build_toy_experiment(tmp_path)
        bigger.model.encoder.attention_dim = 16
        bigger.model.encoder.heads = 4
        with pytest.raises(InputError, match="does not match"):
            run_experiment(bigger, resume=result["final_ckpt"], quiet=True)
        # a different seed changes dropout and batch order, so resuming
        # under it could not reproduce the uninterrupted run either
        reseeded = self.build_toy_experiment(tmp_path, seed=1)
        with pytest.raises(InputError, match="does not match"):
            run_experiment(reseeded, resume=result["final_ckpt"], quiet=True)

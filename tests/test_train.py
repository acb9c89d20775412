"""Schedule, optimizer, batching, run logs, checkpoints, and training steps."""

import json
import math

import numpy as np
import pytest
from checkpoint_edit import edited_checkpoint
from hypothesis import given, settings, strategies as st

import pmu.data as data_mod
import pmu.model
import pmu.train as train_mod
from pmu.config import DataConfig, Experiment, TrainConfig
from pmu.errors import FormatError, InputError, TrainingError
from pmu.losses import LOG_FLOOR
from pmu.metrics import WerReport
from pmu.model import (
    UNIT_CHOICES,
    VARIANTS,
    ConformerTransducer,
    EncoderConfig,
    ModelConfig,
    PMUConfig,
    combine_losses,
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


def replaced(old, new):
    """A header edit that swaps entry `old` of the params list for `new`."""
    return lambda h: h.update(params=[new if e == old else e
                                      for e in h["params"]])


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
        ps.zero_grad()
        g = rng.normal(size=node.value.shape)
        node.grad[...] = g

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
        ps.zero_grad()
        g1 = np.full_like(node.value, 1.0)
        g2 = np.full_like(node.value, -2.0)

        node.grad[...] = g1
        adam_update(ps, opt, lr=0.1)
        node.grad[...] = g2
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
            n.grad[...] = rng.normal(size=n.value.shape)
        adam_update(ps, opt, lr=0.0)
        for p, n in ps.items():
            np.testing.assert_array_equal(n.value, before[p])


class TestClipping:
    def test_large_gradient_scaled_to_cap(self):
        model = tiny_model()
        ps = model.params
        ps.zero_grad()
        node = ps.get("joint/out_b")
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
        ps.zero_grad()
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
        assert opt2.m.tobytes() == opt.m.tobytes()
        assert opt2.v.tobytes() == opt.v.tobytes()

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

        writes = []

        class FailingFile:
            """The real temp file, whose fifth write fails: the magic, the
            header length, the header and the parameter arena are written,
            and Adam's m arena is not."""

            def __init__(self, path, mode):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                writes.append(len(data))
                if len(writes) == 5:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(train_mod, "open", FailingFile, raising=False)
        train_step(model, [sample(seed=2)], TrainConfig(), opt, step=1)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(p), model, opt, next_step=2)
        assert len(writes) == 5 and writes[3] == model.params.values.nbytes
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
    def assert_rejected(tmp_path, message, **edit):
        """Save a tiny model's checkpoint, apply `edited_checkpoint`'s
        `edit` to a copy, and check that restoring the copy raises a
        FormatError matching `message` that starts with its path."""
        model = tiny_model()
        src = str(tmp_path / "m.ckpt")
        save_checkpoint(src, model, AdamState.for_params(model.params), 1)
        bad = str(tmp_path / "bad.ckpt")
        edited_checkpoint(src, bad, **edit)
        with pytest.raises(FormatError, match=message) as err:
            restore_model(bad)
        assert str(err.value).startswith(f"{bad}: ")

    def test_missing_record_rejected(self, tmp_path):
        self.assert_rejected(
            tmp_path, "params list does not match",
            header=lambda h: h["params"].remove(["joint/out_b", [5]]),
            payload=lambda p: p[:-3 * 5 * 8])

    def test_shape_mismatch_rejected(self, tmp_path):
        self.assert_rejected(
            tmp_path, "params list does not match",
            header=replaced(["joint/out_b", [5]], ["joint/out_b", [5, 1]]))

    @pytest.mark.parametrize("edit, message", [
        (dict(header=replaced(["joint/out_b", [5]], ["joint/out_c", [5]])),
         "params list does not match"),
        (dict(payload=lambda p: p + bytes(8)),
         "trailing bytes after the payload"),
    ], ids=["renamed", "float-too-many"])
    def test_bad_layout_rejected(self, tmp_path, edit, message):
        """The header's params list must be the one the config builds, and
        the payload must hold exactly its parameters and both moments."""
        self.assert_rejected(tmp_path, message, **edit)

    # the payload ends with Adam's v of tap/bpe/w, shape (8, 5)
    LAST_MOMENT = 8 * 5 * 8

    @pytest.mark.parametrize("payload", [
        lambda p: p[:-TestCheckpoints.LAST_MOMENT],
        lambda p: p[:-TestCheckpoints.LAST_MOMENT] + bytes(8),
        lambda p: p[:len(p) * 2 // 3] + p[len(p) * 2 // 3 + 8:],
    ], ids=["missing-moment", "broadcastable-moment", "short-moment"])
    def test_bad_optimizer_record_rejected(self, tmp_path, payload):
        """Adam moments are read like parameters: a moment region that is
        missing, one float long or one float short is a short payload,
        never zeros or a broadcast into the state."""
        self.assert_rejected(tmp_path, "truncated while reading the payload",
                             payload=payload)

SPECIAL_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-308,
                           1e300, -1e300, 1.0, -1.5])


@st.composite
def checkpoint_cases(draw):
    """A tiny model of any variant, its parameters and both Adam moments
    filled with values that include -0.0, subnormals and +-1e300."""
    layers = draw(st.integers(2, 3))
    pmu = PMUConfig(variant=draw(st.sampled_from(VARIANTS)),
                    trans_units=draw(st.sampled_from(UNIT_CHOICES)))
    if pmu.variant == "pca_ctc":
        pmu.n2 = draw(st.integers(0, layers - 2))
        pmu.n1, pmu.n3 = 1, layers - 1 - pmu.n2
        pmu.sc_enabled = draw(st.booleans())
        pmu.heads_shared = pmu.sc_enabled and pmu.n2 > 0 and draw(st.booleans())
    sizes = st.integers(2, 6)
    vocab = {"pasm": draw(sizes), "bpe": draw(sizes)}
    vocab["bpe_small"] = vocab["pasm"] if pmu.heads_shared else draw(sizes)
    model = ConformerTransducer(tiny_cfg(layers, vocab=vocab), pmu,
                                seed=draw(st.integers(0, 2 ** 32)))
    opt = AdamState.for_params(model.params)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    for arena in (model.params.values, opt.m, opt.v):
        arena[...] = np.where(rng.random(arena.shape) < 0.5,
                              rng.choice(SPECIAL_VALUES, arena.shape),
                              rng.normal(size=arena.shape))
    opt.t = draw(st.integers(0, 2 ** 40))
    json_values = st.one_of(st.none(), st.booleans(), st.integers(),
                            st.floats(allow_nan=False), st.text())
    meta = draw(st.dictionaries(st.text(), json_values | st.lists(json_values),
                                max_size=4))
    return model, opt, draw(st.integers(1, 2 ** 40)), meta


@settings(max_examples=60, deadline=None)
@given(case=checkpoint_cases())
def test_checkpoint_round_trip_is_exact(tmp_path_factory, case):
    model, opt, next_step, meta = case
    p = str(tmp_path_factory.mktemp("ckpt") / "m.ckpt")
    save_checkpoint(p, model, opt, next_step, meta=meta)
    back, opt2, header = restore_model(p)
    want = {**model.config_dict(), "opt_t": opt.t, "next_step": next_step,
            "seed": model.seed,
            "params": [[q, list(n.value.shape)] for q, n in model.params.items()]}
    assert header == ({**want, "meta": meta} if meta else want)
    assert (back.cfg, back.pmu, back.seed, opt2.t) == (
        model.cfg, model.pmu, model.seed, opt.t)
    for q, node in model.params.items():
        assert back.params.get(q).value.tobytes() == node.value.tobytes()
    assert opt2.m.tobytes() == opt.m.tobytes()
    assert opt2.v.tobytes() == opt.v.tobytes()


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

    @pytest.mark.parametrize("bad,status", [
        (dict(T=4, targets={"pasm": [1], "bpe": [1, 2]}), "unreachable:bpe"),
        (dict(T=4, targets={"pasm": [1, 1], "bpe": [1, 2]}), "unreachable:pasm"),
        (dict(T=14, floored=True), "unreachable:trans")],
        ids=["tap", "first-tap", "lattice"])
    def test_one_unreachable_utterance_skips_only_itself(self, monkeypatch,
                                                         bad, status):
        """An utterance whose tap or lattice no path reaches gets the
        status a batch of one gives it (the first head in `head_specs`
        order, then the transducer), and the step updates the parameters
        exactly as over the batch without it."""
        real_joint, real_loss = pmu.model.joint, ConformerTransducer.loss

        def joint(ht_wt, h_u, ps):  # floors the 14-frame utterance's lattice
            z, lattice = real_joint(ht_wt, h_u, ps)
            if bad.get("floored") and len(ht_wt) == 4:
                lattice[-1, -1, 0] = 2 * LOG_FLOOR
            return z, lattice

        statuses = []

        def loss(model, *args, **kwargs):
            bundle = real_loss(model, *args, **kwargs)
            statuses.append(bundle.status)
            return bundle

        monkeypatch.setattr(pmu.model, "joint", joint)
        monkeypatch.setattr(ConformerTransducer, "loss", loss)
        feats = np.random.default_rng(7).normal(size=(bad["T"], 6))
        short = Sample("bad", feats, {**sample().targets,
                                      **bad.get("targets", {})})
        good = [sample(seed=4, sid="a"), sample(seed=5, sid="b")]
        cfg = TrainConfig(label_smoothing=0.1)
        runs = []
        for batch in ([good[0], short, good[1]], good):
            model = tiny_model("para_ctc")
            bundle, info = train_step(model, batch, cfg,
                                      AdamState.for_params(model.params), 1)
            runs.append((bundle, info, model))
        (with_bad, info, model), (without, _, plain) = runs
        assert statuses == ["ok", status, "ok", "ok", "ok"]
        assert with_bad.skipped_samples == 1 and info["updated"] is True
        assert (with_bad.l_total, with_bad.l_ctc_components) == (
            without.l_total, without.l_ctc_components)
        for p, node in model.params.items():
            assert node.value.tobytes() == plain.params.get(p).value.tobytes(), p

    def test_loss_is_called_once_per_utterance(self, monkeypatch):
        """perfbench checks every utterance's bundle by wrapping
        `ConformerTransducer.loss`: one step calls it once per utterance of
        the batch, and each bundle's total is the weighting formula applied
        to its logged components."""
        real = ConformerTransducer.loss
        bundles = []

        def loss(model, *args, **kwargs):
            bundles.append(real(model, *args, **kwargs))
            return bundles[-1]

        monkeypatch.setattr(ConformerTransducer, "loss", loss)
        model = ConformerTransducer(tiny_cfg(3), PMUConfig(
            variant="pca_ctc", n1=1, n2=1, n3=1, sc_enabled=True))
        batch = [sample(T=10 + 2 * i, seed=i, sid=f"u{i}") for i in range(4)]
        train_step(model, batch, TrainConfig(), AdamState.for_params(model.params), 1)
        assert len(bundles) == len(batch)
        for b in bundles:
            assert b.status == "ok"
            assert b.l_total == combine_losses(model.pmu, b.l_trans,
                                               b.l_ctc_components)

    def test_non_finite_gradient_stops_before_adam(self, nan_transducer_grad):
        """A finite loss with a NaN gradient must not reach the optimizer:
        the step raises, naming itself and a parameter, and leaves the
        parameters and Adam state as they were."""
        model = tiny_model()
        opt = AdamState.for_params(model.params)
        opt.t = 2
        opt.m[...] = 0.5
        opt.v[...] = 0.25
        before = {p: n.value.copy() for p, n in model.params.items()}
        with pytest.raises(TrainingError, match="at step 3") as err:
            train_step(model, [sample()], TrainConfig(), opt, 3)
        bad = [p for p, n in model.params.items()
               if not np.isfinite(n.grad).all()]
        assert bad and f"first at parameter {bad[0]!r}" in str(err.value)
        assert opt.t == 2
        for p, n in model.params.items():
            np.testing.assert_array_equal(n.value, before[p])
        assert (opt.m == 0.5).all() and (opt.v == 0.25).all()

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

    def test_vocabulary_rules_are_in_the_one_problem_list(self, tmp_path):
        """Unequal shared-head vocabularies are reported with the run's other
        problems; a kind whose tokenizer is missing adds no second one."""
        exp = self.build_toy_experiment(tmp_path)
        exp.model.encoder.num_layers = 3
        exp.pmu = PMUConfig(variant="pca_ctc", n1=1, n2=1, n3=1,
                            sc_enabled=True, heads_shared=True)
        exp.data.bpe_small_model = exp.data.bpe_model
        exp.data.dev_manifest = ""
        with pytest.raises(InputError) as exc:
            run_experiment(exp, quiet=True)
        assert str(exc.value) == (
            "heads_shared requires equal head sizes, got vocabulary sizes "
            "pasm=15 vs bpe_small=16; [data] dev_manifest is required")

        exp.data.pasm_model = ""
        with pytest.raises(InputError) as exc:
            run_experiment(exp, quiet=True)
        assert str(exc.value) == (
            "[data] pasm_model is required for variant settings but not "
            "configured; [data] dev_manifest is required")

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

"""Model structure: shapes, taps, sharing, self-conditioning, objective."""

import math

import numpy as np
import pytest

import pmu.autodiff as ad
import pmu.model
from finite_diff import finite_diff_sample, joint_transducer_of
from pmu import losses
from pmu.errors import ContractViolation, InputError
from pmu.losses import LOG_FLOOR
from pmu.model import (
    JOINT_LEAVES,
    ConformerTransducer,
    EncoderConfig,
    HeadSpec,
    ModelConfig,
    PMUConfig,
    build_params,
    combine_losses,
    configs_from_dict,
    head_specs,
    joint,
    label_encoder_forward,
    label_encoder_step,
    self_condition,
    subsampled_length,
    validate_configs,
)
from tape_ops import (
    smoothed_loss_node,
    tape_linear,
    tape_log_softmax,
    tape_matmul,
    tape_mul,
    tape_reshape,
    tape_sigmoid,
    tape_sum,
    tape_take_slice,
)


def tiny_cfg(num_layers=2, **over):
    enc = EncoderConfig(num_layers=num_layers, attention_dim=8, ff_dim=16,
                        heads=2, conv_kernel=3, dropout=0.0)
    base = dict(encoder=enc, input_dim=6, lstm_dim=8, joint_dim=8,
                subsample_channels=2,
                vocab={"pasm": 4, "bpe": 5, "bpe_small": 4})
    base.update(over)
    return ModelConfig(**base)


def pmu_for(variant, **over):
    base = dict(variant=variant)
    if variant == "pca_ctc":
        base.update(n1=1, n2=0, n3=1)
    base.update(over)
    return PMUConfig(**base)


def names(pmu):
    return [s.name for s in head_specs(pmu)]


def feats(T, dim=6, seed=0):
    return np.random.default_rng(seed).normal(size=(T, dim))


class TestConfigValidation:
    def test_valid_variants_pass(self):
        for variant in ("baseline", "basic_pmu", "para_ctc"):
            validate_configs(tiny_cfg(), pmu_for(variant))
        validate_configs(tiny_cfg(), pmu_for("pca_ctc"))
        validate_configs(tiny_cfg(3), pmu_for("pca_ctc", n1=1, n2=1, n3=1))

    def test_block_counts_must_cover_stack(self):
        with pytest.raises(InputError, match="num_layers"):
            validate_configs(tiny_cfg(4), pmu_for("pca_ctc", n1=1, n2=0, n3=1))

    def test_sc_only_for_interleaved_taps(self):
        with pytest.raises(InputError, match="sc_enabled"):
            validate_configs(tiny_cfg(), pmu_for("para_ctc", sc_enabled=True))

    def test_heads_shared_needs_sc_and_middle_tap(self):
        with pytest.raises(InputError, match="heads_shared requires sc_enabled"):
            validate_configs(tiny_cfg(3), pmu_for("pca_ctc", n1=1, n2=1, n3=1,
                                                  heads_shared=True))
        with pytest.raises(InputError, match="n2 > 0"):
            validate_configs(tiny_cfg(2), pmu_for("pca_ctc", n1=1, n2=0, n3=1,
                                                  sc_enabled=True,
                                                  heads_shared=True))

    def test_heads_shared_needs_matching_vocab(self):
        cfg = tiny_cfg(3, vocab={"pasm": 4, "bpe": 5, "bpe_small": 3})
        with pytest.raises(InputError, match="equal head sizes"):
            validate_configs(cfg, pmu_for("pca_ctc", n1=1, n2=1, n3=1,
                                          sc_enabled=True, heads_shared=True))

    def test_errors_are_enumerated_together(self):
        bad = pmu_for("pca_ctc", n1=1, n2=0, n3=2, alpha=2.0, beta=-1.0)
        with pytest.raises(InputError) as exc:
            validate_configs(tiny_cfg(), bad)
        msg = str(exc.value)
        assert "alpha" in msg and "beta" in msg and "num_layers" in msg

    def test_model_problems_do_not_hide_pmu_problems(self):
        cfg = tiny_cfg(0, input_dim=0)
        cfg.encoder.conv_kernel = 4
        cfg.encoder.heads = 0
        with pytest.raises(InputError) as exc:
            validate_configs(cfg, PMUConfig(variant="bogus"))
        msg = str(exc.value)
        for problem in ("num_layers must be >= 1", "conv_kernel must be odd",
                        "heads must be >= 1", "input_dim must be >= 1",
                        "variant must be one of"):
            assert problem in msg

    def test_config_dict_round_trip(self):
        model = ConformerTransducer(tiny_cfg(3),
                                    pmu_for("pca_ctc", n1=1, n2=1, n3=1,
                                            sc_enabled=True, heads_shared=True))
        cfg2, pmu2 = configs_from_dict(model.config_dict())
        assert cfg2 == model.cfg
        assert pmu2 == model.pmu


class TestHeadLayout:
    def test_head_names_by_variant(self):
        assert names(pmu_for("baseline")) == ["bpe"]
        assert names(pmu_for("basic_pmu")) == ["pasm"]
        assert names(pmu_for("para_ctc")) == ["pasm", "bpe"]
        assert names(pmu_for("pca_ctc")) == ["pasm_n1", "bpe_n3"]
        assert names(pmu_for("pca_ctc", n1=1, n2=1, n3=1)) == [
            "pasm_n1", "bpe_n2", "bpe_n3"]

    def test_encode_produces_exactly_the_active_taps(self):
        x = feats(9)
        for variant, pmu in [("baseline", pmu_for("baseline")),
                             ("para_ctc", pmu_for("para_ctc")),
                             ("pca_ctc", pmu_for("pca_ctc"))]:
            model = ConformerTransducer(tiny_cfg(), pmu)
            _, heads = model.encode(x)
            assert sorted(heads) == sorted(names(pmu)), variant

    def test_head_specs_by_variant(self):
        """(name, units, tap, group, weight, sc, shares) of every head."""
        table = [
            (pmu_for("baseline"), [("bpe", "bpe", None, 0, 1.0, None, None)]),
            (pmu_for("baseline", trans_units="pasm"),
             [("pasm", "pasm", None, 0, 1.0, None, None)]),
            (pmu_for("basic_pmu"), [("pasm", "pasm", None, 0, 1.0, None, None)]),
            (pmu_for("para_ctc", alpha=0.7),
             [("pasm", "pasm", None, 0, 0.7, None, None),
              ("bpe", "bpe", None, 1, 1.0 - 0.7, None, None)]),
            (pmu_for("pca_ctc", n1=2, n3=1, beta=0.3),
             [("pasm_n1", "pasm", 2, 0, 0.3, None, None),
              ("bpe_n3", "bpe", None, 1, 1.0 - 0.3, None, None)]),
            (pmu_for("pca_ctc", beta=0.3, sc_enabled=True),
             [("pasm_n1", "pasm", 1, 0, 0.3, "sc/n1", None),
              ("bpe_n3", "bpe", None, 1, 1.0 - 0.3, None, None)]),
            (pmu_for("pca_ctc", n1=1, n2=2, n3=1, beta=0.3),
             [("pasm_n1", "pasm", 1, 0, 0.3 / 2.0, None, None),
              ("bpe_n2", "bpe_small", 3, 0, 0.3 / 2.0, None, None),
              ("bpe_n3", "bpe", None, 1, 1.0 - 0.3, None, None)]),
            (pmu_for("pca_ctc", n1=1, n2=1, n3=1, beta=0.3, sc_enabled=True,
                     heads_shared=True),
             [("pasm_n1", "pasm", 1, 0, 0.3 / 2.0, "sc/n1", None),
              ("bpe_n2", "bpe_small", 2, 0, 0.3 / 2.0, "sc/n2", "pasm_n1"),
              ("bpe_n3", "bpe", None, 1, 1.0 - 0.3, None, None)]),
        ]
        for pmu, want in table:
            assert head_specs(pmu) == [HeadSpec(*row) for row in want], pmu
            assert names(pmu) == [row[0] for row in want]

    def test_middle_tap_present_only_with_n2(self):
        pmu = pmu_for("pca_ctc", n1=1, n2=1, n3=1)
        _, heads = ConformerTransducer(tiny_cfg(3), pmu).encode(feats(9))
        assert list(heads) == ["pasm_n1", "bpe_n2", "bpe_n3"]
        _, heads = ConformerTransducer(tiny_cfg(2), pmu_for("pca_ctc")).encode(feats(9))
        assert list(heads) == ["pasm_n1", "bpe_n3"]

    def test_head_rows_are_log_distributions(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("para_ctc"))
        _, heads = model.encode(feats(9))
        for name, logits in heads.items():
            sums = np.exp(losses.log_softmax(logits.value)).sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9, err_msg=name)


class TestShapes:
    def test_subsampled_length_is_ceil(self):
        for T in range(1, 40):
            assert subsampled_length(T, 4) == math.ceil(T / 4)
            assert subsampled_length(T, 2) == math.ceil(T / 2)
            assert subsampled_length(T, 1) == T

    def test_encoder_output_shape(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("baseline"))
        for T in (4, 7, 12, 13):
            top, _ = model.encode(feats(T, seed=T))
            assert top.value.shape == (math.ceil(T / 4), 8)

    def test_lattice_shape(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("baseline"))
        out = model.prepare([feats(12)], [{"bpe": [1, 3, 2]}])[0]
        ht_wt = out.h_n3.value @ model.params.get("joint/wt").value
        z, lattice = joint(ht_wt, out.h_u.value, model.params)
        assert lattice.shape == (3, 4, 5)  # T'=3, U+1=4, V=5
        assert z.shape == (3, 4, 8)
        assert out.h_u.value.shape == (4, 8)

    def test_lattice_rows_normalized(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("baseline"))
        out = model.prepare([feats(12)], [{"bpe": [1, 3]}])[0]
        ht_wt = out.h_n3.value @ model.params.get("joint/wt").value
        lattice = joint(ht_wt, out.h_u.value, model.params)[1]
        sums = np.exp(lattice).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


class TestJoint:
    def test_pointwise_in_t_and_u(self):
        """Each lattice cell depends only on its own (t, u) pair, so
        permuting the encoder rows permutes the lattice rows identically."""
        ps = build_params(tiny_cfg(), pmu_for("baseline"), seed=3)
        rng = np.random.default_rng(5)
        h_t = rng.normal(size=(4, 8))
        h_u = rng.normal(size=(3, 8))
        wt = ps.get("joint/wt").value
        base = joint(h_t @ wt, h_u, ps)[1]
        perm = np.array([2, 0, 3, 1])
        permuted = joint(h_t[perm] @ wt, h_u, ps)[1]
        np.testing.assert_array_equal(permuted, base[perm])
        uperm = np.array([1, 2, 0])
        permuted_u = joint(h_t @ wt, h_u[uperm], ps)[1]
        np.testing.assert_array_equal(permuted_u, base[:, uperm])

    def test_zero_inputs_give_uniform_only_with_zero_weights(self):
        ps = build_params(tiny_cfg(), pmu_for("baseline"), seed=3)
        out_w = ps.get("joint/out_w")
        out_b = ps.get("joint/out_b")
        out_w.value[:] = 0.0
        out_b.value[:] = 0.0
        lat = joint(np.zeros((2, 8)) @ ps.get("joint/wt").value,
                    np.zeros((2, 8)), ps)[1]
        np.testing.assert_allclose(lat, math.log(1 / 5), atol=1e-12)


def composed_joint_transducer(h_t, h_u, labels, ps, label_smoothing):
    """The joint, its log-softmax and the transducer loss as the graph of
    tape ops the fused node replaces, label smoothing's term included."""
    T, U1 = h_t.value.shape[0], h_u.value.shape[0]
    J = ps.get("joint/b").value.shape[0]
    at = tape_reshape(tape_matmul(h_t, ps.get("joint/wt")), (T, 1, J))
    au = tape_reshape(tape_linear(h_u, ps.get("joint/wu"), ps.get("joint/b")),
                      (1, U1, J))
    z = tape_tanh(ad.add(at, au))
    lattice = tape_log_softmax(ad.add(tape_matmul(z, ps.get("joint/out_w")),
                                      ps.get("joint/out_b")))
    return smoothed_loss_node(losses.transducer_loss, lattice, labels,
                              label_smoothing)


def joint_case(T, U, d=8, J=8, V=5, seed=0):
    """Encoder and label rows, labels and joint parameters (non-zero biases)
    for a (T, U+1) lattice."""
    rng = np.random.default_rng(seed)
    ps = ad.ParamStore(seed)
    for leaf, shape in zip(JOINT_LEAVES, ((d, J), (d, J), (J,), (J, V), (V,))):
        ps.create(f"joint/{leaf}", shape).value[...] = rng.normal(size=shape)
    ps.pack()
    labels = [int(k) for k in rng.integers(1, V, size=U)]
    return rng.normal(size=(T, d)), rng.normal(size=(U + 1, d)), labels, ps


def reachable(root):
    """Every node of root's graph, keyed by id."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node.id not in seen:
            seen[node.id] = node
            stack.extend(node.parents)
    return seen


class TestJointTransducer:
    @pytest.mark.parametrize("label_smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("T,U,J,V", [(1, 0, 8, 5), (3, 2, 8, 5),
                                         (23, 3, 16, 11), (167, 74, 32, 12)],
                             ids=["T1-U0", "T3-U2", "T23-U3", "T167-U74"])
    def test_equals_the_composed_graph_bit_for_bit(self, T, U, J, V,
                                                   label_smoothing):
        """The value and the gradient of both inputs and every joint
        parameter are those of the composed graph, bit for bit, under an
        upstream gradient that is not 1."""
        h_t, h_u, labels, ps = joint_case(T, U, J=J, V=V, seed=T + U)
        results = []
        for build in (joint_transducer_of, composed_joint_transducer):
            ps.zero_grad()
            nodes = [ad.Node(h_t.copy()), ad.Node(h_u.copy())]
            node = build(*nodes, labels, ps, label_smoothing)
            ad.backward(ad.scale(node, 0.37))
            results.append([node.value] + [n.grad for n in nodes]
                           + [ps.get(f"joint/{leaf}").grad.copy()
                              for leaf in JOINT_LEAVES])
        fused, composed = results
        for name, a, b in zip(["value", "h_t", "h_u", *JOINT_LEAVES],
                              fused, composed):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("label_smoothing", [0.0, 0.1])
    def test_loss_builds_one_node_for_joint_and_transducer(
            self, monkeypatch, label_smoothing):
        """Of the nodes `loss` builds, only one depends on neither the CTC
        term nor the label encoder and is not the weighted total."""
        encodings = []
        real = pmu.model.label_encoder_forward

        def recorded(y_prefix, ps):
            encodings.append(real(y_prefix, ps))
            return encodings[-1]

        monkeypatch.setattr(pmu.model, "label_encoder_forward", recorded)
        model = ConformerTransducer(tiny_cfg(), pmu_for("baseline"))
        bundle = model.loss(feats(12), {"bpe": [1, 3]},
                            label_smoothing=label_smoothing)
        trans, ctc = (p.parents[0] for p in bundle.node.parents)
        shared = reachable(ctc) | reachable(encodings[0])
        built = [n.op for i, n in reachable(trans).items()
                 if n.parents and i not in shared]
        assert built == ["joint_transducer"]

    @pytest.mark.parametrize("label_smoothing", [0.0, 0.1])
    def test_loss_builds_one_node_per_ctc_tap(self, monkeypatch,
                                              label_smoothing):
        """Between the taps' logits and the weighted total, `loss` builds
        one node per tap, its parent the tap's logits, and otherwise only
        the weighting's adds and scales.  The model self-conditions on two
        of its three taps."""
        taps = []
        real = pmu.model.ctc_head

        def recorded(h, ps, name):
            taps.append(real(h, ps, name))
            return taps[-1]

        monkeypatch.setattr(pmu.model, "ctc_head", recorded)
        model = ConformerTransducer(
            tiny_cfg(3), pmu_for("pca_ctc", n2=1, sc_enabled=True))
        bundle = model.loss(feats(12), {"pasm": [1], "bpe_small": [2],
                                        "bpe": [1, 3]},
                            label_smoothing=label_smoothing)
        ctc_term = bundle.node.parents[1]
        shared = {}
        for logits in taps:
            shared |= reachable(logits)
        built = [n for i, n in reachable(ctc_term).items() if i not in shared]
        per_tap = [n for n in built if n.op not in ("add", "scale")]
        assert [n.op for n in per_tap] == ["ctc"] * 3
        assert sorted(n.parents[0].id for n in per_tap) == sorted(
            logits.id for logits in taps)
        assert all(len(n.parents) == 1 for n in per_tap)


class TestSelfCondition:
    def test_zero_projection_is_identity(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 8))
        post = rng.dirichlet(np.ones(4), size=5)
        out = self_condition(h, post, np.zeros((4, 8)), np.zeros(8))
        np.testing.assert_array_equal(out.value, h)

    def test_uniform_posterior_shifts_every_frame_equally(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(5, 8))
        w = rng.normal(size=(4, 8))
        b = rng.normal(size=8)
        post = np.full((5, 4), 0.25)
        out = self_condition(h, post, w, b)
        shift = out.value - h
        np.testing.assert_allclose(shift, np.broadcast_to(shift[0], shift.shape),
                                   atol=1e-12)
        np.testing.assert_allclose(shift[0], w.mean(axis=0) + b, atol=1e-12)

    def test_rejects_shape_mismatch(self):
        h = np.zeros((3, 8))
        post = np.full((3, 5), 0.2)  # 5 classes vs projection of 4
        with pytest.raises(ContractViolation, match="linear: input dim 5"):
            self_condition(h, post, np.zeros((4, 8)), np.zeros(8))

    def test_zero_init_makes_sc_a_no_op_at_start(self):
        """Freshly built self-conditioned and plain stacks agree bitwise."""
        cfg = tiny_cfg(3)
        x = feats(11)
        plain = ConformerTransducer(cfg, pmu_for("pca_ctc", n1=1, n2=1, n3=1),
                                    seed=4)
        cond = ConformerTransducer(cfg, pmu_for("pca_ctc", n1=1, n2=1, n3=1,
                                                sc_enabled=True), seed=4)
        top_p, heads_p = plain.encode(x)
        top_c, heads_c = cond.encode(x)
        np.testing.assert_array_equal(top_p.value, top_c.value)
        for name in heads_p:
            np.testing.assert_array_equal(heads_p[name].value,
                                          heads_c[name].value)


class TestLabelEncoder:
    def test_empty_prefix_single_start_row(self):
        ps = build_params(tiny_cfg(), pmu_for("baseline"))
        h_u = label_encoder_forward([], ps)
        assert h_u.value.shape == (1, 8)

    def test_rows_are_causal_prefix_states(self):
        ps = build_params(tiny_cfg(), pmu_for("baseline"))
        full = label_encoder_forward([1, 3, 2], ps).value
        for k in range(3):
            head = label_encoder_forward([1, 3, 2][:k], ps).value
            np.testing.assert_array_equal(full[:k + 1], head)

    def test_rejects_out_of_vocabulary_labels(self):
        ps = build_params(tiny_cfg(), pmu_for("baseline"))
        with pytest.raises(ContractViolation, match="outside vocabulary"):
            label_encoder_forward([1, 9], ps)

    def test_equals_a_per_step_composition(self):
        """Value and every parameter gradient equal (==) a chain of per-step
        tape ops (a one-row slice of the table, then the LSTM step and row
        concatenation the fused node replaced), so training sees the same
        arithmetic."""

        def run(build):
            ps = build_params(tiny_cfg(), pmu_for("baseline"), seed=4)
            h_u = build(ps)
            w = np.random.default_rng(2).normal(size=h_u.value.shape)
            ad.backward(tape_sum(tape_mul(h_u, ad.Node(w))))
            return h_u.value, {p: n.grad for p, n in ps.items()}

        def by_steps(ps):
            state = (ad.Node(np.zeros((1, 8))), ad.Node(np.zeros((1, 8))))
            rows = []
            for t in [0, 1, 3, 3, 2, 4]:
                x = tape_take_slice(ps.get("lab/embed"), slice(t, t + 1))
                out, state = per_step_lstm(x, state, ps.get("lab/lstm/wx"),
                                           ps.get("lab/lstm/wh"),
                                           ps.get("lab/lstm/b"))
                rows.append(out)
            return concat_rows(rows)

        value, grads = run(lambda ps: label_encoder_forward([1, 3, 3, 2, 4], ps))
        want_value, want_grads = run(by_steps)
        assert np.array_equal(value, want_value)
        assert grads.keys() == want_grads.keys()
        for path, g in want_grads.items():
            if path.startswith("lab/"):
                assert g is not None and np.any(g != 0), path
            assert (g is None and grads[path] is None) or np.array_equal(
                grads[path], g), path

    def test_tape_nodes_do_not_grow_with_the_prefix(self):
        ps = build_params(tiny_cfg(), pmu_for("baseline"))
        added = set()
        for prefix in ([], [1], [1, 3, 3, 2, 4], [2, 4] * 30):
            before = next(ad._node_ids)
            label_encoder_forward(prefix, ps)
            added.add(next(ad._node_ids) - before)
        assert len(added) == 1, added

    def test_decode_step_equals_the_training_rows(self):
        """label_encoder_step, fed its own state, reproduces every row of
        label_encoder_forward bit for bit."""
        ps = build_params(tiny_cfg(), pmu_for("baseline"), seed=4)
        prefix = [1, 3, 3, 2, 4]
        want = label_encoder_forward(prefix, ps).value
        state = (np.zeros((1, 8)), np.zeros((1, 8)))
        for u, t in enumerate([0] + prefix):
            state = label_encoder_step(t, state, ps)
            assert np.array_equal(state[0], want[u:u + 1]), u


def per_step_lstm(x, state, wx, wh, b):
    """One LSTM step composed of tape ops: the label encoder's former graph
    (gate layout [input, forget, cell, output])."""
    h, c = state
    x, h, c = ad.as_node(x), ad.as_node(h), ad.as_node(c)
    d = ad.as_node(wx).value.shape[1] // 4
    z = ad.add(ad.add(tape_matmul(x, wx), tape_matmul(h, wh)), b)
    i = tape_sigmoid(tape_take_slice(z, (slice(None), slice(0, d))))
    f = tape_sigmoid(tape_take_slice(z, (slice(None), slice(d, 2 * d))))
    g = tape_tanh(tape_take_slice(z, (slice(None), slice(2 * d, 3 * d))))
    o = tape_sigmoid(tape_take_slice(z, (slice(None), slice(3 * d, 4 * d))))
    c_new = ad.add(tape_mul(f, c), tape_mul(i, g))
    h_new = tape_mul(o, tape_tanh(c_new))
    return h_new, (h_new, c_new)


def tape_tanh(a):
    """tanh as a tape node, the rule the composed graphs here were built of."""
    a = ad.as_node(a)
    y = np.tanh(a.value)
    out = ad.Node(y, (a,), "tanh")
    out._backward = lambda g: ad._acc(a, g * (1.0 - y * y))
    return out


def concat_rows(rows):
    """Stack (1, d) row nodes into one (n, d) node, scattering its gradient
    back row by row."""
    out = ad.Node(np.concatenate([r.value for r in rows], axis=0), tuple(rows),
                  "concat")

    def _bw(g):
        for u, r in enumerate(rows):
            ad._acc(r, g[u:u + 1])

    out._backward = _bw
    return out


class TestSharing:
    def shared_model(self, seed=0):
        return ConformerTransducer(
            tiny_cfg(3), pmu_for("pca_ctc", n1=1, n2=1, n3=1, sc_enabled=True,
                                 heads_shared=True), seed=seed)

    def test_shared_heads_are_the_same_nodes(self):
        ps = self.shared_model().params
        assert ps.get("tap/bpe_n2/w") is ps.get("tap/pasm_n1/w")
        assert ps.get("tap/bpe_n2/b") is ps.get("tap/pasm_n1/b")
        assert ps.get("sc/n2/w") is ps.get("sc/n1/w")
        assert ps.get("sc/n2/b") is ps.get("sc/n1/b")

    def test_unshared_heads_are_distinct_nodes(self):
        model = ConformerTransducer(
            tiny_cfg(3), pmu_for("pca_ctc", n1=1, n2=1, n3=1, sc_enabled=True))
        ps = model.params
        assert ps.get("tap/bpe_n2/w") is not ps.get("tap/pasm_n1/w")
        assert ps.get("sc/n2/w") is not ps.get("sc/n1/w")

    def test_shared_gradient_accumulates_from_both_taps(self):
        model = self.shared_model()
        bundle = model.loss(feats(10), {"pasm": [1], "bpe": [1, 2],
                                        "bpe_small": [1]})
        model.params.zero_grad()
        ad.backward(bundle.node)
        w = model.params.get("tap/pasm_n1/w")
        assert np.any(w.grad != 0.0)
        # perturbing the shared weight must move both head outputs
        _, heads = model.encode(feats(10))
        w.value[0, 0] += 0.5
        _, moved = model.encode(feats(10))
        assert np.any(moved["pasm_n1"].value != heads["pasm_n1"].value)
        assert np.any(moved["bpe_n2"].value != heads["bpe_n2"].value)


class TestInitDeterminism:
    def test_same_seed_same_values(self):
        a = build_params(tiny_cfg(), pmu_for("para_ctc"), seed=11)
        b = build_params(tiny_cfg(), pmu_for("para_ctc"), seed=11)
        for (pa, na), (pb, nb) in zip(a.items(), b.items()):
            assert pa == pb
            np.testing.assert_array_equal(na.value, nb.value)

    def test_different_seed_differs(self):
        a = build_params(tiny_cfg(), pmu_for("baseline"), seed=0)
        b = build_params(tiny_cfg(), pmu_for("baseline"), seed=1)
        assert np.any(a.get("enc/l00/mhsa/wq").value
                      != b.get("enc/l00/mhsa/wq").value)

    def test_common_paths_agree_across_variants(self):
        """Init depends only on (seed, path), so two variants share the
        values of every parameter they have in common."""
        a = build_params(tiny_cfg(), pmu_for("baseline"), seed=7)
        b = build_params(tiny_cfg(), pmu_for("pca_ctc"), seed=7)
        common = set(a.paths()) & set(b.paths())
        assert "enc/l01/ff2/w1" in common
        for path in common:
            np.testing.assert_array_equal(a.get(path).value, b.get(path).value)


class TestObjectiveArithmetic:
    def test_baseline_weighting(self):
        pmu = pmu_for("baseline", lambda_trans=0.5, lambda_ctc=0.5)
        assert combine_losses(pmu, 2.0, {"bpe": 4.0}) == pytest.approx(3.0,
                                                                       abs=0)

    def test_para_weighting(self):
        pmu = pmu_for("para_ctc", alpha=0.7, lambda_trans=0.5, lambda_ctc=0.5)
        got = combine_losses(pmu, 0.0, {"pasm": 2.0, "bpe": 1.0})
        assert got == pytest.approx(0.5 * (0.7 * 2.0 + 0.3 * 1.0), abs=1e-15)

    def test_pca_without_middle_tap(self):
        pmu = pmu_for("pca_ctc", beta=0.5, lambda_trans=0.5, lambda_ctc=0.5)
        got = combine_losses(pmu, 0.0, {"pasm_n1": 4.0, "bpe_n3": 2.0})
        assert got == pytest.approx(0.5 * (0.5 * 4.0 + 0.5 * 2.0), abs=1e-15)

    def test_pca_with_middle_tap_halves_beta(self):
        pmu = pmu_for("pca_ctc", n1=1, n2=1, n3=1, beta=0.5,
                      lambda_trans=0.0, lambda_ctc=1.0)
        comps = {"pasm_n1": 4.0, "bpe_n2": 2.0, "bpe_n3": 2.0}
        assert combine_losses(pmu, 9.9, comps) == pytest.approx(
            0.25 * (4.0 + 2.0) + 0.5 * 2.0, abs=1e-15)

    def test_random_tuples_all_variants(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            lt, a, b2, c = rng.uniform(0.1, 5.0, size=4)
            alpha = float(rng.uniform(0.05, 0.95))
            beta = float(rng.uniform(0.05, 0.95))
            wt = float(rng.uniform(0.0, 1.0))
            wc = float(rng.uniform(0.0, 1.0))
            pmu = pmu_for("para_ctc", alpha=alpha, lambda_trans=wt,
                          lambda_ctc=wc)
            want = wt * lt + wc * (alpha * a + (1 - alpha) * c)
            assert combine_losses(pmu, lt, {"pasm": a, "bpe": c}) == \
                pytest.approx(want, abs=1e-12)
            pmu = pmu_for("pca_ctc", n1=1, n2=1, n3=1, beta=beta,
                          lambda_trans=wt, lambda_ctc=wc)
            want = wt * lt + wc * ((beta / 2) * (a + b2) + (1 - beta) * c)
            got = combine_losses(pmu, lt, {"pasm_n1": a, "bpe_n2": b2,
                                           "bpe_n3": c})
            assert got == pytest.approx(want, abs=1e-12)

    def test_emitted_total_matches_recombination(self):
        """LossBundle.l_total must equal the weighting formula applied to
        the logged components, to full float precision."""
        for variant, kwargs, targets in [
            ("baseline", {}, {"bpe": [1, 2]}),
            ("basic_pmu", {}, {"pasm": [1], "bpe": [1, 2]}),
            ("para_ctc", {}, {"pasm": [1], "bpe": [1, 2]}),
            ("pca_ctc", {}, {"pasm": [1], "bpe": [1, 2]}),
            ("pca_ctc", dict(n1=1, n2=1, n3=1),
             {"pasm": [1], "bpe": [1, 2], "bpe_small": [1]}),
        ]:
            layers = 3 if kwargs else 2
            model = ConformerTransducer(tiny_cfg(layers),
                                        pmu_for(variant, **kwargs))
            bundle = model.loss(feats(10), targets)
            assert bundle.status == "ok"
            recomputed = combine_losses(model.pmu, bundle.l_trans,
                                        bundle.l_ctc_components)
            assert bundle.l_total == pytest.approx(recomputed, abs=1e-12)
            assert bundle.l_total == pytest.approx(float(bundle.node.value),
                                                   abs=1e-12)

    def test_smoothing_keeps_components_recombinable(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("para_ctc"))
        bundle = model.loss(feats(10), {"pasm": [1], "bpe": [1, 2]}, label_smoothing=0.1)
        recomputed = combine_losses(model.pmu, bundle.l_trans,
                                    bundle.l_ctc_components)
        assert bundle.l_total == pytest.approx(recomputed, abs=1e-12)
        plain = model.loss(feats(10), {"pasm": [1], "bpe": [1, 2]}, label_smoothing=0.0)
        assert bundle.l_total > plain.l_total  # the regularizer is positive

    def test_shared_heads_with_smoothing_recombine_exactly(self):
        model = ConformerTransducer(
            tiny_cfg(3), pmu_for("pca_ctc", n1=1, n2=1, n3=1, sc_enabled=True,
                                 heads_shared=True), seed=1)
        for seed in range(3):
            bundle = model.loss(feats(10, seed=seed),
                                {"pasm": [1], "bpe": [1, 2], "bpe_small": [2]},
                                label_smoothing=0.1)
            assert bundle.status == "ok"
            assert bundle.l_total == combine_losses(
                model.pmu, bundle.l_trans, bundle.l_ctc_components)
            assert bundle.l_total == float(bundle.node.value)

    def test_missing_target_is_an_error(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("para_ctc"))
        with pytest.raises(InputError, match="missing target"):
            model.loss(feats(10), {"bpe": [1, 2]})

    def test_middle_tap_requires_its_own_target(self):
        model = ConformerTransducer(tiny_cfg(3),
                                    pmu_for("pca_ctc", n1=1, n2=1, n3=1))
        with pytest.raises(InputError, match="bpe_n2"):
            model.loss(feats(10), {"pasm": [1], "bpe": [1, 2]})

    def test_unreachable_ctc_target_skips_sample(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("baseline"))
        # T=4 subsamples to one frame; a two-unit target cannot fit
        bundle = model.loss(feats(4), {"bpe": [1, 2]})
        assert bundle.skipped_samples == 1
        assert bundle.status == "unreachable:bpe"
        assert math.isinf(bundle.l_total)
        assert bundle.node is None

    def test_unreachable_transducer_target_skips_sample(self, monkeypatch):
        model = ConformerTransducer(tiny_cfg(), pmu_for("baseline"))
        real = pmu.model.joint

        def floored(h_t, h_u, ps):
            z, lattice = real(h_t, h_u, ps)
            lattice[-1, -1, 0] = 2 * LOG_FLOOR  # every alignment ends on it
            return z, lattice

        monkeypatch.setattr(pmu.model, "joint", floored)
        bundle = model.loss(feats(8), {"bpe": [1, 2]})
        assert bundle.skipped_samples == 1
        assert bundle.status == "unreachable:trans"
        assert math.isinf(bundle.l_total)
        assert bundle.node is None


class TestPrepare:
    def test_each_prepared_utterance_scores_as_a_batch_of_one(self):
        """`loss` on one utterance of a prepared batch of three, of
        different lengths, gives the values (==) and every parameter
        gradient (array_equal) of `loss` on its features alone: both input
        forms of `loss` agree, and so do the padded kernels' rows."""
        model = ConformerTransducer(
            tiny_cfg(3), pmu_for("pca_ctc", n2=1, sc_enabled=True), seed=3)
        rng = np.random.default_rng(6)
        for path in ("sc/n1/w", "sc/n2/w"):  # zero at init: make them act
            node = model.params.get(path)
            node.value[...] = rng.normal(size=node.value.shape)
        xs = [feats(T, seed=T) for T in (12, 23, 17)]
        targets = [{"pasm": [1], "bpe_small": [2], "bpe": [1, 3]},
                   {"pasm": [1, 2, 2], "bpe_small": [3, 1], "bpe": [4, 1, 1, 2]},
                   {"pasm": [3], "bpe_small": [], "bpe": [2, 2]}]

        def scored(x, t):
            model.params.zero_grad()
            bundle = model.loss(x, t, label_smoothing=0.1)
            assert bundle.status == "ok"
            ad.backward(bundle.node)
            return bundle, {p: n.grad.copy() for p, n in model.params.items()}

        outs = model.prepare(xs, targets)
        for i, (x, t) in enumerate(zip(xs, targets)):
            got, got_grads = scored(outs[i], t)
            want, want_grads = scored(x, t)
            assert got.l_total == want.l_total, i
            assert got.l_trans == want.l_trans, i
            assert got.l_ctc_components == want.l_ctc_components, i
            for path, g in want_grads.items():
                assert np.array_equal(got_grads[path], g), (i, path)


class TestEndToEndGradient:
    def test_full_model_gradient_matches_finite_differences(self):
        model = ConformerTransducer(tiny_cfg(), pmu_for("para_ctc"), seed=2)
        x = feats(8, seed=9)

        def run():
            return model.loss(x, {"pasm": [1], "bpe": [1, 2]}).l_total

        model.params.zero_grad()
        bundle = model.loss(x, {"pasm": [1], "bpe": [1, 2]})
        ad.backward(bundle.node)

        rng = np.random.default_rng(0)
        checked = 0
        for path in ("enc/l00/mhsa/wq", "sub/proj/w", "tap/pasm/w",
                     "lab/lstm/wx", "joint/out_w"):
            node = model.params.get(path)
            (idx, est), = finite_diff_sample(run, [node.value], per_array=4,
                                             rng=rng)
            got = node.grad.reshape(-1)[idx]
            np.testing.assert_allclose(got, est, rtol=1e-4, atol=1e-6,
                                       err_msg=path)
            checked += len(idx)
        assert checked == 20

    def test_sc_projection_receives_gradient(self):
        """The conditioning path must be differentiable: after one loss
        backward the (zero-initialized) projection has nonzero gradient."""
        model = ConformerTransducer(tiny_cfg(), pmu_for("pca_ctc",
                                                        sc_enabled=True),
                                    seed=2)
        model.params.zero_grad()
        bundle = model.loss(feats(8), {"pasm": [1], "bpe": [1, 2]})
        ad.backward(bundle.node)
        g = model.params.get("sc/n1/w").grad
        assert np.any(g != 0.0)

"""Sampled central differences: the spot-check gradient oracle of the
end-to-end model tests (acceptance criterion 2), and the fused joint and
transducer node, the CTC node (each built on its kernel's result for a
batch of one), and the encoder's fused nodes as cases for the
full-difference checks."""

from typing import Callable, Sequence

import numpy as np

from pmu.losses import ctc_losses, ctc_node, log_softmax, transducer_losses
from pmu.model import (
    JOINT_LEAVES,
    MODULES,
    SUB_LEAVES,
    EncoderConfig,
    ModelConfig,
    RunCtx,
    _subsample,
    conformer_module,
    joint,
    joint_transducer,
)


def finite_diff_sample(f: Callable[[], float], arrays: Sequence[np.ndarray],
                       per_array: int, rng: np.random.Generator,
                       eps: float = 1e-4) -> list[tuple[np.ndarray, np.ndarray]]:
    """Central differences at `per_array` random entries of each array.

    Full finite differencing over a whole model is quadratic-cost; spot
    checks at sampled coordinates keep end-to-end gradient verification
    tractable.  Returns (flat_indices, estimates) per array.
    """
    out = []
    for arr in arrays:
        flat = arr.reshape(-1)
        k = min(per_array, flat.size)
        idx = rng.choice(flat.size, size=k, replace=False)
        est = np.zeros(k)
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            est[j] = (hi - lo) / (2.0 * eps)
        out.append((idx, est))
    return out


def ctc_node_of(logits, labels, label_smoothing):
    """`losses.ctc_node` on the batched kernel's result for one tap's
    logits node."""
    lp = log_softmax(logits.value)
    res = ctc_losses([(lp, labels)])[0]
    return ctc_node(logits, lp, res, label_smoothing)


def joint_transducer_of(h_t, h_u, labels, ps, label_smoothing):
    """`model.joint_transducer` on the joint of h_t and h_u's values and
    the batched kernel's result."""
    lattice = joint(h_t.value @ ps.get("joint/wt").value, h_u.value, ps)
    res = transducer_losses([(lattice[1], labels)])[0]
    return joint_transducer(h_t, h_u, labels, lattice, res, ps,
                            label_smoothing)


def joint_transducer_case(rng: np.random.Generator):
    """(build, arrays): `model.joint_transducer` with label smoothing on, as
    a function of its encoder rows, label rows and five joint parameters,
    over a (3, 2+1) lattice of 4 units, with arrays drawn from `rng`."""
    shapes = [(3, 4), (3, 3), (4, 5), (3, 5), (5,), (5, 4), (4,)]

    def build(h_t, h_u, *params):
        # a dict serves as the store: the node reads parameters by ps.get
        ps = {f"joint/{leaf}": p for leaf, p in zip(JOINT_LEAVES, params)}
        return joint_transducer_of(h_t, h_u, [2, 1], ps, 0.1)

    return build, [rng.normal(size=shape) for shape in shapes]


def ctc_node_case(rng: np.random.Generator):
    """(build, arrays): `losses.ctc_node` with label smoothing on, as a
    function of its (5, 4) logits, with a repeated label in the target and
    the logits drawn from `rng`."""

    def build(logits):
        return ctc_node_of(logits, [2, 2, 1], 0.1)

    return build, [rng.normal(size=(5, 4))]


def encoder_node_cases(rng: np.random.Generator):
    """[(build, arrays)]: each conformer module (4 wide, 2 heads, kernel 3)
    on 3 trunk rows, then the subsampling of 7 frames of 6 features, with
    dropout on, as functions of the input and every parameter, with arrays
    drawn from `rng`."""
    enc = EncoderConfig(attention_dim=4, ff_dim=8, heads=2, conv_kernel=3,
                        dropout=0.1)
    cfg = ModelConfig(encoder=enc, input_dim=6, subsample_channels=2)
    shapes = {"ln_g": (4,), "ln_b": (4,), "w1": (4, 8), "b1": (8,),
              "w2": (8, 4), "b2": (4,), "pw1_w": (4, 8), "pw1_b": (8,),
              "dw_k": (3, 4), "ln2_g": (4,), "ln2_b": (4,), "pw2_w": (4, 4),
              "pw2_b": (4,), "conv1/w": (3, 3, 1, 2), "conv1/b": (2,),
              "conv2/w": (3, 3, 2, 2), "conv2/b": (2,), "proj/w": (4, 4),
              "proj/b": (4,)}
    shapes.update({f"{w}{m}": (4, 4) if w == "w" else (4,)
                   for w in "wb" for m in "qkvo"})
    cases = []
    for module, (_, leaves) in MODULES.items():
        paths = [f"enc/l00/{module}/{leaf}" for leaf in ("ln_g", "ln_b", *leaves)]

        def build(h, *params, module=module, paths=paths):
            # a dict serves as the store: the node reads parameters by ps.get
            return conformer_module(h, dict(zip(paths, params)), "enc/l00",
                                    module, enc, RunCtx(True, 1, 2))

        cases.append((build, [rng.normal(size=(3, 4))] + [
            rng.normal(scale=0.5, size=shapes[p.rsplit("/", 1)[1]])
            for p in paths]))

    def subsample(x, *params):
        ps = {f"sub/{leaf}": p for leaf, p in zip(SUB_LEAVES, params)}
        return _subsample(x, cfg, ps, RunCtx(True, 1, 2))

    cases.append((subsample, [rng.normal(size=(7, 6))] + [
        rng.normal(scale=0.5, size=shapes[leaf]) for leaf in SUB_LEAVES]))
    return cases

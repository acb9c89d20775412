"""Sampled central differences: the spot-check gradient oracle of the
end-to-end model tests (acceptance criterion 2), and the fused joint and
transducer node and the CTC node as cases for the full-difference checks,
each built on its kernel's result for a batch of one."""

from typing import Callable, Sequence

import numpy as np

from pmu.losses import ctc_losses, ctc_node, log_softmax, transducer_losses
from pmu.model import JOINT_LEAVES, joint, joint_transducer


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
    lattice = joint(h_t.value, h_u.value, ps)
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

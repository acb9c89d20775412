"""Sampled central differences: the spot-check gradient oracle of the
end-to-end model tests (acceptance criterion 2)."""

from typing import Callable, Sequence

import numpy as np


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

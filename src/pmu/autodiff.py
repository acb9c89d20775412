"""Reverse-mode automatic differentiation on numpy arrays.

A computation is built as a graph of `Node` objects, each holding a value
(ndarray), a gradient buffer of the same shape, and a closure that pushes
the node's gradient back to its parents.  `backward` walks the graph in
reverse topological order and accumulates gradients additively, so a node
feeding several consumers receives the sum of all path gradients.

Everything runs in float64: parameters are float64, and numpy promotes a
float32 input, features say, to float64 at its first op with them.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation

DEFAULT_DTYPE = np.float64

_node_ids = itertools.count()


def _asarray(x) -> np.ndarray:
    a = np.asarray(x)
    if a.dtype.kind != "f":
        a = a.astype(DEFAULT_DTYPE)
    return a


def _combine(op: str, fn, a, b) -> np.ndarray:
    try:
        return fn(a.value, b.value)
    except ValueError:
        raise ContractViolation(
            f"{op}: incompatible shapes {a.value.shape} and {b.value.shape}")


class Node:
    """One vertex of the differentiation graph."""

    __slots__ = ("id", "value", "grad", "parents", "op", "_backward")

    def __init__(self, value, parents: tuple = (), op: str = "leaf"):
        self.id = next(_node_ids)
        self.value = _asarray(value)
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.op = op
        # set by the op that builds the node: pushes the node's grad to parents
        self._backward: Callable[[np.ndarray], None] | None = None

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self.grad

    def __repr__(self):
        return f"Node(id={self.id}, op={self.op}, shape={self.value.shape})"


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def laid_out_as(value: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A copy of `g` laid out like `value`, as zeros plus `g` would be: a
    node's first gradient buffer."""
    return np.add(g, 0.0, out=np.empty_like(value))


def _acc(parent: Node, g: np.ndarray):
    """Add `g` into parent's gradient; the first write copies it."""
    g = _unbroadcast(g, parent.value.shape)
    if parent.grad is None:
        parent.grad = laid_out_as(parent.value, g)
    else:
        parent.grad += g


def backward(root: Node):
    """Accumulate d(root)/d(node) into `.grad` of every reachable node.

    `root` must be a scalar (size-1) node.  Gradients add up across calls;
    call `zero_grad` on leaves between steps.
    """
    if root.value.size != 1:
        raise ContractViolation(
            f"backward: root must be scalar, got shape {root.value.shape}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node.id in seen:
            continue
        seen.add(node.id)
        stack.append((node, True))
        for p in node.parents:
            if p.id not in seen:
                stack.append((p, False))
    _acc(root, np.ones_like(root.value))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = Node(_combine("add", lambda x, y: x + y, a, b), (a, b), "add")

    def _bw(g):
        _acc(a, g)
        _acc(b, g)

    out._backward = _bw
    return out


def scale(a, c: float) -> Node:
    """Multiply by a python constant (no gradient to the constant)."""
    a = as_node(a)
    out = Node(a.value * c, (a,), "scale")
    out._backward = lambda g: _acc(a, g * c)
    return out


# ---------------------------------------------------------------------------
# nodes of array functions, and softmax

def vjp_node(op: str, fn, *parents) -> Node:
    """One tape node of `fn` on the parents' values: `fn` returns (value,
    back), and back(g) the gradient of each parent, added in parent
    order."""
    parents = tuple(as_node(p) for p in parents)
    value, back = fn(*(p.value for p in parents))
    out = Node(value, parents, op)

    def _bw(g):
        for p, gp in zip(parents, back(g)):
            _acc(p, gp)

    out._backward = _bw
    return out


def softmax_vjp(z: np.ndarray):
    """Numerically stabilized softmax along the last axis, on arrays:
    (value, back)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    return y, lambda g: ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)


def softmax(z) -> Node:
    return vjp_node("softmax", softmax_vjp, z)


# ---------------------------------------------------------------------------
# parameters

def _path_rng(seed: int, path: str) -> np.random.Generator:
    # Per-path seeding keeps inits independent of creation order, so adding
    # or removing one parameter never shifts another's initial value.
    digest = hashlib.sha256(path.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *words])


class ParamStore:
    """Named map from parameter path to Node, with path aliasing.

    Aliasing lets two logical layers resolve to the same underlying Node
    (same id, same storage), which is how weight sharing is expressed.  Once
    packed, values and gradients are C-ordered views of two float64 arenas,
    in sorted path order; `layout` lists their [path, shape] pairs."""

    def __init__(self, rng_seed: int = 0):
        self.rng_seed = rng_seed
        self._params: dict[str, Node] = {}
        self._aliases: dict[str, str] = {}
        self.layout, self.values, self.grads = None, np.zeros(0), np.zeros(0)

    def _claim(self, path: str):
        if self.layout is not None:
            raise ContractViolation(f"{path!r}: the store is already packed")
        if path in self._params or path in self._aliases:
            raise ContractViolation(f"parameter path {path!r} already exists")

    def create(self, path: str, shape: tuple, init: str = "uniform_fanin",
               fan_in: int | None = None) -> Node:
        self._claim(path)
        shape = tuple(shape)
        if init == "zeros":
            value = np.zeros(shape, dtype=DEFAULT_DTYPE)
        elif init == "ones":
            value = np.ones(shape, dtype=DEFAULT_DTYPE)
        elif init == "uniform_fanin":
            fan = fan_in if fan_in is not None else (shape[0] if shape else 1)
            bound = 1.0 / np.sqrt(max(fan, 1))
            rng = _path_rng(self.rng_seed, path)
            value = rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)
        else:
            raise ContractViolation(f"unknown init {init!r}")
        node = Node(value, op=f"param:{path}")
        self._params[path] = node
        return node

    def alias(self, path: str, target: str):
        """Make `path` resolve to the existing parameter at `target`, which
        must not itself be an alias."""
        self._claim(path)
        if target not in self._params:
            raise ContractViolation(f"alias target {target!r} is not a parameter")
        self._aliases[path] = target

    def get(self, path: str) -> Node:
        real = self._aliases.get(path, path)
        if real not in self._params:
            raise KeyError(path)
        return self._params[real]

    def items(self) -> list[tuple[str, Node]]:
        """Real (non-alias) parameters in sorted path order."""
        return sorted(self._params.items())

    def paths(self) -> list[str]:
        return sorted(self._params)

    def pack(self):
        """Move the values into the `values` arena and give each node a
        zeroed gradient view of `grads`; no parameter can join after."""
        items = self.items()
        self.layout = [[path, list(n.value.shape)] for path, n in items]
        self.values = np.concatenate([np.zeros(0)] + [n.value.ravel() for _, n in items])
        self.grads = np.zeros_like(self.values)
        ends = np.cumsum([n.value.size for _, n in items])
        for (_, n), v, g in zip(items, np.split(self.values, ends),
                                np.split(self.grads, ends)):
            n.value, n.grad = v.reshape(n.value.shape), g.reshape(n.value.shape)

    def zero_grad(self):
        """Zero the gradient arena; a parameter rebound off the arenas
        raises, as Adam would skip it."""
        for path, n in self.items():
            if n.value.base is not self.values or n.grad.base is not self.grads:
                raise ContractViolation(f"parameter {path!r} does not view the arenas")
        self.grads.fill(0.0)


# ---------------------------------------------------------------------------
# finite differences (test oracle)

def finite_diff_grad(f: Callable[[], float], arrays: Sequence[np.ndarray],
                     eps: float = 1e-4) -> list[np.ndarray]:
    """Central-difference gradient of scalar `f` w.r.t. each array, in place.

    `f` must be deterministic and read the arrays by reference; entries are
    perturbed and restored one at a time.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


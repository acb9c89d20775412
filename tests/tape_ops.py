"""Tape ops the program computes inside fused nodes, kept here as node-by-node
references: the full sum (the gradient checks' scalarizer), log-softmax, a
loss kernel as a node, and label smoothing's uniform-KL term.  The fused
nodes' bit-equality tests compose them into the graphs those nodes
replace."""

import math

import numpy as np

import pmu.autodiff as ad
from pmu.autodiff import Node


def tape_sum(a):
    """Sum of every entry."""
    out = Node(a.value.sum(), (a,), "sum")
    out._backward = lambda g: ad._acc(a, np.broadcast_to(g, a.value.shape))
    return out


def tape_log_softmax(z):
    """Log-softmax along the last axis, stabilized by the row max."""
    shifted = z.value - z.value.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = Node(y, (z,), "log_softmax")
    out._backward = lambda g: ad._acc(
        z, g - np.exp(y) * g.sum(axis=-1, keepdims=True))
    return out


def tape_loss_node(kernel, x, labels):
    """`kernel` (ctc_loss or transducer_loss) on x's value as a scalar node;
    the kernel's result must be ok."""
    res = kernel(x.value, labels)
    assert res.status == "ok", res.status
    out = Node(np.asarray(res.value), (x,), kernel.__name__)
    out._backward = lambda g: ad._acc(x, float(g) * res.grad)
    return out


def tape_uniform_kl(logprobs):
    """Mean over positions of KL(uniform || p) over the last axis."""
    ce = ad.scale(tape_sum(logprobs), -1.0 / logprobs.value.size)
    return ad.add(ce, Node(np.asarray(-math.log(logprobs.value.shape[-1]))))


def smoothed_loss_node(kernel, logprobs, labels, label_smoothing):
    """The loss node plus label_smoothing times the uniform-KL term, as the
    objective composed them before the fused nodes."""
    node = tape_loss_node(kernel, logprobs, labels)
    if label_smoothing > 0.0:
        node = ad.add(node, ad.scale(tape_uniform_kl(logprobs), label_smoothing))
    return node

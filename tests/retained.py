"""The graph-keeping reference of ``numerics.backward``.

This pass computes a gradient for every reachable graph entry, interior
nodes included, stores the leaves' on their ``.grad`` and returns them all,
and leaves every closure and parent link in place, so the graph stays
alive as long as its loss does and can be walked again. The tests swap it
in for ``numerics.backward`` and check that the consuming pass gives the
same leaf gradients, losses and parameters bit for bit.
"""

from __future__ import annotations

import numpy as np

import graphwalk
from eqgen.numerics import Tensor


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf;
    return d(loss)/d(entry) for every reachable entry, keyed by ``id``."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    grads: dict[int, np.ndarray] = {id(graphwalk.entry(loss)): np.ones_like(loss.data)}
    for e in reversed(graphwalk.walk(loss)):
        g = grads.get(id(e))
        if g is None:
            continue
        bw = graphwalk.closure(e)
        if bw is None:
            if e.requires_grad:
                e.grad = g if e.grad is None else e.grad + g
            continue
        for parent, pg in zip(graphwalk.parents(e), bw(g)):
            if pg is None or parent is None:
                continue
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg
    return grads

"""The graph-keeping reference of ``numerics.backward``.

This pass computes a gradient for every reachable graph entry, interior
nodes included, stores the leaves' on their ``.grad``, and leaves every
closure and parent link in place, so the graph stays alive as long as its
loss does and can be walked again. Like ``numerics.backward`` it takes a
seed gradient and a tensor to stop at. The tests swap it in for
``numerics.backward`` and check that the consuming pass gives the same
leaf gradients, losses and parameters bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import graphwalk
from eqgen.numerics import Tensor


def backward(loss: Tensor, grad: Optional[np.ndarray] = None, stop: Optional[Tensor] = None) -> Optional[np.ndarray]:
    """Accumulate d(out)/d(leaf) into .grad for every leaf reachable from
    ``loss`` without entering ``stop``, where d(out)/d(loss) is ``grad``,
    or 1 for a scalar ``loss``; return the gradient that reached ``stop``."""
    if grad is None and loss.data.size != 1:
        raise ValueError("backward expects a scalar loss, or a seed gradient")
    grads: dict[int, np.ndarray] = {id(graphwalk.entry(loss)): np.ones_like(loss.data) if grad is None else grad}
    for e in reversed(graphwalk.walk(loss, stop)):
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
    return None if stop is None else grads.get(id(graphwalk.entry(stop)))

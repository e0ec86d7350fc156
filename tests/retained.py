"""The graph-keeping reference of ``numerics.backward``.

This pass stores a gradient on every reachable node, interior ones
included, and leaves every closure and parent link in place, so the graph
stays alive as long as its loss does and can be walked again. The tests
swap it in for ``numerics.backward`` and check that the consuming pass
gives the same leaf gradients, losses and parameters bit for bit.
"""

from __future__ import annotations

import numpy as np

from eqgen.numerics import Tensor


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into .grad for every reachable node."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(loss, 0)]
    while stack:
        node, i = stack.pop()
        if i == 0:
            if id(node) in seen:
                continue
            seen.add(id(node))
        if i < len(node._parents):
            stack.append((node, i + 1))
            child = node._parents[i]
            if id(child) not in seen:
                stack.append((child, 0))
        else:
            topo.append(node)

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg

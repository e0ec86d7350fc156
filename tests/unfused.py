"""The unfused reference graph of ``numerics.linear`` and ``numerics.attention``.

Primitive ops that eqgen no longer needs (``matmul``, ``softmax``,
``reshape``, ``swapaxes``) live here, and ``linear`` / ``attention`` are
rebuilt from them op by op, each small op with its own backward pass. The
tests compare the fused ops, and whole model passes with the fused ops
swapped out for these, against this graph.
"""

from __future__ import annotations

import math

import numpy as np

from eqgen.numerics import ShapeError, Tensor, _result, add, mul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports (..., m, k) @ (k, n) and batched operands
    with identical leading dimensions."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs 2-d operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {ad.shape} @ {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions differ: {ad.shape} @ {bd.shape}")
    data = ad @ bd

    def bw(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        if bd.ndim == 2 and ad.ndim > 2:
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.swapaxes(ad, -1, -2) @ g
        return ga, gb

    return _result(data, (a, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    data = a.data.reshape(shape)
    return _result(data, (a,), lambda g: (g.reshape(old),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    data = np.swapaxes(a.data, ax1, ax2)
    return _result(data, (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max is subtracted first)."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        return (p * (g - (g * p).sum(axis=axis, keepdims=True)),)

    return _result(p, (a,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def _heads(x: Tensor, heads: int) -> Tensor:
    """(B, t, d) -> (B, heads, t, d // heads)."""
    bsz, t, d = x.shape
    return swapaxes(reshape(x, (bsz, t, heads, d // heads)), 1, 2)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None) -> Tensor:
    """The multi-head core op by op; the query rows, flattened from any
    leading shape, are reshaped to (kb, rows / kb, d) under the kb key sets."""
    kb, d = k.shape[0], q.shape[-1]
    shape = q.shape
    q = reshape(q, (kb, -1, d))
    scale = Tensor(np.asarray(1.0 / math.sqrt(d // heads), dtype=q.dtype))
    scores = mul(matmul(_heads(q, heads), swapaxes(_heads(k, heads), 2, 3)), scale)
    if mask is not None:
        scores = add(scores, Tensor(np.asarray(mask, dtype=scores.dtype)))
    ctx = matmul(softmax(scores, axis=-1), _heads(v, heads))
    return reshape(swapaxes(ctx, 1, 2), shape)

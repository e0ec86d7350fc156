"""The unfused reference graphs of eqgen's fused ops.

Primitive ops that eqgen no longer needs (``matmul``, ``softmax``,
``reshape``, ``swapaxes``, ``relu``, the plain ``layer_norm`` and the
broadcasting ``add`` and ``mul``) live here, and ``linear`` /
``attention`` are rebuilt from them op by op, each small op with its own
backward pass. ``ffn``, ``residual_norm`` and ``scale_shift`` are the
graphs the model built before those ops were fused, and ``dropout`` keeps
a float mask as the op did before: with the fused ``linear`` they give the
fused ops' results bit for bit. The tests compare the fused ops, and whole
model passes with the fused ops swapped out for these, against these
graphs.
"""

from __future__ import annotations

import math

import numpy as np

from eqgen import numerics
from eqgen.numerics import ShapeError, Tensor, _result


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum under numpy broadcasting."""
    data = a.data + b.data
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _result(data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product under numpy broadcasting."""
    data = a.data * b.data
    ash, bsh = a.shape, b.shape
    # each factor's gradient reads the other factor: keep a factor only if that gradient is needed
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bw(g):
        return (None if bd is None else _unbroadcast(g * bd, ash),
                None if ad is None else _unbroadcast(g * ad, bsh))

    return _result(data, (a, b), bw)


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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _result(a.data * mask, (a,), lambda g: (g * mask,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    A (d,) gain and bias serve every row; a stacked (S, d) pair applies
    slice s to the s-th of S equal groups of the rows (all axes but the last
    flattened), as ``linear`` does with a stacked weight.
    """
    d = x.shape[-1]
    s = gain.shape[0] if gain.ndim == 2 else 1
    if gain.shape[-1:] != (d,) or gain.ndim > 2 or bias.shape != gain.shape or x.data.size % (s * d):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},) or (S, {d}) with S dividing the rows; "
                         f"got {gain.shape} and {bias.shape} for {x.shape}")
    xd = x.data.reshape(s, -1, d)
    gd = gain.data.reshape(s, 1, d)
    # np.add.reduce / d is what ndarray.mean computes, without its Python-level wrapper
    mu = np.add.reduce(xd, axis=-1, keepdims=True) / d
    xc = xd - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gd + bias.data.reshape(s, 1, d)

    def bw(g):
        g = g.reshape(xd.shape)
        dgain = (g * xhat).sum(axis=1).reshape(gain.shape)
        dbias = g.sum(axis=1).reshape(gain.shape)
        dxhat = g * gd
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx.reshape(x.shape), dgain, dbias

    return _result(data.reshape(x.shape), (x, gain, bias), bw)


def residual_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    return layer_norm(add(x, y), gain, bias)


def scale_shift(x: Tensor, scale: float, shift: np.ndarray) -> Tensor:
    """``add(mul(x, scale), shift)`` with the scale cast to ``x``'s dtype:
    the graph the model built to scale embeddings and add positions."""
    return add(mul(x, Tensor(np.asarray(scale, dtype=x.dtype))), Tensor(shift))


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, linear=numerics.linear) -> Tensor:
    """``linear(relu(linear(x, w1, b1)), w2, b2)``, by default through the
    fused ``numerics.linear``."""
    return linear(relu(linear(x, w1, b1)), w2, b2)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, real=None) -> Tensor:
    """Inverted dropout with a float mask of ``keep / (1 - rate)``, drawn as
    ``numerics.dropout`` draws its boolean one."""
    if rate <= 0.0:
        return x
    keep = rng.random(x.shape if real is None else real.shape + x.shape[-1:]) >= rate
    if real is not None:
        keep = keep[real]
    mask = (keep / (1.0 - rate)).astype(x.dtype)
    return _result(x.data * mask, (x,), lambda g: (g * mask,))

"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: every primitive op records a backward closure
on its output, ``backward()`` replays the closures in reverse topological
order and accumulates gradients on the leaves only. It consumes the graph
as it goes: each closure and its links to its inputs are dropped once it
has run, so activations are freed during the pass and a graph can be
back-propagated once. Storage is row-major, float32 or float64.
Any op that produces NaN/Inf raises immediately rather than letting it
propagate through training.

Each op costs a fixed Python overhead, so the Transformer's two hot
patterns are single fused ops with hand-written backward passes:
``linear`` is ``x @ w + b`` and ``attention`` is the whole multi-head core
(head split, scaled scores, additive mask, softmax, context product and
head merge) on ``(B, t, d)`` operands. ``gather_rows`` and ``scatter_rows``
move rows between such a grid and the ``(N, d)`` stack of its real
positions, so that the other ops can skip padding.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (fast path for decoding / evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus an optional place in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Optional[Callable] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    @classmethod
    def from_checked(cls, data: np.ndarray) -> "Tensor":
        """A graph-free leaf over ``data`` that a guarded op already produced,
        without a second NaN/Inf scan."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; everything routes through the module-level ops
    def __add__(self, other):
        return add(self, _wrap(other, self))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _result(data: np.ndarray, parents: tuple, backward: Optional[Callable]) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("op produced non-finite values")
    return _node(data, parents, backward)


def _node(data: np.ndarray, parents: tuple, backward: Optional[Callable]) -> Tensor:
    """``_result`` without the NaN/Inf scan, for ops that only move finite values."""
    out = Tensor.from_checked(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


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


def _spent(g):
    """Stands in for the closure of a node whose graph was back-propagated."""
    raise RuntimeError("backward through a graph that was already back-propagated")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf that
    requires grad; interior nodes keep ``grad = None``.

    The graph is walked in reverse topological order; construction order of
    the tensors is already a topological order, the DFS below recovers it
    without recursion so deep graphs are safe. Each interior node gives up
    its closure and its parents once the closure has run, so the graph is
    spent afterwards: a second ``backward`` that reaches any of its nodes
    raises ``RuntimeError`` before any gradient is written.
    """
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
            if node._backward is _spent:
                _spent(None)
            seen.add(id(node))
        if i < len(node._parents):
            stack.append((node, i + 1))
            child = node._parents[i]
            if id(child) not in seen:
                stack.append((child, 0))
        else:
            topo.append(node)

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if node._backward is None:
            if g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parents, bw = node._parents, node._backward
        node._parents, node._backward = (), _spent
        if g is None:
            continue
        for parent, pg in zip(parents, bw(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _result(data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return _result(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    ad, bd = a.data, b.data

    def bw(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _result(data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for (..., k) inputs, a (k, n) weight and an (n,) bias.

    The leading axes are flattened, so the forward product and the input
    gradient are each one 2-d GEMM: numpy runs ``(R, 1, k) @ (k, n)`` as R
    tiny products.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1] or b.shape != wd.shape[1:]:
        raise ShapeError(f"linear needs (..., k) @ (k, n) + (n,), got {xd.shape} @ {wd.shape} + {b.shape}")
    x2 = xd.reshape(-1, xd.shape[-1])
    data = x2 @ wd
    data += b.data

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ wd.T).reshape(xd.shape), x2.T @ g2, g2.sum(axis=0)

    return _result(data.reshape(xd.shape[:-1] + wd.shape[1:]), (x, w, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask: Optional[np.ndarray] = None) -> Tensor:
    """Multi-head scaled dot-product attention, softmax(q kᵀ / √hd + mask) v.

    ``q`` is (B, t_q, d) and ``k``/``v`` are (kb, t_k, d) with kb dividing B.
    Key set i serves the B / kb consecutive query rows from i * B / kb on;
    each group of rows is folded into the query axis, so one
    (kb, heads, B / kb * t_q, hd) product serves them all and the keys are
    never broadcast. kb = B is plain batched attention, and kb = 1 shares one
    key set with every row. ``mask`` is added to the folded
    (kb, heads, B / kb * t_q, t_k) scores and must broadcast to them.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim != 3 or kd.ndim != 3 or kd.shape != vd.shape or kd.shape[2] != qd.shape[2]
            or kd.shape[0] == 0 or qd.shape[0] % kd.shape[0] or qd.shape[2] % heads):
        raise ShapeError(f"attention needs q (B, t, d), k = v (kb, t, d) with kb dividing B and heads "
                         f"dividing d; got {qd.shape}, {kd.shape}, {vd.shape}, {heads} heads")
    bsz, t_q, d = qd.shape
    kb, t_k = kd.shape[:2]
    hd = d // heads
    rows, t = kb, bsz // kb * t_q

    def split(x, n, m):
        return x.reshape(n, m, heads, hd).transpose(0, 2, 1, 3)

    def merge(x, n):
        return x.transpose(0, 2, 1, 3).reshape(n, -1, d)

    qh, kh, vh = split(qd, rows, t), split(kd, kb, t_k), split(vd, kb, t_k)
    scale = 1.0 / math.sqrt(hd)  # a Python float keeps float32 scores float32
    s = qh @ kh.swapaxes(-1, -2)
    s *= scale
    if mask is not None:
        s += mask
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=-1, keepdims=True)
    data = merge(p @ vh, bsz)

    def bw(g):
        gc = split(g, rows, t)
        gp = gc @ vh.swapaxes(-1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        gs *= scale
        return merge(gs @ kh, bsz), merge(gs.swapaxes(-1, -2) @ qh, kb), merge(p.swapaxes(-1, -2) @ gc, kb)

    return _result(data, (q, k, v), bw)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _result(np.asarray(data), (a,), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _result(a.data * mask, (a,), lambda g: (g * mask,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},)")
    # np.add.reduce / d is what ndarray.mean computes, without its Python-level wrapper
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data
    gd = gain.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gd
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _result(data, (x, gain, bias), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids, dtype=np.int64)
    n = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"embedding id out of range [0, {n})")
    data = table.data[ids]
    tshape = table.shape

    def bw(g):
        acc = np.zeros(tshape, dtype=g.dtype)
        np.add.at(acc, ids.reshape(-1), g.reshape(-1, tshape[1]))
        return (acc,)

    return _result(data, (table,), bw)


def gather_rows(x: Tensor, real: np.ndarray) -> Tensor:
    """The (N, d) stack of the rows of a (B, t, d) ``x`` where the boolean
    (B, t) ``real`` is True, in row-major order; ``scatter_rows`` is its
    backward and it is ``scatter_rows``'s."""
    shape = x.shape
    if shape[:-1] != real.shape:
        raise ShapeError(f"gather_rows needs (B, t, d) rows under a (B, t) mask, got {shape} and {real.shape}")
    return _node(x.data[real], (x,), lambda g: (_scatter(g, real, shape),))


def scatter_rows(x: Tensor, real: np.ndarray) -> Tensor:
    """The (N, d) rows of ``x`` placed where the boolean (B, t) ``real`` is
    True, in row-major order, in a (B, t, d) grid of zeros."""
    if x.ndim != 2 or x.shape[0] != np.count_nonzero(real):
        raise ShapeError(f"scatter_rows needs one (N, d) row per True entry, got {x.shape} for {real.sum()}")
    return _node(_scatter(x.data, real, real.shape + x.shape[1:]), (x,), lambda g: (g[real],))


def _scatter(rows: np.ndarray, real: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.zeros(shape, dtype=rows.dtype)
    out[real] = rows
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, real: Optional[np.ndarray] = None) -> Tensor:
    """Inverted dropout; identity when rate == 0.

    With a boolean (B, t) ``real``, ``x`` holds the (N, d) rows of the True
    positions of a (B, t, d) grid (see ``gather_rows``): the mask is drawn
    over the whole grid and each row keeps its position's part, so the
    random stream and every row's mask are those of the padded grid.
    """
    if rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = rng.random(x.shape if real is None else real.shape + x.shape[-1:]) >= rate
    if real is not None:
        keep = keep[real]
    mask = (keep / (1.0 - rate)).astype(x.dtype)
    return _result(x.data * mask, (x,), lambda g: (g * mask,))


def cross_entropy(logits: Tensor, targets, ignore_index: int = 0, weights=None) -> Tensor:
    """Sum of per-token negative log-likelihoods over non-ignored positions.

    ``logits`` is (..., V); ``targets`` holds integer ids with the same
    leading shape. Positions equal to ``ignore_index`` contribute nothing.
    No mean is taken: the result is the plain sum. ``weights``, broadcast to
    the targets' shape, scales each position's term in the sum and in the
    gradient; without it every term counts once.
    """
    ld = logits.data
    if ld.ndim < 2:
        raise ShapeError("cross_entropy expects (..., V) logits")
    v = ld.shape[-1]
    flat = ld.reshape(-1, v)
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    if tgt.shape[0] != flat.shape[0]:
        raise ShapeError("cross_entropy targets do not match logits leading shape")
    keep = tgt != ignore_index
    if np.any(keep & ((tgt < 0) | (tgt >= v))):
        raise IndexError(f"cross_entropy target id out of range [0, {v})")
    m = flat.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
    rows = np.arange(flat.shape[0])
    idx = np.where(keep, tgt, 0)
    scale = keep
    if weights is not None:
        scale = keep * np.broadcast_to(np.asarray(weights, dtype=ld.dtype), ld.shape[:-1]).reshape(-1)
    nll = (lse - flat[rows, idx]) * scale
    data = np.asarray(nll.sum(), dtype=ld.dtype)
    shape = ld.shape

    def bw(g):
        p = np.exp(flat - lse[:, None])
        p[rows, idx] -= 1.0
        p *= scale[:, None]
        return ((g * p).reshape(shape),)

    return _result(data, (logits,), bw)

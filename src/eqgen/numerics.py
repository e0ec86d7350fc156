"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: every primitive op that records a graph
gives its output a ``_Node`` holding the op's backward closure and its
parents, which are the nodes of interior inputs or the leaf tensors
themselves; ``backward()`` replays the closures in reverse topological
order and accumulates gradients on the leaves only. The graph holds nodes,
not arrays: an op output's array lives while a local variable or a
backward closure that reads it holds it, so outputs that no backward reads
are freed as soon as the forward pass moves on. ``backward`` consumes the
graph as it goes: each closure and its links to its parents are dropped
once it has run, so activations are freed during the pass and a graph can
be back-propagated once, or in parts: a pass can stop at a tensor and
return its gradient, and a later pass start from there with that seed.
Storage is row-major, float32 or float64.
Any op that produces NaN/Inf raises immediately rather than letting it
propagate through training.

Each op costs a fixed Python overhead, so the engine holds only the fused
ops the model calls, each with a hand-written backward pass; tensors have
no arithmetic operators. ``scale_shift`` scales embeddings and adds their
positions, ``linear`` is ``x @ w + b``, ``ffn`` the feed-forward ``linear
→ relu → linear``, ``residual_norm`` a post-norm block's residual sum and
layer norm, ``attention`` the whole multi-head core (head split, scaled
scores, additive mask, softmax, context product and head merge) and
``cross_entropy`` a weighted sum of token losses. ``add`` of two tensors
of one shape, which sums losses, is the only plain arithmetic op. Each
op's backward keeps only the arrays it reads: no residual sum, no
pre-activation, no copy of the rows ``attention`` gathers, and a boolean
dropout mask.

``attention`` has two regimes, chosen by where the keys live. Key sets
shared by runs of query rows are folded under those rows, so one product
serves each set. Per-row keys come as the ``(N, d)`` stacks of a
batch's real query and key rows with an ``attention_plan``, and the op
gathers them onto at most two small grids of similar lengths itself.
``gather_rows`` and ``scatter_rows`` move rows between a ``(B, t, d)`` grid
and the stack of its real positions where a grid is still needed.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, NamedTuple, Optional

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


class _Node:
    """An op output's place in the autodiff graph: the op's backward
    closure and its parents, one per input, each the input's node, the
    input itself when it is a leaf that requires grad, or None when no
    gradient flows to it. A node never refers to the tensor it belongs
    to, so the graph keeps no op output's array alive."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward: Callable):
        self.parents = parents
        self.backward = backward


class Tensor:
    """A dense array plus, for an op output that needs a gradient, its
    ``_Node`` in the autodiff graph.

    The graph links nodes and leaves, never interior tensors, so an
    interior array lives only while local variables or the backward
    closures that read it hold it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._node: Optional[_Node] = None

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
        out._node = None
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("op produced non-finite values")
    return _node(data, parents, backward)


def _node(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    """``_result`` without the NaN/Inf scan, for ops that only move finite values."""
    out = Tensor.from_checked(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple((p._node or p) if p.requires_grad else None for p in parents), backward)
    return out


def _spent(g):
    """Stands in for the closure of a node whose graph was back-propagated."""
    raise RuntimeError("backward through a graph that was already back-propagated")


def backward(loss: Tensor, grad: Optional[np.ndarray] = None, stop: Optional[Tensor] = None) -> Optional[np.ndarray]:
    """Accumulate d(loss)/d(leaf) into .grad of every reachable leaf that
    requires grad; interior tensors keep ``grad = None``.

    ``grad`` seeds the pass with d(out)/d(loss), in ``loss``'s shape, for
    a scalar ``out``; without it ``loss`` is ``out``. The pass does not
    enter ``stop``, whose graph stays unspent: the gradient that reaches it
    is returned (None if none does), not stored.

    The graph's nodes are walked in reverse topological order; construction
    order is already a topological order, the DFS below recovers it without
    recursion so deep graphs are safe. Each node gives up its closure and
    its parents once the closure has run, so the graph is spent afterwards:
    a second ``backward`` that reaches any of its nodes raises
    ``RuntimeError`` before any gradient is written.
    """
    if (loss.data.size != 1) if grad is None else (np.shape(grad) != loss.shape):
        raise ValueError(f"backward needs a scalar loss or a seed gradient of its shape {loss.shape}")
    root = loss._node or loss
    below = None if stop is None else stop._node or stop
    topo: list = []  # nodes, and the leaf tensors among their parents
    seen: set[int] = set() if below is None else {id(below)}
    stack: list = [(root, 0)]
    while stack:
        node, i = stack.pop()
        if i == 0:
            if id(node) in seen:
                continue
            seen.add(id(node))
            if type(node) is not _Node:
                topo.append(node)
                continue
            if node.backward is _spent:
                _spent(None)
        if i < len(node.parents):
            stack.append((node, i + 1))
            child = node.parents[i]
            if child is not None and id(child) not in seen:
                stack.append((child, 0))
        else:
            topo.append(node)

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data) if grad is None else grad}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if type(node) is not _Node:
            if g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parents, bw = node.parents, node.backward
        node.parents, node.backward = (), _spent
        if g is None:
            continue
        for parent, pg in zip(parents, bw(g)):
            if pg is None or parent is None:
                continue
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg
    return grads.get(id(below))


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """The elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs operands of one shape, got {a.shape} + {b.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def scale_shift(x: Tensor, scale: float, shift: np.ndarray) -> Tensor:
    """``x * scale + shift`` for a constant ``scale``, cast to ``x``'s dtype,
    and a constant array ``shift`` that broadcasts to ``x``, such as the
    position rows added to scaled embeddings."""
    if np.ndim(shift) > x.ndim or any(n not in (1, m) for n, m in zip(np.shape(shift)[::-1], x.shape[::-1])):
        raise ShapeError(f"scale_shift needs a shift that broadcasts to {x.shape}, got {np.shape(shift)}")
    s = x.dtype.type(scale)
    data = x.data * s
    data += shift
    return _result(data, (x,), lambda g: (g * s,))


def _fits(x_shape: tuple, w: np.ndarray, b: Tensor) -> bool:
    """Whether (..., k) rows meet a (k, n) weight and an (n,) bias, or, in S
    equal groups of the flattened rows, an (S, k, n) weight and (S, n) bias."""
    return (w.ndim in (2, 3) and x_shape[-1:] == w.shape[-2:-1] and b.shape == w.shape[:-2] + w.shape[-1:]
            and not (w.ndim == 3 and math.prod(x_shape[:-1]) % w.shape[0]))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for (..., k) inputs, a (k, n) weight and an (n,) bias.

    The leading axes are flattened, so the forward product and the input
    gradient are each one 2-d GEMM: numpy runs ``(R, 1, k) @ (k, n)`` as R
    tiny products. A stacked (S, k, n) weight with an (S, n) bias applies
    slice s to the s-th of S equal groups of the flattened rows, as S GEMMs
    in one batched product.
    """
    xd, wd = x.data, w.data
    if not _fits(xd.shape, wd, b):
        raise ShapeError(f"linear needs (..., k) @ (k, n) + (n,), or rows in S groups @ (S, k, n) + (S, n); "
                         f"got {xd.shape} @ {wd.shape} + {b.shape}")
    x2 = xd.reshape(wd.shape[:-2] + (-1, xd.shape[-1]))
    data = x2 @ wd
    data += b.data[..., None, :]

    def bw(g):
        g2 = g.reshape(x2.shape[:-1] + g.shape[-1:])
        return (g2 @ wd.swapaxes(-1, -2)).reshape(xd.shape), x2.swapaxes(-1, -2) @ g2, g2.sum(axis=-2)

    return _result(data.reshape(xd.shape[:-1] + wd.shape[-1:]), (x, w, b), bw)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The position-wise feed-forward layer ``linear(relu(linear(x, w1,
    b1)), w2, b2)`` as one op, with (k, f), (f,), (f, n), (n,) weights and
    biases, or stacked (S, ...) ones applied group by group as in ``linear``.

    Backward reads the input and the post-ReLU activations h only, with the
    ReLU's mask taken again as h > 0; the pre-activations are not kept. The
    NaN/Inf guard scans h, which is non-finite wherever they are.
    """
    xd, w1d, w2d = x.data, w1.data, w2.data
    if not (_fits(xd.shape, w1d, b1) and w2d.ndim == w1d.ndim and _fits(xd.shape[:-1] + w1d.shape[-1:], w2d, b2)):
        raise ShapeError(f"ffn needs (..., k) rows through (k, f) + (f,) and (f, n) + (n,), or (S, ...) stacks of "
                         f"both; got {xd.shape} through {w1d.shape} + {b1.shape} and {w2d.shape} + {b2.shape}")
    x2 = xd.reshape(w1d.shape[:-2] + (-1, xd.shape[-1]))
    h = x2 @ w1d
    h += b1.data[..., None, :]
    h *= h > 0
    if not np.isfinite(h).all():
        raise NonFiniteError("op produced non-finite values")
    data = h @ w2d
    data += b2.data[..., None, :]

    def bw(g):
        g2 = g.reshape(h.shape[:-1] + g.shape[-1:])
        gh = g2 @ w2d.swapaxes(-1, -2)
        gh *= h > 0
        return ((gh @ w1d.swapaxes(-1, -2)).reshape(xd.shape), x2.swapaxes(-1, -2) @ gh, gh.sum(axis=-2),
                h.swapaxes(-1, -2) @ g2, g2.sum(axis=-2))

    return _result(data.reshape(xd.shape[:-1] + w2d.shape[-1:]), (x, w1, b1, w2, b2), bw)


MASK_VALUE = -1e9  # additive attention mask; finite so the NaN guard stays meaningful


@functools.lru_cache(maxsize=256)
def causal_mask(t: int) -> Optional[np.ndarray]:
    """Additive mask of t positions under which position i sees keys
    0 .. i; None for a single position, which sees its one key."""
    if t == 1:
        return None
    mask = np.triu(np.full((t, t), MASK_VALUE), k=1)[None, None]
    mask.setflags(write=False)
    return mask


class _Group(NamedTuple):
    """The batch ``rows`` of an ``AttentionPlan`` on their own (n, t_q, t_k)
    grid.

    Its query slots are the n * t_q plan slots from ``q_at`` on, row-major,
    and its key slots the n * t_k from ``k_at`` on. Unless the plan is
    causal, ``keep`` is False on padded key slots, (n, 1, 1, t_k), or None
    when there are none (see ``_softmax``)."""

    rows: np.ndarray
    t_q: int
    t_k: int
    q_at: int
    k_at: int
    keep: Optional[np.ndarray]


class AttentionPlan(NamedTuple):
    """Where the real query and key rows of a batch sit, and the grids
    ``attention`` gathers them onto; built by ``attention_plan`` from the
    batch's ``q_lengths``, ``k_lengths`` and ``causal``, which it keeps.

    ``q_slots`` holds the query row of every slot of every group's grid, a
    padded slot its batch row's last real one, so every slot reads finite
    values; ``q_pos`` holds the real slot of every query row and ``q_pad``
    lists the padded slots. ``k_slots`` and ``k_pos`` do the same for keys.
    """

    q_lengths: np.ndarray
    k_lengths: np.ndarray
    causal: bool
    groups: tuple[_Group, ...]
    q_slots: np.ndarray
    q_pos: np.ndarray
    q_pad: np.ndarray
    k_slots: np.ndarray
    k_pos: np.ndarray


def _slots(rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, t) stack rows and real flags of the slots of ``rows`` on a
    grid as long as their longest."""
    n = lengths[rows][:, None]
    pos = np.arange(n.max())
    return (np.cumsum(lengths) - lengths)[rows][:, None] + np.minimum(pos, n - 1), pos < n


def _positions(slots: np.ndarray, real: np.ndarray) -> np.ndarray:
    """The real slot of each of the rows ``slots`` lists."""
    pos = np.empty(np.count_nonzero(real), dtype=np.int64)
    pos[slots[real]] = np.flatnonzero(real)
    return pos


def attention_plan(q_lengths, k_lengths, causal: bool = False) -> AttentionPlan:
    """The grouping ``attention`` uses for a batch whose row i has
    ``q_lengths[i]`` real queries and ``k_lengths[i]`` real keys.

    The real rows of the batch are stacked in batch order: row i's queries
    are the ``q_lengths[i]`` consecutive query rows after those of rows
    0 .. i-1, and the same holds for its keys. Query j of a ``causal`` row
    sees its keys 0 .. j (then the two lengths must be equal); otherwise it
    sees all its row's keys. The batch rows are sorted by key length, ties by
    query length, and cut into at most two groups, at the cut that minimises
    the summed score area n_g * t_q,g * t_k,g of the groups (n_g rows, t_q,g
    and t_k,g their longest query and key lengths). One group is kept when
    no cut lowers the area of the single grid.

    Plans are memoized on the lengths and ``causal``, so equal batches share
    one plan, whose arrays are read-only.
    """
    ql = np.asarray(q_lengths, dtype=np.int64)
    kl = np.asarray(k_lengths, dtype=np.int64)
    if ql.ndim != 1 or ql.shape != kl.shape:
        raise ShapeError(f"attention_plan needs equally many query and key lengths, got {ql} and {kl}")
    return _plan(ql.tobytes(), kl.tobytes(), bool(causal))


@functools.lru_cache(maxsize=32)
def _plan(q_bytes: bytes, k_bytes: bytes, causal: bool) -> AttentionPlan:
    ql, kl = np.frombuffer(q_bytes, dtype=np.int64), np.frombuffer(k_bytes, dtype=np.int64)
    if not ql.size or min(ql.min(), kl.min()) < 1 or (causal and not np.array_equal(ql, kl)):
        raise ShapeError(f"attention_plan needs equally many query and key lengths of at least 1 "
                         f"(equal ones when causal), got {ql} and {kl}")
    order = np.lexsort((ql, kl))
    sq, sk = ql[order], kl[order]
    n = len(order)
    # area of the first c sorted rows for c = 1 .. n, and of the rows from c on for c = 0 .. n-1
    head = np.arange(1, n + 1) * np.maximum.accumulate(sq) * sk
    tail = np.arange(n, 0, -1) * np.maximum.accumulate(sq[::-1])[::-1] * sk[-1]
    cuts = head[:-1] + tail[1:]
    cut = int(np.argmin(cuts)) + 1 if n > 1 and cuts.min() < tail[0] else n
    groups, q_parts, k_parts = [], [], []
    q_at = k_at = 0
    for rows in (order[:cut], order[cut:]):
        if not rows.size:
            continue
        (q_slots, q_real), (k_slots, k_real) = _slots(rows, ql), _slots(rows, kl)
        keep = None if causal or k_real.all() else k_real[:, None, None, :]
        groups.append(_Group(rows, q_real.shape[1], k_real.shape[1], q_at, k_at, keep))
        q_at, k_at = q_at + q_slots.size, k_at + k_slots.size
        q_parts.append((q_slots.ravel(), q_real.ravel()))
        k_parts.append((k_slots.ravel(), k_real.ravel()))
    q_slots, q_real = map(np.concatenate, zip(*q_parts))
    k_slots, k_real = map(np.concatenate, zip(*k_parts))
    plan = AttentionPlan(ql, kl, causal, tuple(groups), q_slots, _positions(q_slots, q_real),
                         np.flatnonzero(~q_real), k_slots, _positions(k_slots, k_real))
    for a in (*plan[4:], *(grp.rows for grp in groups), *(grp.keep for grp in groups if grp.keep is not None)):
        a.setflags(write=False)
    return plan


def _softmax(qh: np.ndarray, kh: np.ndarray, scale: float, mask: Optional[np.ndarray] = None,
             keep: Optional[np.ndarray] = None) -> np.ndarray:
    """softmax(qh khᵀ · scale + mask) over the keys, the attention weights.

    A boolean ``keep`` instead drops the scores it marks False after the
    exponential, which is cheaper than an additive mask, whose huge
    negative scores put ``np.exp`` on its slow underflow path. Each dropped
    score must repeat a kept one of its row, so that the row maxima and
    hence the weights are the additive mask's."""
    s = qh @ kh.swapaxes(-1, -2)
    s *= scale
    if mask is not None:
        s += mask
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s, out=s)
    if keep is not None:
        p *= keep
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _softmax_grads(gc, qh, kh, vh, p, scale: float, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the head-split queries, keys and values from that of
    the context ``p @ vh``; written into the three arrays ``out`` if given."""
    gs = gc @ vh.swapaxes(-1, -2)
    gs -= (gs * p).sum(axis=-1, keepdims=True)
    gs *= p
    gs *= scale
    out = out or (None, None, None)
    return (np.matmul(gs, kh, out=out[0]), np.matmul(gs.swapaxes(-1, -2), qh, out=out[1]),
            np.matmul(p.swapaxes(-1, -2), gc, out=out[2]))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask: Optional[np.ndarray] = None,
              plan: Optional[AttentionPlan] = None) -> Tensor:
    """Multi-head scaled dot-product attention, softmax(q kᵀ / √hd + mask) v,
    in one of two regimes; the result has ``q``'s shape.

    Shared key sets (no ``plan``): ``k``/``v`` are (kb, t_k, d) and ``q``
    holds R query rows under any leading shape, flattened row-major, with kb
    dividing R. Key set i serves the R / kb consecutive rows from i * R / kb
    on, folded into its query axis, so one (kb, heads, R / kb, hd) product
    serves them all and the keys are never broadcast. ``mask`` is added to
    those (kb, heads, R / kb, t_k) scores and must broadcast to them.

    Per-row keys (a ``plan``, see ``attention_plan``): ``q`` holds the real
    query rows and ``k``/``v`` the real key rows of a batch, each with its
    leading axes flattened. The rows are gathered onto the plan's group
    grids, each grid runs through the same arithmetic under the plan's
    masks, and the real output rows are gathered back; no score outside
    the groups is computed. ``mask`` must then be None.
    """
    qd, kd, vd = q.data, k.data, v.data
    d = qd.shape[-1]
    rows = math.prod(qd.shape[:-1])
    if plan is None:
        bad = (qd.ndim < 2 or kd.ndim != 3 or kd.shape != vd.shape or kd.shape[2] != d
               or kd.shape[0] == 0 or rows % kd.shape[0])
    else:
        bad = (mask is not None or kd.shape != vd.shape or kd.shape[-1] != d
               or rows != len(plan.q_pos) or kd.size != d * len(plan.k_pos))
    if bad or d % heads:
        raise ShapeError(f"attention needs query rows (..., d) and k = v (kb, t, d) with kb dividing the rows, "
                         f"or the rows of a plan and no mask, and heads dividing d; got {qd.shape}, {kd.shape}, "
                         f"{vd.shape}, {heads} heads")
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)  # a Python float keeps float32 scores float32

    def split(x, n, m):
        return x.reshape(n, m, heads, hd).transpose(0, 2, 1, 3)

    if plan is None:
        kb, t_k = kd.shape[:2]
        t = rows // kb

        def merge(x, like):
            return x.transpose(0, 2, 1, 3).reshape(like.shape)

        qh, kh, vh = split(qd, kb, t), split(kd, kb, t_k), split(vd, kb, t_k)
        p = _softmax(qh, kh, scale, mask)

        def bw(g):
            gq, gk, gv = _softmax_grads(split(g, kb, t), qh, kh, vh, p, scale)
            return merge(gq, qd), merge(gk, kd), merge(gv, vd)

        return _result(merge(p @ vh, qd), (q, k, v), bw)

    def parts(grp, *slots):
        """The group's part of query-slot and key-slot arrays, head-split."""
        at = (grp.q_at, grp.k_at, grp.k_at)
        t = (grp.t_q, grp.t_k, grp.t_k)
        n = len(grp.rows)
        return [split(x[a : a + n * m], n, m) for x, a, m in zip(slots, at, t)]

    # the rows on the slots of the plan's grids; backward gathers them again from the inputs,
    # which it reads anyway, rather than hold a copy
    def gathered():
        return qd.reshape(-1, d)[plan.q_slots], kd.reshape(-1, d)[plan.k_slots], vd.reshape(-1, d)[plan.k_slots]

    slots = gathered()
    ctx = np.empty_like(slots[0])
    probs = []
    for grp in plan.groups:
        qh, kh, vh = parts(grp, *slots)
        probs.append(_softmax(qh, kh, scale, causal_mask(grp.t_q) if plan.causal else None, grp.keep))
        np.matmul(probs[-1], vh, out=parts(grp, ctx)[0])

    def bw_plan(g):
        slots = gathered()
        gc = g.reshape(-1, d)[plan.q_slots]
        gc[plan.q_pad] = 0  # padded query slots pass no gradient
        grads = np.empty_like(gc), np.empty_like(slots[1]), np.empty_like(slots[2])
        for grp, p in zip(plan.groups, probs):
            _softmax_grads(parts(grp, gc)[0], *parts(grp, *slots), p, scale, out=parts(grp, *grads))
        return tuple(x[pos].reshape(y.shape) for x, pos, y in zip(grads, (plan.q_pos, plan.k_pos, plan.k_pos),
                                                                  (qd, kd, vd)))

    return _result(ctx[plan.q_pos].reshape(qd.shape), (q, k, v), bw_plan)


def residual_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """The layer norm of the residual sum ``x + y`` of a post-norm block:
    each row of the sum is normalized to zero mean and unit variance over
    its last axis, then scaled by ``gain`` and shifted by ``bias``.

    A (d,) gain and bias serve every row; a stacked (S, d) pair applies
    slice s to the s-th of S equal groups of the rows (all axes but the last
    flattened), as ``linear`` does with a stacked weight. Backward reads the
    normalized rows and their inverse standard deviations only; the sum is
    not kept.
    """
    d = x.shape[-1]
    s = gain.shape[0] if gain.ndim == 2 else 1
    if (y.shape != x.shape or gain.shape[-1:] != (d,) or gain.ndim > 2 or bias.shape != gain.shape
            or x.data.size % (s * d)):
        raise ShapeError(f"residual_norm needs equal shapes and a gain/bias of shape ({d},) or (S, {d}) with S "
                         f"dividing the rows; got {x.shape} + {y.shape}, {gain.shape} and {bias.shape}")
    shape, gshape = x.shape, gain.shape
    xc = (x.data + y.data).reshape(s, -1, d)
    gd = gain.data.reshape(s, 1, d)
    # np.add.reduce / d is what ndarray.mean computes, without its Python-level wrapper
    xc -= np.add.reduce(xc, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc
    xhat *= inv
    data = xhat * gd + bias.data.reshape(s, 1, d)

    def bw(g):
        g = g.reshape(xhat.shape)
        dgain = (g * xhat).sum(axis=1).reshape(gshape)
        dbias = g.sum(axis=1).reshape(gshape)
        dxhat = g * gd
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = (inv * (dxhat - m1 - xhat * m2)).reshape(shape)
        return dx, dx, dgain, dbias

    return _result(data.reshape(shape), (x, y, gain, bias), bw)


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
    # a boolean mask and one scale: x * keep * scale is x * (keep / (1 - rate)) bit for bit
    scale = x.dtype.type(1.0 / (1.0 - rate))

    def apply(a):
        out = a * keep
        out *= scale
        return out

    return _result(apply(x.data), (x,), lambda g: (apply(g),))


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Sum of per-token negative log-likelihoods, with no mean taken.

    ``logits`` is (..., V); ``targets`` holds integer ids with the same
    leading shape, and -1 at a position with no target, which counts for
    nothing. ``weights``, broadcast to the targets' shape, scales each
    position's term in the sum and in the gradient; without it every term
    counts once.
    """
    ld = logits.data
    if ld.ndim < 2:
        raise ShapeError("cross_entropy expects (..., V) logits")
    v = ld.shape[-1]
    flat = ld.reshape(-1, v)
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    if tgt.shape[0] != flat.shape[0]:
        raise ShapeError("cross_entropy targets do not match logits leading shape")
    keep = tgt != -1
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

    def bw(g):
        p = np.exp(flat - lse[:, None])
        p[rows, idx] -= 1.0
        p *= scale[:, None]
        return ((g * p).reshape(ld.shape),)

    return _result(data, (logits,), bw)

"""Central finite-difference gradient oracle shared across test modules."""

from __future__ import annotations

import numpy as np

from eqgen.numerics import Tensor, _result, backward


def weighted_sum(x: Tensor, w) -> Tensor:
    """The scalar ``sum(x * w)`` for a constant ``w`` that broadcasts to
    ``x``, cast to ``x``'s dtype; its gradient is ``w``. The loss the
    gradient checks build on an op's output."""
    w = np.broadcast_to(np.asarray(w, dtype=x.dtype), x.shape)
    return _result(np.asarray((x.data * w).sum()), (x,), lambda g: (g * w,))


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_op_grad(build, x0: np.ndarray, h: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare autodiff grads of ``build`` (ndarray -> scalar Tensor graph via a
    fresh leaf) against central differences. Returns the max relative error.

    ``build`` receives a Tensor leaf and must return a scalar Tensor.
    """
    leaf = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    out = build(leaf)
    backward(out)
    got = leaf.grad

    def f(arr):
        return build(Tensor(arr)).item()

    want = fd_grad(f, np.array(x0, dtype=np.float64), h=h)
    return rel_err(got, want)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), 1.0)
    return float(np.max(np.abs(got - want) / denom))

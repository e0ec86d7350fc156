"""Walks over the autodiff graph that ``numerics`` records, for the tests.

An op output ``Tensor`` that needs a gradient holds its array and a node;
the node holds the op's backward closure and its parents, each the node of
an interior input, a leaf tensor itself, or None where no gradient flows.
The graph's *entries* are its nodes and the leaf tensors among their
parents. The tests reach the graph only through these helpers, so a change
to its layout touches this file alone.
"""

from __future__ import annotations

import weakref

import numpy as np

from eqgen import numerics
from eqgen.numerics import Tensor, _Node


def entry(t: Tensor):
    """``t``'s entry: its node, or ``t`` itself when it records none."""
    return t._node or t


def parents(e) -> tuple:
    """The parents of an entry; a leaf has none, and so has a spent node."""
    return e.parents if type(e) is _Node else ()


def closure(e):
    """The backward closure of an entry; None for a leaf."""
    return e.backward if type(e) is _Node else None


def walk(t: Tensor, stop: Tensor | None = None) -> list:
    """The entries reachable from ``t`` without entering ``stop``, each
    once, every one after its parents: a node's closure is run before those
    of its parents by walking the list backwards. Iterative, so deep graphs
    are safe."""
    order, seen, stack = [], set() if stop is None else {id(entry(stop))}, [(entry(t), 0)]
    while stack:
        e, i = stack.pop()
        if i == 0:
            if id(e) in seen:
                continue
            seen.add(id(e))
        ps = parents(e)
        if i < len(ps):
            stack.append((e, i + 1))
            if ps[i] is not None and id(ps[i]) not in seen:
                stack.append((ps[i], 0))
        else:
            order.append(e)
    return order


def closure_arrays(e) -> list[np.ndarray]:
    """The arrays an entry's closure holds, directly, in lists and tuples or
    through the closures of the functions it calls."""
    arrays, bw = [], closure(e)
    todo = [bw] if bw is not None else []
    while todo:
        for a in (cell.cell_contents for cell in todo.pop().__closure__ or ()):
            if callable(a) and hasattr(a, "__closure__"):
                todo.append(a)
            elif type(a) in (list, tuple):  # not an AttentionPlan, which the plan's callers hold
                arrays += [x for x in a if isinstance(x, np.ndarray)]
            elif isinstance(a, np.ndarray):
                arrays.append(a)
    return arrays


def own_arrays(y: Tensor, inputs) -> list[np.ndarray]:
    """The arrays ``y``'s closure holds other than views of the op's inputs:
    what the op keeps beyond what it reads of its inputs."""
    return [a for a in closure_arrays(entry(y)) if not any(np.shares_memory(a, t.data) for t in inputs)]


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory: ``a``, or the base of a view."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def record_outputs(monkeypatch) -> list[weakref.ref]:
    """Weakrefs to the memory owner of every array an op output that records
    a node holds, appended as the ops run while ``monkeypatch`` is active."""
    refs, real = [], numerics._node

    def recording(data, parents, backward):
        out = real(data, parents, backward)
        if out._node is not None and isinstance(out.data, np.ndarray):  # 0-d products can be numpy scalars
            refs.append(weakref.ref(owner(out.data)))
        return out

    monkeypatch.setattr(numerics, "_node", recording)
    return refs

"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds one node of a define-by-run graph: the node holds the
forward value, its parent nodes, and a backward rule mapping the upstream
gradient to one gradient per parent.  The graph is rebuilt on every forward
pass, so nodes whose forward rule depends on mutable state (threshold masks)
are always recorded with their current behaviour.

``custom_grad`` creates nodes whose backward rule is supplied by the caller
and need not be the true derivative of the forward rule; this is the hook
used for straight-through gradients.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


_SEQ = itertools.count()


class Tensor:
    """One graph node: a float64 array plus the backward rule that made it.

    Leaves have no parents and no backward rule.  ``grad`` is populated by
    ``Tape.backward`` for every node reachable from the loss.
    """

    __slots__ = ("data", "op", "parents", "backward_rule", "seq", "grad", "param_id")

    def __init__(self, data, op: str = "leaf", parents: Sequence["Tensor"] = (),
                 backward_rule: Optional[Callable] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.op = op
        self.parents = tuple(parents)
        self.backward_rule = backward_rule
        self.seq = next(_SEQ)
        self.grad: Optional[np.ndarray] = None
        self.param_id: Optional[str] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _broadcast_check(sa: tuple, sb: tuple, op: str) -> tuple:
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"{op}: shapes {sa} and {sb} are not broadcastable") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum the upstream gradient back down to an operand's original shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape, "add")
    sa, sb = a.shape, b.shape

    def rule(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return Tensor(a.data + b.data, "add", (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape, "sub")
    sa, sb = a.shape, b.shape

    def rule(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return Tensor(a.data - b.data, "sub", (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape, "mul")
    ad, bd = a.data, b.data

    def rule(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return Tensor(ad * bd, "mul", (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def rule(g):
        return (g * c,)

    return Tensor(a.data * c, "scale", (a,), rule)


def sigmoid(a: Tensor) -> Tensor:
    # stable: never exponentiates a positive argument
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def rule(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, "sigmoid", (a,), rule)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def rule(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, "tanh", (a,), rule)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def rule(g):
        return (g * mask,)

    return Tensor(np.where(mask, a.data, 0.0), "relu", (a,), rule)


def absolute(a: Tensor) -> Tensor:
    # subgradient at 0 is 0 (np.sign convention)
    sgn = np.sign(a.data)

    def rule(g):
        return (g * sgn,)

    return Tensor(np.abs(a.data), "abs", (a,), rule)


# ---------------------------------------------------------------------------
# linear algebra / structural ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions {a.shape} x {b.shape} do not agree")
    ad, bd = a.data, b.data

    def rule(g):
        return g @ bd.T, ad.T @ g

    return Tensor(ad @ bd, "matmul", (a, b), rule)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected rank-2, got {a.shape}")

    def rule(g):
        return (g.T,)

    return Tensor(a.data.T, "transpose", (a,), rule)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape

    def rule(g):
        return (g.reshape(orig),)

    return Tensor(a.data.reshape(shape), "reshape", (a,), rule)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two rank-2 tensors along axis 1."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    na = a.shape[1]

    def rule(g):
        return g[:, :na], g[:, na:]

    return Tensor(np.concatenate([a.data, b.data], axis=1), "concat_cols", (a, b), rule)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def rule(g):
        return (np.full(shape, float(g)),)

    return Tensor(np.sum(a.data), "sum", (a,), rule)


# ---------------------------------------------------------------------------
# custom-backward nodes
# ---------------------------------------------------------------------------

def custom_grad(forward_value, inputs: Iterable[Tensor], backward_rule: Callable,
                op: str = "custom") -> Tensor:
    """Record a node whose backward rule replaces the automatic derivative.

    ``backward_rule(upstream)`` must return one gradient per input (``None``
    for inputs that receive no gradient); shapes are checked at backward time.
    """
    return Tensor(forward_value, op, tuple(inputs), backward_rule)


# ---------------------------------------------------------------------------
# tape: parameter registry + backward entry point
# ---------------------------------------------------------------------------

def _toposort(root: Tensor) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def first_nonfinite(root: Tensor) -> Optional[Tensor]:
    """Earliest-created node reachable from ``root`` holding NaN/Inf, if any."""
    bad = [n for n in _toposort(root) if not np.all(np.isfinite(n.data))]
    return min(bad, key=lambda n: n.seq) if bad else None


class Tape:
    """Parameter registry for one forward/backward pass.

    The graph itself lives in the tensors (each node references its parents,
    which by construction were created earlier); the tape names the leaves
    that should come back in the gradient map.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def param(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice on this tape")
        node = Tensor(value)
        node.param_id = name
        self._params[name] = node
        return node

    def leaf(self, value) -> Tensor:
        return Tensor(value)

    @property
    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def backward(self, loss: Tensor) -> dict[str, Tensor]:
        """Accumulate gradients from ``loss`` into every reachable node.

        Returns one gradient per registered parameter; parameters not
        reachable from the loss get zeros of their own shape.
        """
        if loss.shape not in ((), (1,)):
            raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
        order = _toposort(loss)
        for node in order:
            node.grad = None
        loss.grad = np.ones_like(loss.data)
        for node in reversed(order):
            if node.grad is None or node.backward_rule is None:
                continue
            grads = node.backward_rule(node.grad)
            if len(grads) != len(node.parents):
                raise ShapeError(
                    f"{node.op}: backward rule produced {len(grads)} gradients "
                    f"for {len(node.parents)} inputs")
            for parent, g in zip(node.parents, grads):
                if g is None:
                    continue
                g = np.asarray(g, dtype=np.float64)
                if g.shape != parent.data.shape:
                    raise ShapeError(
                        f"{node.op}: backward rule produced gradient of shape "
                        f"{g.shape} for input of shape {parent.data.shape}")
                parent.grad = g if parent.grad is None else parent.grad + g
        return {
            pid: Tensor(node.grad if node.grad is not None else np.zeros_like(node.data))
            for pid, node in self._params.items()
        }

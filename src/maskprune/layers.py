"""Network building blocks wired to threshold gates.

Granularity map: a ``ConvUnit`` carries one gate component per filter, a
``ResidualBlock`` one scalar gate for its whole branch, an ``LstmCell`` one
gate per (recurrence-gate, hidden-index) node.

Each block is a ``Block``: it lists its own arrays once, in ``_params``
(trainable, scaling factors included) and ``_buffers`` (batch-norm running
statistics), keyed by a suffix of the block's ``name``.  ``params()``,
``state()`` and the per-step ``bind(tape)`` that ``forward``/``step`` use are
all derived from those two tables, so the checkpoint, the optimizer and the
gradient map agree on every name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate import AXIS1, WHOLE, GateParam, apply_gate, hard_mask, straight_through_coeff
from .tensor import (ShapeError, Tensor, Tape, add, concat_cols, custom_grad,
                     logistic, matmul, relu, transpose)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate ``x`` [b,n,H,W] with filters ``w`` [m,n,k,k].

    The column matrix ``cols`` is [b, n*k*k, Ho*Wo] in NCHW order: row
    ``(c, ki, kj)`` holds the input pixels filter tap ``(c, ki, kj)`` reads at
    each output position.  It is built by one strided copy per kernel offset.
    With ``w`` as a [m, n*k*k] matrix, the output is ``w @ cols`` (already
    [b, m, Ho*Wo]), the weight gradient ``sum_b g[b] @ cols[b].T`` and the
    column gradient ``w.T @ g``: three BLAS GEMMs, none of whose operands is
    copied to transpose it.  The column gradient goes back to the input one
    [b, n, Ho, Wo] slab per kernel offset.

    Output geometry is floor, as in PyTorch: ``Ho = (H + 2*padding - k) //
    stride + 1``, and likewise ``Wo``.  When ``stride`` leaves a remainder,
    the windows never reach the last rows (or columns) of the padded input,
    and those get no gradient.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expected rank-4 operands, got {x.shape}, {w.shape}")
    b, n, H, W = x.shape
    m, n_w, k, k2 = w.shape
    if n_w != n or k != k2:
        raise ShapeError(f"conv2d: filter shape {w.shape} incompatible with input {x.shape}")
    Ho = (H + 2 * padding - k) // stride + 1
    Wo = (W + 2 * padding - k) // stride + 1
    if Ho <= 0 or Wo <= 0:
        raise ShapeError(f"conv2d: non-positive output size {Ho}x{Wo}")

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # output (i, j) reads xp[..., ki + stride*i, kj + stride*j] at offset (ki, kj)
    offsets = [(ki, kj, (..., slice(ki, ki + stride * (Ho - 1) + 1, stride),
                         slice(kj, kj + stride * (Wo - 1) + 1, stride)))
               for ki in range(k) for kj in range(k)]
    cols = np.empty((b, n, k, k, Ho, Wo), dtype=xp.dtype)
    for ki, kj, window in offsets:
        cols[:, :, ki, kj] = xp[window]
    cols = cols.reshape(b, n * k * k, Ho * Wo)
    wrow = w.data.reshape(m, n * k * k)
    out = (wrow @ cols).reshape(b, m, Ho, Wo)

    def rule(g):
        g3 = g.reshape(b, m, Ho * Wo)
        grad_w = g3[0] @ cols[0].T
        for i in range(1, b):
            grad_w += g3[i] @ cols[i].T
        gcols = (wrow.T @ g3).reshape(b, n, k, k, Ho, Wo)
        gxp = np.zeros_like(xp)
        for ki, kj, window in offsets:
            gxp[window] += gcols[:, :, ki, kj]
        return (gxp[:, :, padding:padding + H, padding:padding + W],
                grad_w.reshape(m, n, k, k))

    return custom_grad(out, (x, w), rule, op="conv2d")


@dataclass
class BnState:
    """Per-channel batch-norm statistics and hyperparameters.

    Running statistics are plain arrays mutated by train-mode forwards; the
    affine gamma/beta are trainable and travel through the tape.
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> "BnState":
        return cls(np.zeros(channels), np.ones(channels), momentum, eps)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BnState,
              mode: str = "train") -> Tensor:
    """Per-channel normalization of a [b,c,H,W] tensor.

    Train mode normalizes with batch statistics and folds them into the
    running averages; eval mode normalizes with the running statistics.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm: expected rank-4 input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: affine shape {gamma.shape} != channels ({c},)")
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm: unknown mode {mode!r}")
    axes = (0, 2, 3)
    xd = x.data
    gd = gamma.data.reshape(1, c, 1, 1)

    if mode == "train":
        mu = xd.mean(axis=axes)
        var = xd.var(axis=axes)
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat = (xd - mu.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
        state.running_mean *= 1.0 - state.momentum
        state.running_mean += state.momentum * mu
        state.running_var *= 1.0 - state.momentum
        state.running_var += state.momentum * var
        n = xd.shape[0] * xd.shape[2] * xd.shape[3]

        def rule(g):
            # mean(g*gamma) = gamma*dbeta/n and mean(g*gamma*xhat) = gamma*dgamma/n
            dgamma = np.sum(g * xhat, axis=axes)
            dbeta = np.sum(g, axis=axes)
            dx = (gd * inv.reshape(1, c, 1, 1)) * (
                g - (dbeta / n).reshape(1, c, 1, 1)
                - xhat * (dgamma / n).reshape(1, c, 1, 1))
            return dx, dgamma, dbeta
    else:
        inv = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (xd - state.running_mean.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)

        def rule(g):
            dgamma = np.sum(g * xhat, axis=axes)
            dbeta = np.sum(g, axis=axes)
            return g * gd * inv.reshape(1, c, 1, 1), dgamma, dbeta

    out = gd * xhat + beta.data.reshape(1, c, 1, 1)
    return custom_grad(out, (x, gamma, beta), rule, op="batchnorm")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map [b,p] @ [q,p]^T (+ [q])."""
    out = matmul(x, transpose(w))
    return add(out, b) if b is not None else out


def avg_pool_full(x: Tensor) -> Tensor:
    """Global average pool [b,c,H,W] -> [b,c]."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool_full: expected rank-4 input, got {x.shape}")
    b, c, H, W = x.shape
    out = x.data.mean(axis=(2, 3))

    def rule(g):
        return (np.broadcast_to(g[:, :, None, None] / (H * W), (b, c, H, W)),)

    return custom_grad(out, (x,), rule, op="avg_pool")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup [V,e][ids] with scatter-add backward."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise ValueError(f"embedding: token id out of range [0, {table.shape[0]})")
    out = table.data[ids]

    def rule(g):
        grad = np.zeros_like(table.data)
        np.add.at(grad, ids, g)
        return (grad,)

    return custom_grad(out, (table,), rule, op="embedding")


# ---------------------------------------------------------------------------
# gated blocks
# ---------------------------------------------------------------------------

class Block:
    """A named layer that lists each of its own arrays once, by name suffix.

    Subclasses define ``_params()`` (trainable, scaling factors included) and
    may define ``_buffers()`` (batch-norm running statistics), both mapping
    suffixes to arrays; an array's full name is ``pname(suffix)``.
    ``params``, ``state`` and ``bind`` all read those tables.
    """

    name: str

    def _buffers(self) -> dict[str, np.ndarray]:
        return {}

    def pname(self, suffix: str) -> str:
        return f"{self.name}.{suffix}"

    def params(self) -> dict[str, np.ndarray]:
        return {self.pname(k): v for k, v in self._params().items()}

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable buffers that must survive a checkpoint."""
        return {self.pname(k): v for k, v in self._buffers().items()}

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        """Register this block's own parameters on ``tape``; nodes by suffix."""
        return {k: tape.param(self.pname(k), v) for k, v in self._params().items()}


@dataclass
class ConvUnit(Block):
    """Conv -> batch norm -> ReLU -> (filter gate).

    The k x k conv pads ``k // 2`` on each side, so for odd k it keeps the
    input size at stride 1.  The gate sits after batch norm, where a
    per-channel scale is not normalized away, and after the nonlinearity.
    A masked filter's output is still exactly zero, but its alpha keeps a
    task-loss gradient (the upstream gradient times the ReLU output); a gate
    before the ReLU would see relu's zero derivative at that exact zero, and
    a pruned filter could not come back.
    """

    weights: np.ndarray                # [m, n, k, k]
    bn_gamma: np.ndarray               # [m]
    bn_beta: np.ndarray                # [m]
    bn: BnState
    gate: GateParam | None = None
    stride: int = 1
    relu: bool = True
    name: str = "conv"

    def __post_init__(self):
        m = self.weights.shape[0]
        if self.gate is not None and self.gate.dim != m:
            raise ShapeError(f"{self.name}: gate dimension {self.gate.dim} != {m} filters")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    def _params(self):
        out = {"w": self.weights, "bn.gamma": self.bn_gamma, "bn.beta": self.bn_beta}
        if self.gate is not None:
            out["gate.alpha"] = self.gate.alpha
        return out

    def _buffers(self):
        return {"bn.running_mean": self.bn.running_mean,
                "bn.running_var": self.bn.running_var}

    def forward(self, tape: Tape, x: Tensor, mode: str = "train") -> Tensor:
        p = self.bind(tape)
        y = batchnorm(conv2d(x, p["w"], self.stride, self.weights.shape[2] // 2),
                      p["bn.gamma"], p["bn.beta"], self.bn, mode)
        if self.relu:
            y = relu(y)
        if self.gate is not None:
            y = apply_gate(y, self.gate, AXIS1, alpha=p["gate.alpha"])
        return y


@dataclass
class ResidualBlock(Block):
    """Two 3x3 conv units with a skip path and an optional branch gate.

    When the branch gate is masked the output equals the skip path exactly,
    so the whole branch can be dropped at inference.  Downsampling blocks put
    ``down``, an ungated 1x1 ``ConvUnit`` without ReLU named ``<block>.down``,
    on the skip path (projection shortcut, He et al., arXiv:1512.03385).
    """

    unit1: ConvUnit
    unit2: ConvUnit                     # constructed with relu=False
    gate: GateParam | None = None       # d = 1, subnetwork granularity
    down: ConvUnit | None = None        # 1x1 projection, at unit1's stride
    name: str = "block"

    def params(self):
        down = {} if self.down is None else self.down.params()
        return self.unit1.params() | self.unit2.params() | super().params() | down

    def state(self):
        down = {} if self.down is None else self.down.state()
        return self.unit1.state() | self.unit2.state() | down

    def _params(self):
        return {} if self.gate is None else {"gate.alpha": self.gate.alpha}

    def forward(self, tape: Tape, x: Tensor, mode: str = "train") -> Tensor:
        p = self.bind(tape)
        branch = self.unit2.forward(tape, self.unit1.forward(tape, x, mode), mode)
        skip = x if self.down is None else self.down.forward(tape, x, mode)
        if self.gate is not None:
            branch = apply_gate(branch, self.gate, WHOLE, alpha=p["gate.alpha"])
        return add(branch, skip)


LSTM_GATES = ("f", "i", "g", "o")
# column order of the packed [*, 4h] gate block: the sigmoid gates, then g
_PACKED = ("f", "i", "o", "g")


def _pack(parts: list[Tensor]) -> Tensor:
    """Stack same-shape arrays along axis 0; the backward splits the rows."""
    n = parts[0].shape[0]

    def rule(g):
        return tuple(g[j * n:(j + 1) * n] for j in range(len(parts)))

    return custom_grad(np.concatenate([p.data for p in parts]), parts, rule, op="pack")


def _lstm_gates(pre: Tensor, alpha: Tensor | None, mask: np.ndarray | None,
                coeff: np.ndarray | None) -> Tensor:
    """Activations of the packed [b, 4h] pre-activation block, in one node.

    Columns follow ``_PACKED``: sigmoid on the first 3h, tanh on the last h.
    Gated (``alpha`` given), each column is scaled by its alpha before the
    nonlinearity and multiplied by its hard ``mask`` after it.  The backward
    is exact in ``pre`` and, for alpha, the derivative of the scale plus the
    straight-through mask term ``coeff * sum_b(upstream * activation)``.
    """
    s = pre.shape[1] * 3 // 4
    x = pre.data
    u = x if alpha is None else x * alpha.data
    act = np.empty_like(u)
    act[:, :s] = logistic(u[:, :s])
    act[:, s:] = np.tanh(u[:, s:])

    def rule(g):
        gm = g if mask is None else g * mask
        du = np.empty_like(gm)
        sg, tg = act[:, :s], act[:, s:]
        du[:, :s] = gm[:, :s] * sg * (1.0 - sg)
        du[:, s:] = gm[:, s:] * (1.0 - tg * tg)
        if alpha is None:
            return (du,)
        return du * alpha.data, np.sum(du * x, axis=0) + coeff * np.sum(g * act, axis=0)

    if alpha is None:
        return custom_grad(act, (pre,), rule, op="lstm_gates")
    return custom_grad(act * mask, (pre, alpha), rule, op="lstm_gates")


def _cell_state(acts: Tensor, c_prev: Tensor) -> Tensor:
    """c_t = f * c_{t-1} + i * g from the packed activations."""
    a, cp = acts.data, c_prev.data
    h = cp.shape[1]
    f, i, g_act = a[:, :h], a[:, h:2 * h], a[:, 3 * h:]

    def rule(g):
        ga = np.zeros_like(a)
        ga[:, :h] = g * cp
        ga[:, h:2 * h] = g * g_act
        ga[:, 3 * h:] = g * i
        return ga, g * f

    return custom_grad(f * cp + i * g_act, (acts, c_prev), rule, op="lstm_c")


def _hidden_state(acts: Tensor, c_t: Tensor) -> Tensor:
    """h_t = o * tanh(c_t) from the packed activations."""
    a = acts.data
    h = c_t.shape[1]
    o = a[:, 2 * h:3 * h]
    tc = np.tanh(c_t.data)

    def rule(g):
        ga = np.zeros_like(a)
        ga[:, 2 * h:3 * h] = g * tc
        return ga, g * o * (1.0 - tc * tc)

    return custom_grad(o * tc, (acts, c_t), rule, op="lstm_h")


@dataclass
class LstmCell(Block):
    """LSTM cell with optional per-node gates on f/i/g/o.

    Gated form scales each pre-activation by its alpha and multiplies the
    post-activation by the hard mask:

        f_t = I(a_f) * sigma(a_f * (W_f [h_{t-1}, x_t] + b_f))

    and likewise for i, g (tanh) and o; then c_t = f_t*c_{t-1} + i_t*g_t and
    h_t = o_t * tanh(c_t).  A masked node index is exactly zero in that
    recurrence gate for every batch element.

    The four gates run as one block.  ``bind`` registers ``W_k``, ``b_k`` and
    ``gate_k.alpha`` under their own names and packs them once per forward,
    in ``_PACKED`` order: ``W`` is [h+e, 4h] (the ``W_k`` transposed side by
    side), ``b`` and ``alpha`` are [4h], and ``mask`` and ``coeff`` hold the
    hard masks and the straight-through coefficients (``m~'``) of the four
    gates; the packing nodes split their gradients back to the named leaves.
    Each ``step`` then builds six nodes: ``concat_cols(h_{t-1}, x_t)``, one
    GEMM with ``W``, the bias add, one gate node (scale, nonlinearity, mask),
    and one node each for c_t and h_t.  Sigmoid is computed as
    ``0.5 * tanh(0.5 * x) + 0.5`` (``tensor.logistic``).
    """

    weights: dict[str, np.ndarray]          # {"f": [h, h+e], ...}
    biases: dict[str, np.ndarray]           # {"f": [h], ...}
    gates: dict[str, GateParam] | None = None
    name: str = "lstm"

    def __post_init__(self):
        shapes = {k: self.weights[k].shape for k in LSTM_GATES}
        if len(set(shapes.values())) != 1:
            raise ShapeError(f"{self.name}: weight matrices differ in shape: {shapes}")
        h = self.hidden_dim
        for k in LSTM_GATES:
            if self.biases[k].shape != (h,):
                raise ShapeError(f"{self.name}: bias {k} shape {self.biases[k].shape}")
            if self.gates is not None and self.gates[k].dim != h:
                raise ShapeError(f"{self.name}: gate {k} dim {self.gates[k].dim} != {h}")

    @property
    def hidden_dim(self) -> int:
        return self.weights["f"].shape[0]

    def _params(self):
        out = {}
        for k in LSTM_GATES:
            out[f"W_{k}"] = self.weights[k]
            out[f"b_{k}"] = self.biases[k]
            if self.gates is not None:
                out[f"gate_{k}.alpha"] = self.gates[k].alpha
        return out

    def bind(self, tape: Tape) -> dict[str, Tensor | np.ndarray]:
        """The named parameter nodes plus the packed ``W``, ``b`` (and, gated,
        ``alpha``, ``mask`` and ``coeff``) that ``step`` reads."""
        nodes = super().bind(tape)
        nodes["W"] = transpose(_pack([nodes[f"W_{k}"] for k in _PACKED]))
        nodes["b"] = _pack([nodes[f"b_{k}"] for k in _PACKED])
        if self.gates is not None:
            alphas = [nodes[f"gate_{k}.alpha"] for k in _PACKED]
            gates = [self.gates[k] for k in _PACKED]
            nodes["alpha"] = _pack(alphas)
            nodes["mask"] = np.concatenate(
                [hard_mask(a.data, g.threshold) for a, g in zip(alphas, gates)])
            nodes["coeff"] = np.concatenate(
                [straight_through_coeff(a.data, g, scaled=False)
                 for a, g in zip(alphas, gates)])
        return nodes

    def step(self, nodes: dict[str, Tensor | np.ndarray], x_t: Tensor, h_prev: Tensor,
             c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """One timestep; ``nodes`` is what ``bind`` returned for this tape."""
        pre = add(matmul(concat_cols(h_prev, x_t), nodes["W"]), nodes["b"])
        acts = _lstm_gates(pre, nodes.get("alpha"), nodes.get("mask"), nodes.get("coeff"))
        c_t = _cell_state(acts, c_prev)
        return _hidden_state(acts, c_t), c_t

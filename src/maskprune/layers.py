"""Network building blocks wired to threshold gates.

Models are trees of ``Block``s, and each kind of prunable entity belongs to
one block type: a ``Linear`` carries one gate component per weight, a
``ConvUnit`` one per filter, a ``ResidualBlock`` one scalar gate for its
whole branch, an ``LstmCell`` one per (recurrence-gate, hidden-index) node.

A block lists its own arrays once, keyed by a suffix of its ``name``, and
its child blocks, in ``_parts()``.  Next to them it declares each gate it
owns (``_decls``: a ``pruning.GateDecl`` with its reporting group, dense
MACs, entity ids and owned and dependent slices) and the FLOPs its arrays
stand for (``_costs``).  ``params()``, ``state()``, the per-step
``bind(tape)`` that ``forward``/``step`` use, ``gate_decls()`` and
``flop_costs()`` walk those, so the checkpoint, the optimizer, the gradient
map and the prune accounting agree on every name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate import (AXIS0, AXIS1, ELEMENTWISE, WHOLE, GateParam, apply_gate, hard_mask,
                   straight_through_coeff)
from .pruning import GateDecl, conv_macs
from .tensor import (ShapeError, Tensor, Tape, add, concat_cols, custom_grad,
                     logistic, matmul, relu, transpose)

# FLOPs per output element, beside 2 per multiply-accumulate
BN_FLOPS_PER_ELEM = 2
RELU_FLOPS_PER_ELEM = 1
ADD_FLOPS_PER_ELEM = 1


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0, *,
           live_in: np.ndarray | None = None,
           live_out: np.ndarray | None = None) -> Tensor:
    """Cross-correlate ``x`` [b,n,H,W] with filters ``w`` [m,n,k,k].

    The column matrix ``cols`` is [b, n*k*k, Ho*Wo] in NCHW order: row
    ``(c, ki, kj)`` holds the input pixels filter tap ``(c, ki, kj)`` reads at
    each output position.  It is built by one strided copy per kernel offset
    from a zero-padded copy of ``x``.  With ``w`` as a [m, n*k*k] matrix, the
    output is ``w @ cols`` (already [b, m, Ho*Wo]), the weight gradient
    ``sum_b g[b] @ cols[b].T`` and the column gradient ``w.T @ g``: three
    BLAS GEMMs, none of whose operands is copied to transpose it.  The column
    gradient goes back to the input one [b, n, Ho, Wo] slab per kernel offset.

    ``live_in`` and ``live_out`` (sorted channel indices, from the gate
    masks) skip every product that is exactly zero.  ``x`` must be zero on
    the input channels outside ``live_in``, so only the live ones are read.
    Outside ``live_out`` the upstream gradient must be zero.  Every filter is
    still computed forward (a masked filter's output feeds its alpha's
    gradient and its batch-norm statistics).  The weight gradient covers live
    outputs x live inputs and is 0 elsewhere; the input gradient covers live
    outputs x every input channel, since a masked input channel's alpha still
    needs its gradient.  With neither given, or with every channel live, this
    is the dense conv.

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
    if live_in is not None and len(live_in) == n:
        live_in = None
    if live_out is not None and len(live_out) == m:
        live_out = None

    xd = x.data if live_in is None else x.data[:, live_in]
    n_live = xd.shape[1]
    xp = xd
    if padding:
        # one buffer, the (live) input written into its interior
        xp = np.zeros((b, n_live, H + 2 * padding, W + 2 * padding))
        xp[:, :, padding:padding + H, padding:padding + W] = xd
    # output (i, j) reads xp[..., ki + stride*i, kj + stride*j] at offset (ki, kj)
    offsets = [(ki, kj, (..., slice(ki, ki + stride * (Ho - 1) + 1, stride),
                         slice(kj, kj + stride * (Wo - 1) + 1, stride)))
               for ki in range(k) for kj in range(k)]
    wrow = w.data.reshape(m, n * k * k)
    w_in = wrow if live_in is None else w.data[:, live_in].reshape(m, n_live * k * k)
    cols = np.empty((b, n_live, k, k, Ho, Wo))
    for ki, kj, window in offsets:
        cols[:, :, ki, kj] = xp[window]
    cols = cols.reshape(b, n_live * k * k, Ho * Wo)
    out = (w_in @ cols).reshape(b, m, Ho, Wo)

    def rule(g):
        g3 = g.reshape(b, m, Ho * Wo)
        w_out = wrow
        if live_out is not None:
            g3, w_out = g3[:, live_out], wrow[live_out]
        grad_w = g3[0] @ cols[0].T
        for i in range(1, b):
            grad_w += g3[i] @ cols[i].T
        if live_in is not None or live_out is not None:
            rows = np.arange(m) if live_out is None else live_out
            chans = np.arange(n) if live_in is None else live_in
            full = np.zeros((m, n, k * k))
            full[np.ix_(rows, chans)] = grad_w.reshape(len(rows), len(chans), k * k)
            grad_w = full
        gcols = (w_out.T @ g3).reshape(b, n, k, k, Ho, Wo)
        gxp = np.zeros((b, n, H + 2 * padding, W + 2 * padding))
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
    """A named layer that states each of its arrays, gates and FLOPs once.

    Subclasses define ``_parts()``: own ``{suffix: array}`` tables (trainable,
    scaling factors included; full name ``pname(suffix)``) and child blocks,
    in ``params()`` order.  They may define ``_buffers()`` (batch-norm running
    statistics), ``_decls()`` (a ``GateDecl`` per gate they own) and
    ``_costs()`` (FLOPs per live entry by full array name, and fixed FLOPs).
    """

    name: str

    def _buffers(self) -> dict[str, np.ndarray]:
        return {}

    def _decls(self) -> list[GateDecl]:
        return []

    def _costs(self) -> tuple[dict[str, int], int]:
        return {}, 0

    def pname(self, suffix: str) -> str:
        return f"{self.name}.{suffix}" if self.name else suffix

    def walk(self):
        """This block, then every block under it, depth first."""
        yield self
        for part in self._parts():
            if isinstance(part, Block):
                yield from part.walk()

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for part in self._parts():
            out.update(part.params() if isinstance(part, Block)
                       else {self.pname(k): v for k, v in part.items()})
        return out

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable buffers that must survive a checkpoint."""
        return {b.pname(k): v for b in self.walk() for k, v in b._buffers().items()}

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        """Register this block's own arrays on ``tape`` (child blocks bind
        theirs in their own forward); nodes by suffix."""
        return {k: tape.param(self.pname(k), v) for part in self._parts()
                if not isinstance(part, Block) for k, v in part.items()}

    def gate_decls(self) -> list[GateDecl]:
        return [d for b in self.walk() for d in b._decls()]

    def flop_costs(self) -> tuple[dict[str, int], int]:
        """FLOPs per live entry of each costed weight, and the fixed FLOPs."""
        own = [b._costs() for b in self.walk()]
        return {k: v for costs, _ in own for k, v in costs.items()}, sum(f for _, f in own)


def _alpha(gate: GateParam | None) -> dict[str, np.ndarray]:
    """The own-table entry of a block's optional gate."""
    return {} if gate is None else {"gate.alpha": gate.alpha}


@dataclass
class Linear(Block):
    """Affine map ``x @ w.T + b``, then ReLU if ``relu``.

    An optional weight-granularity gate scales every entry of ``w``
    (``ELEMENTWISE``); component ``i`` is entry ``i`` in C order.
    """

    w: np.ndarray                      # [q, p]
    b: np.ndarray                      # [q]
    gate: GateParam | None = None
    relu: bool = False
    name: str = "head"

    def _parts(self):
        return [{"w": self.w, "b": self.b, **_alpha(self.gate)}]

    def _decls(self):
        if self.gate is None:
            return []
        p = self.w.shape[1]
        return [GateDecl(self.gate, self.name, 1,
                         lambda i: f"{self.name}.w[{i // p},{i % p}]",
                         decayed=((self.pname("w"), ELEMENTWISE),))]

    def _costs(self):
        # a multiply-accumulate per weight; the bias add and the ReLU per output
        return {self.pname("w"): 2,
                self.pname("b"): 1 + RELU_FLOPS_PER_ELEM * self.relu}, 0

    def forward(self, tape: Tape, x: Tensor) -> Tensor:
        p = self.bind(tape)
        w = p["w"] if self.gate is None else apply_gate(p["w"], self.gate, ELEMENTWISE,
                                                        alpha=p["gate.alpha"])
        y = linear(x, w, p["b"])
        return relu(y) if self.relu else y


def _conv_slices(units, mode: str) -> dict[str, tuple]:
    """Slices of conv units under one gate: weights decay, bn affine does not."""
    return dict(decayed=tuple((u.pname("w"), mode) for u in units),
                owned=tuple((u.pname(p), mode) for u in units
                            for p in ("bn.gamma", "bn.beta")))


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

    The conv reads only ``live_in``, the ``live_filters()`` of the unit
    whose ``reader`` this unit is.  In training a masked filter is still
    computed forward, for its alpha's gradient and its batch-norm running
    statistics, but gets no conv backward (its gate's live filters are the
    conv's ``live_out``).  In eval, with a filter masked, the unit runs its
    live filters alone: their conv rows, batch norm, ReLU and alphas, placed
    in zeros of every channel as a new leaf, since eval takes no gradient.
    """

    weights: np.ndarray                # [m, n, k, k]
    bn_gamma: np.ndarray               # [m]
    bn_beta: np.ndarray                # [m]
    bn: BnState
    gate: GateParam | None = None
    stride: int = 1
    relu: bool = True
    name: str = "conv"
    out_hw: tuple[int, int] | None = None  # output size, set by the model
    reader: Block | None = None   # the block whose ``w`` reads the outputs (axis 1)

    def __post_init__(self):
        m = self.weights.shape[0]
        if self.gate is not None and self.gate.dim != m:
            raise ShapeError(f"{self.name}: gate dimension {self.gate.dim} != {m} filters")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    def _parts(self):
        return [{"w": self.weights, "bn.gamma": self.bn_gamma, "bn.beta": self.bn_beta,
                 **_alpha(self.gate)}]

    def _buffers(self):
        return {"bn.running_mean": self.bn.running_mean,
                "bn.running_var": self.bn.running_var}

    def _decls(self):
        if self.gate is None:
            return []
        n, k = self.weights.shape[1:3]
        deps = () if self.reader is None else ((self.reader.pname("w"), AXIS1),)
        return [GateDecl(self.gate, self.name, conv_macs(1, n, k, *self.out_hw),
                         lambda i: f"{self.name}[{i}]", deps=deps,
                         **_conv_slices((self,), AXIS0))]

    def _costs(self):
        # conv (2 FLOPs per MAC) per live weight; batch norm and ReLU per live
        # output channel
        area = self.out_hw[0] * self.out_hw[1]
        return {self.pname("w"): 2 * area,
                self.pname("bn.gamma"): area * (BN_FLOPS_PER_ELEM
                                                + RELU_FLOPS_PER_ELEM * self.relu)}, 0

    def live_filters(self) -> np.ndarray | None:
        """Indices of the filters the gate leaves live; None when ungated or
        none is masked."""
        if self.gate is None:
            return None
        mask = self.gate.mask()
        return None if mask.all() else np.flatnonzero(mask)

    def forward(self, tape: Tape, x: Tensor, mode: str = "train", *,
                live_in: np.ndarray | None = None) -> Tensor:
        live = self.live_filters()
        pad = self.weights.shape[2] // 2
        if mode == "eval" and live is not None:
            bn = BnState(self.bn.running_mean[live], self.bn.running_var[live],
                         self.bn.momentum, self.bn.eps)
            y = conv2d(x, Tensor(self.weights[live]), self.stride, pad, live_in=live_in)
            y = batchnorm(y, Tensor(self.bn_gamma[live]), Tensor(self.bn_beta[live]), bn,
                          mode)
            if self.relu:
                y = relu(y)
            out = np.zeros((y.shape[0], self.out_channels, *y.shape[2:]))
            out[:, live] = y.data * self.gate.alpha[live].reshape(1, -1, 1, 1)
            return tape.leaf(out)
        p = self.bind(tape)
        y = conv2d(x, p["w"], self.stride, pad, live_in=live_in, live_out=live)
        y = batchnorm(y, p["bn.gamma"], p["bn.beta"], self.bn, mode)
        if self.relu:
            y = relu(y)
        if self.gate is not None:
            y = apply_gate(y, self.gate, AXIS1, alpha=p["gate.alpha"])
        return y


@dataclass
class ResidualBlock(Block):
    """Two 3x3 conv units with a skip path and an optional branch gate.

    When the branch gate is masked the output equals the skip path exactly.
    Then eval skips the branch's forward, and training runs it (its alpha's
    gradient reads the branch output, and its batch norms update their
    running statistics) but not its backward: the gate passes the branch no
    gradient.  ``unit1`` reads ``live_in``, the live channels of ``x``; the
    skip path reads every channel.  Downsampling blocks put
    ``down``, an ungated 1x1 ``ConvUnit`` without ReLU named ``<block>.down``,
    on the skip path (projection shortcut, He et al., arXiv:1512.03385).
    ``unit1``'s reader is ``unit2``; ``unit2`` feeds the residual sum and has
    none.  A branch gate reports under its stage, the name's first part.
    """

    unit1: ConvUnit
    unit2: ConvUnit                     # constructed with relu=False
    gate: GateParam | None = None       # d = 1, subnetwork granularity
    down: ConvUnit | None = None        # 1x1 projection, at unit1's stride
    name: str = "block"

    def __post_init__(self):
        self.unit1.reader = self.unit2

    def _parts(self):
        down = [] if self.down is None else [self.down]
        return [self.unit1, self.unit2, _alpha(self.gate), *down]

    def _decls(self):
        if self.gate is None:
            return []
        units = (self.unit1, self.unit2)
        macs = sum(conv_macs(*u.weights.shape[:3], *u.out_hw) for u in units)
        return [GateDecl(self.gate, self.name.split(".")[0], macs, lambda i: self.name,
                         **_conv_slices(units, WHOLE))]

    def _costs(self):
        # the residual add; a masked branch gate drops it with unit2's bn.beta
        hw = self.unit2.out_hw
        add = hw[0] * hw[1] * ADD_FLOPS_PER_ELEM
        if self.gate is None:
            return {}, self.unit2.out_channels * add
        return {self.unit2.pname("bn.beta"): add}, 0

    def forward(self, tape: Tape, x: Tensor, mode: str = "train", *,
                live_in: np.ndarray | None = None) -> Tensor:
        p = self.bind(tape)
        skip = x if self.down is None else self.down.forward(tape, x, mode)
        if mode == "eval" and self.gate is not None and not self.gate.mask()[0]:
            return skip
        h = self.unit1.forward(tape, x, mode, live_in=live_in)
        branch = self.unit2.forward(tape, h, mode, live_in=self.unit1.live_filters())
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

    def _parts(self):
        table = {}
        for k in LSTM_GATES:
            table[f"W_{k}"] = self.weights[k]
            table[f"b_{k}"] = self.biases[k]
            if self.gates is not None:
                table[f"gate_{k}.alpha"] = self.gates[k].alpha
        return [table]

    def _decls(self):
        if self.gates is None:
            return []
        return [GateDecl(self.gates[k], f"{self.name}.{k}", self.weights[k].shape[1],
                         lambda i, group=f"{self.name}.{k}": f"{group}[{i}]",
                         decayed=((self.pname(f"W_{k}"), AXIS0),
                                  (self.pname(f"b_{k}"), AXIS0)))
                for k in LSTM_GATES]

    def _costs(self):
        # per timestep (the constant sequence length cancels in ratios): 2 per
        # matmul weight, the bias add plus the activation per node, and the
        # c and h updates
        return ({self.pname(f"{p}_{k}"): 2 for k in LSTM_GATES for p in ("W", "b")},
                4 * self.hidden_dim)

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

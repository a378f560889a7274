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

A block binds its own arrays inside ``forward`` (``LstmCell``: ``step``), so
a profiler that wraps those methods charges the block every node it makes.
Right after binding, a gated block evaluates each gate it owns once on the
tape (``gate.evaluation``) and hands the ops that record.
The conv epilogue (``batchnorm``) and the LSTM layer (``_lstm_sequence``)
each run as one node.  Eval takes no gradient, so there the epilogue's output
and a residual block's sum are leaves, and an eval graph holds no activation
past the block that reads it.

Conv activations and their gradients are [b, c, H, W] views over
batch-innermost ``[c, H, W, b]`` memory.  ``conv2d`` returns its output and
input gradient that way, the conv epilogue reads and returns its rows in it,
and ``avg_pool_full`` returns its gradient in it.  With the batch innermost,
each kernel-offset copy of a stride-1 conv's lowering moves runs of
``Wo * b`` contiguous floats (``Wo`` the output width), not runs of ``Wo``.
For its backward a conv keeps its zero-padded input, not the column matrix
lowered from it, and forms its input gradient as a convolution of the
upstream gradient, one lowering per stride phase.  Each lowering runs in
bands of whole output rows (``_lower_bands``), one GEMM per band, so no
column matrix holds more than ``LOWER_BAND_BYTES``, whatever the batch.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .gate import (AXIS0, AXIS1, ELEMENTWISE, WHOLE, GateEval, GateParam, apply_gate,
                   evaluation)
from .pruning import GateDecl, conv_macs
from .tensor import (ShapeError, Tensor, Tape, add, custom_grad, is_data, matmul, relu,
                     transpose)

# batch norm's running-average momentum and variance epsilon
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# FLOPs per output element, beside 2 per multiply-accumulate
BN_FLOPS_PER_ELEM = 2
RELU_FLOPS_PER_ELEM = 1
ADD_FLOPS_PER_ELEM = 1
# the most bytes of column matrix ``conv2d`` lowers at a time.  Smaller bands
# run smaller GEMMs: on two Xeon cores, the ResNet-20 benchmark config's
# training step (batch 16) took 44.6 ms at 1 MiB and 39.6 ms at 4 MiB, where
# only its stage-1 convs split, into two bands; its 64-image evaluation peaks
# at 16 MiB at either budget, and at 30 MiB unbanded
LOWER_BAND_BYTES = 4 * 2 ** 20


def _live_rows(a: np.ndarray) -> np.ndarray | None:
    """Indices along axis 0 of the rows of ``a`` that hold a nonzero (NaN
    counts), or None when every row does."""
    live = (a != 0).any(axis=tuple(range(1, a.ndim)))
    return None if live.all() else np.flatnonzero(live)


def _lower_bands(src: np.ndarray, starts, step: int, out_hw: tuple[int, int]):
    """The column matrix of batch-innermost ``src`` [c, Hs, Ws, b], in bands
    of whole output rows.  Row ``(ch, t)`` of the [c * len(starts), Ho*Wo*b]
    matrix holds, at output position ``(i, j)`` of every sample,
    ``src[ch, r + step*i, s + step*j]`` with ``(r, s) = starts[t]``.

    Yields ``(band, cols)`` per band: ``band`` the slice of the matrix's
    columns the band covers, ``cols`` those columns, as many output rows as
    fit in ``LOWER_BAND_BYTES`` (at least one).  One strided copy per start
    and band, into one buffer that every band reuses: a band's ``cols`` is
    valid until the next is asked for."""
    c, b = src.shape[0], src.shape[-1]
    Ho, Wo = out_hw
    height = c * len(starts)
    row_bytes = height * Wo * b * src.itemsize
    # a conv with no live channel lowers to no rows: one empty band
    rows = max(1, LOWER_BAND_BYTES // row_bytes) if row_bytes else Ho
    buf = np.empty(height * min(rows, Ho) * Wo * b)
    for i0 in range(0, Ho, rows):
        n = min(rows, Ho - i0)
        cols = buf[:height * n * Wo * b].reshape(c, len(starts), n, Wo, b)
        for t, (r, s) in enumerate(starts):
            r1 = r + step * i0
            cols[:, t] = src[:, r1:r1 + step * (n - 1) + 1:step,
                             s:s + step * (Wo - 1) + 1:step]
        yield slice(i0 * Wo * b, (i0 + n) * Wo * b), cols.reshape(height, n * Wo * b)


def _phases(size: int, out: int, k: int, stride: int, padding: int):
    """A conv's input rows (or columns) split by stride phase, for its input
    gradient: ``(phases, lo, hi)``.  Phase ``(r0, count, t0, firsts)`` holds
    rows ``r0, r0 + stride, ...`` (``count`` of them), which meet the kernel
    taps ``t0, t0 + stride, ...`` (``r0 + padding - t0`` is a multiple of
    ``stride``); the phase's first row meets tap ``t0 + stride*q`` at output
    row ``firsts[q]``, and each next row at the output row after.  A phase
    without taps gets no gradient and is left out.  ``lo`` and ``hi`` are
    the zero rows the upstream gradient needs before and after its ``out``
    rows for every read to fall inside."""
    phases = []
    for r0 in range(min(stride, size)):
        taps = range((r0 + padding) % stride, k, stride)
        if len(taps):
            phases.append((r0, len(range(r0, size, stride)), taps.start,
                           [(r0 + padding - t) // stride for t in taps]))
    reads = [f + d for _, count, _, firsts in phases for f in firsts for d in (0, count - 1)]
    return phases, max(0, -min(reads, default=0)), max(0, max(reads, default=0) - out + 1)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate ``x`` [b,n,H,W] with filters ``w`` [m,n,k,k].

    The convolution is lowered to a column matrix, batch-innermost:
    ``cols`` is [n*k*k, Ho*Wo*b], and row ``(c, ki, kj)`` holds the input
    pixels filter tap ``(c, ki, kj)`` reads at every output position of
    every sample.  It is built by one strided copy per kernel offset from
    ``xp``, a [n, H+2p, W+2p, b] zero-padded, batch-innermost copy of ``x``.
    At stride 1 each copy moves runs of ``Wo * b`` contiguous floats, at
    stride 2 runs of ``b``; with the batch outside the pixels they would be
    runs of ``Wo`` (on how much the layout of a lowered convolution matters,
    see Chetlur et al., arXiv:1410.0759).  With ``w`` as a [m, n*k*k]
    matrix, the forward is the BLAS GEMM ``w @ cols``, and the weight
    gradient ``g @ cols.T`` (``g`` the upstream gradient as [m, Ho*Wo*b]).

    ``_lower_bands`` builds ``cols`` in bands of whole output rows, each at
    most ``LOWER_BAND_BYTES`` (at least one row), as Chetlur et al. lower in
    tiles.  Each band's forward GEMM writes its
    columns of the output, and the weight gradient sums ``g[:, band] @
    cols_band.T`` over the bands.  So a conv's memory grows with the batch
    only by its input, output and gradients, not by ``k * k`` times its
    input; a column matrix that fits the budget is one band, and the GEMM
    runs whole.

    The node keeps ``xp``, not ``cols``: the backward lowers ``xp`` again
    for the weight gradient, trading one more copy for memory (Chen et al.,
    arXiv:1604.06174).  The input gradient is itself a convolution, of the
    upstream gradient with the transposed filters (Dumoulin & Visin,
    arXiv:1603.07285).  The input rows and columns split into stride phases
    (``_phases``); each phase meets its own subset of kernel taps at stride
    1, so the backward lowers the zero-padded upstream gradient once per
    phase, in bands too, and each band's GEMM writes its columns of the
    phase's rows of the input gradient.  At stride 1 there is one phase
    holding the whole kernel, and its GEMM output is the input gradient.

    The output and the input gradient are [b, m, Ho, Wo] and [b, n, H, W]
    views over C-contiguous [m, Ho, Wo, b] and [n, H, W, b] memory.  A conv
    unit's epilogue node (``batchnorm``: batch norm, ReLU and the filter
    gate) reads the output as contiguous [c, H*W*b] rows and returns its own
    output and input gradient in that layout, as ``avg_pool_full`` returns
    its gradient; numpy's elementwise ops, such as the residual add, keep
    the order.  So the upstream gradient that comes back to this conv's
    backward is already batch-innermost, and the input gradient this conv
    returns reaches the epilogue before it without a copy.  Any other layout
    is correct too, copied once by the reshape that reads it.

    The conv skips every product that is exactly zero, finding the live
    channels in its operands: the forward reads only the input channels of
    ``x`` that hold a nonzero (a masked filter's output is zero), and the
    backward uses only the rows of the upstream gradient that hold one (a
    masked filter gets none).  A NaN counts as nonzero, so it still reaches
    the loss and gradient checks.  Every filter is still computed forward (a
    masked filter's output feeds its alpha's gradient and its batch-norm
    statistics).  The weight gradient covers live outputs x live inputs and
    is 0 elsewhere; the input gradient covers live outputs x every input
    channel, since a masked input channel's alpha still needs its gradient.
    With every channel live this is the dense conv.  An ``x`` that is data
    (``tensor.is_data``), such as the input batch of a stem conv, gets no
    input gradient.

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

    # the live input channels, batch-innermost [n_live, H, W, b]
    xc = x.data.transpose(1, 2, 3, 0)
    chans = _live_rows(xc)
    if chans is not None:
        xc = xc[chans]
    n_live = xc.shape[0]
    xp = xc
    if padding:
        # one buffer, the (live) input written into its interior
        xp = np.zeros((n_live, H + 2 * padding, W + 2 * padding, b))
        xp[:, padding:padding + H, padding:padding + W] = xc
    # output (i, j) reads xp[:, ki + stride*i, kj + stride*j] at offset (ki, kj)
    offsets = [(ki, kj) for ki in range(k) for kj in range(k)]
    w_in = (w.data if chans is None else w.data[:, chans]).reshape(m, n_live * k * k)
    out = np.empty((m, Ho * Wo * b))
    for band, cols in _lower_bands(xp, offsets, stride, (Ho, Wo)):
        np.matmul(w_in, cols, out=out[:, band])
    out = out.reshape(m, Ho, Wo, b).transpose(3, 0, 1, 2)
    skip_x = is_data(x)

    def rule(g):
        gc, w_out = g.transpose(1, 2, 3, 0), w.data
        rows = _live_rows(gc)
        if rows is not None:
            gc, w_out = gc[rows], w_out[rows]
        m_live = len(w_out)
        g2 = gc.reshape(m_live, Ho * Wo * b)
        bands = _lower_bands(xp, offsets, stride, (Ho, Wo))
        parts = (g2[:, band] @ cols.T for band, cols in bands)
        grad_w = functools.reduce(operator.iadd, parts)     # summed into the first, in place
        if chans is not None or rows is not None:
            r = np.arange(m) if rows is None else rows
            c = np.arange(n) if chans is None else chans
            full = np.zeros((m, n, k * k))
            full[np.ix_(r, c)] = grad_w.reshape(len(r), len(c), k * k)
            grad_w = full
        grad_w = grad_w.reshape(m, n, k, k)
        if skip_x:
            return None, grad_w
        # per stride phase, a stride-1 lowering of the padded gradient, and a GEMM
        # per band
        row_phases, rlo, rhi = _phases(H, Ho, k, stride, padding)
        col_phases, clo, chi = _phases(W, Wo, k, stride, padding)
        gp = np.zeros((m_live, rlo + Ho + rhi, clo + Wo + chi, b))
        gp[:, rlo:rlo + Ho, clo:clo + Wo] = gc
        gx = np.zeros((n, H, W, b)) if stride > 1 else None
        for (r0, nr, ti, rf), (c0, nc, tj, cf) in itertools.product(row_phases, col_phases):
            w_phase = w_out[:, :, ti::stride, tj::stride].transpose(1, 0, 2, 3).reshape(n, -1)
            part = np.empty((n, nr * nc * b))
            starts = [(i + rlo, j + clo) for i in rf for j in cf]
            for band, cols in _lower_bands(gp, starts, 1, (nr, nc)):
                np.matmul(w_phase, cols, out=part[:, band])
            part = part.reshape(n, nr, nc, b)
            if gx is None:
                gx = part                 # stride 1: one phase, every row
            else:
                gx[:, r0::stride, c0::stride] = part
        return gx.transpose(3, 0, 1, 2), grad_w

    return custom_grad(out, (x, w), rule, op="conv2d")


@dataclass
class BnState:
    """Per-channel batch-norm running statistics.

    Plain arrays mutated by train-mode forwards (momentum ``BN_MOMENTUM``);
    the affine gamma/beta are trainable and travel through the tape.
    """

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels: int) -> "BnState":
        return cls(np.zeros(channels), np.ones(channels))


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BnState,
              mode: str = "train", *, relu: bool = False, gate: GateEval | None = None
              ) -> Tensor:
    """A conv unit's epilogue as one node: per-channel batch norm of a
    [b,c,H,W] tensor, then ReLU when ``relu``, then, with ``gate``, the
    filter gate ``alpha * I(alpha)``.  ``gate`` is the filter gate's record
    on this tape (``gate.evaluation``): its hard mask and straight-through
    coefficient, and its alpha ``node``, a parent of this one.  With neither,
    this is batch norm alone.

    Train mode normalizes with batch statistics and folds them into the
    running averages; eval mode normalizes with the running statistics.  The
    node works on [c, H*W*b] rows of batch-innermost [c, H, W, b] memory,
    the memory ``conv2d`` returns its output in (any other layout is copied
    to it), and its output and input gradient are [b, c, H, W] views over
    such memory too, so the next conv's lowering copies runs of ``Wo * b``
    floats and this node's input gradient reaches the conv backward without
    a copy.  The upstream gradient it gets from the next conv unit is that
    conv's input gradient, contiguous [c, H, W, b] memory, so it reads its
    rows without a copy too.

    Training computes every filter forward: a masked filter's ReLU output
    feeds its alpha's gradient, and its statistics the running averages.  The
    node keeps the normalized ``xhat`` and the pre-gate output ``r``.  The
    backward gives each alpha ``coeff * sum(g * r)`` over its row, with
    ``coeff`` the straight-through factor ``m~ + alpha * m~'``, and computes
    the batch-norm gradients of x, gamma and beta on the live rows alone: a
    masked filter's are exact zeros, since the gate passes it none.  Eval
    takes no gradient, so there the output is a leaf: no parents, no rule.
    With a filter masked, ``x`` then holds the live filters' channels alone
    (a conv unit computes no others); the node computes only those rows and
    places them among zeros of every channel.
    """
    if x.data.ndim != 4 or gamma.data.ndim != 1 or beta.shape != gamma.shape:
        raise ShapeError(f"batchnorm: expected a rank-4 input and [c] affine, got "
                         f"{x.shape}, {gamma.shape} and {beta.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm: unknown mode {mode!r}")
    c = gamma.shape[0]
    live = None if gate is None else gate.live()
    # the rows the forward computes: in eval only the live ones (None: all)
    rows = live if mode == "eval" else None
    b, cx, H, W = x.shape
    if (cx != (c if rows is None else len(rows))
            or (gate is not None and len(gate.mask) != c)):
        raise ShapeError(f"batchnorm: {cx} input channels for {c} filters"
                         + ("" if rows is None else f", {len(rows)} of them live"))
    n = b * H * W
    xc = x.data.transpose(1, 2, 3, 0).reshape(cx, n)
    gd, bd, mean, var = gamma.data, beta.data, state.running_mean, state.running_var
    s = None if gate is None else gate.alpha * gate.mask
    if rows is not None:
        gd, bd, mean, var, s = gd[rows], bd[rows], mean[rows], var[rows], s[rows]

    if mode == "train":
        mean = xc.sum(axis=1) / n
        xhat = xc - mean[:, None]
        r = np.square(xhat)              # scratch for the variance first
        var = r.sum(axis=1) / n
        state.running_mean *= 1.0 - BN_MOMENTUM
        state.running_mean += BN_MOMENTUM * mean
        state.running_var *= 1.0 - BN_MOMENTUM
        state.running_var += BN_MOMENTUM * var
    else:
        xhat = xc - mean[:, None]
        r = np.empty_like(xhat)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None]
    np.multiply(xhat, gd[:, None], out=r)
    r += bd[:, None]
    if relu:
        np.maximum(r, 0.0, out=r)
    out = r if s is None else r * s[:, None]
    out = _scatter_rows(out, rows, c).reshape(c, H, W, b).transpose(3, 0, 1, 2)
    if mode == "eval":
        return Tensor(out)          # eval takes no gradient

    def sel(v):
        return v if live is None else v[live]

    def rule(g):
        gc = g.transpose(1, 2, 3, 0).reshape(c, n)
        scratch, tail = None, ()
        if gate is not None:
            scratch = np.multiply(gc, r)
            tail = (scratch.sum(axis=1) * gate.coeff(scaled=True),)
        if live is not None and not len(live):
            return (None, None, None, *tail)
        # t, the gradient on the batch-norm output, may be g itself, which
        # other nodes read: written in place only once it is a copy
        t, own = sel(gc), live is not None
        if s is not None:
            t, own = np.multiply(t, sel(s)[:, None], out=t if own else None), True
        if relu:
            t, own = np.multiply(t, sel(r) > 0, out=t if own else None), True
        xh = sel(xhat)
        dbeta = t.sum(axis=1)
        p = np.multiply(t, xh, out=None if scratch is None else scratch[:len(t)])
        dgamma = p.sum(axis=1)
        # mean(t*gamma) = gamma*dbeta/n and mean(t*gamma*xhat) = gamma*dgamma/n
        np.multiply(xh, (dgamma / n)[:, None], out=p)
        dx = np.subtract(t, (dbeta / n)[:, None], out=t if own else None)
        dx -= p
        dx *= sel(gd * inv)[:, None]
        dx = _scatter_rows(dx, live, c).reshape(c, H, W, b).transpose(3, 0, 1, 2)
        return (dx, _scatter_rows(dgamma, live, c), _scatter_rows(dbeta, live, c), *tail)

    parents = (x, gamma, beta) if gate is None else (x, gamma, beta, gate.node)
    return custom_grad(out, parents, rule, op="batchnorm")


def _scatter_rows(v: np.ndarray, idx: np.ndarray | None, c: int) -> np.ndarray:
    """The rows of ``v`` at indices ``idx`` of ``c`` zero rows; ``v`` itself
    when ``idx`` is None."""
    if idx is None:
        return v
    full = np.zeros((c, *v.shape[1:]))
    full[idx] = v
    return full


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map [b,p] @ [q,p]^T (+ [q])."""
    out = matmul(x, transpose(w))
    return add(out, b) if b is not None else out


def avg_pool_full(x: Tensor) -> Tensor:
    """Global average pool [b,c,H,W] -> [b,c].

    The gradient is a [b, c, H, W] view over batch-innermost [c, H, W, b]
    memory, the layout of the conv units whose output this pools, so the
    epilogue node and the conv backward it flows into copy nothing.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool_full: expected rank-4 input, got {x.shape}")
    b, c, H, W = x.shape
    out = x.data.mean(axis=(2, 3))

    def rule(g):
        # [c, H, W, b] memory, as conv2d and batchnorm return theirs
        gx = np.empty((c, H, W, b))
        gx[...] = (g.T / (H * W))[:, None, None, :]
        return (gx.transpose(3, 0, 1, 2),)

    return custom_grad(out, (x,), rule, op="avg_pool")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup [V,e][ids] with scatter-add backward.

    The backward scatters with one ``np.bincount`` per table column: it adds
    the rows in ``np.add.at``'s order, so the sums are bit-equal, in less time.
    """
    ids = np.asarray(ids)
    V = table.shape[0]
    if ids.min() < 0 or ids.max() >= V:
        raise ValueError(f"embedding: token id out of range [0, {V})")
    out = table.data[ids]
    flat = ids.ravel()

    def rule(g):
        rows = g.reshape(flat.size, -1)
        cols = [np.bincount(flat, weights=rows[:, j], minlength=V)
                for j in range(rows.shape[1])]
        return (np.stack(cols, axis=1).reshape(table.shape),)

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
        w = p["w"]
        if self.gate is not None:
            w = apply_gate(w, evaluation(self.gate, p["gate.alpha"]), ELEMENTWISE)
        y = linear(x, w, p["b"])
        return relu(y) if self.relu else y


def _conv_slices(units, mode: str) -> dict[str, tuple]:
    """Slices of conv units under one gate: weights decay, bn affine does not."""
    return dict(decayed=tuple((u.pname("w"), mode) for u in units),
                owned=tuple((u.pname(p), mode) for u in units
                            for p in ("bn.gamma", "bn.beta")))


@dataclass
class ConvUnit(Block):
    """Conv -> batch norm -> ReLU -> (filter gate), as two graph nodes.

    The k x k conv pads ``k // 2`` on each side, so for odd k it keeps the
    input size at stride 1.  The gate sits after batch norm, where a
    per-channel scale is not normalized away, and after the nonlinearity.
    A masked filter's output is still exactly zero, but its alpha keeps a
    task-loss gradient (the upstream gradient times the ReLU output); a gate
    before the ReLU would see relu's zero derivative at that exact zero, and
    a pruned filter could not come back.

    ``forward`` is ``conv2d`` followed by one ``batchnorm`` node for batch
    norm, the ReLU and the gate, in both modes.  Both hand each other
    batch-innermost [c, H, W, b] memory, forward and backward, so neither
    copies at the boundary and the conv's kernel-offset copies move runs of
    ``Wo * b`` floats.  The conv keeps its zero-padded input for its
    backward, which lowers it again for the weight gradient and forms the
    input gradient from the upstream gradient, per stride phase, straight
    into C-contiguous [n, H, W, b] memory, the layout the epilogue before it
    reads.  The conv reads only the input channels that hold a nonzero, so
    not the masked filters of the unit whose ``reader`` this unit is.  In
    training a masked filter is still computed forward, for its alpha's
    gradient and its batch-norm running statistics, but gets no conv or
    batch-norm backward: the gate passes it no gradient, and the conv skips
    the zero rows.  In eval, with a filter masked, the conv multiplies
    the live filters' weight rows alone, and ``batchnorm`` computes their
    rows and places them among zeros of every channel.  Eval takes no
    gradient, so there ``batchnorm`` returns a leaf, and the conv's output
    and the padded input it keeps for its backward are freed when the unit
    returns instead of at the end of the forward.
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

    def forward(self, tape: Tape, x: Tensor, mode: str = "train") -> Tensor:
        p = self.bind(tape)
        ev = None if self.gate is None else evaluation(self.gate, p["gate.alpha"])
        live = ev.live() if mode == "eval" and ev is not None else None
        # in eval, the live filters' conv rows alone; batchnorm places their outputs
        w = p["w"] if live is None else tape.leaf(self.weights[live])
        y = conv2d(x, w, self.stride, self.weights.shape[2] // 2)
        return batchnorm(y, p["bn.gamma"], p["bn.beta"], self.bn, mode, relu=self.relu,
                         gate=ev)


@dataclass
class ResidualBlock(Block):
    """Two 3x3 conv units with a skip path and an optional branch gate.

    When the branch gate is masked the output equals the skip path exactly.
    Then eval skips the branch's forward, and training runs it (its alpha's
    gradient reads the branch output, and its batch norms update their
    running statistics) but not its backward: the gate passes the branch no
    gradient.  Each unit's conv reads only the channels of its input that
    hold a nonzero.  Downsampling blocks put ``down``, an ungated 1x1
    ``ConvUnit`` without ReLU named ``<block>.down``, on the skip path
    (projection shortcut, He et al., arXiv:1512.03385).
    ``unit1``'s reader is ``unit2``; ``unit2`` feeds the residual sum and has
    none.  A branch gate reports under its stage, the name's first part.
    Eval takes no gradient, so there the residual sum is a leaf, as the conv
    units' outputs are, and the eval graph keeps neither the block's input
    nor its branch alive until the logits exist.
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

    def forward(self, tape: Tape, x: Tensor, mode: str = "train") -> Tensor:
        p = self.bind(tape)
        ev = None if self.gate is None else evaluation(self.gate, p["gate.alpha"])
        skip = x if self.down is None else self.down.forward(tape, x, mode)
        # a scalar gate reports live indices (none) only when it is masked
        if mode == "eval" and ev is not None and ev.live() is not None:
            return skip
        h = self.unit1.forward(tape, x, mode)
        branch = self.unit2.forward(tape, h, mode)
        if ev is not None:
            branch = apply_gate(branch, ev, WHOLE)
        if mode == "eval":
            return tape.leaf(branch.data + skip.data)   # eval takes no gradient
        return add(branch, skip)


LSTM_GATES = ("f", "i", "g", "o")
# column order of the packed [*, 4h] gate block: the sigmoid gates, then g
_PACKED = ("f", "i", "o", "g")


def _lstm_sequence(xs: Tensor, W: list[Tensor], b: list[Tensor],
                   gates: list[GateEval] | None) -> Tensor:
    """Every timestep of one LSTM layer from zero state, as one node.

    ``xs`` is [b, T, e].  ``W`` and ``b`` are the layer's named ``W_k``
    [h, h+e] and ``b_k`` leaves, and ``gates`` the four recurrence gates'
    records on this tape (None ungated), each list in ``_PACKED`` order.
    The node's parents are ``xs``, those leaves and the records' alpha
    ``node``s.  It concatenates them once: ``W`` [h+e, 4h] is the ``W_k``
    transposed side by side, recurrent rows first; ``b`` and ``alpha`` are
    [4h]; the hard ``mask`` is the gates' masks side by side, and ``coeff``,
    which the backward reads, their straight-through coefficients (``m~'``).
    The input projection of all b*T rows is one GEMM before the time loop;
    each step adds ``h_{t-1} @ W[:h]``, scales by alpha (gated), applies
    sigmoid to the first 3h columns and tanh to the last h, multiplies by
    the hard ``mask`` and updates c and h.  The output is h_t for every t,
    [b, T, h].  The node keeps each step's tanh values (the activations
    follow from them), c_t and tanh(c_t).

    The backward's reverse loop only finds each step's gradient ``du`` on
    the scaled pre-activation ``u = alpha * pre`` and ``dh_{t-1}``; the
    gradients of ``W``, ``b`` and ``xs`` are then one GEMM or sum over all
    rows.  Alpha gets the exact derivative of the scale plus the
    straight-through mask term, ``sum(du * pre) + coeff * sum(g * act)`` over
    batch and time, with ``g`` the gradient on the masked activations and
    ``act`` the unmasked ones.  ``pre = z @ W + b`` for the GEMM input
    ``z = [h_{t-1}, x_t]``, so the first sum is taken as ``sum_k W * (z^T du)
    + b * sum(du)`` from the weight gradient's GEMM, and ``pre`` is not kept.
    Each packed gradient is split back into its four leaves' rows.
    """
    Wd = np.concatenate([w.data for w in W]).T
    bd = np.concatenate([v.data for v in b])
    h = Wd.shape[1] // 4
    if xs.data.ndim != 3 or Wd.shape[0] != h + xs.shape[2]:
        raise ShapeError(f"lstm: inputs {xs.shape} do not fit packed weights {Wd.shape}")
    B, T, e = xs.shape
    s = 3 * h
    a = np.ones(4 * h) if gates is None else np.concatenate([ev.alpha for ev in gates])
    m = np.ones(4 * h) if gates is None else np.concatenate([ev.mask for ev in gates])
    # sigmoid(u) = 0.5 * tanh(0.5 * u) + 0.5 (``tensor.logistic``), so one tanh
    # covers the block: u is scaled by ``half`` before it, the result after
    half, off = np.repeat([0.5, 1.0], [s, h]), np.repeat([0.5, 0.0], [s, h])
    scale_out, shift = half * m, off * m
    w = np.ascontiguousarray(Wd * (a * half))      # alpha and half folded in
    x_rows = np.ascontiguousarray(xs.data.transpose(1, 0, 2)).reshape(T * B, e)
    # th[t] starts as step t's scaled input projection and ends as its tanh
    th = x_rows @ w[h:]
    th += bd * (a * half)
    th = th.reshape(T, B, 4 * h)
    # time-major; hs[t] and cs[t] hold the state before step t, zero at t = 0
    hs, cs = np.zeros((T + 1, B, h)), np.zeros((T + 1, B, h))
    tc = np.empty((T, B, h))
    act = np.empty((B, 4 * h))                     # masked activations of a step
    w_h = w[:h]
    for t in range(T):
        y = th[t]
        y += hs[t] @ w_h
        np.tanh(y, out=y)
        np.multiply(y, scale_out, out=act)
        act += shift
        c = cs[t + 1]
        np.multiply(act[:, :h], cs[t], out=c)
        c += act[:, h:2 * h] * act[:, 3 * h:]
        np.tanh(c, out=tc[t])
        np.multiply(act[:, 2 * h:s], tc[t], out=hs[t + 1])

    def rule(grad):
        gout = grad.transpose(1, 0, 2)
        # d act / du is (1 - th^2) * half^2 on u = alpha * pre; times the mask
        slope = half * scale_out
        wa = Wd * a                      # d pre / d(inputs), alpha folded in
        w_haT = np.ascontiguousarray(wa[:h].T)
        du = np.empty((T, B, 4 * h))     # gradient on u
        ga, tmp, act = np.empty((B, 4 * h)), np.empty((B, 4 * h)), np.empty((B, 4 * h))
        g_th, g_sum = np.zeros((B, 4 * h)), np.zeros((B, 4 * h))
        dh, dc, via_h = np.zeros((B, h)), np.zeros((B, h)), np.empty((B, h))
        for t in range(T - 1, -1, -1):
            y, d = th[t], du[t]
            np.multiply(y, scale_out, out=act)
            act += shift
            dh += gout[t]
            # through h_t = o * tanh(c_t)
            np.multiply(tc[t], tc[t], out=via_h)
            np.subtract(1.0, via_h, out=via_h)
            via_h *= act[:, 2 * h:s]
            via_h *= dh
            dc += via_h
            # the gradient on the masked activations f, i, o, g
            np.multiply(dc, cs[t], out=ga[:, :h])
            np.multiply(dc, act[:, 3 * h:], out=ga[:, h:2 * h])
            np.multiply(dh, tc[t], out=ga[:, 2 * h:s])
            np.multiply(dc, act[:, h:2 * h], out=ga[:, s:])
            dc *= act[:, :h]
            np.multiply(y, y, out=d)
            np.subtract(1.0, d, out=d)
            d *= slope
            d *= ga
            if gates is not None:
                np.multiply(ga, y, out=tmp)
                g_th += tmp
                g_sum += ga
            dh = d @ w_haT
        # every row at once: z^T du, with z = [h_{t-1}, x_t] the GEMM input
        rows = du.reshape(T * B, 4 * h)
        zdu = np.concatenate([hs[:-1].reshape(T * B, h).T @ rows, x_rows.T @ rows])
        du_sum = rows.sum(axis=0)
        dxs = (rows @ wa[h:].T).reshape(T, B, e).transpose(1, 0, 2)
        packed = [(zdu * a).T, du_sum * a]
        if gates is not None:
            coeff = np.concatenate([ev.coeff(scaled=False) for ev in gates])
            # sum(du * pre) from z^T du; sum(g * act) with act = half * th + off
            packed.append(np.sum(Wd * zdu, axis=0) + bd * du_sum
                          + coeff * (half * g_th.sum(axis=0) + off * g_sum.sum(axis=0)))
        return (dxs, *(v[j * h:(j + 1) * h] for v in packed for j in range(4)))

    parents = (xs, *W, *b, *(ev.node for ev in gates or ()))
    return custom_grad(hs[1:].transpose(1, 0, 2), parents, rule, op="lstm_seq")


@dataclass
class LstmCell(Block):
    """LSTM layer with optional per-node gates on f/i/g/o.

    Gated form scales each pre-activation by its alpha and multiplies the
    post-activation by the hard mask:

        f_t = I(a_f) * sigma(a_f * (W_f [h_{t-1}, x_t] + b_f))

    and likewise for i, g (tanh) and o; then c_t = f_t*c_{t-1} + i_t*g_t and
    h_t = o_t * tanh(c_t), from h and c zero.  A masked node index is exactly
    zero in that recurrence gate for every batch element and timestep.

    The four gates run as one block.  ``step(tape, xs)`` binds ``W_k``,
    ``b_k`` and ``gate_k.alpha`` under their own names, evaluates each gate
    once on the tape (``gate.evaluation``) and runs the whole sequence as
    one graph node on the weight leaves and the four gates' records
    (``_lstm_sequence``), so the graph does not grow with T and all of the
    layer's work happens inside ``step``.  It keeps its name from when it
    ran one timestep: profilers and tests wrap ``LstmCell.step`` to find the
    cell's work.  Sigmoid is computed as ``0.5 * tanh(0.5 * x) + 0.5``
    (``tensor.logistic``).
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

    def step(self, tape: Tape, xs: Tensor) -> Tensor:
        """Every timestep of the [b, T, e] inputs ``xs``, from zero state: the
        [b, T, h] hidden states.  Binds this layer's parameters on ``tape``."""
        p = self.bind(tape)
        W, b = ([p[f"{q}_{k}"] for k in _PACKED] for q in ("W", "b"))
        gates = None if self.gates is None else [
            evaluation(self.gates[k], p[f"gate_{k}.alpha"]) for k in _PACKED]
        return _lstm_sequence(xs, W, b, gates)

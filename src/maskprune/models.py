"""Model zoo: one architecture per supported pruning granularity.

Every model exposes the same surface: ``params()`` mapping names to the live
parameter arrays (scaling factors included, so the optimizer sees them),
``persistent_arrays()`` (parameters plus batch-norm buffers, for
checkpoints), ``gates()``, ``l2_groups``/``alpha_nodes``/``hinge_gates`` for
the objective, and ``forward(tape, x, mode)`` returning [N, classes] logits.

A concrete model states two things at construction and ``Model`` derives
the rest.  ``_parts()`` lists its blocks and its own ``{name: array}`` tables
(embedding, head, MLP layers) in ``params()`` order; ``params()`` and
``persistent_arrays()`` walk it.  ``_decls`` holds one ``GateDecl`` per gate:
its reporting group, the dense MACs of one component, how component ``i`` is
named, the slices under the masked-l2 term (``decayed``), the other slices it
owns (batch-norm affine) and the ones that depend on it (next-layer input
channels, as ``AXIS1``).  Slices name their membership with ``gate``'s
modes, the rule the forward pass also gates its tensors by: ``ELEMENTWISE``
for MLP weights, ``AXIS1`` for filter outputs and LSTM nodes, ``WHOLE`` for
residual branches.  ``gate_decls()``, ``gates()`` and ``l2_groups()`` read
those declarations.  Next to them, ``flop_costs()`` gives the FLOPs each
live entry of a weight array stands for (a conv weight ``2·Ho·Wo``, a
``bn.gamma`` its channel's batch norm and ReLU, linear weights 2, biases 1,
LSTM entries per timestep) and a fixed count no mask removes.
``PruneManager`` costs them on the dead grid it builds from the slices, so
the dataflow is stated once.  A mask-dependent cost that is no weight's (a
pool, a droppable residual add) rides on an owned per-channel array.

Construction is deterministic in the seed, and gate scaling factors are
initialized to a constant so gated and ungated variants of the same seed
share identical weights.
"""

from __future__ import annotations

import numpy as np

from .gate import (AXIS0, AXIS1, DEFAULT_BETA, ELEMENTWISE, WHOLE, GateParam,
                   apply_gate)
from .layers import (LSTM_GATES, BnState, ConvUnit, LstmCell, ResidualBlock,
                     avg_pool_full, embedding, linear)
from .pruning import GateDecl, conv_macs
from .tensor import Tape, Tensor, concat_cols, relu, reshape

# FLOPs-per-element convention shared with the accounting oracle
BN_FLOPS_PER_ELEM = 2
RELU_FLOPS_PER_ELEM = 1
ADD_FLOPS_PER_ELEM = 1

# the linear head: a multiply-accumulate per weight, an add per bias
_HEAD_COSTS = {"head.w": 2, "head.b": 1}


class Model:
    """Shared plumbing; concrete models fill in the architecture."""

    task = "classification"
    GRANULARITIES: tuple[str, ...] = ()  # gated granularities; None (ungated) always works
    _decls: list[GateDecl]             # one per gate, built in __init__
    _costs: dict[str, int]             # weight name -> FLOPs per live entry
    _fixed_flops = 0                   # FLOPs no mask can remove

    @classmethod
    def _gate_maker(cls, granularity: str | None, threshold: float | None, beta: float,
                    alpha_init: float):
        """``make(dim, name)`` for this model's gates, all of ``granularity``; None
        when ungated.  Rejects a granularity outside ``GRANULARITIES``."""
        if granularity not in (None, *cls.GRANULARITIES):
            raise ValueError(f"{cls.__name__} supports {'/'.join(cls.GRANULARITIES)} "
                             f"granularity, got {granularity!r}")
        if granularity is None:
            return None
        return lambda dim, name: GateParam.create(granularity, dim, threshold, beta,
                                                  alpha_init, name=name)

    def _parts(self) -> list:
        """Blocks and own ``{name: array}`` tables, in ``params()`` order."""
        raise NotImplementedError

    def forward(self, tape: Tape, x, mode: str = "train") -> Tensor:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for part in self._parts():
            out.update(part if isinstance(part, dict) else part.params())
        return out

    def persistent_arrays(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must carry: parameters plus buffers."""
        out = self.params()
        for part in self._parts():
            if not isinstance(part, dict):
                out.update(part.state())
        return out

    def gate_decls(self) -> list[GateDecl]:
        return self._decls

    def flop_costs(self) -> tuple[dict[str, int], int]:
        """FLOPs per live entry of each costed weight, and the fixed FLOPs."""
        return self._costs, self._fixed_flops

    def gates(self) -> list[GateParam]:
        return [d.gate for d in self._decls]

    def l2_groups(self, tape: Tape):
        """Each gate with the tape nodes of its decayed slices."""
        nodes = tape.params
        return [(d.gate, [(nodes[n], mode) for n, mode in d.decayed])
                for d in self._decls]

    def _head(self) -> dict[str, np.ndarray]:
        return {"head.w": self.head_w, "head.b": self.head_b}

    def flatten_labels(self, y: np.ndarray) -> np.ndarray:
        return y

    def alpha_nodes(self, tape: Tape) -> list[Tensor]:
        nodes = tape.params
        return [nodes[f"{g.name}.alpha"] for g in self.gates()]

    def hinge_gates(self, tape: Tape) -> list[tuple[GateParam, Tensor]]:
        return list(zip(self.gates(), self.alpha_nodes(tape)))

    def load_params(self, arrays: dict[str, np.ndarray]) -> None:
        own = self.persistent_arrays()
        missing = set(own) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        for name, arr in own.items():
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != arr.shape:
                raise ValueError(f"parameter {name}: shape {src.shape} != {arr.shape}")
            arr[...] = src


def _make_conv_unit(name: str, n: int, m: int, rng: np.random.Generator, k: int = 3,
                    stride: int = 1, relu_after: bool = True, make_gate=None) -> ConvUnit:
    """k x k conv unit with He-normal weights; ``make_gate`` (if any) gives it
    one gate per filter."""
    w = rng.normal(0.0, np.sqrt(2.0 / (n * k * k)), size=(m, n, k, k))
    gate = None if make_gate is None else make_gate(m, f"{name}.gate")
    return ConvUnit(weights=w, bn_gamma=np.ones(m), bn_beta=np.zeros(m),
                    bn=BnState.create(m), gate=gate, stride=stride,
                    relu=relu_after, name=name)


def _unit_costs(u: ConvUnit, hw: tuple[int, int]) -> dict[str, int]:
    """Conv (2 FLOPs per MAC) per live weight, batch norm and (if any) ReLU per
    live output channel of ``u``, at output size ``hw``."""
    area = hw[0] * hw[1]
    return {u.pname("w"): 2 * area,
            u.pname("bn.gamma"): area * (BN_FLOPS_PER_ELEM + RELU_FLOPS_PER_ELEM * u.relu)}


def _bind(tape: Tape, table: dict[str, np.ndarray]) -> list[Tensor]:
    """Register a table's arrays on ``tape``; returns the nodes in order."""
    return [tape.param(name, arr) for name, arr in table.items()]


def _conv_slices(units, mode: str) -> dict[str, tuple]:
    """Slices of conv units under one gate: weights decay, bn affine does not."""
    return dict(decayed=tuple((u.pname("w"), mode) for u in units),
                owned=tuple((u.pname(p), mode) for u in units
                            for p in ("bn.gamma", "bn.beta")))


def _filter_decl(u: ConvUnit, hw: tuple[int, int], next_w: str | None) -> GateDecl:
    """Filter gate of ``u`` with output size ``hw``; ``next_w`` reads its outputs."""
    n, k = u.weights.shape[1], u.weights.shape[2]
    return GateDecl(u.gate, u.name, conv_macs(1, n, k, *hw),
                    lambda i, name=u.name: f"{name}[{i}]",
                    deps=() if next_w is None else ((next_w, AXIS1),),
                    **_conv_slices((u,), AXIS0))


# ---------------------------------------------------------------------------
# MLP with per-weight gates
# ---------------------------------------------------------------------------

class Mlp(Model):
    """Linear stack; weight granularity masks individual matrix entries."""

    GRANULARITIES = ("weight",)

    def __init__(self, in_dim: int, hidden: tuple[int, ...], classes: int,
                 seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = 1.0):
        make_gate = self._gate_maker(granularity, threshold, beta, alpha_init)
        rng = np.random.default_rng(seed)
        dims = (in_dim,) + tuple(hidden) + (classes,)
        self.weights, self.biases, self._gates, self._decls = [], [], [], []
        self._costs = {}
        for li in range(len(dims) - 1):
            p, q = dims[li], dims[li + 1]
            self.weights.append(rng.normal(0.0, np.sqrt(1.0 / p), size=(q, p)))
            self.biases.append(np.zeros(q))
            # a hidden layer's ReLU costs one FLOP per output, counted on its bias
            relu_cost = RELU_FLOPS_PER_ELEM if li < len(dims) - 2 else 0
            self._costs.update({f"fc{li}.w": 2, f"fc{li}.b": 1 + relu_cost})
            gate = None if make_gate is None else make_gate(q * p, f"fc{li}.gate")
            if gate is not None:
                self._decls.append(GateDecl(
                    gate, f"fc{li}", 1, lambda i, li=li, p=p: f"fc{li}.w[{i // p},{i % p}]",
                    decayed=((f"fc{li}.w", ELEMENTWISE),)))
            self._gates.append(gate)

    def _layer(self, li: int) -> dict[str, np.ndarray]:
        """Weight, bias and (when gated) scaling factors of layer ``li``."""
        table = {f"fc{li}.w": self.weights[li], f"fc{li}.b": self.biases[li]}
        if self._gates[li] is not None:
            table[f"fc{li}.gate.alpha"] = self._gates[li].alpha
        return table

    def _parts(self):
        return [self._layer(li) for li in range(len(self.weights))]

    def forward(self, tape, x, mode="train"):
        h = tape.leaf(x) if not isinstance(x, Tensor) else x
        for li, gate in enumerate(self._gates):
            w, b, *alpha = _bind(tape, self._layer(li))
            if gate is not None:
                w = apply_gate(w, gate, ELEMENTWISE, alpha=alpha[0])
            h = linear(h, w, b)
            if li < len(self._gates) - 1:
                h = relu(h)
        return h


# ---------------------------------------------------------------------------
# small conv stack with filter gates
# ---------------------------------------------------------------------------

class ToyConvNet(Model):
    """Chain of gated conv units, global average pool, linear head."""

    GRANULARITIES = ("filter",)

    def __init__(self, channels: tuple[int, ...] = (8, 12, 16), in_channels: int = 3,
                 input_hw: tuple[int, int] = (12, 12), classes: int = 10,
                 seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = 1.0):
        make_gate = self._gate_maker(granularity, threshold, beta, alpha_init)
        rng = np.random.default_rng(seed)
        self.input_hw = input_hw
        self.in_channels = in_channels
        self.units: list[ConvUnit] = []
        prev = in_channels
        for ui, m in enumerate(channels):
            self.units.append(_make_conv_unit(f"conv{ui}", prev, m, rng,
                                              make_gate=make_gate))
            prev = m
        self.head_w = rng.normal(0.0, np.sqrt(1.0 / prev), size=(classes, prev))
        self.head_b = np.zeros(classes)
        nxt = [u.pname("w") for u in self.units[1:]] + ["head.w"]
        self._decls = [_filter_decl(u, input_hw, dep) for u, dep in zip(self.units, nxt)
                       if u.gate is not None]
        self._costs = dict(_HEAD_COSTS)
        for u in self.units:
            self._costs.update(_unit_costs(u, input_hw))
        area = input_hw[0] * input_hw[1]
        if self.units:
            # the pool reads the last unit's live channels: its bn.beta carries it
            self._costs[self.units[-1].pname("bn.beta")] = area
        else:
            self._fixed_flops = in_channels * area

    def _parts(self):
        return [*self.units, self._head()]

    def forward(self, tape, x, mode="train"):
        h = tape.leaf(x) if not isinstance(x, Tensor) else x
        for u in self.units:
            h = u.forward(tape, h, mode)
        return linear(avg_pool_full(h), *_bind(tape, self._head()))


# ---------------------------------------------------------------------------
# residual network (filter or subnetwork granularity)
# ---------------------------------------------------------------------------

def stage_sides(side: int, stages: int) -> list[int]:
    """Side each ``ResNetSmall`` stage runs at.  A stage after the first opens
    with stride-2 3x3 pad-1 and 1x1 convs: under the floor geometry of
    ``conv2d`` both map side ``s`` to ``(s - 1) // 2 + 1``, even ``s`` included."""
    sides = [side]
    for _ in range(stages - 1):
        sides.append((sides[-1] - 1) // 2 + 1)
    return sides


class ResNetSmall(Model):
    """Stem conv plus staged basic blocks; CIFAR geometry by default.

    ``stage_widths=(16, 32, 64)`` and ``blocks_per_stage=9`` reproduce the
    classic 56-layer CIFAR network: 2032 filters, 27 blocks.
    """

    GRANULARITIES = ("filter", "subnetwork")

    def __init__(self, stage_widths: tuple[int, ...] = (16, 32, 64),
                 blocks_per_stage: int = 9, in_channels: int = 3,
                 input_hw: tuple[int, int] = (32, 32), classes: int = 10,
                 seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = 1.0):
        make_gate = self._gate_maker(granularity, threshold, beta, alpha_init)
        rng = np.random.default_rng(seed)
        self.granularity = granularity
        self.input_hw = input_hw
        self.in_channels = in_channels
        filt = granularity == "filter"
        unit_gate = make_gate if filt else None
        self.stem = _make_conv_unit("stem", in_channels, stage_widths[0], rng,
                                    make_gate=unit_gate)
        self.blocks: list[ResidualBlock] = []
        self._decls = []
        self._costs = {**_unit_costs(self.stem, input_hw), **_HEAD_COSTS}
        prev = stage_widths[0]
        self._block_hw: list[tuple[int, int]] = []
        sides = zip(*(stage_sides(s, len(stage_widths)) for s in input_hw))
        for si, (width, hw) in enumerate(zip(stage_widths, sides)):
            for bi in range(blocks_per_stage):
                stride = 2 if si > 0 and bi == 0 else 1
                name = f"s{si}.b{bi}"
                u1 = _make_conv_unit(f"{name}.c1", prev, width, rng, stride=stride,
                                     make_gate=unit_gate)
                u2 = _make_conv_unit(f"{name}.c2", width, width, rng, relu_after=False,
                                     make_gate=unit_gate)
                gate = make_gate(1, f"{name}.gate") if granularity == "subnetwork" else None
                down = None
                if stride == 2 or prev != width:
                    down = _make_conv_unit(f"{name}.down", prev, width, rng, k=1,
                                           stride=stride, relu_after=False)
                blk = ResidualBlock(u1, u2, gate, down, name=name)
                for u in (u1, u2) if down is None else (u1, u2, down):
                    self._costs.update(_unit_costs(u, hw))
                area = hw[0] * hw[1]
                if gate is None:
                    self._fixed_flops += width * area * ADD_FLOPS_PER_ELEM
                else:
                    # a masked branch gate drops the residual add with unit2's bn.beta
                    self._costs[u2.pname("bn.beta")] = area * ADD_FLOPS_PER_ELEM
                if filt:
                    # unit2 feeds the residual sum, so its filters have no dependants
                    self._decls += [_filter_decl(u1, hw, u2.pname("w")),
                                    _filter_decl(u2, hw, None)]
                elif gate is not None:
                    self._decls.append(GateDecl(
                        gate, f"s{si}", sum(conv_macs(*u.weights.shape[:3], *hw)
                                            for u in (u1, u2)),
                        lambda i, name=name: name, **_conv_slices((u1, u2), WHOLE)))
                self.blocks.append(blk)
                self._block_hw.append(hw)
                prev = width
        if filt:
            self._decls.insert(0, _filter_decl(self.stem, input_hw,
                                               self.blocks[0].unit1.pname("w")))
        # the pool reads the residual sum, whose channels all stay live
        self._fixed_flops += prev * self._block_hw[-1][0] * self._block_hw[-1][1]
        self.head_w = rng.normal(0.0, np.sqrt(1.0 / prev), size=(classes, prev))
        self.head_b = np.zeros(classes)

    def _parts(self):
        return [self.stem, *self.blocks, self._head()]

    def forward(self, tape, x, mode="train"):
        h = self.stem.forward(tape, tape.leaf(x) if not isinstance(x, Tensor) else x,
                              mode)
        for blk in self.blocks:
            h = blk.forward(tape, h, mode)
        return linear(avg_pool_full(h), *_bind(tape, self._head()))


# ---------------------------------------------------------------------------
# recurrent models with node gates
# ---------------------------------------------------------------------------

class _LstmBase(Model):
    GRANULARITIES = ("node",)

    def __init__(self, vocab: int, embed_dim: int, hidden: int, stacks: int,
                 out_dim: int, seed: int, granularity: str | None,
                 threshold: float | None, beta: float, alpha_init: float):
        make_gate = self._gate_maker(granularity, threshold, beta, alpha_init)
        if stacks not in (1, 2):
            raise ValueError(f"stacks must be 1 or 2, got {stacks}")
        rng = np.random.default_rng(seed)
        self.vocab, self.hidden, self.stacks = vocab, hidden, stacks
        self.embed = rng.normal(0.0, 0.1, size=(vocab, embed_dim))
        self.cells: list[LstmCell] = []
        bound = 1.0 / np.sqrt(hidden)
        for s in range(stacks):
            e = embed_dim if s == 0 else hidden
            weights = {k: rng.uniform(-bound, bound, size=(hidden, hidden + e))
                       for k in LSTM_GATES}
            biases = {k: np.zeros(hidden) for k in LSTM_GATES}
            biases["f"] = np.ones(hidden)              # open forget gate at init
            gates = None if make_gate is None else {
                k: make_gate(hidden, f"lstm{s}.gate_{k}") for k in LSTM_GATES}
            self.cells.append(LstmCell(weights, biases, gates, name=f"lstm{s}"))
        self.head_w = rng.normal(0.0, np.sqrt(1.0 / hidden), size=(out_dim, hidden))
        self.head_b = np.zeros(out_dim)
        self._decls = [GateDecl(cell.gates[k], f"{cell.name}.{k}", cell.weights[k].shape[1],
                                lambda i, group=f"{cell.name}.{k}": f"{group}[{i}]",
                                decayed=((cell.pname(f"W_{k}"), AXIS0),
                                         (cell.pname(f"b_{k}"), AXIS0)))
                       for cell in self.cells if cell.gates is not None for k in LSTM_GATES]
        # per-timestep costs (the constant sequence length cancels in ratios):
        # 2 per matmul weight, bias add plus activation per node, c/h updates
        self._costs = dict(_HEAD_COSTS)
        for cell in self.cells:
            self._costs.update({cell.pname(f"{p}_{k}"): 2 for k in LSTM_GATES
                                for p in ("W", "b")})
        self._fixed_flops = 4 * hidden * stacks

    def _parts(self):
        return [{"embed": self.embed}, *self.cells, self._head()]

    def _run_stack(self, tape, ids: np.ndarray):
        b, T = ids.shape
        table = tape.param("embed", self.embed)
        bound = [cell.bind(tape) for cell in self.cells]
        h = [tape.leaf(np.zeros((b, self.hidden))) for _ in self.cells]
        c = [tape.leaf(np.zeros((b, self.hidden))) for _ in self.cells]
        tops = []
        for t in range(T):
            x = embedding(table, ids[:, t])
            for s, cell in enumerate(self.cells):
                h[s], c[s] = cell.step(bound[s], x, h[s], c[s])
                x = h[s]
            tops.append(x)
        return tops


class LstmClassifier(_LstmBase):
    """Token sequence -> last hidden state -> class logits."""

    def __init__(self, vocab: int = 16, embed_dim: int = 16, hidden: int = 32,
                 classes: int = 2, stacks: int = 1, seed: int = 0,
                 granularity: str | None = None, threshold: float | None = None,
                 beta: float = DEFAULT_BETA, alpha_init: float = 1.0):
        super().__init__(vocab, embed_dim, hidden, stacks, classes, seed,
                         granularity, threshold, beta, alpha_init)

    def forward(self, tape, x, mode="train"):
        tops = self._run_stack(tape, np.asarray(x))
        return linear(tops[-1], *_bind(tape, self._head()))


class LstmLm(_LstmBase):
    """Next-token model; logits for every position, flattened to [b*T, V]."""

    task = "lm"

    def __init__(self, vocab: int = 16, embed_dim: int = 16, hidden: int = 32,
                 stacks: int = 1, seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = 1.0):
        super().__init__(vocab, embed_dim, hidden, stacks, vocab, seed,
                         granularity, threshold, beta, alpha_init)

    def forward(self, tape, x, mode="train"):
        ids = np.asarray(x)
        b, T = ids.shape
        tops = self._run_stack(tape, ids)
        w, bias = _bind(tape, self._head())
        # rows of the [b*T, V] result follow the label order y.reshape(-1)
        logits = concat_cols(*[linear(h_t, w, bias) for h_t in tops])
        return reshape(logits, (b * T, self.vocab))

    def flatten_labels(self, y):
        return np.asarray(y).reshape(-1)

"""Model zoo: one architecture per supported pruning granularity.

A model is a ``Block`` tree (see ``layers``) with an empty name prefix: an
``Mlp`` is ``Linear`` layers ``fc{i}``; a ``ToyConvNet`` is ``ConvUnit``s
and a ``Linear`` ``head``; a ``ResNetSmall`` is a ``stem`` unit,
``ResidualBlock``s and a head; an LSTM model is its ``embed`` table,
``LstmCell``s and a head.  Each block states its arrays, its gate
declarations and its FLOPs once, so ``params()``, ``persistent_arrays()``
(parameters plus batch-norm buffers, for checkpoints), ``gate_decls()``,
``gates()`` and ``flop_costs()`` are walks of the tree.  A model passes a
block only what the block cannot know: a conv unit's output size and the
block that reads its output channels.  The model itself declares only the
cost of its global pool, on the last unit's ``bn.beta`` when those channels
can be masked.  An LSTM model embeds its [b, T] token ids in one lookup and
runs each ``LstmCell`` over the whole sequence as one graph node, on
[b, T, ·] tensors; the LM's head then reads the [b*T, hidden] rows in label
order, the classifier's the last step.
``forward(tape, x, mode)`` returns [N, classes] logits.

Construction is deterministic in the seed, and gate scaling factors are
initialized to a constant so gated and ungated variants of the same seed
share identical weights.
"""

from __future__ import annotations

import numpy as np

from .gate import DEFAULT_ALPHA_INIT, DEFAULT_BETA, GateParam
from .layers import (LSTM_GATES, Block, BnState, ConvUnit, Linear, LstmCell, ResidualBlock,
                     avg_pool_full, embedding)
from .tensor import Tensor, custom_grad, reshape


class Model(Block):
    """Shared plumbing; concrete models fill in the architecture."""

    task = "classification"
    GRANULARITIES: tuple[str, ...] = ()  # gated granularities; None (ungated) always works
    name = ""                          # a model's own arrays carry no prefix

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

    def persistent_arrays(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must carry: parameters plus buffers."""
        return self.params() | self.state()

    def gates(self) -> list[GateParam]:
        return [d.gate for d in self.gate_decls()]

    def flatten_labels(self, y: np.ndarray) -> np.ndarray:
        return y

    def load_params(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into this model's parameters and buffers; raises
        ``ValueError`` unless they name exactly those arrays, in their shapes."""
        own = self.persistent_arrays()
        missing, unexpected = set(own) - set(arrays), set(arrays) - set(own)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        if unexpected:
            raise ValueError(f"checkpoint holds tensors the model does not have: "
                             f"{sorted(unexpected)}")
        for name, arr in own.items():
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != arr.shape:
                raise ValueError(f"parameter {name}: shape {src.shape} != {arr.shape}")
            arr[...] = src


def _make_conv_unit(name: str, n: int, m: int, rng: np.random.Generator,
                    out_hw: tuple[int, int], k: int = 3, stride: int = 1,
                    relu_after: bool = True, make_gate=None) -> ConvUnit:
    """k x k conv unit with He-normal weights; ``make_gate`` (if any) gives it
    one gate per filter."""
    w = rng.normal(0.0, np.sqrt(2.0 / (n * k * k)), size=(m, n, k, k))
    gate = None if make_gate is None else make_gate(m, f"{name}.gate")
    return ConvUnit(weights=w, bn_gamma=np.ones(m), bn_beta=np.zeros(m),
                    bn=BnState.create(m), gate=gate, stride=stride,
                    relu=relu_after, name=name, out_hw=out_hw)


def _make_linear(name: str, p: int, q: int, rng: np.random.Generator,
                 gate: GateParam | None = None, relu_after: bool = False) -> Linear:
    """[q, p] linear block with N(0, 1/p) weights and zero bias."""
    return Linear(rng.normal(0.0, np.sqrt(1.0 / p), size=(q, p)), np.zeros(q), gate,
                  relu_after, name)


# ---------------------------------------------------------------------------
# MLP with per-weight gates
# ---------------------------------------------------------------------------

class Mlp(Model):
    """Linear stack; weight granularity masks individual matrix entries."""

    GRANULARITIES = ("weight",)

    def __init__(self, in_dim: int, hidden: tuple[int, ...], classes: int,
                 seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = DEFAULT_ALPHA_INIT):
        make_gate = self._gate_maker(granularity, threshold, beta, alpha_init)
        rng = np.random.default_rng(seed)
        dims = (in_dim,) + tuple(hidden) + (classes,)
        self.layers: list[Linear] = []
        for li in range(len(dims) - 1):
            p, q = dims[li], dims[li + 1]
            gate = None if make_gate is None else make_gate(q * p, f"fc{li}.gate")
            self.layers.append(_make_linear(f"fc{li}", p, q, rng, gate,
                                            relu_after=li < len(dims) - 2))

    def _parts(self):
        return self.layers

    def forward(self, tape, x, mode="train"):
        h = tape.leaf(x)
        for layer in self.layers:
            h = layer.forward(tape, h)
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
                 alpha_init: float = DEFAULT_ALPHA_INIT):
        make_gate = self._gate_maker(granularity, threshold, beta, alpha_init)
        rng = np.random.default_rng(seed)
        self.input_hw = input_hw
        self.in_channels = in_channels
        self.units: list[ConvUnit] = []
        prev = in_channels
        for ui, m in enumerate(channels):
            self.units.append(_make_conv_unit(f"conv{ui}", prev, m, rng, input_hw,
                                              make_gate=make_gate))
            prev = m
        self.head = _make_linear("head", prev, classes, rng)
        for u, reader in zip(self.units, [*self.units[1:], self.head]):
            u.reader = reader

    def _parts(self):
        return [*self.units, self.head]

    def _costs(self):
        area = self.input_hw[0] * self.input_hw[1]
        if self.units:
            # the pool reads the last unit's live channels: its bn.beta carries it
            return {self.units[-1].pname("bn.beta"): area}, 0
        return {}, self.in_channels * area

    def forward(self, tape, x, mode="train"):
        h = tape.leaf(x)
        for u in self.units:
            h = u.forward(tape, h, mode)
        return self.head.forward(tape, avg_pool_full(h))


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
                 alpha_init: float = DEFAULT_ALPHA_INIT):
        make_gate = self._gate_maker(granularity, threshold, beta, alpha_init)
        rng = np.random.default_rng(seed)
        self.granularity = granularity
        self.input_hw = input_hw
        self.in_channels = in_channels
        unit_gate = make_gate if granularity == "filter" else None
        self.stem = _make_conv_unit("stem", in_channels, stage_widths[0], rng, input_hw,
                                    make_gate=unit_gate)
        self.blocks: list[ResidualBlock] = []
        prev = stage_widths[0]
        sides = zip(*(stage_sides(s, len(stage_widths)) for s in input_hw))
        for si, (width, hw) in enumerate(zip(stage_widths, sides)):
            for bi in range(blocks_per_stage):
                stride = 2 if si > 0 and bi == 0 else 1
                name = f"s{si}.b{bi}"
                u1 = _make_conv_unit(f"{name}.c1", prev, width, rng, hw, stride=stride,
                                     make_gate=unit_gate)
                u2 = _make_conv_unit(f"{name}.c2", width, width, rng, hw, relu_after=False,
                                     make_gate=unit_gate)
                gate = make_gate(1, f"{name}.gate") if granularity == "subnetwork" else None
                down = None
                if stride == 2 or prev != width:
                    down = _make_conv_unit(f"{name}.down", prev, width, rng, hw, k=1,
                                           stride=stride, relu_after=False)
                self.blocks.append(ResidualBlock(u1, u2, gate, down, name=name))
                prev = width
        self.stem.reader = self.blocks[0].unit1
        self.head = _make_linear("head", prev, classes, rng)

    def _parts(self):
        return [self.stem, *self.blocks, self.head]

    def _costs(self):
        # the pool reads the residual sum, whose channels all stay live
        last = self.blocks[-1].unit2
        return {}, last.out_channels * last.out_hw[0] * last.out_hw[1]

    def forward(self, tape, x, mode="train"):
        h = self.stem.forward(tape, tape.leaf(x), mode)
        for blk in self.blocks:
            h = blk.forward(tape, h, mode)
        return self.head.forward(tape, avg_pool_full(h))


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
        self.hidden = hidden
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
        self.head = _make_linear("head", hidden, out_dim, rng)

    def _parts(self):
        return [{"embed": self.embed}, *self.cells, self.head]

    def _run_stack(self, tape, ids: np.ndarray) -> Tensor:
        """The top layer's hidden states, [b, T, hidden]: the batch embedded
        once, then each cell over the whole sequence."""
        x = embedding(self.bind(tape)["embed"], ids)
        for cell in self.cells:
            x = cell.step(tape, x)
        return x


def _last_step(hs: Tensor) -> Tensor:
    """hs[:, -1] of a [b, T, h] node; the backward fills the other steps with 0."""
    def rule(g):
        full = np.zeros(hs.shape)
        full[:, -1] = g
        return (full,)

    return custom_grad(hs.data[:, -1], (hs,), rule, op="last_step")


class LstmClassifier(_LstmBase):
    """Token sequence -> last hidden state -> class logits."""

    def __init__(self, vocab: int = 16, embed_dim: int = 16, hidden: int = 32,
                 classes: int = 2, stacks: int = 1, seed: int = 0,
                 granularity: str | None = None, threshold: float | None = None,
                 beta: float = DEFAULT_BETA, alpha_init: float = DEFAULT_ALPHA_INIT):
        super().__init__(vocab, embed_dim, hidden, stacks, classes, seed,
                         granularity, threshold, beta, alpha_init)

    def forward(self, tape, x, mode="train"):
        return self.head.forward(tape, _last_step(self._run_stack(tape, np.asarray(x))))


class LstmLm(_LstmBase):
    """Next-token model; logits for every position, flattened to [b*T, V]."""

    task = "lm"

    def __init__(self, vocab: int = 16, embed_dim: int = 16, hidden: int = 32,
                 stacks: int = 1, seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = DEFAULT_ALPHA_INIT):
        super().__init__(vocab, embed_dim, hidden, stacks, vocab, seed,
                         granularity, threshold, beta, alpha_init)

    def forward(self, tape, x, mode="train"):
        ids = np.asarray(x)
        b, T = ids.shape
        # one head GEMM over every step: rows follow the label order y.reshape(-1)
        return self.head.forward(tape, reshape(self._run_stack(tape, ids),
                                               (b * T, self.hidden)))

    def flatten_labels(self, y):
        return np.asarray(y).reshape(-1)

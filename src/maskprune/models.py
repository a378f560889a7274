"""Model zoo: one architecture per supported pruning granularity.

Every model exposes the same surface: ``params()`` mapping names to the live
parameter arrays (scaling factors included, so the optimizer sees them),
``gates()``, ``l2_groups``/``alpha_nodes``/``hinge_gates`` for the objective,
and ``forward(tape, x, mode)`` returning [N, classes] logits.  For the prune
registry each model declares its accounting once per gate in ``gate_decls()``:
the gate's reporting group, the dense MACs of one component, how component
``i`` is named, and the parameter slices the gate owns and the ones that
depend on it (next-layer input channels, as ``AXIS1``).  ``flops(live)`` then
costs the network from the live component count of each gate, keyed by gate
name; ungated layers count in full.

Construction is deterministic in the seed, and gate scaling factors are
initialized to a constant so gated and ungated variants of the same seed
share identical weights.
"""

from __future__ import annotations

import numpy as np

from .gate import DEFAULT_BETA, GateParam, apply_gate
from .layers import (LSTM_GATES, BnState, ConvUnit, LstmCell, ResidualBlock,
                     avg_pool_full, embedding, linear)
from .objective import AXIS0, AXIS1, ELEMENTWISE, WHOLE
from .pruning import GateDecl, conv_macs
from .tensor import Tape, Tensor, concat_cols, relu, reshape

# FLOPs-per-element convention shared with the accounting oracle
BN_FLOPS_PER_ELEM = 2
RELU_FLOPS_PER_ELEM = 1
ADD_FLOPS_PER_ELEM = 1


class Model:
    """Shared plumbing; concrete models fill in the architecture."""

    task = "classification"

    def params(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def gates(self) -> list[GateParam]:
        raise NotImplementedError

    def gate_decls(self) -> list[GateDecl]:
        raise NotImplementedError

    def flops(self, live: dict[str, int]) -> int:
        raise NotImplementedError

    def forward(self, tape: Tape, x, mode: str = "train") -> Tensor:
        raise NotImplementedError

    def l2_groups(self, tape: Tape):
        raise NotImplementedError

    def flatten_labels(self, y: np.ndarray) -> np.ndarray:
        return y

    def alpha_nodes(self, tape: Tape) -> list[Tensor]:
        nodes = tape.params
        return [nodes[f"{g.name}.alpha"] for g in self.gates()]

    def hinge_gates(self, tape: Tape) -> list[tuple[GateParam, Tensor]]:
        nodes = tape.params
        return [(g, nodes[f"{g.name}.alpha"]) for g in self.gates()]

    def persistent_arrays(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must carry: parameters plus buffers."""
        return self.params()

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


def _make_conv_unit(name: str, n: int, m: int, rng: np.random.Generator,
                    k: int = 3, stride: int = 1, padding: int = 1,
                    relu_after: bool = True, gated: bool = False,
                    threshold: float | None = None, beta: float = DEFAULT_BETA,
                    alpha_init: float = 1.0) -> ConvUnit:
    w = rng.normal(0.0, np.sqrt(2.0 / (n * k * k)), size=(m, n, k, k))
    gate = None
    if gated:
        gate = GateParam.create("filter", m, threshold, beta, alpha_init,
                                name=f"{name}.gate")
    return ConvUnit(weights=w, bn_gamma=np.ones(m), bn_beta=np.zeros(m),
                    bn=BnState.create(m), gate=gate, stride=stride,
                    padding=padding, relu=relu_after, name=name)


def _live(live: dict[str, int], gate: GateParam | None, full: int) -> int:
    """Live component count of ``gate``; an ungated layer counts in full."""
    return full if gate is None else live[gate.name]


def _filter_decl(u: ConvUnit, hw: tuple[int, int], next_w: str | None) -> GateDecl:
    """Filter gate of ``u`` with output size ``hw``; ``next_w`` reads its outputs."""
    n, k = u.weights.shape[1], u.weights.shape[2]
    return GateDecl(u.gate, u.name, conv_macs(1, n, k, *hw),
                    lambda i, name=u.name: f"{name}[{i}]",
                    owned=tuple((f"{u.name}.{p}", AXIS0)
                                for p in ("w", "bn.gamma", "bn.beta")),
                    deps=() if next_w is None else ((next_w, AXIS1),))


# ---------------------------------------------------------------------------
# MLP with per-weight gates
# ---------------------------------------------------------------------------

class Mlp(Model):
    """Linear stack; weight granularity masks individual matrix entries."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...], classes: int,
                 seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = 1.0):
        if granularity not in (None, "weight"):
            raise ValueError(f"mlp supports weight granularity, got {granularity!r}")
        rng = np.random.default_rng(seed)
        dims = (in_dim,) + tuple(hidden) + (classes,)
        self.weights, self.biases, self._gates = [], [], []
        for li in range(len(dims) - 1):
            p, q = dims[li], dims[li + 1]
            self.weights.append(rng.normal(0.0, np.sqrt(1.0 / p), size=(q, p)))
            self.biases.append(np.zeros(q))
            if granularity == "weight":
                self._gates.append(GateParam.create(
                    "weight", q * p, threshold, beta, alpha_init,
                    name=f"fc{li}.gate"))
            else:
                self._gates.append(None)

    def params(self):
        out = {}
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"fc{li}.w"] = w
            out[f"fc{li}.b"] = b
            if self._gates[li] is not None:
                out[f"fc{li}.gate.alpha"] = self._gates[li].alpha
        return out

    def gates(self):
        return [g for g in self._gates if g is not None]

    def forward(self, tape, x, mode="train"):
        h = tape.leaf(x) if not isinstance(x, Tensor) else x
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            wn = tape.param(f"fc{li}.w", w)
            bn_ = tape.param(f"fc{li}.b", b)
            if self._gates[li] is not None:
                q, p = w.shape
                a = tape.param(f"fc{li}.gate.alpha", self._gates[li].alpha)
                flat = apply_gate(reshape(wn, (q * p,)), self._gates[li], axis=0, alpha=a)
                wn = reshape(flat, (q, p))
            h = linear(h, wn, bn_)
            if li < len(self.weights) - 1:
                h = relu(h)
        return h

    def gate_decls(self):
        return [GateDecl(g, f"fc{li}", 1,
                         lambda i, li=li, p=self.weights[li].shape[1]:
                         f"fc{li}.w[{i // p},{i % p}]",
                         owned=((f"fc{li}.w", ELEMENTWISE),))
                for li, g in enumerate(self._gates) if g is not None]

    def l2_groups(self, tape):
        nodes = tape.params
        return [(g, [(nodes[f"fc{li}.w"], ELEMENTWISE)])
                for li, g in enumerate(self._gates) if g is not None]

    def flops(self, live):
        total = 0
        for li, (w, g) in enumerate(zip(self.weights, self._gates)):
            q, p = w.shape
            total += 2 * _live(live, g, q * p) + q
            if li < len(self.weights) - 1:
                total += q * RELU_FLOPS_PER_ELEM
        return total


# ---------------------------------------------------------------------------
# small conv stack with filter gates
# ---------------------------------------------------------------------------

class ToyConvNet(Model):
    """Chain of gated conv units, global average pool, linear head."""

    def __init__(self, channels: tuple[int, ...] = (8, 12, 16), in_channels: int = 3,
                 input_hw: tuple[int, int] = (12, 12), classes: int = 10,
                 seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = 1.0):
        if granularity not in (None, "filter"):
            raise ValueError(f"toy-convnet supports filter granularity, got {granularity!r}")
        rng = np.random.default_rng(seed)
        self.input_hw = input_hw
        self.in_channels = in_channels
        self.units: list[ConvUnit] = []
        prev = in_channels
        for ui, m in enumerate(channels):
            self.units.append(_make_conv_unit(
                f"conv{ui}", prev, m, rng, gated=granularity == "filter",
                threshold=threshold, beta=beta, alpha_init=alpha_init))
            prev = m
        self.head_w = rng.normal(0.0, np.sqrt(1.0 / prev), size=(classes, prev))
        self.head_b = np.zeros(classes)

    def params(self):
        out = {}
        for u in self.units:
            out.update(u.params())
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def persistent_arrays(self):
        out = self.params()
        for u in self.units:
            out.update(u.state())
        return out

    def gates(self):
        return [u.gate for u in self.units if u.gate is not None]

    def forward(self, tape, x, mode="train"):
        h = tape.leaf(x) if not isinstance(x, Tensor) else x
        for u in self.units:
            h = u.forward(tape, h, mode)
        h = avg_pool_full(h)
        return linear(h, tape.param("head.w", self.head_w),
                      tape.param("head.b", self.head_b))

    def gate_decls(self):
        nxt = [f"{u.name}.w" for u in self.units[1:]] + ["head.w"]
        return [_filter_decl(u, self.input_hw, dep) for u, dep in zip(self.units, nxt)
                if u.gate is not None]

    def l2_groups(self, tape):
        nodes = tape.params
        return [(u.gate, [(nodes[f"{u.name}.w"], AXIS0)])
                for u in self.units if u.gate is not None]

    def flops(self, live):
        oh, ow = self.input_hw
        elems = oh * ow
        total = 0
        live_in = self.in_channels
        for u in self.units:
            live_out = _live(live, u.gate, u.out_channels)
            k = u.weights.shape[2]
            total += 2 * conv_macs(live_out, live_in, k, oh, ow)
            total += live_out * elems * (BN_FLOPS_PER_ELEM + RELU_FLOPS_PER_ELEM)
            live_in = live_out
        total += live_in * elems                       # global average pool
        total += 2 * self.head_w.shape[0] * live_in + self.head_w.shape[0]
        return total


# ---------------------------------------------------------------------------
# residual network (filter or subnetwork granularity)
# ---------------------------------------------------------------------------

class ResNetSmall(Model):
    """Stem conv plus staged basic blocks; CIFAR geometry by default.

    ``stage_widths=(16, 32, 64)`` and ``blocks_per_stage=9`` reproduce the
    classic 56-layer CIFAR network: 2032 filters, 27 blocks.
    """

    def __init__(self, stage_widths: tuple[int, ...] = (16, 32, 64),
                 blocks_per_stage: int = 9, in_channels: int = 3,
                 input_hw: tuple[int, int] = (32, 32), classes: int = 10,
                 seed: int = 0, granularity: str | None = None,
                 threshold: float | None = None, beta: float = DEFAULT_BETA,
                 alpha_init: float = 1.0):
        if granularity not in (None, "filter", "subnetwork"):
            raise ValueError(
                f"resnet-small supports filter/subnetwork granularity, got {granularity!r}")
        rng = np.random.default_rng(seed)
        self.granularity = granularity
        self.input_hw = input_hw
        self.in_channels = in_channels
        filt = granularity == "filter"
        self.stem = _make_conv_unit("stem", in_channels, stage_widths[0], rng,
                                    gated=filt, threshold=threshold, beta=beta,
                                    alpha_init=alpha_init)
        self.blocks: list[ResidualBlock] = []
        prev = stage_widths[0]
        hw = input_hw
        self._block_hw: list[tuple[int, int]] = []
        for si, width in enumerate(stage_widths):
            for bi in range(blocks_per_stage):
                stride = 2 if si > 0 and bi == 0 else 1
                name = f"s{si}.b{bi}"
                if stride == 2:
                    # 3x3 pad-1 stride-2 under the exact-divisibility contract
                    hw = ((hw[0] - 1) // 2 + 1, (hw[1] - 1) // 2 + 1)
                u1 = _make_conv_unit(f"{name}.c1", prev, width, rng, stride=stride,
                                     gated=filt, threshold=threshold, beta=beta,
                                     alpha_init=alpha_init)
                u2 = _make_conv_unit(f"{name}.c2", width, width, rng, relu_after=False,
                                     gated=filt, threshold=threshold, beta=beta,
                                     alpha_init=alpha_init)
                gate = None
                if granularity == "subnetwork":
                    gate = GateParam.create("subnetwork", 1, threshold, beta,
                                            alpha_init, name=f"{name}.gate")
                if stride == 2 or prev != width:
                    dw = rng.normal(0.0, np.sqrt(2.0 / prev), size=(width, prev, 1, 1))
                    blk = ResidualBlock(u1, u2, gate, dw, np.ones(width),
                                        np.zeros(width), BnState.create(width),
                                        stride=stride, name=name)
                else:
                    blk = ResidualBlock(u1, u2, gate, stride=stride, name=name)
                self.blocks.append(blk)
                self._block_hw.append(hw)
                prev = width
        self.head_w = rng.normal(0.0, np.sqrt(1.0 / prev), size=(classes, prev))
        self.head_b = np.zeros(classes)

    def params(self):
        out = dict(self.stem.params())
        for blk in self.blocks:
            out.update(blk.params())
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def persistent_arrays(self):
        out = self.params()
        out.update(self.stem.state())
        for blk in self.blocks:
            out.update(blk.state())
        return out

    def gates(self):
        out = [u.gate for u in self._conv_units() if u.gate is not None]
        out += [b.gate for b in self.blocks if b.gate is not None]
        return out

    def _conv_units(self):
        units = [self.stem]
        for blk in self.blocks:
            units += [blk.unit1, blk.unit2]
        return units

    def forward(self, tape, x, mode="train"):
        h = self.stem.forward(tape, tape.leaf(x) if not isinstance(x, Tensor) else x,
                              mode)
        for blk in self.blocks:
            h = blk.forward(tape, h, mode)
        h = avg_pool_full(h)
        return linear(h, tape.param("head.w", self.head_w),
                      tape.param("head.b", self.head_b))

    def gate_decls(self):
        if self.granularity == "subnetwork":
            decls = []
            for blk, hw in zip(self.blocks, self._block_hw):
                units = (blk.unit1, blk.unit2)
                decls.append(GateDecl(
                    blk.gate, blk.name.split(".")[0],
                    sum(conv_macs(*u.weights.shape[:3], *hw) for u in units),
                    lambda i, name=blk.name: name,
                    owned=tuple((f"{u.name}.{p}", WHOLE) for u in units
                                for p in ("w", "bn.gamma", "bn.beta"))))
            return decls
        if self.granularity == "filter":
            decls = [_filter_decl(self.stem, self.input_hw,
                                  f"{self.blocks[0].unit1.name}.w")]
            for blk, hw in zip(self.blocks, self._block_hw):
                # unit2 feeds the residual sum, so its filters have no dependants
                decls += [_filter_decl(blk.unit1, hw, f"{blk.unit2.name}.w"),
                          _filter_decl(blk.unit2, hw, None)]
            return decls
        return []

    def l2_groups(self, tape):
        nodes = tape.params
        if self.granularity == "subnetwork":
            return [(blk.gate, [(nodes[f"{blk.unit1.name}.w"], WHOLE),
                                (nodes[f"{blk.unit2.name}.w"], WHOLE)])
                    for blk in self.blocks]
        if self.granularity == "filter":
            return [(u.gate, [(nodes[f"{u.name}.w"], AXIS0)])
                    for u in self._conv_units()]
        return []

    def flops(self, live):
        def unit_flops(u, live_in, live_out, hw):
            elems = live_out * hw[0] * hw[1]
            macs = conv_macs(live_out, live_in, u.weights.shape[2], *hw)
            cost = 2 * macs + elems * BN_FLOPS_PER_ELEM
            if u.relu:
                cost += elems * RELU_FLOPS_PER_ELEM
            return cost

        def live_filters(u):
            return _live(live, u.gate, u.out_channels)

        total = unit_flops(self.stem, self.in_channels, live_filters(self.stem),
                           self.input_hw)
        prev_out = live_filters(self.stem)
        for idx, (blk, hw) in enumerate(zip(self.blocks, self._block_hw)):
            width = blk.unit2.out_channels
            block_in = prev_out if idx == 0 else blk.unit1.weights.shape[1]
            if _live(live, blk.gate, 1):
                l1 = live_filters(blk.unit1)
                total += unit_flops(blk.unit1, block_in, l1, hw)
                total += unit_flops(blk.unit2, l1, live_filters(blk.unit2), hw)
                total += width * hw[0] * hw[1] * ADD_FLOPS_PER_ELEM
            if blk.down_w is not None:
                macs = conv_macs(width, blk.down_w.shape[1], 1, *hw)
                total += 2 * macs + width * hw[0] * hw[1] * BN_FLOPS_PER_ELEM
            prev_out = width
        last_hw = self._block_hw[-1]
        width = self.blocks[-1].unit2.out_channels
        total += width * last_hw[0] * last_hw[1]       # global average pool
        total += 2 * self.head_w.shape[0] * width + self.head_w.shape[0]
        return total


# ---------------------------------------------------------------------------
# recurrent models with node gates
# ---------------------------------------------------------------------------

class _LstmBase(Model):
    def __init__(self, vocab: int, embed_dim: int, hidden: int, stacks: int,
                 out_dim: int, seed: int, granularity: str | None,
                 threshold: float | None, beta: float, alpha_init: float):
        if granularity not in (None, "node"):
            raise ValueError(f"lstm models support node granularity, got {granularity!r}")
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
            gates = None
            if granularity == "node":
                gates = {k: GateParam.create("node", hidden, threshold, beta,
                                             alpha_init, name=f"lstm{s}.gate_{k}")
                         for k in LSTM_GATES}
            self.cells.append(LstmCell(weights, biases, gates, name=f"lstm{s}"))
        self.head_w = rng.normal(0.0, np.sqrt(1.0 / hidden), size=(out_dim, hidden))
        self.head_b = np.zeros(out_dim)

    def params(self):
        out = {"embed": self.embed}
        for cell in self.cells:
            out.update(cell.params())
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def gates(self):
        out = []
        for cell in self.cells:
            if cell.gates is not None:
                out += [cell.gates[k] for k in LSTM_GATES]
        return out

    def gate_decls(self):
        return [GateDecl(cell.gates[k], f"{cell.name}.{k}", cell.weights[k].shape[1],
                         lambda i, group=f"{cell.name}.{k}": f"{group}[{i}]",
                         owned=((f"{cell.name}.W_{k}", AXIS0),
                                (f"{cell.name}.b_{k}", AXIS0)))
                for cell in self.cells if cell.gates is not None for k in LSTM_GATES]

    def l2_groups(self, tape):
        nodes = tape.params
        groups = []
        for cell in self.cells:
            if cell.gates is None:
                continue
            for k in LSTM_GATES:
                groups.append((cell.gates[k],
                               [(nodes[f"{cell.name}.W_{k}"], AXIS0),
                                (nodes[f"{cell.name}.b_{k}"], AXIS0)]))
        return groups

    def flops(self, live):
        # per-timestep cost; the constant sequence length cancels in ratios
        total = 0
        for cell in self.cells:
            in_dim = cell.weights["f"].shape[1]
            for k in LSTM_GATES:
                gate = None if cell.gates is None else cell.gates[k]
                rows = _live(live, gate, self.hidden)
                total += 2 * rows * in_dim + 2 * rows  # matmul rows + bias + act
            total += 4 * self.hidden                   # c/h elementwise updates
        total += 2 * self.head_w.shape[0] * self.hidden + self.head_w.shape[0]
        return total

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
        return linear(tops[-1], tape.param("head.w", self.head_w),
                      tape.param("head.b", self.head_b))


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
        w = tape.param("head.w", self.head_w)
        bias = tape.param("head.b", self.head_b)
        logits = [linear(h_t, w, bias) for h_t in tops]
        stacked = logits[0]
        if T > 1:
            # rows of the [b*T, V] result follow the label order y.reshape(-1)
            stacked = concat_cols(logits[0], logits[1])
            for l in logits[2:]:
                stacked = concat_cols(stacked, l)
            stacked = reshape(stacked, (b * T, self.vocab))
        return stacked

    def flatten_labels(self, y):
        return np.asarray(y).reshape(-1)

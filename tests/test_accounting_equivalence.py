"""Gate-level accounting against a per-entity reference.

The reference below keeps one record per gate component, with its own owned
and dependent index slices, and costs FLOPs from per-entity liveness; it
reproduces the registry this package used before accounting moved to one
mask array per gate.  On random masks and flip sequences both must produce
identical report text, report fields and event logs.  Each record also
counts its entity's dense MACs from the architecture (a filter n*k*k*Ho*Wo,
a branch both its convs, an LSTM node h+e, a weight 1), which
``PruneManager.records`` must match.
"""

import numpy as np
import pytest

from maskprune.gate import GateParam
from maskprune.layers import (ADD_FLOPS_PER_ELEM, BN_FLOPS_PER_ELEM, LSTM_GATES,
                              RELU_FLOPS_PER_ELEM)
from maskprune.models import LstmClassifier, LstmLm, Mlp, ResNetSmall, ToyConvNet
from maskprune.pruning import PruneManager, PruneReport, conv_macs


# -- per-entity reference -----------------------------------------------------

class _Rec:
    def __init__(self, entity_id, gate, component, owned, deps, group, macs):
        self.entity_id, self.gate, self.component = entity_id, gate, component
        self.owned, self.deps, self.group, self.macs = owned, deps, group, macs


def _block_sides(model):
    """Output size of each residual block: a stride-2 3x3 pad-1 conv halves it."""
    hw, out = model.input_hw, []
    for blk in model.blocks:
        if blk.unit1.stride == 2:
            hw = tuple((s + 2 - 3) // 2 + 1 for s in hw)
        out.append(hw)
    return out


def _unit_macs(u, hw, filters):
    _, n, k, _ = u.weights.shape
    return filters * n * k * k * hw[0] * hw[1]


def _filter_recs(u, nxt_w, hw):
    return [_Rec(f"{u.name}[{i}]", u.gate, i,
                 [(f"{u.name}.w", (i,)), (f"{u.name}.bn.gamma", (i,)),
                  (f"{u.name}.bn.beta", (i,))],
                 [] if nxt_w is None else [(nxt_w, (slice(None), i))], u.name,
                 _unit_macs(u, hw, 1))
            for i in range(u.out_channels)]


def _records(model):
    if isinstance(model, Mlp):
        out = []
        for li, layer in enumerate(model.layers):
            g, (q, p) = layer.gate, layer.w.shape
            for i in range(q * p):
                idx = np.unravel_index(i, (q, p))
                out.append(_Rec(f"fc{li}.w[{idx[0]},{idx[1]}]", g, i,
                                [(f"fc{li}.w", idx)], [], f"fc{li}", 1))
        return out
    if isinstance(model, ToyConvNet):
        out = []
        for ui, u in enumerate(model.units):
            last = ui + 1 == len(model.units)
            out += _filter_recs(u, "head.w" if last else f"{model.units[ui + 1].name}.w",
                                model.input_hw)
        return out
    if isinstance(model, ResNetSmall):
        if model.granularity == "subnetwork":
            return [_Rec(blk.name, blk.gate, 0,
                         [(f"{u.name}.{p}", (Ellipsis,)) for u in (blk.unit1, blk.unit2)
                          for p in ("w", "bn.gamma", "bn.beta")], [],
                         blk.name.split(".")[0],
                         sum(_unit_macs(u, hw, u.out_channels)
                             for u in (blk.unit1, blk.unit2)))
                    for blk, hw in zip(model.blocks, _block_sides(model))]
        out = _filter_recs(model.stem, f"{model.blocks[0].unit1.name}.w", model.input_hw)
        for blk, hw in zip(model.blocks, _block_sides(model)):
            out += _filter_recs(blk.unit1, f"{blk.unit2.name}.w", hw)
            out += _filter_recs(blk.unit2, None, hw)
        return out
    out = []
    for s, cell in enumerate(model.cells):
        # a node reads h_{t-1} and x_t: hidden plus the embedding or lower hidden size
        macs = model.hidden + (model.embed.shape[1] if s == 0 else model.hidden)
        for k in LSTM_GATES:
            out += [_Rec(f"{cell.name}.{k}[{i}]", cell.gates[k], i,
                         [(f"{cell.name}.W_{k}", (i,)), (f"{cell.name}.b_{k}", (i,))], [],
                         f"{cell.name}.{k}", macs)
                    for i in range(model.hidden)]
    return out


def _flops(model, active):
    if isinstance(model, Mlp):
        total = 0
        for li, layer in enumerate(model.layers):
            q, p = layer.w.shape
            live = sum(active[f"fc{li}.w[{i},{j}]"] for i in range(q) for j in range(p))
            total += 2 * live + q
            if li < len(model.layers) - 1:
                total += q * RELU_FLOPS_PER_ELEM
        return total
    if isinstance(model, ToyConvNet):
        oh, ow = model.input_hw
        total, live_in = 0, model.in_channels
        for u in model.units:
            live_out = sum(active[f"{u.name}[{i}]"] for i in range(u.out_channels))
            total += 2 * conv_macs(live_out, live_in, u.weights.shape[2], oh, ow)
            total += live_out * oh * ow * (BN_FLOPS_PER_ELEM + RELU_FLOPS_PER_ELEM)
            live_in = live_out
        total += live_in * oh * ow
        return total + 2 * model.head.w.shape[0] * live_in + model.head.w.shape[0]
    if isinstance(model, ResNetSmall):
        def unit_flops(u, live_in, live_out, hw):
            elems = live_out * hw[0] * hw[1]
            cost = (2 * conv_macs(live_out, live_in, u.weights.shape[2], *hw)
                    + elems * BN_FLOPS_PER_ELEM)
            return cost + (elems * RELU_FLOPS_PER_ELEM if u.relu else 0)

        def live_filters(u):
            if model.granularity != "filter":
                return u.out_channels
            return sum(active[f"{u.name}[{i}]"] for i in range(u.out_channels))

        total = unit_flops(model.stem, model.in_channels, live_filters(model.stem),
                           model.input_hw)
        prev_out = live_filters(model.stem)
        for idx, (blk, hw) in enumerate(zip(model.blocks, _block_sides(model))):
            width = blk.unit2.out_channels
            block_in = prev_out if idx == 0 else blk.unit1.weights.shape[1]
            if model.granularity != "subnetwork" or active[blk.name]:
                l1 = live_filters(blk.unit1)
                total += unit_flops(blk.unit1, block_in, l1, hw)
                total += unit_flops(blk.unit2, l1, live_filters(blk.unit2), hw)
                total += width * hw[0] * hw[1] * ADD_FLOPS_PER_ELEM
            if blk.down is not None:
                total += (2 * conv_macs(width, blk.down.weights.shape[1], 1, *hw)
                          + width * hw[0] * hw[1] * BN_FLOPS_PER_ELEM)
            prev_out = width
        last_hw = _block_sides(model)[-1]
        width = model.blocks[-1].unit2.out_channels
        total += width * last_hw[0] * last_hw[1]
        return total + 2 * model.head.w.shape[0] * width + model.head.w.shape[0]
    total = 0
    for cell in model.cells:
        in_dim = cell.weights["f"].shape[1]
        for k in LSTM_GATES:
            live = sum(active[f"{cell.name}.{k}[{i}]"] for i in range(model.hidden))
            total += 2 * live * in_dim + 2 * live
        total += 4 * model.hidden
    return total + 2 * model.head.w.shape[0] * model.hidden + model.head.w.shape[0]


class _ReferenceManager:
    """Per-record snapshot: one liveness flag, one slice list, one event check each."""

    def __init__(self, model):
        self.model = model
        self.records = _records(model)
        names = [n for n in model.params() if not n.endswith(".alpha")]
        self.weight_names = names
        self.total_params = int(sum(model.params()[n].size for n in names))
        self.total_flops = int(_flops(model, {r.entity_id: True for r in self.records}))
        self.last = {r.entity_id: True for r in self.records}
        self.events = []

    def snapshot(self, step):
        params = self.model.params()
        active = {r.entity_id: bool(r.gate.mask()[r.component]) for r in self.records}
        for eid, now in active.items():
            if now != self.last[eid]:
                self.events.append((step, eid, "1->0" if self.last[eid] else "0->1"))
        self.last = dict(active)
        dead = {n: np.zeros(params[n].shape, dtype=bool) for n in self.weight_names}
        for rec in self.records:
            if not active[rec.entity_id]:
                for name, idx in rec.owned + rec.deps:
                    dead[name][idx] = True
        pruned = int(sum(g.sum() for g in dead.values()))
        live_flops = int(_flops(self.model, active))
        n_active = sum(active.values())
        K = len(self.records)
        per_group = {}
        for rec in self.records:
            bucket = per_group.setdefault(rec.group, [0, 0])
            bucket[1] += 1
            bucket[0] += int(active[rec.entity_id])
        return PruneReport(
            step=step, active=active, active_entities=n_active, K=K,
            pruned_ratio=1.0 - n_active / K, total_params=self.total_params,
            pruned_params=pruned, pruned_params_fraction=pruned / self.total_params,
            total_flops=self.total_flops, live_flops=live_flops,
            pruned_flops_fraction=1.0 - live_flops / self.total_flops,
            per_group={k: (v[0], v[1]) for k, v in per_group.items()},
            events=list(self.events))


# -- equivalence ----------------------------------------------------------------

MODELS = {
    "mlp-weight": lambda: Mlp(12, (8, 6), 4, seed=0, granularity="weight"),
    # no hidden layer, so no ReLU cost
    "mlp-weight-no-hidden": lambda: Mlp(12, (), 4, seed=0, granularity="weight"),
    "toy-filter": lambda: ToyConvNet((4, 6, 5), input_hw=(6, 6), classes=4, seed=0,
                                     granularity="filter"),
    # the pool's cost rides on the only unit
    "toy-filter-one-unit": lambda: ToyConvNet((5,), input_hw=(6, 6), classes=4, seed=0,
                                              granularity="filter"),
    "resnet-filter": lambda: ResNetSmall((4, 6), 2, input_hw=(9, 9), classes=3, seed=0,
                                         granularity="filter"),
    "resnet-subnetwork": lambda: ResNetSmall((4, 6, 8), 2, input_hw=(9, 9), classes=3,
                                             seed=0, granularity="subnetwork"),
    "lstm-classifier-1": lambda: LstmClassifier(8, 4, 5, stacks=1, seed=0,
                                                granularity="node"),
    "lstm-classifier-2": lambda: LstmClassifier(8, 4, 5, stacks=2, seed=0,
                                                granularity="node"),
    "lstm-lm-1": lambda: LstmLm(8, 4, 5, stacks=1, seed=0, granularity="node"),
    "lstm-lm-2": lambda: LstmLm(8, 4, 5, stacks=2, seed=0, granularity="node"),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gate_level_accounting_matches_per_entity_reference(name):
    model = MODELS[name]()
    mgr, ref = PruneManager(model), _ReferenceManager(model)
    assert mgr.K == len(ref.records)
    rng = np.random.default_rng(sum(map(ord, name)))
    # all active, random prunings, all pruned, random again: every flip direction
    for step, p in enumerate((0.0, 0.3, 0.6, 1.0, 0.5, 0.2, 0.0, 0.8)):
        for g in model.gates():
            g.alpha[:] = np.where(rng.random(g.dim) < p, 0.0, 1.0)
        got, want = mgr.snapshot(step), ref.snapshot(step)
        assert got.to_text() == want.to_text()
        assert got == want              # every field, the active flags included
        assert mgr.events == ref.events
    assert ref.events
    assert [(r.entity_id, r.group, r.macs) for r in mgr.records] == \
        [(r.entity_id, r.group, r.macs) for r in ref.records]


def test_snapshot_computes_each_gate_mask_once(monkeypatch):
    model = ResNetSmall((4, 6), 2, input_hw=(9, 9), classes=3, seed=0,
                        granularity="filter")
    mgr = PruneManager(model)
    calls = []
    mask = GateParam.mask

    def counting_mask(self):
        calls.append(self.name)
        return mask(self)

    monkeypatch.setattr(GateParam, "mask", counting_mask)
    mgr.snapshot(1)
    assert len(calls) == len(model.gates())


def test_lenet_300_100_weight_gates_two_snapshots():
    model = Mlp(784, (300, 100), 10, seed=0, granularity="weight")
    mgr = PruneManager(model)
    assert mgr.K == 266_200
    first = mgr.snapshot(1)
    assert first.active_entities == first.K and first.pruned_params == 0
    model.gates()[1].alpha[:1000] = 0.0
    second = mgr.snapshot(2)
    assert second.active_entities == mgr.K - 1000
    assert second.pruned_params == 1000
    assert second.live_flops == first.live_flops - 2 * 1000
    assert len(second.events) == 1000
    assert second.events[0] == (2, "fc1.w[0,0]", "1->0")
    assert second.events[-1] == (2, "fc1.w[3,99]", "1->0")

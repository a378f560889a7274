import numpy as np
import pytest

from maskprune.gate import AXIS0, ELEMENTWISE, WHOLE, GateParam
from maskprune.models import (BN_FLOPS_PER_ELEM, RELU_FLOPS_PER_ELEM,
                              LstmClassifier, Mlp, ResNetSmall, ToyConvNet)
from maskprune.pruning import GateDecl, PruneManager, conv_macs, replay_events


def test_conv_macs_examples():
    assert conv_macs(1, 1, 1, 4, 4) == 16
    assert conv_macs(8, 3, 3, 32, 32) == 8 * 3 * 9 * 1024 == 221184


def test_conv_macs_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m, n, k = rng.integers(1, 5, size=3)
        oh, ow = rng.integers(1, 7, size=2)
        count = 0
        for _f in range(m):
            for _c in range(n):
                for _ki in range(k):
                    for _kj in range(k):
                        count += oh * ow
        assert conv_macs(m, n, int(k), int(oh), int(ow)) == count


def test_registration_constants_match_reference_architectures():
    resnet_filter = ResNetSmall((16, 32, 64), 9, granularity="filter", seed=0)
    assert PruneManager(resnet_filter).K == 2032
    resnet_subnet = ResNetSmall((16, 32, 64), 9, granularity="subnetwork", seed=0)
    assert PruneManager(resnet_subnet).K == 27
    lstm = LstmClassifier(vocab=16, embed_dim=8, hidden=150, granularity="node", seed=0)
    assert PruneManager(lstm).K == 600


def test_all_active_snapshot_is_dense():
    model = ToyConvNet((4, 6), input_hw=(8, 8), classes=3, granularity="filter", seed=1)
    report = PruneManager(model).snapshot(0)
    assert report.pruned_ratio == 0.0
    assert report.pruned_params == 0
    assert report.pruned_params_fraction == 0.0
    assert report.pruned_flops_fraction == 0.0
    assert report.active_entities == report.K == 10


def test_ungated_model_snapshot_is_dense():
    report = PruneManager(Mlp(4, (3,), 2)).snapshot(1)
    assert report.K == report.active_entities == 0
    assert report.pruned_ratio == 0.0 and report.pruned_params == 0
    # fc0: 12 weights, 3 biases with ReLU; fc1: 6 weights, 2 biases
    assert report.live_flops == report.total_flops == 2 * 12 + 2 * 3 + 2 * 6 + 2


def test_all_pruned_chain_kills_every_gated_array():
    model = ToyConvNet((4, 6), input_hw=(8, 8), classes=3, granularity="filter", seed=1)
    mgr = PruneManager(model)
    for g in model.gates():
        g.alpha[:] = 0.0
    report = mgr.snapshot(1)
    assert report.active_entities == 0
    # every conv/bn array and every head column is dead; only head bias lives
    assert report.pruned_params == report.total_params - model.head_b.size
    assert report.pruned_ratio == 1.0


class _ConvAccountingOracle:
    """Exhaustive loop enumeration of dead parameters and live MACs."""

    def __init__(self, model: ToyConvNet, live: dict[str, bool]):
        self.model = model
        self.live = live

    def _filter_live(self, ui, i):
        return self.live[f"conv{ui}[{i}]"]

    def dead_params(self) -> int:
        dead = 0
        units = self.model.units
        for ui, u in enumerate(units):
            m, n, k, _ = u.weights.shape
            for i in range(m):
                for c in range(n):
                    in_dead = ui > 0 and not self._filter_live(ui - 1, c)
                    for _ki in range(k):
                        for _kj in range(k):
                            if not self._filter_live(ui, i) or in_dead:
                                dead += 1
            for i in range(m):                      # bn gamma + beta
                if not self._filter_live(ui, i):
                    dead += 2
        classes, c_last = self.model.head_w.shape
        for j in range(c_last):
            if not self._filter_live(len(units) - 1, j):
                dead += classes
        return dead

    def flops(self) -> int:
        oh, ow = self.model.input_hw
        total = 0
        prev_live = list(range(self.model.in_channels))
        for ui, u in enumerate(self.model.units):
            live_filters = [i for i in range(u.out_channels)
                            if self._filter_live(ui, i)]
            k = u.weights.shape[2]
            macs = 0
            for _i in live_filters:
                for _c in prev_live:
                    macs += k * k * oh * ow
            total += 2 * macs
            total += len(live_filters) * oh * ow * (BN_FLOPS_PER_ELEM
                                                    + RELU_FLOPS_PER_ELEM)
            prev_live = live_filters
        total += len(prev_live) * oh * ow
        classes = self.model.head_w.shape[0]
        total += 2 * classes * len(prev_live) + classes
        return total


def test_toy_convnet_accounting_matches_enumeration_oracle():
    model = ToyConvNet((4, 8), input_hw=(8, 8), classes=5, granularity="filter", seed=2)
    mgr = PruneManager(model)
    model.units[1].gate.alpha[2] = 0.0
    model.units[1].gate.alpha[5] = 0.0
    report = mgr.snapshot(0)
    oracle = _ConvAccountingOracle(model, report.active)
    assert report.pruned_params == oracle.dead_params()
    assert report.live_flops == oracle.flops()
    assert report.pruned_params_fraction == oracle.dead_params() / report.total_params


def test_accounting_oracle_on_random_prunings():
    rng = np.random.default_rng(3)
    model = ToyConvNet((4, 6, 5), input_hw=(6, 6), classes=4,
                       granularity="filter", seed=3)
    mgr = PruneManager(model)
    for trial in range(5):
        for g in model.gates():
            g.alpha[:] = np.where(rng.random(g.dim) < 0.35, 0.0, 1.0)
        report = mgr.snapshot(trial)
        oracle = _ConvAccountingOracle(model, report.active)
        assert report.pruned_params == oracle.dead_params()
        assert report.live_flops == oracle.flops()


def test_monotonicity_and_conservation():
    model = ToyConvNet((4, 6), input_hw=(8, 8), classes=3, granularity="filter", seed=4)
    mgr = PruneManager(model)
    order = [(u, i) for u, unit in enumerate(model.units)
             for i in range(unit.out_channels)]
    np.random.default_rng(5).shuffle(order)
    prev_p, prev_f = -1.0, -1.0
    for step, (u, i) in enumerate(order):
        model.units[u].gate.alpha[i] = 0.0
        report = mgr.snapshot(step)
        assert report.pruned_params_fraction >= prev_p
        assert report.pruned_flops_fraction >= prev_f
        prev_p, prev_f = report.pruned_params_fraction, report.pruned_flops_fraction
        active_params = report.total_params - report.pruned_params
        assert active_params + report.pruned_params == report.total_params


def test_rejuvenation_event_log_replays_to_final_state():
    model = ToyConvNet((4, 4), input_hw=(8, 8), classes=3, granularity="filter", seed=6)
    mgr = PruneManager(model)
    rng = np.random.default_rng(7)
    for step in range(1, 9):
        g = model.gates()[rng.integers(0, 2)]
        i = rng.integers(0, g.dim)
        g.alpha[i] = 0.0 if g.alpha[i] != 0.0 else 1.0
        mgr.snapshot(step)
    final = mgr.active_flags()
    replayed = replay_events(list(final), mgr.events)
    assert replayed == final
    steps = [s for s, _, _ in mgr.events]
    assert steps == sorted(steps)


def test_events_record_direction():
    model = ToyConvNet((4,), input_hw=(8, 8), classes=3, granularity="filter", seed=8)
    mgr = PruneManager(model)
    model.units[0].gate.alpha[1] = 0.0
    mgr.snapshot(1)
    model.units[0].gate.alpha[1] = 1.0
    mgr.snapshot(2)
    assert mgr.events == [(1, "conv0[1]", "1->0"), (2, "conv0[1]", "0->1")]


class _BadModel:
    def __init__(self):
        self.gate = GateParam.create("filter", 2, name="g")

    def params(self):
        return {"w": np.zeros((2, 2))}

    def gates(self):
        return [self.gate]

    def gate_decls(self):
        rec = GateDecl(self.gate, "g", 1, lambda i: f"e{i}", owned=(("w", AXIS0),))
        dup = GateDecl(self.gate, "g", 1, lambda i: f"f{i}", owned=(("w", AXIS0),))
        return [rec, dup]

    def flop_costs(self):
        return {}, 1


def test_duplicate_gate_component_rejected():
    with pytest.raises(ValueError):
        PruneManager(_BadModel())


def test_undeclared_gate_and_mismatched_slices_rejected():
    model = _BadModel()
    g = model.gate
    for decls in ([],
                  [GateDecl(g, "g", 1, str, owned=(("w", ELEMENTWISE),))],
                  [GateDecl(g, "g", 1, str, deps=(("w", WHOLE),))],
                  [GateDecl(g, "g", 1, str, owned=(("w", AXIS0),),
                            decayed=(("w", AXIS0),))]):
        model.gate_decls = lambda decls=decls: decls
        with pytest.raises(ValueError):
            PruneManager(model)


def test_cost_of_unknown_weight_rejected():
    model = _BadModel()
    model.gate_decls = lambda: [GateDecl(model.gate, "g", 1, str, owned=(("w", AXIS0),))]
    model.params = lambda: {"w": np.zeros((2, 2)), "g.alpha": model.gate.alpha}
    PruneManager(model)
    for costs in ({"v": 2}, {"w": 2, "g.alpha": 1}):
        model.flop_costs = lambda costs=costs: (costs, 0)
        with pytest.raises(ValueError, match="unknown"):
            PruneManager(model)


def test_report_serialization_roundtrip_fields():
    model = ToyConvNet((4, 4), input_hw=(8, 8), classes=3, granularity="filter", seed=9)
    mgr = PruneManager(model)
    model.units[0].gate.alpha[0] = 0.0
    report = mgr.snapshot(3)
    text = report.to_text()
    assert "maskprune prune report v1" in text
    assert "entities: 7 active / 8 total" in text
    assert "conv0: 3/4 active" in text
    assert "1->0" in text
    js = report.to_json()
    assert '"K": 8' in js

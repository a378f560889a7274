"""Method outcome: gated training prunes and keeps the task, at the weight, filter
and subnetwork granularities.

Each case trains one small synthetic config twice from the same seed, dense
(granularity none) and gated at ``gate_t`` 0.1, and bands the gated run's
final pruned ratio and its test-error gap to the dense run.  It also requires
0->1 (rejuvenation) events.  The identity-reduction tests, the accounting
oracles and gradcheck each pin one piece of the method; these cases fail when
the objective stops pruning, prunes everything, or loses the task.

Seeds 1-5 of the conv configs gave pruned ratios 0.50 (toy-convnet) and
0.25-0.50 (resnet-small, 4 blocks), test-error gaps of at most 0.016, and
1-23 rejuvenation events.  Without the learning-rate decay at epoch 4 the
toy net's test error swings between epochs (0.0 -> 0.66 at seed 2).

The mlp case (``synth-class``, 16 features, one hidden layer of 16, margin 6)
prunes far past ``target_c``: seeds 1-5 gave pruned ratios 0.951-0.967, gaps
of at most 0.016 (gated test error at most 0.023) and 136-161 rejuvenation
events, 0.1 s per seed.  The ratio hinge is one-sided, so nothing stops l1
below the target; its band (0.9-0.99) states that over-pruning, and the gap
band still requires the pruned net to keep the task.
"""

import pytest

from maskprune.config import build_datasets, build_model, train_config_from, validate_config
from maskprune.pruning import PruneManager
from maskprune.training import train

_COMMON = dict(schema_version=1, dataset="synth-images", image_hw=6, image_channels=2,
               data_classes=3, data_margin=12.0, data_n=256, data_test_n=128,
               batch_size=16, epochs=6, base_lr=0.1, decay_epochs=[4],
               lambda3=1.0, target_c=0.5, seed=1, data_seed=1)

# (arch config, gated granularity, pruned-ratio band)
CASES = {
    "mlp-weight": (dict(arch="mlp", dataset="synth-class", data_dim=16, mlp_hidden=[16],
                        data_margin=6.0, lambda1=3e-2),
                   "weight", (0.9, 0.99)),
    "toy-convnet-filter": (dict(arch="toy-convnet", conv_channels=[8, 8], lambda1=3e-2),
                           "filter", (0.3, 0.7)),
    "resnet-small-subnetwork": (dict(arch="resnet-small", stage_widths=[4, 8],
                                     blocks_per_stage=2, lambda1=5e-2),
                                "subnetwork", (0.25, 0.75)),
}
MAX_ERROR_GAP = 0.1


def _run(raw):
    cfg = validate_config(raw)
    model = build_model(cfg)
    train_ds, test_ds = build_datasets(cfg)
    manager = PruneManager(model) if model.gates() else None
    return train(model, train_ds, test_ds, train_config_from(cfg), manager=manager), manager


@pytest.mark.parametrize("name", sorted(CASES))
def test_gated_training_prunes_and_keeps_accuracy(name):
    arch_cfg, granularity, (low, high) = CASES[name]
    dense, _ = _run(dict(_COMMON, **arch_cfg, granularity="none"))
    gated, manager = _run(dict(_COMMON, **arch_cfg, granularity=granularity, gate_t=0.1))
    assert dense[-1]["pruned_ratio"] == 0.0 and dense[-1]["test_error"] <= MAX_ERROR_GAP
    assert low <= gated[-1]["pruned_ratio"] <= high
    assert gated[-1]["test_error"] - dense[-1]["test_error"] <= MAX_ERROR_GAP
    assert any(direction == "0->1" for _, _, direction in manager.events)

"""The benchmark's workloads: one `maskprune` run config each, plus sizing.

Each workload is a plain dict so the orchestrator can hand it to a worker
process as JSON (and the smoke test can shrink it).  ``config`` holds the
run-config keys that `maskprune train` would read; the benchmark adds
``schema_version``, ``seed`` and ``data_seed`` from its ``--seed``.

Every workload turns on all three objective terms (nonzero lambda1, lambda2
and lambda3).  The hard threshold ``gate_t`` is raised from the per-granularity
default (1e-4) to 0.1: with momentum the l1 step on alpha is ~1e-3 per step,
which jumps across a 1e-4 window, so the pruned count at the default flickers
from snapshot to snapshot and spreads widely across seeds.  At 0.1 a masked
entity stays masked unless its task gradient revives it, and the pruned
fraction after a fixed step count is steady across seeds.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    # Weight gates on every matrix entry: K = 256*128 + 128*64 + 64*10 = 41,600.
    # PruneManager.snapshot calls EntityRecord.is_active per component, and each
    # call recomputes the whole gate's mask, so one snapshot costs O(K * width)
    # (~1 s here) against a ~4-5 ms step: the pruning layer dominates.
    "mlp-weight": {
        "config": {
            "arch": "mlp", "granularity": "weight", "dataset": "synth-class",
            "data_dim": 256, "mlp_hidden": [128, 64], "data_classes": 10,
            "data_margin": 6.0, "data_n": 6400, "data_test_n": 512,
            "batch_size": 64, "epochs": 2, "snapshot_every": 50,
            "base_lr": 0.1, "alpha_init": 1.0, "gate_t": 0.1,
            "lambda1": 5e-3, "lambda2": 1e-4, "lambda3": 1.0, "target_c": 0.5,
        },
        "warmup_steps": 5,
    },
    # Node gates on the f/i/g/o rows of one LSTM cell: K = 4 * 64 = 256.
    # T = 64 tiny timesteps build ~2.3k graph nodes per step, so per-node Python
    # cost in `tensor` (node creation, _toposort, the O(T^2) concat_cols chain
    # in LstmLm.forward) dominates; conv does no work and pruning almost none.
    "lstm-lm-node": {
        "config": {
            "arch": "lstm-lm", "granularity": "node", "dataset": "synth-seq-markov",
            "data_vocab": 32, "data_seq_len": 64, "embed_dim": 16,
            "lstm_hidden": 64, "lstm_stacks": 1, "data_n": 640, "data_test_n": 64,
            "batch_size": 16, "epochs": 2, "snapshot_every": 50,
            "base_lr": 1.0, "alpha_init": 1.0, "gate_t": 0.1,
            "lambda1": 2e-3, "lambda2": 1e-4, "lambda3": 1.0, "target_c": 0.5,
        },
        "warmup_steps": 5,
    },
    # ResNet-20 with filter gates: K = 16 + 2*(3*16 + 3*32 + 3*64) = 688.
    # conv2d is ~80% of the step; eval runs conv forward-only; the largest
    # checkpoint.  17x17 because even sizes crash on the first stride-2 block
    # (3x3 pad-1 stride-2 needs an odd input); 17 -> 9 -> 5.  Twenty steps per
    # rep are too few to learn (the loss stays near ln 10), but the strong l1
    # term prunes a steady ~83% of the FLOPs by the end of each rep.
    "resnet20-filter": {
        "config": {
            "arch": "resnet-small", "granularity": "filter", "dataset": "synth-images",
            "image_hw": 17, "image_channels": 3, "stage_widths": [16, 32, 64],
            "blocks_per_stage": 3, "data_classes": 10, "data_margin": 30.0,
            "data_n": 160, "data_test_n": 64, "augment": True,
            "batch_size": 16, "epochs": 2, "snapshot_every": 50,
            "base_lr": 0.1, "alpha_init": 0.5, "gate_t": 0.1,
            "lambda1": 0.1, "lambda2": 1e-4, "lambda3": 5.0, "target_c": 0.5,
        },
        "warmup_steps": 3,
    },
}

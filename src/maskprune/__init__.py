"""Training-time structured pruning through differentiable threshold gates."""

from .gate import (GateParam, apply_gate, apply_mask, foothill_fd,
                   foothill_fd_grad, hard_mask, surrogate_mask,
                   surrogate_mask_grad)
from .objective import ObjectiveConfig, cross_entropy, l1_alpha, masked_l2, ratio_hinge
from .pruning import EntityRecord, GateDecl, PruneManager, PruneReport, conv_macs
from .tensor import ShapeError, Tape, Tensor, custom_grad
from .training import TrainConfig, TrainDivergence, evaluate, lr_at, train

__version__ = "0.1.0"

__all__ = [
    "GateParam", "apply_gate", "apply_mask", "foothill_fd", "foothill_fd_grad",
    "hard_mask", "surrogate_mask", "surrogate_mask_grad",
    "ObjectiveConfig", "cross_entropy", "l1_alpha", "masked_l2", "ratio_hinge",
    "EntityRecord", "GateDecl", "PruneManager", "PruneReport", "conv_macs",
    "ShapeError", "Tape", "Tensor", "custom_grad",
    "TrainConfig", "TrainDivergence", "evaluate", "lr_at", "train",
]

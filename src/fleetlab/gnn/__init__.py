"""Tensor autodiff engine and graph Q-network approximators."""

from .autodiff import Tensor, backward, segment_sum
from .qnet import (
    AdamOptimizer,
    CheckpointError,
    GnnConfig,
    ParamStore,
    copy_into_target,
    forward,
    forward_graph,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)

__all__ = [
    "Tensor",
    "backward",
    "segment_sum",
    "GnnConfig",
    "ParamStore",
    "init_params",
    "forward",
    "forward_graph",
    "sgd_step",
    "AdamOptimizer",
    "copy_into_target",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

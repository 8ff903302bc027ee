"""Training substrate: LM trainer and the cached tiny-model zoo."""

from repro.training.trainer import TrainConfig, Trainer, TrainResult
from repro.training.zoo import (
    PretrainedBundle,
    clear_cache,
    get_pretrained,
    model_config,
)

__all__ = [
    "TrainConfig",
    "Trainer",
    "TrainResult",
    "PretrainedBundle",
    "get_pretrained",
    "model_config",
    "clear_cache",
]

"""Graph-based market environment model for pre-launch fund-raising prediction."""

from .autodiff import (
    Parameter,
    Tape,
    Tensor,
    backward,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .data import EncoderConfig, Market
from .model import GMEModel, TrainConfig
from .synth import SynthConfig, generate_market
from .training import build_contexts, evaluate_model, fit_baseline, train_model

__version__ = "0.1.0"

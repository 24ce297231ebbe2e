"""Quantized personalized federated learning simulator.

Library + CLI for jointly training model weights and learnable quantization
centers via alternating proximal gradient steps, in a centralized setting or
across simulated clients with per-client precision, plus FedAvg / local-only
baselines and convergence diagnostics.
"""

from .quantizer import CenterVector, QuantConfig, hard_quantize
from .proxops import ProxParams, prox_c, prox_x, regularizer
from .losses import (
    LogisticLoss,
    LossModel,
    MlpLoss,
    ObjectiveEval,
    QuadraticLoss,
    QuantLayout,
)
from .centralized import (
    DivergenceError,
    HyperParams,
    LambdaSchedule,
    TrainResult,
    run_centralized,
    safe_step_sizes,
    stationarity_gap,
)
from .rng import Rng

__version__ = "0.1.0"

"""Two-stage class-center triplet training for imbalanced classification.

The package couples a small numpy reverse-mode autodiff engine with
class-balanced triplet learning, center-involved fine-tuning losses,
nearest-class-center inference, classic imbalance baselines, and a
cross-validated evaluation harness on synthetic long-tailed data.

Public API (``__all__``); everything else is imported from its module:

- running: run_method, run_holdout, run_crossval, RunRecord
- predicting: predict, compute_centers, CenterTable, evaluate_record
- configs: TrainConfig, Stage1Config, Stage2Config, LossHyper, and the
  INI file's RunSettings via load_settings
- datasets: Dataset, preset_spec, gen_gaussian_imbalanced, load_csv, save_csv
- checkpoints: Checkpoint, save_checkpoint, load_checkpoint
- errors: ContractError, DataFormatError, DivergenceError, ShapeError
"""

from .centers import CenterTable, compute_centers
from .config import RunSettings, load_settings
from .datasets import Dataset, gen_gaussian_imbalanced, load_csv, preset_spec, save_csv
from .errors import ContractError, DataFormatError, DivergenceError, ShapeError
from .losses import LossHyper
from .nn import Checkpoint, load_checkpoint, save_checkpoint
from .training import RunRecord, Stage1Config, Stage2Config, TrainConfig, run_method
from .workflows import evaluate_record, predict, run_crossval, run_holdout

__all__ = [
    "run_method", "run_holdout", "run_crossval", "RunRecord",
    "predict", "compute_centers", "CenterTable", "evaluate_record",
    "TrainConfig", "Stage1Config", "Stage2Config", "LossHyper",
    "RunSettings", "load_settings",
    "Dataset", "preset_spec", "gen_gaussian_imbalanced", "load_csv", "save_csv",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
    "ContractError", "DataFormatError", "DivergenceError", "ShapeError",
]

__version__ = "0.1.0"

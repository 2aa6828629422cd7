"""Two-stage class-center triplet training for imbalanced classification.

The package couples a small numpy reverse-mode autodiff engine with
class-balanced triplet learning, center-involved fine-tuning losses,
nearest-class-center inference, classic imbalance baselines, and a
cross-validated evaluation harness on synthetic long-tailed data.
"""

from .autodiff import Tensor, finite_diff_check, no_grad
from .centers import (CenterTable, compute_centers, embed_all,
                      init_trainable_centers, nearest_center_predict_batch)
from .datasets import Dataset, SyntheticSpec, gen_gaussian_imbalanced, load_csv, preset_spec, save_csv
from .errors import (ContractError, DataFormatError, DivergenceError,
                     HingeKinkError, ShapeError)
from .evaluation import (MetricsReport, WilcoxonResult, compactness, confusion,
                         macro_metrics, small_class_report, stratified_holdout,
                         stratified_kfold, wilcoxon_signed_rank)
from .losses import LossHyper, inverse_frequency_weights
from .nn import Adam, Checkpoint, FeatureExtractor, LinearHead, load_checkpoint, save_checkpoint
from .sampling import (BatchPlan, DatasetIndex, build_balanced_batch, flat_batch_plans,
                       form_center_triplets, form_pairs, form_quadruplets, form_triplets,
                       oversample_indices)
from .training import (OptimizerConfig, RunRecord, Stage1Config, Stage2Config,
                       TrainConfig, run_baseline, run_method, run_stage1,
                       run_stage2, run_two_stage)
from .workflows import (evaluate_record, predict, run_crossval, run_holdout,
                        run_sweep)

__version__ = "0.1.0"

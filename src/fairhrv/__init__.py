"""Fairness-aware anxiety prediction on heart-rate-variability windows.

Modules: hrv_features (25-feature extraction and R-peak detection),
dataset (cohorts, splits, synthesis), nnet (the float64 LSTM engine),
mitigation (checkpointed MTL training + uncertainty-based selection),
fairness (disparate impact, equalized odds, the fairness report,
reweighting), saliency (input-gradient maps), pipeline (end-to-end
runs), cli (command line).
"""

__version__ = "0.1.0"

from .dataset import Cohort, LabeledWindow, SplitCohort, generate_synthetic, read_windows_csv, split_cohort, standardize
from .fairness import disparate_impact, equalized_odds_diffs, evaluate_predictions, reweigh_weights
from .hrv_features import FEATURE_NAMES, EcgSignal, FeatureVector, NNIntervalSeries, detect_r_peaks, extract_features
from .mitigation import (
    SelectionResult,
    TrainConfig,
    UncertaintyRecord,
    evaluate_uncertainties,
    final_predict,
    select_checkpoint,
    train_baseline,
    train_mtl_with_checkpoints,
    train_reweighted,
)
from .nnet import ModelArch, ModelParams, forward, input_gradient, mc_forward, mtl_loss
from .saliency import SaliencyMap, average_saliency_over_windows, saliency_for_sample

__all__ = [
    "__version__",
    "Cohort", "LabeledWindow", "SplitCohort", "generate_synthetic", "read_windows_csv", "split_cohort", "standardize",
    "disparate_impact", "equalized_odds_diffs", "evaluate_predictions", "reweigh_weights",
    "FEATURE_NAMES", "EcgSignal", "FeatureVector", "NNIntervalSeries", "detect_r_peaks", "extract_features",
    "SelectionResult", "TrainConfig", "UncertaintyRecord", "evaluate_uncertainties", "final_predict",
    "select_checkpoint", "train_baseline", "train_mtl_with_checkpoints", "train_reweighted",
    "ModelArch", "ModelParams", "forward", "input_gradient", "mc_forward", "mtl_loss",
    "SaliencyMap", "average_saliency_over_windows", "saliency_for_sample",
]

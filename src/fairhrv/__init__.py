"""Fairness-aware anxiety prediction on heart-rate-variability windows.

Modules: hrv_features (25-feature extraction and R-peak detection),
dataset (cohorts, splits, synthesis), nnet (the float64 LSTM engine),
mitigation (checkpointed MTL training + uncertainty-based selection),
fairness (the fairness report and reweighting), saliency (input-gradient
maps), pipeline (end-to-end runs), cli (command line).
"""

__version__ = "0.1.0"

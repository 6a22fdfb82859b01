"""Group fairness metrics, the fairness report, and the reweighting preprocessor.

All metrics operate on aligned binary sequences where the group encoding
is 1 for the privileged (majority) class and 0 for the unprivileged
class. Signed differences follow the convention unprivileged minus
privileged. Pure counting functions; thread-safe.

One rule for degenerate groups: a metric the inputs do not define is
None (the ratio when the privileged positive rate is zero, the rate gaps
when a group lacks positive or negative labels), and an empty group is
an error.
"""

import math

import numpy as np

DEFAULT_BOUNDS = (0.8, 1.2)


def _as_binary(values, name):
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must be binary 0/1")
    return arr


def _group_sizes(groups) -> tuple:
    """(privileged, unprivileged) member counts; an empty group is an error."""
    n_priv, n_unpriv = int(np.sum(groups == 1)), int(np.sum(groups == 0))
    if n_priv == 0 or n_unpriv == 0:
        raise ValueError(f"group sizes privileged={n_priv}, unprivileged={n_unpriv}")
    return n_priv, n_unpriv


def disparate_impact(outcomes, groups) -> float | None:
    """Pr(outcome=1 | unprivileged) / Pr(outcome=1 | privileged); None when the privileged rate is zero.

    Raises:
        ValueError: a group has no members, giving both group sizes.
    """
    outcomes = _as_binary(outcomes, "outcomes")
    groups = _as_binary(groups, "groups")
    if outcomes.shape != groups.shape:
        raise ValueError("outcomes and groups must be aligned")
    n_priv, n_unpriv = _group_sizes(groups)
    rate_priv = float(np.sum(outcomes[groups == 1])) / n_priv
    rate_unpriv = float(np.sum(outcomes[groups == 0])) / n_unpriv
    return None if rate_priv == 0.0 else rate_unpriv / rate_priv


def equalized_odds_diffs(preds, labels, groups):
    """Signed false-negative and false-positive rate gaps between groups.

    Returns (diff_fn, diff_fp), each unprivileged minus privileged, or
    (None, None) when a group lacks positive or negative true labels.

    Raises:
        ValueError: a group has no members, giving both group sizes.
    """
    preds = _as_binary(preds, "preds")
    labels = _as_binary(labels, "labels")
    groups = _as_binary(groups, "groups")
    if not preds.shape == labels.shape == groups.shape:
        raise ValueError("preds, labels, groups must be aligned")
    _group_sizes(groups)

    rates = {}
    for g in (0, 1):
        mask = groups == g
        pos = mask & (labels == 1)
        neg = mask & (labels == 0)
        if not pos.any() or not neg.any():
            return None, None
        fnr = float(np.sum(pos & (preds == 0))) / int(np.sum(pos))
        fpr = float(np.sum(neg & (preds == 1))) / int(np.sum(neg))
        rates[g] = (fnr, fpr)
    diff_fn = rates[0][0] - rates[1][0]
    diff_fp = rates[0][1] - rates[1][1]
    return diff_fn, diff_fp


def reweigh_weights(labels, groups) -> dict:
    """Per-(group, label) weights w = P(group) * P(label) / P(group, label).

    Applying these weights makes the weighted label distribution
    independent of group (weighted disparate impact exactly 1).

    Raises:
        ValueError: one of the four cells has no samples, naming it.
    """
    labels = _as_binary(labels, "labels")
    groups = _as_binary(groups, "groups")
    if labels.shape != groups.shape:
        raise ValueError("labels and groups must be aligned")
    n = labels.size
    weights = {}
    for g in (0, 1):
        for y in (0, 1):
            n_cell = int(np.sum((groups == g) & (labels == y)))
            if n_cell == 0:
                raise ValueError(f"no samples with group={g}, label={y}")
            n_g = int(np.sum(groups == g))
            n_y = int(np.sum(labels == y))
            weights[(g, y)] = (n_g / n) * (n_y / n) / (n_cell / n)
    return weights


def sample_weights(labels, groups) -> np.ndarray:
    """Expand the reweighting table to one weight per sample."""
    table = reweigh_weights(labels, groups)
    labels = np.asarray(labels, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    return np.array([table[(g, y)] for g, y in zip(groups, labels)], dtype=np.float64)


def accuracy_score(preds, labels) -> float:
    preds = _as_binary(preds, "preds")
    labels = _as_binary(labels, "labels")
    return float(np.mean(preds == labels))


def f1_score(preds, labels) -> float:
    """F1 of the positive class; 0 when there are no predicted or true positives."""
    preds = _as_binary(preds, "preds")
    labels = _as_binary(labels, "labels")
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def prediction_entropy(predictions) -> float:
    """Binary entropy (nats) of the predicted-label distribution.

    Near zero flags a near-constant predictor, which can make fairness
    ratios look deceptively ideal.
    """
    rate = float(np.mean(predictions))
    if rate in (0.0, 1.0):
        return 0.0
    return -(rate * math.log(rate) + (1.0 - rate) * math.log(1.0 - rate))


def evaluate_predictions(outcomes, labels=None, groups=None, attribute=None) -> dict:
    """The 12-key fairness and performance report for binary outcomes.

    Model audit: predictions as ``outcomes`` plus the true ``labels``.
    Dataset audit: the true labels as ``outcomes`` and no ``labels``.
    The module's rule holds for the report too: label metrics are None
    without ``labels`` and group metrics without ``groups``; an undefined
    ``dir`` sets ``dir_undefined`` and is out of bounds.

    Raises:
        ValueError: a group has no members, giving both group sizes.
    """
    outcomes = _as_binary(outcomes, "outcomes")
    report = {"attribute": attribute, "bounds": list(DEFAULT_BOUNDS),
              "prediction_entropy": prediction_entropy(outcomes), "accuracy": None, "f1": None,
              "n_privileged": None, "n_unprivileged": None, "dir": None, "in_bounds": None,
              "dir_undefined": None, "diff_fn": None, "diff_fp": None}
    if labels is not None:
        report.update(accuracy=accuracy_score(outcomes, labels), f1=f1_score(outcomes, labels))
    if groups is None:
        return report
    groups = _as_binary(groups, "groups")
    report.update(n_privileged=int(np.sum(groups == 1)), n_unprivileged=int(np.sum(groups == 0)))
    ratio = disparate_impact(outcomes, groups)
    report.update(dir=ratio, dir_undefined=ratio is None,
                  in_bounds=ratio is not None and DEFAULT_BOUNDS[0] <= ratio <= DEFAULT_BOUNDS[1])
    if labels is not None:
        report["diff_fn"], report["diff_fp"] = equalized_odds_diffs(outcomes, labels, groups)
    return report

"""Group fairness metrics, the fairness report, and the reweighting preprocessor.

All metrics operate on aligned binary sequences where the group encoding
is 1 for the privileged (majority) class and 0 for the unprivileged
class. Signed differences follow the convention unprivileged minus
privileged. Pure counting functions; thread-safe.
"""

import math

import numpy as np

DEFAULT_BOUNDS = (0.8, 1.2)


class EmptyGroup(ValueError):
    """A group has no members."""


class UndefinedRatio(ZeroDivisionError):
    """The privileged positive rate is zero, making the ratio undefined.

    Deliberately an error rather than infinity so degenerate predictors
    (for example constant-negative models) surface loudly.
    """


class MissingOutcomeClass(ValueError):
    """A group lacks positive or negative true labels."""


class EmptyCell(ValueError):
    """A (group, label) cell is empty; reweighting weights are undefined."""


def _as_binary(values, name):
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must be binary 0/1")
    return arr


def disparate_impact(outcomes, groups) -> float:
    """Pr(outcome=1 | unprivileged) / Pr(outcome=1 | privileged).

    Raises:
        EmptyGroup: a group has no members.
        UndefinedRatio: the privileged positive rate is zero.
    """
    outcomes = _as_binary(outcomes, "outcomes")
    groups = _as_binary(groups, "groups")
    if outcomes.shape != groups.shape:
        raise ValueError("outcomes and groups must be aligned")
    n_priv = int(np.sum(groups == 1))
    n_unpriv = int(np.sum(groups == 0))
    if n_priv == 0 or n_unpriv == 0:
        raise EmptyGroup(f"group sizes privileged={n_priv}, unprivileged={n_unpriv}")
    rate_priv = float(np.sum(outcomes[groups == 1])) / n_priv
    rate_unpriv = float(np.sum(outcomes[groups == 0])) / n_unpriv
    if rate_priv == 0.0:
        raise UndefinedRatio("privileged group has no positive outcomes")
    return rate_unpriv / rate_priv


def equalized_odds_diffs(preds, labels, groups):
    """Signed false-negative and false-positive rate gaps between groups.

    Returns (diff_fn, diff_fp), each unprivileged minus privileged.

    Raises:
        MissingOutcomeClass: a group lacks positive or negative true labels.
    """
    preds = _as_binary(preds, "preds")
    labels = _as_binary(labels, "labels")
    groups = _as_binary(groups, "groups")
    if not preds.shape == labels.shape == groups.shape:
        raise ValueError("preds, labels, groups must be aligned")

    rates = {}
    for g in (0, 1):
        mask = groups == g
        pos = mask & (labels == 1)
        neg = mask & (labels == 0)
        if not pos.any() or not neg.any():
            raise MissingOutcomeClass(f"group {g} lacks positive or negative labels")
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
        EmptyCell: one of the four cells has no samples.
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
                raise EmptyCell(f"no samples with group={g}, label={y}")
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
    One rule for degenerate inputs: a metric the inputs do not define is
    None (label metrics without ``labels``, group metrics without
    ``groups``, ``dir`` when the privileged positive rate is zero, which
    sets ``dir_undefined``, and the rate gaps when a group lacks positive
    or negative labels). An empty group raises ``EmptyGroup``.
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
    try:
        ratio = disparate_impact(outcomes, groups)
        in_bounds = bool(DEFAULT_BOUNDS[0] <= ratio <= DEFAULT_BOUNDS[1])
        report.update(dir=ratio, in_bounds=in_bounds, dir_undefined=False)
    except UndefinedRatio:
        report.update(in_bounds=False, dir_undefined=True)
    if labels is not None:
        try:
            report["diff_fn"], report["diff_fp"] = equalized_odds_diffs(outcomes, labels, groups)
        except MissingOutcomeClass:
            pass
    return report

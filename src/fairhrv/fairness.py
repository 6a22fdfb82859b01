"""Group fairness metrics, the fairness report, and the reweighting preprocessor.

Every number here is read off one 2x2x2 table of counts by (group,
label, outcome), which ``_counts`` builds after checking its inputs once:
aligned, one-dimensional and 0/1. The group encoding is 1 for the
privileged (majority) class and 0 for the unprivileged class. Signed
differences follow the convention unprivileged minus privileged. Pure
counting functions; thread-safe.

One rule for degenerate groups: a metric the inputs do not define is
None (the ratio when the privileged positive rate is zero, the rate gaps
when a group lacks positive or negative labels), and an empty group is
an error.
"""

import math

import numpy as np

DEFAULT_BOUNDS = (0.8, 1.2)


def _counts(outcomes, labels=None, groups=None) -> np.ndarray:
    """The (group, label, outcome) table of counts, shape (2, 2, 2); a sequence left out counts as all 0.

    Raises:
        ValueError: a sequence is not one-dimensional or not 0/1, or the
            sequences differ in length, naming them.
    """
    given = {}
    for name, values in (("outcomes", outcomes), ("labels", labels), ("groups", groups)):
        if values is None:
            continue
        arr = given[name] = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} must be binary 0/1")
    if len({arr.size for arr in given.values()}) > 1:
        raise ValueError(f"{' and '.join(given)} must be aligned")
    codes = 4 * given.get("groups", 0) + 2 * given.get("labels", 0) + given["outcomes"]
    return np.bincount(codes, minlength=8).reshape(2, 2, 2)


def sample_weights(labels, groups) -> np.ndarray:
    """Each sample's reweighting weight, w = P(group) * P(label) / P(group, label) of its (group, label) cell.

    Applying these weights makes the weighted label distribution
    independent of group (weighted disparate impact exactly 1).

    Raises:
        ValueError: one of the four cells has no samples, naming it.
    """
    table = _counts(labels, groups=groups)[:, 0, :]  # (group, label): labels are the outcomes, as in a dataset audit
    if not table.all():
        raise ValueError("no samples with group={}, label={}".format(*np.argwhere(table == 0)[0]))
    n = table.sum()
    by_cell = (table.sum(axis=1, keepdims=True) / n) * (table.sum(axis=0) / n) / (table / n)
    return by_cell[np.asarray(groups, dtype=np.int64), np.asarray(labels, dtype=np.int64)]


def accuracy_score(preds, labels) -> float:
    table = _counts(preds, labels)
    return float(table.diagonal(axis1=1, axis2=2).sum() / table.sum())


def evaluate_predictions(outcomes, labels=None, groups=None, attribute=None) -> dict:
    """The 12-key fairness and performance report for binary outcomes.

    Model audit: predictions as ``outcomes`` plus the true ``labels``.
    Dataset audit: the true labels as ``outcomes`` and no ``labels``.
    The module's rule holds for the report too: label metrics are None
    without ``labels`` and group metrics without ``groups``; an undefined
    ``dir`` sets ``dir_undefined`` and is out of bounds.
    ``prediction_entropy`` is the binary entropy (nats) of the outcome
    rate: near zero flags a near-constant predictor, which can make the
    ratio look deceptively ideal. F1 is 0 with no predicted or true
    positives.

    Raises:
        ValueError: a group has no members, giving both group sizes.
    """
    table = _counts(outcomes, labels, groups)
    rate = float(table[..., 1].sum() / table.sum())
    entropy = 0.0 if rate in (0.0, 1.0) else -(rate * math.log(rate) + (1.0 - rate) * math.log(1.0 - rate))
    report = {"attribute": attribute, "bounds": list(DEFAULT_BOUNDS), "prediction_entropy": entropy,
              "accuracy": None, "f1": None, "n_privileged": None, "n_unprivileged": None, "dir": None,
              "in_bounds": None, "dir_undefined": None, "diff_fn": None, "diff_fp": None}
    if labels is not None:
        tp, fp, fn = table[:, 1, 1].sum(), table[:, 0, 1].sum(), table[:, 1, 0].sum()
        report.update(accuracy=float(table.diagonal(axis1=1, axis2=2).sum() / table.sum()),
                      f1=float(2.0 * tp / (2 * tp + fp + fn)) if tp + fp + fn else 0.0)
    if groups is None:
        return report
    size = table.sum(axis=(1, 2))  # by group: unprivileged, privileged
    if not size.all():
        raise ValueError(f"group sizes privileged={size[1]}, unprivileged={size[0]}")
    rate_unpriv, rate_priv = table[..., 1].sum(axis=1) / size
    ratio = None if rate_priv == 0.0 else float(rate_unpriv / rate_priv)
    report.update(n_privileged=int(size[1]), n_unprivileged=int(size[0]), dir=ratio, dir_undefined=ratio is None,
                  in_bounds=ratio is not None and DEFAULT_BOUNDS[0] <= ratio <= DEFAULT_BOUNDS[1])
    by_label = table.sum(axis=2)  # (group, label)
    if labels is not None and by_label.all():
        fnr, fpr = table[:, 1, 0] / by_label[:, 1], table[:, 0, 1] / by_label[:, 0]
        report.update(diff_fn=float(fnr[0] - fnr[1]), diff_fp=float(fpr[0] - fpr[1]))
    return report

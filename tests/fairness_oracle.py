"""Brute-force counting oracles for the fairness report: one Python loop per metric."""

import math


def brute_force_accuracy(preds, labels):
    correct = 0
    for p, y in zip(preds, labels):
        correct += int(p == y)
    return correct / len(preds)


def brute_force_f1(preds, labels):
    tp = fp = fn = 0
    for p, y in zip(preds, labels):
        tp += int(p == 1 and y == 1)
        fp += int(p == 1 and y == 0)
        fn += int(p == 0 and y == 1)
    return 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def brute_force_entropy(outcomes):
    """Binary entropy (nats) of the share of 1s."""
    positives = 0
    for y in outcomes:
        positives += int(y == 1)
    rate = positives / len(outcomes)
    if positives in (0, len(outcomes)):
        return 0.0
    return -(rate * math.log(rate) + (1.0 - rate) * math.log(1.0 - rate))


def brute_force_group_sizes(groups):
    """(privileged, unprivileged) member counts."""
    n_priv = n_unpriv = 0
    for g in groups:
        n_priv += int(g == 1)
        n_unpriv += int(g == 0)
    return n_priv, n_unpriv


def brute_force_dir(outcomes, groups):
    """Unprivileged over privileged positive rate; None when the privileged rate is zero."""
    pos_unpriv = n_unpriv = pos_priv = n_priv = 0
    for y, g in zip(outcomes, groups):
        if g == 1:
            n_priv += 1
            pos_priv += int(y == 1)
        else:
            n_unpriv += 1
            pos_unpriv += int(y == 1)
    if pos_priv == 0:
        return None
    return (pos_unpriv / n_unpriv) / (pos_priv / n_priv)


def brute_force_diffs(preds, labels, groups):
    """Unprivileged minus privileged FNR and FPR; (None, None) when a group lacks a label class."""
    tallies = {g: {"fn": 0, "pos": 0, "fp": 0, "neg": 0} for g in (0, 1)}
    for p, y, g in zip(preds, labels, groups):
        t = tallies[g]
        if y == 1:
            t["pos"] += 1
            t["fn"] += int(p == 0)
        else:
            t["neg"] += 1
            t["fp"] += int(p == 1)
    if any(tallies[g][key] == 0 for g in (0, 1) for key in ("pos", "neg")):
        return None, None
    fnr = {g: tallies[g]["fn"] / tallies[g]["pos"] for g in (0, 1)}
    fpr = {g: tallies[g]["fp"] / tallies[g]["neg"] for g in (0, 1)}
    return fnr[0] - fnr[1], fpr[0] - fpr[1]


def brute_force_report(outcomes, labels=None, groups=None, attribute=None):
    """The 12-key report from the oracles above; the caller checks that neither group is empty."""
    report = {"attribute": attribute, "bounds": [0.8, 1.2], "prediction_entropy": brute_force_entropy(outcomes),
              "accuracy": None, "f1": None, "n_privileged": None, "n_unprivileged": None, "dir": None,
              "in_bounds": None, "dir_undefined": None, "diff_fn": None, "diff_fp": None}
    if labels is not None:
        report["accuracy"] = brute_force_accuracy(outcomes, labels)
        report["f1"] = brute_force_f1(outcomes, labels)
    if groups is not None:
        report["n_privileged"], report["n_unprivileged"] = brute_force_group_sizes(groups)
        ratio = brute_force_dir(outcomes, groups)
        report.update(dir=ratio, dir_undefined=ratio is None, in_bounds=ratio is not None and 0.8 <= ratio <= 1.2)
        if labels is not None:
            report["diff_fn"], report["diff_fp"] = brute_force_diffs(outcomes, labels, groups)
    return report


def brute_force_weighted_dir(labels, groups, weights):
    """Disparate impact recomputed with weighted counts, one weight per sample."""
    wpos = {0: 0.0, 1: 0.0}
    wtot = {0: 0.0, 1: 0.0}
    for y, g, w in zip(labels, groups, weights):
        wtot[g] += w
        wpos[g] += w * int(y == 1)
    return (wpos[0] / wtot[0]) / (wpos[1] / wtot[1])


def random_instance(rng):
    """Random aligned (preds, labels, groups) in which every (group, label) cell is filled."""
    while True:
        preds, labels, groups = rng.integers(0, 2, size=(3, int(rng.integers(12, 200))))
        if len(set(zip(groups.tolist(), labels.tolist()))) == 4:
            return preds, labels, groups

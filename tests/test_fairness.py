"""Tests for the fairness report against brute-force tallies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhrv.fairness import accuracy_score, evaluate_predictions, sample_weights
from fairhrv.pipeline import COMPARISON_COLUMNS, COMPARISON_ROWS, render_comparison_text
from fairness_oracle import (
    brute_force_accuracy,
    brute_force_diffs,
    brute_force_dir,
    brute_force_group_sizes,
    brute_force_report,
    brute_force_weighted_dir,
    random_instance,
)

REPORT_KEYS = {
    "attribute", "n_privileged", "n_unprivileged", "dir", "dir_undefined", "diff_fn", "diff_fp",
    "in_bounds", "bounds", "accuracy", "f1", "prediction_entropy",
}


def disparate_impact(outcomes, groups):
    return evaluate_predictions(outcomes, groups=groups)["dir"]


def rate_gaps(preds, labels, groups):
    report = evaluate_predictions(preds, labels, groups)
    return report["diff_fn"], report["diff_fp"]


class TestDisparateImpact:
    def test_half_rate(self):
        outcomes = [1, 0, 0, 0] + [1, 1, 0, 0]
        groups = [0, 0, 0, 0] + [1, 1, 1, 1]
        assert disparate_impact(outcomes, groups) == pytest.approx(0.5)

    def test_equal_rates(self):
        outcomes = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        assert disparate_impact(outcomes, groups) == 1.0

    def test_undefined_when_privileged_rate_zero(self):
        assert disparate_impact([1, 0, 0, 0], [0, 0, 1, 1]) is None

    def test_empty_group(self):
        with pytest.raises(ValueError, match="^group sizes privileged=2, unprivileged=0$"):
            disparate_impact([1, 0], [1, 1])

    def test_permutation_and_duplication_invariance(self):
        rng = np.random.default_rng(5)
        preds, labels, groups = random_instance(rng)
        base = disparate_impact(labels, groups)
        perm = rng.permutation(len(labels))
        assert disparate_impact(labels[perm], groups[perm]) == base
        assert disparate_impact(np.tile(labels, 3), np.tile(groups, 3)) == base

    def test_swap_group_inverts(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            preds, labels, groups = random_instance(rng)
            d = disparate_impact(labels, groups)
            d_swapped = disparate_impact(labels, 1 - groups)
            assert d_swapped == pytest.approx(1.0 / d, rel=1e-12)


class TestEqualizedOdds:
    def test_identical_confusion_tables(self):
        preds = [1, 0, 1, 0] * 2
        labels = [1, 1, 0, 0] * 2
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        assert rate_gaps(preds, labels, groups) == (0.0, 0.0)

    def test_sign_convention(self):
        # unprivileged FNR 0.3 (3/10), privileged FNR 0.2 (2/10) -> +0.1
        labels = [1] * 10 + [0] + [1] * 10 + [0]
        preds = [0] * 3 + [1] * 7 + [0] + [0] * 2 + [1] * 8 + [0]
        groups = [0] * 11 + [1] * 11
        diff_fn, diff_fp = rate_gaps(preds, labels, groups)
        assert diff_fn == pytest.approx(0.1)
        assert diff_fp == pytest.approx(0.0)

    def test_missing_outcome_class(self):
        assert rate_gaps([1, 0, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1]) == (None, None)

    @pytest.mark.parametrize("labels", [[0, 0, 1, 0], [0, 1, 1, 1], [1, 0, 0, 0]],
                             ids=["unprivileged-without-positives", "privileged-without-negatives",
                                  "privileged-without-positives"])
    def test_any_group_without_a_label_class_gives_none_gaps(self, labels):
        assert rate_gaps([1, 0, 1, 0], labels, [0, 0, 1, 1]) == (None, None)

    def test_empty_group(self):
        with pytest.raises(ValueError, match="^group sizes privileged=0, unprivileged=4$"):
            rate_gaps([1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0])


class TestInputChecks:
    """Each sequence is checked once, before anything is counted, and the first bad one is named."""

    @pytest.mark.parametrize("outcomes,labels,groups,message", [
        ([[1, 0]], None, None, "outcomes must be one-dimensional"),
        ([1, 2], [1, 0], [0, 1], "outcomes must be binary 0/1"),
        ([1, 0], [1, -1], [0, 2], "labels must be binary 0/1"),
        ([1, 0], [1, 0], [[0, 1]], "groups must be one-dimensional"),
        ([1, 0, 1], None, [0, 1], "outcomes and groups must be aligned"),
        ([1, 0], [1, 0, 0], [0, 1], "outcomes and labels and groups must be aligned"),
    ])
    def test_first_bad_sequence_is_named(self, outcomes, labels, groups, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_predictions(outcomes, labels, groups)

    def test_accuracy_and_weights_check_their_inputs(self):
        with pytest.raises(ValueError, match="^outcomes and labels must be aligned$"):
            accuracy_score([1, 0], [1])
        with pytest.raises(ValueError, match="^groups must be binary 0/1$"):
            sample_weights([1, 0, 1, 0], [0, 1, 3, 1])


class TestReweigh:
    def test_independent_distribution_gives_unit_weights(self):
        labels = [0, 0, 1, 1] * 5
        groups = [0, 1, 0, 1] * 5
        assert sample_weights(labels, groups) == pytest.approx(np.ones(20))

    def test_textbook_cell(self):
        # P(s=1)=0.5, P(y=1)=0.5, P(s=1,y=1)=0.4 -> w(1,1)=0.625
        n = 20
        labels, groups = [], []
        for g, y, count in [(1, 1, 8), (1, 0, 2), (0, 1, 2), (0, 0, 8)]:
            labels += [y] * count
            groups += [g] * count
        assert sample_weights(labels, groups)[:8] == pytest.approx(np.full(8, 0.625))

    def test_empty_cell(self):
        with pytest.raises(ValueError, match="^no samples with group=0, label=1$"):
            sample_weights([1, 1, 0, 0], [1, 1, 0, 0])

    def test_weighted_dir_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            _, labels, groups = random_instance(rng)  # every (group, label) cell filled
            weights = sample_weights(labels, groups)
            assert brute_force_weighted_dir(labels, groups, weights) == pytest.approx(1.0, abs=1e-9)
            assert np.all(weights > 0)

    def test_sample_weights_expand_table(self):
        labels = np.array([1, 0, 1, 1, 0, 0])
        groups = np.array([1, 1, 1, 0, 0, 0])
        per_sample = sample_weights(labels, groups)
        for g, y, w in zip(groups, labels, per_sample):
            # P(group) * P(label) / P(group, label), counted by brute force
            in_group, with_label = np.mean(groups == g), np.mean(labels == y)
            assert w == pytest.approx(in_group * with_label / np.mean((groups == g) & (labels == y)), rel=1e-12)


class TestAudit:
    def test_out_of_bounds_low(self):
        # unprivileged rate 0.341, privileged 0.5 -> DIR 0.682
        outcomes = np.concatenate([np.repeat([1, 0], [341, 659]), np.repeat([1, 0], [500, 500])])
        groups = np.concatenate([np.zeros(1000, dtype=int), np.ones(1000, dtype=int)])
        report = evaluate_predictions(outcomes, groups=groups, attribute="age")
        assert report["dir"] == pytest.approx(0.682)
        assert not report["in_bounds"]

    def test_ideal_ratio_in_bounds(self):
        outcomes = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        assert evaluate_predictions(outcomes, groups=groups)["in_bounds"]

    def test_out_of_bounds_high(self):
        # unprivileged rate 0.65, privileged 0.5 -> DIR 1.3
        outcomes = np.concatenate([np.repeat([1, 0], [65, 35]), np.repeat([1, 0], [50, 50])])
        groups = np.concatenate([np.zeros(100, dtype=int), np.ones(100, dtype=int)])
        report = evaluate_predictions(outcomes, groups=groups)
        assert report["dir"] == pytest.approx(1.3)
        assert not report["in_bounds"]

    def test_model_level_fields(self):
        preds = np.array([1, 0, 1, 0, 1, 1, 0, 0])
        labels = np.array([1, 1, 0, 0, 1, 0, 1, 0])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        report = evaluate_predictions(preds, labels, groups, attribute="group")
        assert report["accuracy"] == pytest.approx(0.5)
        assert report["diff_fn"] is not None
        assert set(report) == REPORT_KEYS



class TestReportRule:
    """One rule: a metric the inputs do not define is None; an empty group raises."""

    def test_same_keys_for_every_input_combination(self):
        preds, labels, groups = [1, 0, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1]
        for report in (
            evaluate_predictions(preds),
            evaluate_predictions(preds, labels),
            evaluate_predictions(preds, groups=groups),
            evaluate_predictions(preds, labels, groups, "group"),
        ):
            assert set(report) == REPORT_KEYS

    def test_no_groups_leaves_group_metrics_none(self):
        report = evaluate_predictions([1, 0, 1, 1], [1, 0, 0, 1])
        assert report["accuracy"] == 0.75
        for key in ("attribute", "n_privileged", "n_unprivileged", "dir", "in_bounds",
                    "dir_undefined", "diff_fn", "diff_fp"):
            assert report[key] is None, key

    def test_no_labels_leaves_label_metrics_none(self):
        report = evaluate_predictions([1, 0, 1, 0], groups=[0, 0, 1, 1])
        assert report["dir"] == 1.0
        for key in ("accuracy", "f1", "diff_fn", "diff_fp"):
            assert report[key] is None, key

    def test_undefined_ratio_is_none(self):
        report = evaluate_predictions([1, 0, 0, 0], groups=[0, 0, 1, 1])
        assert report["dir"] is None
        assert report["dir_undefined"] is True
        assert report["in_bounds"] is False

    def test_missing_outcome_class_gives_none_gaps(self):
        report = evaluate_predictions([1, 0, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1])
        assert report["diff_fn"] is None and report["diff_fp"] is None
        assert report["dir"] == 1.0

    @pytest.mark.parametrize("labels,f1", [([1, 1, 1, 0], 0.5), ([0, 0, 1, 0], 0.0)])
    def test_whole_report_when_no_metric_of_the_groups_is_defined(self, labels, f1):
        # the privileged group has no positive outcome, and the unprivileged lacks a label class
        assert evaluate_predictions([1, 0, 0, 0], labels, [0, 0, 1, 1], "group") == {
            "attribute": "group", "bounds": [0.8, 1.2], "prediction_entropy": 0.5623351446188083,
            "accuracy": 0.5, "f1": f1, "n_privileged": 2, "n_unprivileged": 2, "dir": None,
            "in_bounds": False, "dir_undefined": True, "diff_fn": None, "diff_fp": None,
        }

    def test_empty_group_raises(self):
        with pytest.raises(ValueError, match="^group sizes privileged=2, unprivileged=0$"):
            evaluate_predictions([1, 0], [1, 0], [1, 1])

    def test_constant_predictor_has_zero_entropy(self):
        assert evaluate_predictions([1, 1, 1])["prediction_entropy"] == 0.0
        assert evaluate_predictions([1, 0])["prediction_entropy"] == pytest.approx(np.log(2))

    def test_comparison_table_prints_an_undefined_metric_as_undefined(self):
        metrics = {key: 0.5 for _, key in COMPARISON_ROWS}
        models = {"base": dict(metrics, dir=0.61234), "reweighting": dict(metrics, diff_fp=-0.25),
                  "proposed": dict(metrics, dir=None)}
        lines = render_comparison_text({"attribute": "group", "seed": 0, "models": models}).splitlines()
        # every column starts at its header's offset on every line, after a space
        starts = [0] + [lines[0].index(label) for _, label in COMPARISON_COLUMNS]
        for line in lines:
            assert all(line[start] != " " and line[start - 1:start] in ("", " ") for start in starts), line
        cells = [[line[a:b].strip() for a, b in zip(starts, [*starts[1:], None])] for line in lines[2:]]
        assert cells == [
            ["Accuracy", "0.500", "0.500", "0.500"],
            ["F1", "0.500", "0.500", "0.500"],
            ["DI Ratio", "0.612", "0.500", "undefined"],
            ["Diff in FN", "0.500", "0.500", "0.500"],
            ["Diff in FP", "0.500", "-0.250", "0.500"],
        ]


class TestAgainstBruteForce:
    def test_metrics_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            preds, labels, groups = random_instance(rng)
            assert disparate_impact(labels, groups) == brute_force_dir(labels, groups)
            assert rate_gaps(preds, labels, groups) == brute_force_diffs(preds, labels, groups)
            assert accuracy_score(preds, labels) == brute_force_accuracy(preds, labels)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_dir_matches_oracle_property(self, seed):
        preds, labels, groups = random_instance(np.random.default_rng(seed))
        assert disparate_impact(labels, groups) == brute_force_dir(labels, groups)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
           st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_key_equals_its_oracle(self, rows, with_labels, with_groups):
        outcomes, labels, groups = (list(column) for column in zip(*rows))
        labels, groups = labels if with_labels else None, groups if with_groups else None
        if groups is not None and 0 in brute_force_group_sizes(groups):
            n_priv, n_unpriv = brute_force_group_sizes(groups)
            with pytest.raises(ValueError, match=f"^group sizes privileged={n_priv}, unprivileged={n_unpriv}$"):
                evaluate_predictions(outcomes, labels, groups, "group")
            return
        report = evaluate_predictions(outcomes, labels, groups, "group")
        expected = brute_force_report(outcomes, labels, groups, "group")
        assert list(report) == list(expected)
        for key, value in expected.items():
            assert report[key] == value and type(report[key]) is type(value), key


def test_f1_degenerate_cases():
    assert evaluate_predictions([0, 0], [0, 0])["f1"] == 0.0
    assert evaluate_predictions([1, 1], [1, 1])["f1"] == 1.0

"""Tests for saliency maps: exactness, averaging, and exports."""

import numpy as np
import pytest

from fairhrv.dataset import generate_synthetic
from fairhrv.hrv_features import FEATURE_NAMES
from fairhrv.nnet import ModelArch, init_params
from fairhrv.saliency import (
    EmptyCohort,
    SaliencyMap,
    average_saliency_over_windows,
    saliency_for_sample,
    write_saliency_csv,
    write_saliency_svg,
)
from gradcheck import finite_diff_input_grad

LINEAR_ARCH = ModelArch(input_size=24 * 25, lstm_hidden=None, dense_size=None, heads=("anxiety",))
LSTM_ARCH = ModelArch(input_size=25, lstm_hidden=5, dense_size=4, heads=("anxiety", "protected"))


class TestSingleSample:
    def test_linear_model_map_is_weight_matrix(self):
        params = init_params(LINEAR_ARCH, seed=0)
        window = np.random.default_rng(1).normal(size=(24, 25))
        smap = saliency_for_sample(params, window, "anxiety")
        expected = params.tensors["head.anxiety.W"][:, 0].reshape(24, 25)
        assert np.array_equal(smap.values, expected)

    def test_against_finite_differences(self):
        params = init_params(LSTM_ARCH, seed=2)
        rng = np.random.default_rng(3)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        window = rng.normal(size=(24, 25))
        smap = saliency_for_sample(params, window, "anxiety")
        numeric = finite_diff_input_grad(params, window, "anxiety")
        denom = np.maximum(1e-6, np.maximum(np.abs(smap.values), np.abs(numeric)))
        assert np.max(np.abs(smap.values - numeric) / denom) < 1e-4

    def test_head_weight_scaling_scales_map(self):
        params = init_params(LSTM_ARCH, seed=4)
        window = np.random.default_rng(5).normal(size=(24, 25))
        base = saliency_for_sample(params, window, "anxiety")
        scaled_params = params.copy()
        scaled_params.tensors["head.anxiety.W"] *= 3.0
        scaled_params.tensors["head.anxiety.b"] *= 3.0
        scaled = saliency_for_sample(scaled_params, window, "anxiety")
        assert np.allclose(scaled.values, 3.0 * base.values, atol=1e-12)

    def test_values_finite_and_shaped(self):
        params = init_params(LSTM_ARCH, seed=6)
        smap = saliency_for_sample(params, np.zeros((24, 25)), "protected")
        assert smap.values.shape == (24, 25)
        assert np.all(np.isfinite(smap.values))


class TestAverage:
    def test_identical_samples_equal_single_map(self):
        from fairhrv.dataset import Cohort

        params = init_params(LSTM_ARCH, seed=7)
        cohort = generate_synthetic(40, 0.0, 8)
        window = cohort.windows[0].features
        single = saliency_for_sample(params, window, "anxiety")
        repeated = Cohort(tuple(cohort.windows[0:1]) * 4, dict(cohort.attribute_catalog))
        stackavg = average_saliency_over_windows(params, repeated.feature_tensor(), "anxiety")
        assert np.allclose(stackavg.values, single.values, atol=1e-12)

    def test_mean_of_constant_maps(self):
        a = SaliencyMap(np.zeros((24, 25)), FEATURE_NAMES, "anxiety")
        b = SaliencyMap(np.full((24, 25), 2.0), FEATURE_NAMES, "anxiety")
        mean = (a.values + b.values) / 2.0
        assert np.all(mean == 1.0)

    def test_empty_cohort(self):
        params = init_params(LSTM_ARCH, seed=9)
        from fairhrv.dataset import Cohort

        with pytest.raises(EmptyCohort):
            average_saliency_over_windows(params, Cohort((), {}).feature_tensor(), "anxiety")

    def test_permutation_stability(self):
        params = init_params(LSTM_ARCH, seed=10)
        rng = np.random.default_rng(11)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        cohort = generate_synthetic(60, 0.5, 12)
        forward_avg = average_saliency_over_windows(params, cohort.feature_tensor(), "anxiety")
        from fairhrv.dataset import Cohort

        reversed_cohort = Cohort(tuple(reversed(cohort.windows)), dict(cohort.attribute_catalog))
        backward_avg = average_saliency_over_windows(params, reversed_cohort.feature_tensor(), "anxiety")
        assert np.max(np.abs(forward_avg.values - backward_avg.values)) < 1e-9

    def test_matches_plain_mean_closely(self):
        params = init_params(LSTM_ARCH, seed=13)
        cohort = generate_synthetic(50, 0.5, 14)
        avg = average_saliency_over_windows(params, cohort.feature_tensor(), "anxiety")
        maps = [saliency_for_sample(params, w.features, "anxiety").values for w in cohort.windows]
        assert np.max(np.abs(avg.values - np.mean(maps, axis=0))) < 1e-12


class TestExports:
    def test_csv_shape(self, tmp_path):
        params = init_params(LSTM_ARCH, seed=15)
        smap = saliency_for_sample(params, np.random.default_rng(16).normal(size=(24, 25)), "anxiety")
        path = tmp_path / "map.csv"
        write_saliency_csv(smap, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(FEATURE_NAMES)
        assert len(lines) == 25
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(values, smap.values)

    def test_svg_contains_grid_and_labels(self, tmp_path):
        params = init_params(LSTM_ARCH, seed=17)
        smap = saliency_for_sample(params, np.random.default_rng(18).normal(size=(24, 25)), "anxiety")
        path = tmp_path / "map.svg"
        write_saliency_svg(smap, path)
        svg = path.read_text()
        assert svg.count("<rect") == 24 * 25
        for name in FEATURE_NAMES:
            assert name in svg
        assert "svg" in svg

    def test_svg_deterministic(self, tmp_path):
        params = init_params(LSTM_ARCH, seed=19)
        smap = saliency_for_sample(params, np.ones((24, 25)), "anxiety")
        write_saliency_svg(smap, tmp_path / "a.svg")
        write_saliency_svg(smap, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_column_mass(self):
        values = np.zeros((24, 25))
        values[:, 2] = 1.0  # sdsd column
        smap = SaliencyMap(values, FEATURE_NAMES, "anxiety")
        assert smap.column_l1_mass(("sdsd",)) == 24.0
        assert smap.column_l1_mass(("nni_20", "pnni_20")) == 0.0

"""Tests for saliency maps: exactness, averaging, and exports."""

import numpy as np

from fairhrv.dataset import generate_synthetic
from fairhrv.hrv_features import FEATURE_NAMES
from fairhrv.nnet import ModelArch, init_params
from fairhrv.saliency import average_saliency_over_windows, write_saliency_csv, write_saliency_svg
from gradcheck import finite_diff_input_grad
from peak_memory import peak_mb

LINEAR_ARCH = ModelArch(input_size=24 * 25, lstm_hidden=None, dense_size=None, heads=("anxiety",))
LSTM_ARCH = ModelArch(input_size=25, lstm_hidden=5, dense_size=4, heads=("anxiety", "protected"))


def saliency_of_window(params, window, head):
    """The map of one (24, 25) window: the average over a one-window stack."""
    return average_saliency_over_windows(params, np.asarray(window)[None], head)


class TestSingleSample:
    def test_linear_model_map_is_weight_matrix(self):
        params = init_params(LINEAR_ARCH, seed=0)
        window = np.random.default_rng(1).normal(size=(24, 25))
        smap = average_saliency_over_windows(params, window.reshape(1, -1), "anxiety")
        expected = params.tensors["head.anxiety.W"][:, 0]
        assert np.array_equal(smap, expected)

    def test_against_finite_differences(self):
        params = init_params(LSTM_ARCH, seed=2)
        rng = np.random.default_rng(3)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        window = rng.normal(size=(24, 25))
        smap = saliency_of_window(params, window, "anxiety")
        numeric = finite_diff_input_grad(params, window[None], "anxiety")[0]
        denom = np.maximum(1e-6, np.maximum(np.abs(smap), np.abs(numeric)))
        assert np.max(np.abs(smap - numeric) / denom) < 1e-4

    def test_head_weight_scaling_scales_map(self):
        params = init_params(LSTM_ARCH, seed=4)
        window = np.random.default_rng(5).normal(size=(24, 25))
        base = saliency_of_window(params, window, "anxiety")
        scaled_params = params.copy()
        scaled_params.tensors["head.anxiety.W"] *= 3.0
        scaled_params.tensors["head.anxiety.b"] *= 3.0
        scaled = saliency_of_window(scaled_params, window, "anxiety")
        assert np.allclose(scaled, 3.0 * base, atol=1e-12)

    def test_values_finite_and_shaped(self):
        params = init_params(LSTM_ARCH, seed=6)
        smap = saliency_of_window(params, np.zeros((24, 25)), "protected")
        assert smap.shape == (24, 25)
        assert np.all(np.isfinite(smap))


class TestAverage:
    def test_identical_samples_equal_single_map(self):
        from fairhrv.dataset import Cohort

        params = init_params(LSTM_ARCH, seed=7)
        cohort = generate_synthetic(40, 0.0, 8)
        window = cohort.windows[0].features
        single = saliency_of_window(params, window, "anxiety")
        repeated = Cohort(tuple(cohort.windows[0:1]) * 4, dict(cohort.attribute_catalog))
        stackavg = average_saliency_over_windows(params, repeated.feature_tensor(), "anxiety")
        assert np.allclose(stackavg, single, atol=1e-12)

    def test_mean_of_constant_maps(self):
        a = np.zeros((24, 25))
        b = np.full((24, 25), 2.0)
        mean = (a + b) / 2.0
        assert np.all(mean == 1.0)

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
        assert np.max(np.abs(forward_avg - backward_avg)) < 1e-9

    def test_memory_bounded(self):
        # the full trace of 500 windows at H 64 is about 68 MB
        params = init_params(ModelArch(input_size=25, lstm_hidden=64, dense_size=32, heads=("anxiety",)), seed=15)
        windows = generate_synthetic(500, 0.5, 16).feature_tensor()
        assert peak_mb(average_saliency_over_windows, params, windows, "anxiety") < 24

    def test_matches_plain_mean_closely(self):
        params = init_params(LSTM_ARCH, seed=13)
        cohort = generate_synthetic(50, 0.5, 14)
        avg = average_saliency_over_windows(params, cohort.feature_tensor(), "anxiety")
        maps = [saliency_of_window(params, w.features, "anxiety") for w in cohort.windows]
        assert np.max(np.abs(avg - np.mean(maps, axis=0))) < 1e-12


class TestExports:
    def test_csv_shape(self, tmp_path):
        params = init_params(LSTM_ARCH, seed=15)
        smap = saliency_of_window(params, np.random.default_rng(16).normal(size=(24, 25)), "anxiety")
        path = tmp_path / "map.csv"
        write_saliency_csv(smap, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(FEATURE_NAMES)
        assert len(lines) == 25
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(values, smap)

    def test_svg_contains_grid_and_labels(self, tmp_path):
        params = init_params(LSTM_ARCH, seed=17)
        smap = saliency_of_window(params, np.random.default_rng(18).normal(size=(24, 25)), "anxiety")
        path = tmp_path / "map.svg"
        write_saliency_svg(smap, "anxiety", path)
        svg = path.read_text()
        assert svg.count("<rect") == 24 * 25
        for name in FEATURE_NAMES:
            assert name in svg
        assert "svg" in svg

    def test_svg_deterministic(self, tmp_path):
        params = init_params(LSTM_ARCH, seed=19)
        smap = saliency_of_window(params, np.ones((24, 25)), "anxiety")
        write_saliency_svg(smap, "anxiety", tmp_path / "a.svg")
        write_saliency_svg(smap, "anxiety", tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

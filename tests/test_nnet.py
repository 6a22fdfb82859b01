"""Tests for the neural-network engine: forward, loss, BPTT, Adam, MC dropout."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from fairhrv import nnet
from fairhrv.nnet import (
    AdamState,
    ModelArch,
    ModelParams,
    adam_step,
    backward,
    forward,
    gate_sigmoid,
    head_sigmoid,
    init_params,
    input_gradient,
    mc_forward,
    mtl_loss,
    predict,
    sample_dropout_mask,
)
from gradcheck import (
    finite_diff_input_grad,
    finite_diff_param_grads,
    max_rel_error,
    random_case,
)
from peak_memory import peak_mb
from reference_adam import reference_adam_step
from reference_init import reference_init_params
from reference_lstm import reference_backprop, reference_lstm_states
from scalar_lstm import scalar_lstm_final_hidden


def zero_params(arch):
    params = init_params(arch, seed=0)
    for tensor in params.tensors.values():
        tensor[...] = 0.0
    return params


SMALL_ARCH = ModelArch(input_size=5, lstm_hidden=3, dense_size=4, heads=("anxiety", "protected"))


INIT_ARCHS = {
    "cli-two-heads": ModelArch(input_size=25, lstm_hidden=64, dense_size=32, heads=("anxiety", "protected")),
    "cli-base": ModelArch(input_size=25, lstm_hidden=64, dense_size=32, heads=("anxiety",)),
    "tiny": ModelArch(input_size=25, lstm_hidden=16, dense_size=8, heads=("anxiety", "protected")),
    "lstm-only": ModelArch(input_size=5, lstm_hidden=3, dense_size=None, heads=("anxiety", "protected")),
    "head-network": ModelArch(input_size=64, lstm_hidden=None, dense_size=32, heads=("anxiety", "protected")),
    "linear": ModelArch(input_size=12, lstm_hidden=None, dense_size=None, heads=("anxiety",)),
}


class TestInitParams:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
    @pytest.mark.parametrize("name", list(INIT_ARCHS))
    def test_bit_identical_to_frozen_oracle(self, name, seed):
        arch = INIT_ARCHS[name]
        params = init_params(arch, seed)
        expected = reference_init_params(arch, seed)
        assert list(params.tensors) == list(expected.tensors) == list(arch.param_shapes())
        for key, tensor in expected.tensors.items():
            assert params.tensors[key].dtype == tensor.dtype
            assert params.tensors[key].shape == tensor.shape
            assert params.tensors[key].tobytes() == tensor.tobytes(), key
        assert (params.epoch, params.rng_seed) == (expected.epoch, expected.rng_seed)


class TestForward:
    def test_zero_params_give_half(self):
        params = zero_params(SMALL_ARCH)
        outputs, _ = forward(params, np.random.default_rng(0).normal(size=(1, 6, 5)))
        assert outputs["anxiety"][0] == 0.5
        assert outputs["protected"][0] == 0.5

    def test_zero_lstm_weights_zero_hidden(self):
        params = zero_params(SMALL_ARCH)
        _, trace = forward(params, np.random.default_rng(1).normal(size=(1, 6, 5)))
        assert np.all(trace.hidden[-1] == 0.0)

    def test_matches_scalar_lstm(self):
        arch = ModelArch(input_size=3, lstm_hidden=2, dense_size=None, heads=("anxiety",))
        params = init_params(arch, seed=3)
        rng = np.random.default_rng(4)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.2, size=tensor.shape)
        x = rng.normal(size=(4, 3))
        _, trace = forward(params, x[None])
        expected = scalar_lstm_final_hidden(
            x.tolist(),
            params.tensors["lstm.W"].tolist(),
            params.tensors["lstm.U"].tolist(),
            params.tensors["lstm.b"].tolist(),
        )
        assert np.max(np.abs(trace.hidden[-1][0] - np.array(expected))) < 1e-12

    def test_repeated_calls_bit_identical(self):
        params = init_params(SMALL_ARCH, seed=5)
        x = np.random.default_rng(6).normal(size=(2, 6, 5))
        a, _ = forward(params, x)
        b, _ = forward(params, x)
        assert a["anxiety"].tobytes() == b["anxiety"].tobytes()

    def test_batch_and_single_agree(self):
        params = init_params(SMALL_ARCH, seed=7)
        x = np.random.default_rng(8).normal(size=(3, 6, 5))
        batched, _ = forward(params, x)
        single, _ = forward(params, x[1][None])
        assert batched["anxiety"][1] == pytest.approx(single["anxiety"][0], abs=1e-15)


class TestSigmoid:
    """Both numpy sigmoids against scipy's expit, an independent implementation."""

    @staticmethod
    def points(lo, hi):
        rng = np.random.default_rng(70)
        return np.concatenate([np.linspace(lo, hi, 200_001), rng.uniform(lo, hi, 200_000),
                               rng.normal(0.0, 4.0, 200_000).clip(lo, hi)])

    def test_gate_absolute_error(self):
        z = self.points(-60.0, 60.0)
        assert np.max(np.abs(gate_sigmoid(z) - expit(z))) <= 2.3e-16

    def test_gate_writes_into_out(self):
        z = np.random.default_rng(71).normal(size=(3, 4))
        out = np.empty((3, 4))
        assert gate_sigmoid(z, out=out) is out
        assert np.array_equal(out, gate_sigmoid(z))

    def test_head_relative_error_in_ulp(self):
        # expit computes 1 / (1 + exp(-z)), which underflows to 0 below
        # about z = -709.78; there sigmoid(z) rounds to exp(z)
        z = self.points(-745.0, 745.0)
        want = expit(z)
        tail = z < -709.0
        want[tail] = [math.exp(v) for v in z[tail]]
        got = head_sigmoid(z)
        assert np.all(got > 0)
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 4.0

    @pytest.mark.parametrize("sigmoid", [gate_sigmoid, head_sigmoid])
    def test_exactly_half_at_zero(self, sigmoid):
        assert np.array_equal(sigmoid(np.array([0.0, -0.0])), [0.5, 0.5])

    @pytest.mark.parametrize("sigmoid", [gate_sigmoid, head_sigmoid])
    def test_extremes_saturate_without_warnings(self, sigmoid):
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            got = sigmoid(np.array([1e308, -1e308, np.inf, -np.inf]))
        assert np.array_equal(got, [1.0, 0.0, 1.0, 0.0])


class TestLoss:
    def test_perfect_predictions_near_zero(self):
        outputs = {"anxiety": np.array([1.0, 0.0]), "protected": np.array([0.0, 1.0])}
        targets = {"anxiety": np.array([1.0, 0.0]), "protected": np.array([0.0, 1.0])}
        loss = mtl_loss(outputs, targets, {"anxiety": 4.5, "protected": 0.5}, np.ones(2))
        assert 0.0 <= loss <= 5.0 * -math.log(1.0 - 1e-12) * (1.0 + 1e-9)

    def test_coin_flip_outputs(self):
        outputs = {"anxiety": np.array([0.5]), "protected": np.array([0.5])}
        targets = {"anxiety": np.array([1.0]), "protected": np.array([0.0])}
        loss = mtl_loss(outputs, targets, {"anxiety": 4.5, "protected": 0.5}, np.ones(1))
        assert loss == pytest.approx(5.0 * math.log(2.0), rel=1e-12)

    def test_zero_weight_drops_task(self):
        rng = np.random.default_rng(9)
        outputs = {"anxiety": rng.uniform(0.1, 0.9, 5), "protected": rng.uniform(0.1, 0.9, 5)}
        targets = {"anxiety": rng.integers(0, 2, 5).astype(float), "protected": rng.integers(0, 2, 5).astype(float)}
        both = mtl_loss(outputs, targets, {"anxiety": 1.0, "protected": 0.0}, np.ones(5))
        single = mtl_loss(outputs, targets, {"anxiety": 1.0}, np.ones(5))
        assert both == single

    def test_non_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            outputs = {"anxiety": rng.uniform(0, 1, 4)}
            targets = {"anxiety": rng.integers(0, 2, 4).astype(float)}
            assert mtl_loss(outputs, targets, {"anxiety": rng.uniform(0, 5)}, np.ones(4)) >= 0.0

    def test_integer_sample_weights_repeat_samples(self):
        # weight k counts a sample as k copies of it, as reweighing means
        rng = np.random.default_rng(11)
        outputs = {"anxiety": rng.uniform(0.1, 0.9, 4), "protected": rng.uniform(0.1, 0.9, 4)}
        targets = {"anxiety": rng.integers(0, 2, 4).astype(float), "protected": rng.integers(0, 2, 4).astype(float)}
        counts = np.array([2, 1, 3, 1])
        repeated = {head: np.repeat(v, counts) for head, v in outputs.items()}
        repeated_targets = {head: np.repeat(v, counts) for head, v in targets.items()}
        weighted = mtl_loss(outputs, targets, {"anxiety": 4.5, "protected": 0.5}, counts.astype(float))
        want = mtl_loss(repeated, repeated_targets, {"anxiety": 4.5, "protected": 0.5}, np.ones(counts.sum()))
        assert weighted == pytest.approx(want, rel=1e-12)


class TestBackward:
    def test_logistic_regression_closed_form(self):
        # no lstm, no dense: d(BCE)/dW must equal (p - y) * x
        arch = ModelArch(input_size=6, lstm_hidden=None, dense_size=None, heads=("anxiety",))
        params = init_params(arch, seed=11)
        x = np.random.default_rng(12).normal(size=(1, 6))
        outputs, trace = forward(params, x)
        grads = backward(params, trace, {"anxiety": np.array([1.0])}, {"anxiety": 1.0}, np.ones(1))
        expected = (outputs["anxiety"][0] - 1.0) * x[0]
        assert np.allclose(grads["head.anxiety.W"][:, 0], expected, atol=1e-15)

    def test_gradcheck_small_battery(self):
        rng = np.random.default_rng(13)
        for i in range(15):
            params, x, targets, weights, mask, sw = random_case(rng, seed=100 + i)
            outputs, trace = forward(params, x, mask=mask)
            analytic = backward(params, trace, targets, weights, sample_weights=sw)
            numeric = finite_diff_param_grads(params, x, targets, weights, sw, mask=mask)
            assert max_rel_error(analytic, numeric) < 1e-4

    def test_masked_unit_gets_no_gradient(self):
        arch = ModelArch(input_size=5, lstm_hidden=3, dense_size=4, heads=("anxiety",))
        params = init_params(arch, seed=14)
        mask = {
            "lstm_out": np.full((1, 3), 1 / 0.8),
            "dense_out": np.array([[1.0, 0.0, 1.0, 1.0]]) / 0.8,
        }
        x = np.random.default_rng(15).normal(size=(1, 6, 5))
        _, trace = forward(params, x, mask=mask)
        grads = backward(params, trace, {"anxiety": np.array([1.0])}, {"anxiety": 1.0}, np.ones(1))
        assert grads["head.anxiety.W"][1, 0] == 0.0
        assert np.all(grads["dense.W"][:, 1] == 0.0)
        assert grads["dense.b"][1] == 0.0

    def test_integer_sample_weights_repeat_samples(self):
        params = init_params(SMALL_ARCH, seed=16)
        rng = np.random.default_rng(17)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x = rng.normal(size=(4, 6, 5))
        targets = {head: rng.integers(0, 2, 4).astype(float) for head in SMALL_ARCH.heads}
        task_weights = {"anxiety": 4.5, "protected": 0.5}
        counts = np.array([2, 1, 3, 1])
        _, trace = forward(params, x)
        weighted = backward(params, trace, targets, task_weights, counts.astype(float))
        _, repeated_trace = forward(params, np.repeat(x, counts, axis=0))
        want = backward(params, repeated_trace, {head: np.repeat(v, counts) for head, v in targets.items()},
                        task_weights, np.ones(counts.sum()))
        for name in want:
            np.testing.assert_allclose(weighted[name], want[name], rtol=1e-12, atol=1e-15, err_msg=name)

    def test_head_without_a_task_weight_gets_no_gradient(self):
        # as a task weight of 0 does; mtl_loss likewise skips the head
        params = init_params(SMALL_ARCH, seed=18)
        x = np.random.default_rng(19).normal(size=(3, 6, 5))
        _, trace = forward(params, x)
        targets = {"anxiety": np.array([1.0, 0.0, 1.0]), "protected": np.array([0.0, 0.0, 1.0])}
        only = backward(params, trace, targets, {"anxiety": 1.0}, np.ones(3))
        zeroed = backward(params, trace, targets, {"anxiety": 1.0, "protected": 0.0}, np.ones(3))
        assert np.all(only["head.protected.W"] == 0.0) and np.all(only["head.protected.b"] == 0.0)
        assert set(only) == set(zeroed)
        for name in zeroed:
            assert np.array_equal(only[name], zeroed[name]), name


class TestInputGradient:
    def test_linear_model_returns_weights(self):
        arch = ModelArch(input_size=24 * 25, lstm_hidden=None, dense_size=None, heads=("anxiety",))
        params = init_params(arch, seed=17)
        x = np.random.default_rng(18).normal(size=(3, 24 * 25))
        grad = input_gradient(params, x, "anxiety")
        assert grad.shape == (3, 24 * 25)
        assert np.array_equal(grad, np.tile(params.tensors["head.anxiety.W"][:, 0], (3, 1)))

    def test_against_finite_differences(self):
        arch = ModelArch(input_size=4, lstm_hidden=3, dense_size=3, heads=("anxiety", "protected"))
        params = init_params(arch, seed=19)
        rng = np.random.default_rng(20)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x = rng.normal(size=(1, 5, 4))
        analytic = input_gradient(params, x, "protected")
        numeric = finite_diff_input_grad(params, x, "protected")
        denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


class TestAdam:
    """``adam_step`` updates the parameters and the moments in place and returns None."""

    def test_zero_gradients_leave_params(self):
        params = init_params(SMALL_ARCH, seed=23)
        before = params.copy()
        tensors = dict(params.tensors)
        state = AdamState.for_params(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        assert adam_step(params, grads, state, lr=0.1) is None
        assert state.t == 1
        for name in params.tensors:
            assert params.tensors[name] is tensors[name]
            assert np.array_equal(params.tensors[name], before.tensors[name])

    def test_quadratic_descent(self):
        # f(w) = w^2, w0 = 1: the same scalar recursion, run two ways
        params = ModelParams({"w": np.array([1.0])})
        state = AdamState.for_params(params)
        w_ref, m_ref, v_ref, t_ref = 1.0, 0.0, 0.0, 0
        for _ in range(100):
            grads = {"w": 2.0 * params.tensors["w"]}
            adam_step(params, grads, state, lr=0.1)
            g = 2.0 * w_ref
            t_ref += 1
            m_ref = 0.9 * m_ref + 0.1 * g
            v_ref = 0.999 * v_ref + 0.001 * g * g
            w_ref -= 0.1 * (m_ref / (1 - 0.9**t_ref)) / (math.sqrt(v_ref / (1 - 0.999**t_ref)) + 1e-8)
        assert state.t == t_ref
        assert abs(params.tensors["w"][0]) < 0.1
        assert params.tensors["w"][0] == pytest.approx(w_ref, abs=1e-12)

    def test_identical_sequences_identical_trajectories(self):
        def run():
            params = init_params(SMALL_ARCH, seed=24)
            state = AdamState.for_params(params)
            rng = np.random.default_rng(25)
            for _ in range(5):
                grads = {k: rng.normal(size=v.shape) for k, v in params.tensors.items()}
                adam_step(params, grads, state, lr=1e-3)
            return params

        a, b = run(), run()
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_matches_the_functional_oracle_bit_for_bit(self):
        params = init_params(SMALL_ARCH, seed=26)
        state = AdamState.for_params(params)
        want_params, want_state = params.copy(), AdamState.for_params(params)
        rng = np.random.default_rng(27)
        for _ in range(250):
            # gradients over eight decades, so the moments see large and tiny terms alike
            grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.uniform(-6, 2) for k, v in params.tensors.items()}
            want_params, want_state = reference_adam_step(want_params, grads, want_state, lr=1e-3)
            adam_step(params, grads, state, lr=1e-3)
            assert state.t == want_state.t
            for name in params.tensors:
                assert params.tensors[name].tobytes() == want_params.tensors[name].tobytes(), name
                assert state.m[name].tobytes() == want_state.m[name].tobytes(), name
                assert state.v[name].tobytes() == want_state.v[name].tobytes(), name


class TestMcForward:
    def test_keep_rate_one_draws_the_deterministic_pass(self):
        params = init_params(SMALL_ARCH, seed=26)
        x = np.random.default_rng(27).normal(size=(3, 6, 5))
        out = np.empty((2, 10, 3))
        assert mc_forward(params, x, 1.0, np.random.default_rng(28), out) is out
        deterministic, _ = forward(params, x)
        for draws, head in zip(out, SMALL_ARCH.heads):
            assert all(np.array_equal(row, deterministic[head]) for row in draws), head

    def test_inverted_dropout_unbiased(self):
        # E[masked activation] equals the unmasked activation: average the
        # 1/keep-scaled trunk over many independently masked copies
        arch = ModelArch(input_size=5, lstm_hidden=3, dense_size=None, heads=("anxiety",))
        params = init_params(arch, seed=29)
        rng = np.random.default_rng(30)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x = rng.normal(size=(4, 5))
        _, clean = forward(params, x[None])
        h = clean.trunk_out[0]

        n = 20000
        keep = 0.8
        batch = np.repeat(x[None], n, axis=0)
        mask = sample_dropout_mask(arch, keep, np.random.default_rng(31), batch=n)
        assert set(np.unique(mask["lstm_out"])) == {0.0, 1 / keep}
        _, masked = forward(params, batch, mask=mask)
        sample_mean = masked.trunk_out.mean(axis=0)
        sigma = np.abs(h) * math.sqrt((1 - keep) / keep) / math.sqrt(n)
        assert np.all(np.abs(sample_mean - h) <= 3.0 * sigma + 1e-12)

    @pytest.mark.parametrize("lstm_hidden,dense_size", [(3, 4), (3, None), (None, 4), (None, None)])
    @pytest.mark.parametrize("keep", [0.8, 0.3, 1.0])
    def test_multipliers_are_the_scaled_bernoulli_stream(self, lstm_hidden, dense_size, keep):
        # the stream training and MC evaluation draw from, pinned bit for bit
        arch = ModelArch(input_size=5, lstm_hidden=lstm_hidden, dense_size=dense_size, heads=("anxiety",))
        rng, rng2 = np.random.default_rng(34), np.random.default_rng(34)
        for batch in (1, 7, 32):
            got = sample_dropout_mask(arch, keep, rng, batch)
            assert list(got) == [name for name, _ in arch.dropout_points()]
            for name, width in arch.dropout_points():
                want = (rng2.random((batch, width)) < keep).astype(np.float64) / keep
                assert got[name].dtype == want.dtype and got[name].shape == (batch, width)
                assert got[name].tobytes() == want.tobytes(), name
        assert rng.random() == rng2.random()

    def test_mask_stream_independent_of_other_draws(self):
        params = init_params(SMALL_ARCH, seed=32)
        x = np.random.default_rng(33).normal(size=(1, 6, 5))
        a = mc_forward(params, x, 0.8, np.random.default_rng(7), np.empty((2, 5, 1)))
        b = mc_forward(params, x, 0.8, np.random.default_rng(7), np.full((2, 5, 1), np.nan))
        assert a.tobytes() == b.tobytes()


def reference_mc_forward(params, x, passes, keep_rate, rng):
    """mc_forward's (heads, passes, batch) draws as ``passes`` full forward passes with the same mask draws."""
    arch = ModelArch.from_params(params)
    draws = []
    for _ in range(passes):
        mask = sample_dropout_mask(arch, keep_rate, rng, batch=len(x))
        outputs, _ = forward(params, x, mask=mask)
        draws.append([outputs[head] for head in arch.heads])
    return np.array(draws).swapaxes(0, 1)


class TestMcForwardOracle:
    @pytest.mark.parametrize("lstm_hidden,dense_size", [(3, 4), (3, None), (None, 4), (None, None)])
    @pytest.mark.parametrize("keep_rate", [0.8, 1.0])
    @pytest.mark.parametrize("batch", [7, 1])
    def test_bit_identical_to_full_forward_passes(self, lstm_hidden, dense_size, keep_rate, batch):
        input_size = 5 if lstm_hidden is not None else 6 * 5
        arch = ModelArch(input_size=input_size, lstm_hidden=lstm_hidden, dense_size=dense_size,
                         heads=("anxiety", "protected"))
        params = init_params(arch, seed=40)
        rng = np.random.default_rng(41)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x = rng.normal(size=(batch, 6, 5))
        if lstm_hidden is None:
            x = x.reshape(batch, -1)
        got = mc_forward(params, x, keep_rate, np.random.default_rng(42), np.empty((2, 9, batch)))
        want = reference_mc_forward(params, x, passes=9, keep_rate=keep_rate, rng=np.random.default_rng(42))
        assert want.shape == got.shape and got.tobytes() == want.tobytes()

    def test_recurrence_runs_once_per_call(self, monkeypatch):
        calls = []
        original = nnet._lstm_states

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(nnet, "_lstm_states", counting)
        params = init_params(SMALL_ARCH, seed=43)
        x = np.random.default_rng(44).normal(size=(4, 6, 5))
        mc_forward(params, x, 0.8, np.random.default_rng(45), np.empty((2, 20, 4)))
        assert len(calls) == 1

class TestKernelOracle:
    """The buffered recurrence and BPTT give the bits of the allocating form."""

    @staticmethod
    def case(batch, lstm_hidden, dense_size):
        arch = ModelArch(input_size=25, lstm_hidden=lstm_hidden, dense_size=dense_size, heads=("anxiety", "protected"))
        params = init_params(arch, seed=60 + batch)
        rng = np.random.default_rng(61 + batch)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        return arch, params, rng.normal(size=(batch, 24, 25)), rng

    @pytest.mark.parametrize("dense_size", [32, None])
    @pytest.mark.parametrize("keep_rate", [0.8, 1.0])
    @pytest.mark.parametrize("batch,lstm_hidden", [(1, 64), (32, 64), (13, 64), (1500, 16), (2, 1), (7, 3)])
    def test_bit_identical_to_allocating_form(self, monkeypatch, batch, lstm_hidden, dense_size, keep_rate):
        arch, params, x, rng = self.case(batch, lstm_hidden, dense_size)

        got_states = nnet._lstm_states(params, x)
        want_states = reference_lstm_states(params, x)
        for k, gate in enumerate(want_states[0]):  # the oracle names its gates in slot order
            assert np.array_equal(got_states[0][:, k], want_states[0][gate]), gate
        for got, want in zip(got_states[1:], want_states[1:]):
            assert np.array_equal(got, want)

        mask = sample_dropout_mask(arch, keep_rate, np.random.default_rng(62), batch=batch)
        targets = {head: (rng.random(batch) < 0.5).astype(float) for head in arch.heads}
        task_weights = {"anxiety": 4.5, "protected": 0.5}
        sample_weights = rng.uniform(0.5, 2.0, size=batch)
        _, trace = forward(params, x, mask=mask)
        got_grads = backward(params, trace, targets, task_weights, sample_weights=sample_weights)
        got_input = input_gradient(params, x, "anxiety")

        monkeypatch.setattr(nnet, "_lstm_states", reference_lstm_states)
        monkeypatch.setattr(nnet, "_backprop", lambda p, tr, seeds, input_grad=False: reference_backprop(p, tr, seeds))
        _, ref_trace = forward(params, x, mask=mask)
        want_grads = backward(params, ref_trace, targets, task_weights, sample_weights=sample_weights)
        want_input = input_gradient(params, x, "anxiety")

        assert set(got_grads) == set(want_grads)
        for name in want_grads:
            assert np.array_equal(got_grads[name], want_grads[name]), name
        assert got_input.shape == x.shape
        assert np.array_equal(got_input, want_input)

    def test_input_gradient_only_on_request(self):
        arch, params, x, _ = self.case(4, 8, 4)
        _, trace = forward(params, x)
        seeds = {"anxiety": np.ones(4)}
        grads, d_input = nnet._backprop(params, trace, seeds)
        assert d_input is None
        grads_with, d_input = nnet._backprop(params, trace, seeds, input_grad=True)
        assert d_input.shape == x.shape
        for name in grads:
            assert np.array_equal(grads[name], grads_with[name]), name



class TestTraceFreeInference:
    """Inference keeps one block's trace at a time, and gets the bits of one whole-batch pass."""

    @staticmethod
    def case(batch, steps=24, lstm_hidden=64, dense_size=32):
        arch = ModelArch(input_size=25, lstm_hidden=lstm_hidden, dense_size=dense_size, heads=("anxiety", "protected"))
        params = init_params(arch, seed=70 + batch)
        rng = np.random.default_rng(71 + batch)
        for tensor in params.tensors.values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        return params, rng.normal(size=(batch, steps, 25))

    # the window's 24 steps at the batches MC dropout and prediction see, at
    # the edges of the 64-window blocks, and at batch 1 and 3 other step counts
    @pytest.mark.parametrize("batch,steps", [(1, 24), (2, 24), (3, 24), (13, 24), (32, 24), (1500, 24)]
                             + [(batch, steps) for batch in (1, 3) for steps in (1, 2, 3, 5, 7, 9, 25)]
                             + [(63, 24), (64, 24), (65, 24), (129, 24)])
    @pytest.mark.parametrize("lstm_hidden", [64, 16])
    def test_last_hidden_state_bit_identical(self, batch, steps, lstm_hidden):
        params, x = self.case(batch, steps=steps, lstm_hidden=lstm_hidden)
        last = nnet._last_hidden(params, x)
        assert np.array_equal(last, nnet._lstm_states(params, x)[2][-1])

    @pytest.mark.parametrize("batch", [7, 1])
    @pytest.mark.parametrize("lstm_hidden,dense_size", [(64, 32), (8, None), (None, 4), (None, None)])
    def test_predict_matches_forward(self, lstm_hidden, dense_size, batch):
        arch = ModelArch(input_size=25 if lstm_hidden else 24 * 25, lstm_hidden=lstm_hidden, dense_size=dense_size,
                         heads=("anxiety", "protected"))
        params = init_params(arch, seed=72)
        x = np.random.default_rng(73).normal(size=(batch, 24, 25))
        if lstm_hidden is None:
            x = x.reshape(batch, -1)
        want, _ = forward(params, x)
        got = predict(params, x)
        assert set(got) == set(arch.heads)
        for head in arch.heads:
            assert np.array_equal(got[head], want[head]), head

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 500])
    def test_input_gradient_blocks_bit_identical(self, n):
        params, x = self.case(n)
        _, trace = forward(params, x)
        _, want = nnet._backprop(params, trace, {"anxiety": np.ones(n)}, input_grad=True)
        assert np.array_equal(input_gradient(params, x, "anxiety"), want)

    def test_input_gradient_blocks_close_below_h64(self):
        # with OpenBLAS the transposed product dz @ U.T rounds a row by the
        # number of rows in the call; at H 16 and 129 windows the blocks differ
        params, x = self.case(129, lstm_hidden=16)
        _, trace = forward(params, x)
        _, want = nnet._backprop(params, trace, {"anxiety": np.ones(129)}, input_grad=True)
        np.testing.assert_allclose(input_gradient(params, x, "anxiety"), want, rtol=1e-9, atol=0)

    def test_mc_forward_memory_bounded(self):
        # the full trace of 1,500 windows at H 64 is about 205 MB
        params, x = self.case(1500)
        peak = peak_mb(mc_forward, params, x, 0.8, np.random.default_rng(74), np.empty((2, 50, 1500)))
        assert peak < 32
"""Tests for the training loops, uncertainty records, and checkpoint selection."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fairhrv import mitigation, nnet
from fairhrv.checkpoint_io import load_checkpoint, save_checkpoint
from fairhrv.dataset import (
    AttributeCoding,
    Cohort,
    LabeledWindow,
    generate_synthetic,
)
from fairhrv.mitigation import (
    TrainConfig,
    TrainingDiverged,
    UncertaintyRecord,
    evaluate_uncertainties,
    final_predict,
    select_checkpoint,
    train_baseline,
    train_mtl_with_checkpoints,
    train_reweighted,
)
from fairhrv.nnet import ModelArch, backward, forward, init_params, mc_forward, mtl_loss, sample_dropout_mask
from fairhrv.rng import substream
from peak_memory import peak_mb

TINY = dict(lstm_hidden=6, dense_size=4, mc_passes=8, batch_size=16, lr=3e-3)


def tiny_config(**overrides):
    merged = {**TINY, **overrides}
    return TrainConfig(**merged)


def mc_buffer(config, cohort):
    """The (heads, passes, windows) buffer that ``pipeline.run_mitigation`` allocates for ``cohort``."""
    return np.empty((2, config.mc_passes, len(cohort)))


def separable_cohort(n=60, seed=0):
    """Anxiety shifts five columns by +/-2: trivially separable.

    The first half of the windows is group a (p5-p9), the second group b (p0-p4).
    """
    rng = np.random.default_rng(seed)
    windows = []
    for i in range(n):
        y = i % 2
        feats = rng.normal(0, 1, size=(24, 25))
        feats[:, :5] += 2.0 * (2 * y - 1)
        windows.append(LabeledWindow(f"s{i:04d}", f"p{i % 5 + 5 * (i < n // 2)}", feats, y))
    coding = AttributeCoding({"a": 1, "b": 0}, {"a": 5, "b": 5}, {f"p{k}": int(k >= 5) for k in range(10)})
    return Cohort(tuple(windows), {"group": coding})


class TestTrainConfig:
    def test_cadence_must_be_positive(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            TrainConfig(checkpoint_every=0)

    def test_mc_passes_minimum(self):
        with pytest.raises(ValueError):
            TrainConfig(mc_passes=1)

    def test_negative_task_weight(self):
        with pytest.raises(ValueError):
            TrainConfig(task_weights=(-1.0, 0.5))

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("lr", 0.0), ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf),
        ("threshold", -0.1), ("threshold", 1.1), ("threshold", math.nan),
        ("seed", -1), ("seed", 2**64), ("epochs", 2**32),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_range_ends_accepted(self):
        TrainConfig(batch_size=1, threshold=0.0)
        TrainConfig(threshold=1.0)
        TrainConfig(seed=2**64 - 1, epochs=2**32 - 1)  # the widest a checkpoint header holds


class TestBaseline:
    def test_learns_separable_data(self):
        cohort = separable_cohort()
        config = tiny_config(epochs=100, checkpoint_every=5, seed=1)
        params, losses = train_baseline(cohort, config)
        assert losses[-1] < losses[0]
        preds, _ = final_predict(params, cohort)
        assert np.mean(preds == cohort.labels()) > 0.9

    def test_zero_epochs_returns_initialization(self):
        cohort = separable_cohort(40)
        config = tiny_config(epochs=0, checkpoint_every=5, seed=2)
        params, _ = train_baseline(cohort, config)
        fresh = init_params(config.arch(("anxiety",)), seed=2)
        for name in fresh.tensors:
            assert params.tensors[name].tobytes() == fresh.tensors[name].tobytes()

    def test_fixed_seed_reproducible(self):
        cohort = separable_cohort(40)
        config = tiny_config(epochs=10, checkpoint_every=5, seed=3)
        a, _ = train_baseline(cohort, config)
        b, _ = train_baseline(cohort, config)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_non_finite_gradient_raises_before_the_update(self, monkeypatch):
        calls = {"backward": 0, "adam_step": 0}
        original_backward, original_adam_step = mitigation.backward, mitigation.adam_step

        def poisoned_backward(*args, **kwargs):
            calls["backward"] += 1
            grads = original_backward(*args, **kwargs)
            if calls["backward"] == 3:
                grads["dense.W"][1, 2] = np.inf
            return grads

        def counting_adam_step(*args, **kwargs):
            calls["adam_step"] += 1
            return original_adam_step(*args, **kwargs)

        monkeypatch.setattr(mitigation, "backward", poisoned_backward)
        monkeypatch.setattr(mitigation, "adam_step", counting_adam_step)
        # 40 windows in batches of 16: the third backward is epoch 1, batch 2
        with pytest.raises(TrainingDiverged, match="non-finite gradient at epoch 1, batch 2"):
            train_baseline(separable_cohort(40), tiny_config(epochs=5, checkpoint_every=5, seed=4))
        assert calls["adam_step"] == 2


class TestReweighted:
    def test_unit_weights_match_baseline_exactly(self):
        cohort = separable_cohort(40)
        config = tiny_config(epochs=10, checkpoint_every=5, seed=4)
        base, _ = train_baseline(cohort, config)
        rew, _ = train_reweighted(cohort, config, np.ones(len(cohort)))
        for name in base.tensors:
            assert base.tensors[name].tobytes() == rew.tensors[name].tobytes()

    def test_uniform_scaling_invariance(self):
        cohort = separable_cohort(40)
        config = tiny_config(epochs=10, checkpoint_every=5, seed=5)
        rng = np.random.default_rng(6)
        weights = rng.uniform(0.5, 2.0, size=len(cohort))
        a, _ = train_reweighted(cohort, config, weights)
        b, _ = train_reweighted(cohort, config, 2.0 * weights)
        for name in a.tensors:
            assert np.max(np.abs(a.tensors[name] - b.tensors[name])) < 1e-9

    def test_zero_weight_sample_contributes_nothing(self):
        # gradients with a zero-weight sample equal gradients with it removed
        arch = tiny_config().arch(("anxiety",))
        params = init_params(arch, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 24, 25))
        y = np.array([1.0, 0.0, 1.0])
        _, trace_full = forward(params, x)
        grads_full = backward(
            params, trace_full, {"anxiety": y}, {"anxiety": 1.0},
            sample_weights=np.array([0.0, 1.0, 1.0]),
        )
        _, trace_cut = forward(params, x[1:])
        grads_cut = backward(
            params, trace_cut, {"anxiety": y[1:]}, {"anxiety": 1.0},
            sample_weights=np.array([1.0, 1.0]),
        )
        for name in grads_full:
            assert np.allclose(grads_full[name], grads_cut[name], atol=1e-15)


class TestMtlCheckpoints:
    def test_checkpoint_count_and_tags(self):
        cohort = generate_synthetic(48, 0.5, 9)
        config = tiny_config(epochs=10, checkpoint_every=5, seed=10)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        assert [c.epoch for c in checkpoints] == [5, 10]

    @pytest.mark.parametrize("epochs,every,want", [(7, 5, [5, 7]), (3, 5, [3]), (0, 5, [])])
    def test_last_epoch_is_checkpointed(self, epochs, every, want):
        cohort = generate_synthetic(48, 0.5, 9)
        config = tiny_config(epochs=epochs, checkpoint_every=every, seed=10)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        assert [c.epoch for c in checkpoints] == want

    def test_training_builds_one_params_and_one_state_plus_a_copy_per_checkpoint(self, monkeypatch):
        built = {"ModelParams": 0, "AdamState": 0}
        for cls in (nnet.ModelParams, nnet.AdamState):
            def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        cohort = generate_synthetic(48, 0.5, 9)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", tiny_config(epochs=6, checkpoint_every=2, seed=10))
        # six epochs of three batches of 16: 18 Adam steps, which build no params and no state
        assert len(checkpoints) == 3
        assert built == {"ModelParams": 1 + len(checkpoints), "AdamState": 1}

    def test_single_checkpoint(self):
        cohort = generate_synthetic(48, 0.5, 9)
        config = tiny_config(epochs=5, checkpoint_every=5, seed=10)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        assert [c.epoch for c in checkpoints] == [5]

    def test_combined_loss_is_weighted_sum_of_parts(self):
        cohort = generate_synthetic(48, 0.5, 11)
        config = tiny_config(epochs=5, checkpoint_every=5, seed=12)
        params = init_params(config.arch(("anxiety", "protected")), seed=12)
        x = cohort.feature_tensor()[:16]
        targets = {
            "anxiety": cohort.labels()[:16].astype(float),
            "protected": cohort.protected_values("group")[:16].astype(float),
        }
        outputs, _ = forward(params, x)
        ones = np.ones(16)
        combined = mtl_loss(outputs, targets, {"anxiety": 4.5, "protected": 0.5}, ones)
        part_anx = mtl_loss(outputs, targets, {"anxiety": 1.0}, ones)
        part_prot = mtl_loss(outputs, targets, {"protected": 1.0}, ones)
        assert abs(combined - (4.5 * part_anx + 0.5 * part_prot)) < 1e-12


class TestUncertainties:
    def test_keep_rate_one_gives_zero_uncertainty(self):
        cohort = generate_synthetic(48, 0.5, 13)
        config = tiny_config(epochs=10, checkpoint_every=5, seed=14, keep_rate=1.0)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        records = evaluate_uncertainties(checkpoints, cohort, config, mc_buffer(config, cohort))
        for record in records:
            assert record.c_anxiety == 0.0
            assert record.c_protected == 0.0

    def test_two_pass_bernoulli_moments(self):
        # a net engineered so a single dropout unit flips both heads
        # between ~0 and ~1: multiplier 0 gives sigmoid(-80), multiplier
        # 1 / 0.5 gives sigmoid(2 * 80 - 80); with one draw of each,
        # Eq. 2-3 give exactly p = 0.5 and c = 0.25
        arch = ModelArch(input_size=1, lstm_hidden=None, dense_size=1, heads=("anxiety", "protected"))
        params = init_params(arch, seed=0)
        big = 80.0
        params.tensors["dense.W"][...] = 1.0
        params.tensors["dense.b"][...] = 0.0
        for head in arch.heads:
            params.tensors[f"head.{head}.W"][...] = 1.0
            params.tensors[f"head.{head}.b"][...] = -big
        config = tiny_config(keep_rate=0.5, mc_passes=2)
        for epoch in range(1, 51):
            rng = substream(config.seed, "mc-eval", epoch)
            draws = [sample_dropout_mask(arch, config.keep_rate, rng, batch=1)["dense_out"][0, 0] for _ in range(2)]
            if sorted(draws) == [0.0, 2.0]:
                break
        else:
            pytest.fail("no checkpoint epoch drew one multiplier of each kind in 50 tries")
        params.epoch = epoch
        samples = np.empty((2, 2, 1))
        cohort = SimpleNamespace(feature_tensor=lambda: np.array([[big]]))  # the net's one input value
        (record,) = evaluate_uncertainties([params], cohort, config, samples)
        assert np.mean(samples, axis=(1, 2)) == pytest.approx([0.5, 0.5], abs=1e-12)
        assert record.c_anxiety == pytest.approx(0.25, abs=1e-12)
        assert record.c_protected == pytest.approx(0.25, abs=1e-12)

    def test_record_contract(self):
        cohort = generate_synthetic(48, 0.5, 15)
        config = tiny_config(epochs=15, checkpoint_every=5, seed=16)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        samples = mc_buffer(config, cohort)
        records = evaluate_uncertainties(checkpoints, cohort, config, samples)
        assert len(records) == len(checkpoints)
        assert [r.epoch for r in records] == [c.epoch for c in checkpoints]
        assert all(r.c_anxiety >= 0 and r.c_protected >= 0 for r in records)
        assert np.all((samples >= 0) & (samples <= 1))  # the last checkpoint's draws

    def test_aggregation_is_mean_over_samples(self):
        cohort = generate_synthetic(48, 0.5, 17)
        config = tiny_config(epochs=5, checkpoint_every=5, seed=18)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        records = evaluate_uncertainties(checkpoints, cohort, config, mc_buffer(config, cohort))
        rng = substream(config.seed, "mc-eval", checkpoints[0].epoch)
        draws = mc_forward(checkpoints[0], cohort.feature_tensor(), config.keep_rate, rng, mc_buffer(config, cohort))
        for c, s in zip((records[0].c_anxiety, records[0].c_protected), draws):
            # the variance with divisor T about the mean accumulated relative to the first pass, bit for bit
            mean = s[0] + np.sum(s - s[0], axis=0) / config.mc_passes
            assert c == float(np.mean(np.sum((s - mean) ** 2, axis=0) / config.mc_passes))
            assert c == pytest.approx(float(np.mean(np.var(s, axis=0))), rel=1e-12)

    def test_mean_of_two_sample_variances(self):
        # aggregation rule on its own: {0.1, 0.3} pools to 0.2
        assert float(np.mean([0.1, 0.3])) == pytest.approx(0.2)

    def test_checkpoints_sharing_one_buffer_score_as_alone(self):
        cohort = generate_synthetic(48, 0.5, 19)
        config = tiny_config(epochs=10, checkpoint_every=5, seed=20)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        alone = {c.epoch: evaluate_uncertainties([c], cohort, config, mc_buffer(config, cohort))[0]
                 for c in checkpoints}
        shared = mc_buffer(config, cohort)
        for order in (checkpoints, checkpoints[::-1]):
            records = evaluate_uncertainties(order, cohort, config, shared)
            assert records == [alone[c.epoch] for c in order]


class TestSelection:
    def _record(self, epoch, ca, cp):
        return UncertaintyRecord(epoch, ca, cp)

    def test_argmax_gap(self):
        records = [self._record(5, 0.02, 0.05), self._record(10, 0.01, 0.09)]
        result = select_checkpoint(records)
        assert result is records[1]
        assert result.gap == pytest.approx(0.08)

    def test_tie_goes_to_earliest(self):
        # gaps chosen exactly representable so the tie is exact in float
        records = [self._record(5, 0.25, 0.5), self._record(10, 0.5, 0.75)]
        assert select_checkpoint(records).epoch == 5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gap_raises(self, bad):
        # a NaN gap first used to be kept, since no comparison with NaN is True
        records = [self._record(5, 0.01, bad), self._record(10, 0.01, 0.05)]
        with pytest.raises(ValueError, match="non-finite"):
            select_checkpoint(records)

    def test_argmax_against_brute_scan(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            records = [
                self._record(5 * (i + 1), rng.uniform(0, 0.1), rng.uniform(0, 0.1))
                for i in range(rng.integers(1, 12))
            ]
            result = select_checkpoint(records)
            best_gap = max(r.gap for r in records)
            assert result.gap == best_gap
            assert result.epoch == min(r.epoch for r in records if r.gap == best_gap)
            assert all(result.gap >= r.gap for r in records)


class TestFinalPredict:
    def test_deterministic_and_bounded(self):
        cohort = generate_synthetic(48, 0.5, 20)
        config = tiny_config(epochs=5, checkpoint_every=5, seed=21)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        p1, prob1 = final_predict(checkpoints[0], cohort)
        p2, prob2 = final_predict(checkpoints[0], cohort)
        assert np.array_equal(p1, p2)
        assert prob1.tobytes() == prob2.tobytes()
        assert set(np.unique(p1)) <= {0, 1}
        assert np.all((prob1 >= 0) & (prob1 <= 1))

    def test_from_disk_matches_memory(self, tmp_path):
        cohort = generate_synthetic(48, 0.5, 22)
        config = tiny_config(epochs=5, checkpoint_every=5, seed=23)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        save_checkpoint(checkpoints[0], tmp_path / "ckpt_epoch_5.bin")
        from_memory = final_predict(checkpoints[0], cohort)
        from_disk = final_predict(load_checkpoint(tmp_path / "ckpt_epoch_5.bin"), cohort)
        assert np.array_equal(from_memory[0], from_disk[0])
        assert from_memory[1].tobytes() == from_disk[1].tobytes()

    def test_memory_bounded(self):
        # the full trace of 500 windows at H 64 is about 68 MB
        cohort = generate_synthetic(500, 0.5, 26)
        params = init_params(TrainConfig().arch(("anxiety", "protected")), seed=27)
        assert peak_mb(final_predict, params, cohort) < 16

    def test_threshold_rule(self):
        cohort = generate_synthetic(48, 0.5, 24)
        config = tiny_config(epochs=5, checkpoint_every=5, seed=25)
        checkpoints, _ = train_mtl_with_checkpoints(cohort, "group", config)
        preds, probs = final_predict(checkpoints[0], cohort, threshold=0.5)
        assert np.array_equal(preds, (probs >= 0.5).astype(int))

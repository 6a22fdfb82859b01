"""Minimal float64 neural-network engine.

A shared trunk (optional LSTM over the 24x25 window, optional dense+ReLU
layer, inverted dropout after each) feeding one sigmoid head per task.
Everything is plain numpy with hand-derived backpropagation-through-time
gradients, so analytic gradients can be checked against finite
differences and checkpoints can be serialized bit-exactly.

Dropout acts only after the recurrence, so the LSTM states of an input
are deterministic: Monte-Carlo dropout computes them once per call and
repeats only mask -> dense -> heads in each pass.

Parameters are immutable during inference; forward passes may run
concurrently on shared params as long as each caller owns its RNG.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as sigmoid

from .rng import substream

PROB_CLAMP = 1e-12

# lstm gate slices within the stacked 4H axis
_GATES = ("input", "forget", "cell", "output")


class ShapeMismatch(ValueError):
    """Input or parameter shapes disagree with the architecture."""


class StaleTrace(ValueError):
    """A forward trace does not match the parameters it is replayed against."""


@dataclass(frozen=True)
class ModelArch:
    """Network topology.

    ``input_size`` is the per-step feature count when an LSTM is present,
    otherwise the flattened input size. ``lstm_hidden`` or ``dense_size``
    of None drops that stage (both None gives a purely linear model).
    Dropout applies after the LSTM output and after the dense activation,
    where those stages exist.
    """

    input_size: int = 25
    lstm_hidden: int = 64
    dense_size: int = 32
    heads: tuple = ("anxiety", "protected")

    def dropout_points(self) -> tuple:
        points = []
        if self.lstm_hidden is not None:
            points.append(("lstm_out", self.lstm_hidden))
        if self.dense_size is not None:
            points.append(("dense_out", self.dense_size))
        return tuple(points)

    def trunk_size(self) -> int:
        return self.input_size if self.lstm_hidden is None else self.lstm_hidden

    def head_input_size(self) -> int:
        return self.trunk_size() if self.dense_size is None else self.dense_size

    @staticmethod
    def from_params(params: "ModelParams") -> "ModelArch":
        t = params.tensors
        heads = tuple(name.split(".")[1] for name in t if name.startswith("head.") and name.endswith(".W"))
        lstm_hidden = t["lstm.U"].shape[0] if "lstm.W" in t else None
        dense_size = t["dense.W"].shape[1] if "dense.W" in t else None
        if lstm_hidden is not None:
            input_size = t["lstm.W"].shape[0]
        elif dense_size is not None:
            input_size = t["dense.W"].shape[0]
        else:
            input_size = t[f"head.{heads[0]}.W"].shape[0]
        return ModelArch(input_size=input_size, lstm_hidden=lstm_hidden, dense_size=dense_size, heads=heads)


@dataclass
class ModelParams:
    """Ordered named tensors plus checkpoint metadata."""

    tensors: dict
    epoch: int = 0
    rng_seed: int = 0

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()}, self.epoch, self.rng_seed)


@dataclass(frozen=True)
class DropoutMask:
    """Binary keep masks for each dropout point, with the shared keep rate."""

    keep_rate: float
    masks: dict

    def __post_init__(self):
        if not 0.0 < self.keep_rate <= 1.0:
            raise ValueError(f"keep_rate must be in (0, 1], got {self.keep_rate}")
        for name, m in self.masks.items():
            values = np.unique(np.asarray(m))
            if not np.isin(values, (0.0, 1.0)).all():
                raise ValueError(f"mask {name!r} must contain only 0/1")


@dataclass
class ForwardTrace:
    """Per-layer activations cached for the matching backward pass."""

    x: np.ndarray
    outputs: dict
    head_scores: dict
    param_shapes: dict
    squeezed: bool
    # lstm caches, shaped (T, B, H); states include t=0
    gates: dict = None
    cell: np.ndarray = None
    hidden: np.ndarray = None
    tanh_cell: np.ndarray = None
    # dropout multipliers (mask / keep_rate), None when inactive
    lstm_drop: np.ndarray = None
    dense_drop: np.ndarray = None
    trunk_out: np.ndarray = None
    dense_pre: np.ndarray = None
    head_in: np.ndarray = None


def glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(arch: ModelArch, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1."""
    rng = substream(seed, "init")
    tensors = {}
    if arch.lstm_hidden is not None:
        h = arch.lstm_hidden
        tensors["lstm.W"] = glorot(rng, arch.input_size, h, (arch.input_size, 4 * h))
        tensors["lstm.U"] = glorot(rng, h, h, (h, 4 * h))
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0
        tensors["lstm.b"] = bias
    if arch.dense_size is not None:
        tensors["dense.W"] = glorot(rng, arch.trunk_size(), arch.dense_size, (arch.trunk_size(), arch.dense_size))
        tensors["dense.b"] = np.zeros(arch.dense_size)
    for head in arch.heads:
        tensors[f"head.{head}.W"] = glorot(rng, arch.head_input_size(), 1, (arch.head_input_size(), 1))
        tensors[f"head.{head}.b"] = np.zeros(1)
    return ModelParams(tensors, epoch=0, rng_seed=seed)


def sample_dropout_mask(arch: ModelArch, keep_rate: float, rng, batch: int = 1) -> DropoutMask:
    """Draw independent Bernoulli keep masks for every dropout point."""
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError(f"keep_rate must be in (0, 1], got {keep_rate}")
    masks = {}
    for name, width in arch.dropout_points():
        masks[name] = (rng.random((batch, width)) < keep_rate).astype(np.float64)
    return DropoutMask(keep_rate=keep_rate, masks=masks)


def _prepare_input(arch: ModelArch, x) -> tuple:
    x = np.asarray(x, dtype=np.float64)
    squeezed = False
    if arch.lstm_hidden is not None:
        if x.ndim == 2:
            x = x[None]
            squeezed = True
        if x.ndim != 3 or x.shape[2] != arch.input_size:
            raise ShapeMismatch(f"expected (batch, steps, {arch.input_size}), got {x.shape}")
    else:
        if x.ndim == 2 and x.shape[0] * x.shape[1] == arch.input_size:
            x = x.reshape(1, -1)
            squeezed = True
        elif x.ndim == 3:
            x = x.reshape(x.shape[0], -1)
        elif x.ndim == 1:
            x = x[None]
            squeezed = True
        if x.shape[1] != arch.input_size:
            raise ShapeMismatch(f"expected flattened size {arch.input_size}, got {x.shape}")
    return x, squeezed


def _lstm_states(params: ModelParams, x: np.ndarray) -> tuple:
    """The LSTM recurrence over a (batch, steps, features) input.

    Returns (gates, cell, hidden, tanh_cell): gates maps each gate name to
    a (steps, batch, H) array, cell and hidden are (steps + 1, batch, H)
    with the zero state at t=0, tanh_cell is (steps, batch, H).
    """
    t = params.tensors
    batch, steps, _ = x.shape
    w_in, w_rec, bias = t["lstm.W"], t["lstm.U"], t["lstm.b"]
    h = w_rec.shape[0]
    xw = x.reshape(batch * steps, -1) @ w_in
    xw = xw.reshape(batch, steps, 4 * h)
    hidden = np.zeros((steps + 1, batch, h))
    cell = np.zeros((steps + 1, batch, h))
    tanh_cell = np.zeros((steps, batch, h))
    gates = {name: np.zeros((steps, batch, h)) for name in _GATES}
    for step in range(steps):
        z = xw[:, step] + hidden[step] @ w_rec + bias
        gi = sigmoid(z[:, :h])
        gf = sigmoid(z[:, h : 2 * h])
        gc = np.tanh(z[:, 2 * h : 3 * h])
        go = sigmoid(z[:, 3 * h :])
        cell[step + 1] = gf * cell[step] + gi * gc
        tanh_cell[step] = np.tanh(cell[step + 1])
        hidden[step + 1] = go * tanh_cell[step]
        gates["input"][step] = gi
        gates["forget"][step] = gf
        gates["cell"][step] = gc
        gates["output"][step] = go
    return gates, cell, hidden, tanh_cell


def forward(params: ModelParams, x, mask: DropoutMask = None, lstm_states=None) -> tuple:
    """Run the network; returns ({head: probabilities}, trace).

    With ``mask`` absent, dropout is disabled and the pass is
    deterministic (inverted dropout needs no inference-time rescaling).
    Masked activations are scaled by 1/keep_rate so expectations match
    the unmasked pass. ``lstm_states`` are the recurrence's results for
    this ``x`` and these params, as computed by ``_lstm_states``; when
    None they are computed here.

    Raises:
        ShapeMismatch: ``x``, ``mask`` or ``lstm_states`` do not fit the params.
    """
    arch = ModelArch.from_params(params)
    t = params.tensors
    x, squeezed = _prepare_input(arch, x)
    trace = ForwardTrace(
        x=x, outputs={}, head_scores={},
        param_shapes={k: v.shape for k, v in t.items()},
        squeezed=squeezed,
    )

    if arch.lstm_hidden is not None:
        if lstm_states is None:
            lstm_states = _lstm_states(params, x)
        elif lstm_states[2].shape != (x.shape[1] + 1, x.shape[0], arch.lstm_hidden):
            raise ShapeMismatch(f"lstm_states of hidden shape {lstm_states[2].shape} do not fit "
                                f"input {x.shape} and hidden size {arch.lstm_hidden}")
        trace.gates, trace.cell, trace.hidden, trace.tanh_cell = lstm_states
        trunk = trace.hidden[-1]
    elif lstm_states is not None:
        raise ShapeMismatch("lstm_states given to a model without an LSTM")
    else:
        trunk = x

    if mask is not None and "lstm_out" in mask.masks:
        trace.lstm_drop = np.asarray(mask.masks["lstm_out"], dtype=np.float64) / mask.keep_rate
        if trace.lstm_drop.shape[-1] != trunk.shape[-1]:
            raise ShapeMismatch("lstm_out mask width disagrees with the hidden size")
        trunk = trunk * trace.lstm_drop
    trace.trunk_out = trunk

    if arch.dense_size is not None:
        pre = trunk @ t["dense.W"] + t["dense.b"]
        act = np.maximum(pre, 0.0)
        trace.dense_pre = pre
        if mask is not None and "dense_out" in mask.masks:
            trace.dense_drop = np.asarray(mask.masks["dense_out"], dtype=np.float64) / mask.keep_rate
            if trace.dense_drop.shape[-1] != act.shape[-1]:
                raise ShapeMismatch("dense_out mask width disagrees with the dense size")
            act = act * trace.dense_drop
        head_in = act
    else:
        head_in = trunk
    trace.head_in = head_in

    outputs = {}
    for head in arch.heads:
        score = (head_in @ t[f"head.{head}.W"])[:, 0] + t[f"head.{head}.b"][0]
        trace.head_scores[head] = score
        outputs[head] = sigmoid(score)
    trace.outputs = outputs
    return outputs, trace


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def mtl_loss(outputs: dict, targets: dict, task_weights: dict, sample_weights=None) -> float:
    """Weighted multi-task binary cross-entropy.

    Per task: the (sample-weighted) mean BCE over the batch, scaled by the
    task weight and summed over tasks. Probabilities are clamped to
    [1e-12, 1 - 1e-12].
    """
    total = 0.0
    for head, weight in task_weights.items():
        if weight < 0:
            raise ValueError("task weights must be non-negative")
        p = np.atleast_1d(np.asarray(outputs[head], dtype=np.float64))
        y = np.atleast_1d(np.asarray(targets[head], dtype=np.float64))
        losses = _bce(p, y)
        if sample_weights is None:
            total += weight * float(np.sum(losses) / losses.size)
        else:
            sw = np.asarray(sample_weights, dtype=np.float64)
            total += weight * float(np.sum(sw * losses) / np.sum(sw))
    return total


def _check_trace(params: ModelParams, trace: ForwardTrace):
    shapes = {k: v.shape for k, v in params.tensors.items()}
    if shapes != trace.param_shapes:
        raise StaleTrace("trace was produced by parameters of different shapes")


def _backprop(params: ModelParams, trace: ForwardTrace, score_seeds: dict) -> tuple:
    """Backpropagate d(loss)/d(pre-sigmoid score) seeds through the net.

    Returns (grads, d_input) where grads matches params.tensors and
    d_input has the shape of the (batched) network input.
    """
    arch = ModelArch.from_params(params)
    t = params.tensors
    grads = {k: np.zeros_like(v) for k, v in t.items()}

    head_in = trace.head_in
    d_head_in = np.zeros_like(head_in)
    for head in arch.heads:
        seed = np.asarray(score_seeds.get(head, 0.0), dtype=np.float64)
        seed = np.broadcast_to(seed, (head_in.shape[0],))
        grads[f"head.{head}.W"] = head_in.T @ seed[:, None]
        grads[f"head.{head}.b"] = np.array([np.sum(seed)])
        d_head_in += seed[:, None] * t[f"head.{head}.W"][:, 0]

    if arch.dense_size is not None:
        d_act = d_head_in if trace.dense_drop is None else d_head_in * trace.dense_drop
        d_pre = d_act * (trace.dense_pre > 0)
        grads["dense.W"] = trace.trunk_out.T @ d_pre
        grads["dense.b"] = d_pre.sum(axis=0)
        d_trunk = d_pre @ t["dense.W"].T
    else:
        d_trunk = d_head_in

    if trace.lstm_drop is not None:
        d_trunk = d_trunk * trace.lstm_drop

    if arch.lstm_hidden is None:
        return grads, d_trunk

    w_in, w_rec = t["lstm.W"], t["lstm.U"]
    x = trace.x
    batch, steps, _ = x.shape
    h = arch.lstm_hidden
    gates, cell, hidden, tanh_cell = trace.gates, trace.cell, trace.hidden, trace.tanh_cell

    d_hidden = d_trunk
    d_cell = np.zeros((batch, h))
    d_z_all = np.zeros((batch, steps, 4 * h))
    for step in range(steps - 1, -1, -1):
        gi, gf = gates["input"][step], gates["forget"][step]
        gc, go = gates["cell"][step], gates["output"][step]
        tc = tanh_cell[step]
        d_out = d_hidden * tc
        d_cell = d_cell + d_hidden * go * (1.0 - tc * tc)
        d_in = d_cell * gc
        d_forget = d_cell * cell[step]
        d_cand = d_cell * gi
        dz = d_z_all[:, step]
        dz[:, :h] = d_in * gi * (1.0 - gi)
        dz[:, h : 2 * h] = d_forget * gf * (1.0 - gf)
        dz[:, 2 * h : 3 * h] = d_cand * (1.0 - gc * gc)
        dz[:, 3 * h :] = d_out * go * (1.0 - go)
        grads["lstm.U"] += hidden[step].T @ dz
        d_hidden = dz @ w_rec.T
        d_cell = d_cell * gf

    flat_dz = d_z_all.reshape(batch * steps, 4 * h)
    grads["lstm.W"] = x.reshape(batch * steps, -1).T @ flat_dz
    grads["lstm.b"] = flat_dz.sum(axis=0)
    d_input = (flat_dz @ w_in.T).reshape(batch, steps, -1)
    return grads, d_input


def backward(params: ModelParams, trace: ForwardTrace, targets: dict, task_weights: dict, sample_weights=None) -> dict:
    """Exact analytic gradients of mtl_loss with respect to every parameter.

    Raises:
        StaleTrace: the trace came from parameters of different shapes.
    """
    _check_trace(params, trace)
    batch = trace.head_in.shape[0]
    if sample_weights is None:
        norm = np.full(batch, 1.0 / batch)
    else:
        sw = np.asarray(sample_weights, dtype=np.float64)
        norm = sw / np.sum(sw)
    seeds = {}
    for head, weight in task_weights.items():
        p = trace.outputs[head]
        y = np.broadcast_to(np.asarray(targets[head], dtype=np.float64), p.shape)
        # where the probability clamp is active the loss is locally flat
        live = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
        seeds[head] = weight * norm * np.where(live, p - y, 0.0)
    grads, _ = _backprop(params, trace, seeds)
    return grads


def input_gradient(params: ModelParams, x, head: str) -> np.ndarray:
    """Gradient of a head's pre-sigmoid score with respect to the input.

    Dropout is disabled. For a purely linear model this returns the
    head's weight matrix reshaped to the input shape.
    """
    arch = ModelArch.from_params(params)
    if head not in arch.heads:
        raise KeyError(f"unknown head {head!r}")
    x_arr = np.asarray(x, dtype=np.float64)
    _, trace = forward(params, x_arr, mask=None)
    batch = trace.head_in.shape[0]
    _, d_input = _backprop(params, trace, {head: np.ones(batch)})
    if trace.squeezed:
        d_input = d_input[0]
    return d_input.reshape(x_arr.shape)


def mc_forward(params: ModelParams, x, passes: int, keep_rate: float, rng) -> tuple:
    """Monte-Carlo dropout: ``passes`` forward passes with fresh masks.

    Returns ({head: posterior mean}, {head: predictive variance}), the
    variance taken with divisor T. The mean is accumulated relative to
    the first pass so a deterministic model (keep_rate 1) yields an
    exactly zero variance.

    Dropout acts only after the recurrence, so the LSTM states are the
    same in every pass: they are computed once per call, and each pass
    runs only mask -> dense -> heads. The results are bit-identical to
    ``passes`` full forward passes with the same masks.
    """
    if passes < 1:
        raise ValueError("need at least one pass")
    arch = ModelArch.from_params(params)
    x_arr, _ = _prepare_input(arch, x)
    batch = x_arr.shape[0]
    states = None if arch.lstm_hidden is None else _lstm_states(params, x_arr)
    samples = {head: np.empty((passes, batch)) for head in arch.heads}
    for i in range(passes):
        mask = sample_dropout_mask(arch, keep_rate, rng, batch=batch)
        outputs, _ = forward(params, x_arr, mask=mask, lstm_states=states)
        for head in arch.heads:
            samples[head][i] = outputs[head]
    means, variances = {}, {}
    for head in arch.heads:
        s = samples[head]
        mean = s[0] + np.sum(s - s[0], axis=0) / passes
        means[head] = mean
        variances[head] = np.sum((s - mean) ** 2, axis=0) / passes
    return means, variances


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: dict
    v: dict
    t: int = 0

    @staticmethod
    def for_params(params: ModelParams) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(v) for k, v in params.tensors.items()},
            v={k: np.zeros_like(v) for k, v in params.tensors.items()},
        )


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> tuple:
    """One Adam update; returns (new params, new state)."""
    t = state.t + 1
    new_tensors, new_m, new_v = {}, {}, {}
    for name, value in params.tensors.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_tensors[name] = value - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return (
        ModelParams(new_tensors, epoch=params.epoch, rng_seed=params.rng_seed),
        AdamState(m=new_m, v=new_v, t=t),
    )

"""Minimal float64 neural-network engine.

A shared trunk (optional LSTM over the 24x25 window, optional dense+ReLU
layer, inverted dropout after each) feeding one sigmoid head per task.
Everything is plain numpy with hand-derived backpropagation-through-time
gradients, so analytic gradients can be checked against finite
differences and checkpoints can be serialized bit-exactly.

The network input is a float64 batch, as the callers build it: (batch,
steps, input_size) for a model with an LSTM and (batch, input_size) for
one without. The CLI's models are LSTMs over 25 features per step; the
other topologies back the tests' oracles. Targets and sample weights are
float64 arrays of batch length.

Dropout acts only after the recurrence, so the LSTM states of an input
are deterministic. Inference therefore runs in two parts: the recurrence
gives each window's last hidden state, and ``forward`` then runs the head
network on those states. The head network is the model without its
``lstm.*`` tensors, which ``ModelArch.from_params`` reads as a model
without an LSTM whose input size is H; the full model's ``lstm_out``
dropout multipliers apply to that input. Monte-Carlo dropout
(``mc_forward``) runs the recurrence once per call and only the head
network in each pass. It writes each pass's head probabilities into the
caller's buffer and decides no measure over them: ``mitigation`` reduces
the draws to the uncertainty it selects checkpoints by. A dropout draw
is its inverted-dropout multipliers (``sample_dropout_mask``), which
``forward`` applies as given and keeps in its trace for ``backward``.

Inference holds the recurrence's history one block of windows at a time.
Training keeps the whole history for backpropagation through time, about
136 KB per window at H 64. MC dropout (``mc_forward``), prediction
(``predict``) and saliency (``input_gradient``) run the same traced
recurrence over blocks of at most 64 windows (``_window_blocks``), never
of one window unless the input has one, and keep only each window's last
hidden state or input gradient. The last hidden states, and so MC
dropout and prediction, have the bits of one whole-batch pass: a row of
a product without a transposed operand does not depend on how many rows
(two or more) share the call, but numpy hands a one-row product to gemv,
whose sums round differently. With OpenBLAS the transposed backward
product ``dz @ U.T`` breaks that rule: input gradients below H 64 differ
from a whole-batch pass by up to about 1e-8 relative; at H 64 they agree.

The LSTM stacks its gates in the order input, forget, cell, output along
the 4H axis of lstm.W, lstm.U and lstm.b; the gates, their pre-activations
``z`` and gradients ``dz`` are each read as four H-wide slots in that
order. The gates live in a (steps, 4, batch, H) buffer: gate k of step t
is the contiguous (batch, H) block [t, k], so the elementwise work of each
step, forward and backward, runs on contiguous memory. The recurrence and
backpropagation through time write through ``out=`` into buffers
allocated once per call, and keep the operation order of the allocating
form in tests/reference_lstm.py, which the tests require to give the same
bits.

Two numpy sigmoids serve two needs. The LSTM gates take
``gate_sigmoid``, the tanh form, which is about twice as fast as the exp
form; the heads take ``head_sigmoid``, which keeps its relative accuracy
in the tails, where the cross-entropy takes its log.

Parameters are immutable during inference; forward passes may run
concurrently on shared params as long as each caller owns its RNG.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

PROB_CLAMP = 1e-12

# most windows per block of inference; the module docstring says why
BLOCK_WINDOWS = 64


def gate_sigmoid(z, out=None) -> np.ndarray:
    """Logistic sigmoid as 0.5 * tanh(0.5 * z) + 0.5, written to ``out`` if given.

    Its absolute error is at most about 2.2e-16, but its relative error
    has no bound in the negative tail: it returns 0 below about z = -38.
    Use it where the value is only multiplied, as in the LSTM gates, and
    not where its log is taken.
    """
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def head_sigmoid(z) -> np.ndarray:
    """Logistic sigmoid to a few ulp relative over the whole real line.

    With e = exp(-|z|), which cannot overflow, it is 1 / (1 + e) for
    z >= 0 and e / (1 + e) below, so it is exactly 0.5 at 0 and keeps its
    relative accuracy down to the smallest positive results.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class ModelArch:
    """Network topology.

    ``input_size`` is the per-step feature count when an LSTM is present,
    otherwise the flattened input size. ``lstm_hidden`` or ``dense_size``
    of None drops that stage (both None gives a purely linear model).
    Dropout applies after the LSTM output and after the dense activation,
    where those stages exist.
    """

    input_size: int
    lstm_hidden: int
    dense_size: int
    heads: tuple

    def dropout_points(self) -> tuple:
        points = []
        if self.lstm_hidden is not None:
            points.append(("lstm_out", self.lstm_hidden))
        if self.dense_size is not None:
            points.append(("dense_out", self.dense_size))
        return tuple(points)

    def param_shapes(self) -> dict:
        """The name and shape of every tensor this topology has, in ``init_params``'s draw order."""
        shapes = {}
        width = self.input_size
        if self.lstm_hidden is not None:
            h = self.lstm_hidden
            shapes.update({"lstm.W": (width, 4 * h), "lstm.U": (h, 4 * h), "lstm.b": (4 * h,)})
            width = h
        if self.dense_size is not None:
            shapes.update({"dense.W": (width, self.dense_size), "dense.b": (self.dense_size,)})
            width = self.dense_size
        for head in self.heads:
            shapes.update({f"head.{head}.W": (width, 1), f"head.{head}.b": (1,)})
        return shapes

    @staticmethod
    def from_params(params: "ModelParams") -> "ModelArch":
        """The topology of a set of tensors.

        Raises:
            ValueError: the tensor names or shapes are not those of any
                topology, such as a missing bias or a recurrent matrix whose
                width is not four times its height.
        """
        shapes = {name: tensor.shape for name, tensor in params.tensors.items()}
        heads = tuple(name.split(".")[1] for name in shapes if name.startswith("head.") and name.endswith(".W"))
        try:
            lstm_hidden = shapes["lstm.U"][0] if "lstm.W" in shapes else None
            dense_size = shapes["dense.W"][1] if "dense.W" in shapes else None
            if lstm_hidden is not None:
                input_size = shapes["lstm.W"][0]
            elif dense_size is not None:
                input_size = shapes["dense.W"][0]
            else:
                input_size = shapes[f"head.{heads[0]}.W"][0]
        except (KeyError, IndexError):
            raise ValueError(f"tensors {sorted(shapes)} name no model topology") from None
        arch = ModelArch(input_size=input_size, lstm_hidden=lstm_hidden, dense_size=dense_size, heads=heads)
        if shapes != arch.param_shapes():
            raise ValueError(f"tensor shapes {shapes} do not fit {arch}")
        return arch


@dataclass
class ModelParams:
    """Ordered named tensors plus checkpoint metadata."""

    tensors: dict
    epoch: int = 0
    rng_seed: int = 0

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()}, self.epoch, self.rng_seed)


@dataclass
class ForwardTrace:
    """Per-layer activations cached for the matching backward pass."""

    x: np.ndarray
    outputs: dict
    # lstm caches, None without an LSTM: gates (T, 4, B, H), as _lstm_states returns them
    gates: np.ndarray = None
    cell: np.ndarray = None
    hidden: np.ndarray = None
    tanh_cell: np.ndarray = None
    # dropout multipliers, None when inactive
    lstm_drop: np.ndarray = None
    dense_drop: np.ndarray = None
    trunk_out: np.ndarray = None
    dense_pre: np.ndarray = None
    head_in: np.ndarray = None


def init_params(arch: ModelArch, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1, drawn in ``arch.param_shapes()`` order.

    A (fan_in, fan_out) weight is uniform within +-sqrt(6 / (fan_in +
    fan_out)); ``lstm.W`` and ``lstm.U`` take fan_out H, a quarter of
    their width, as each gate is an H-wide layer.
    """
    rng = substream(seed, "init")
    tensors = {}
    for name, shape in arch.param_shapes().items():
        if len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + (shape[1] // 4 if name.startswith("lstm.") else shape[1])))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
    if arch.lstm_hidden is not None:
        h = arch.lstm_hidden
        tensors["lstm.b"][h : 2 * h] = 1.0
    return ModelParams(tensors, epoch=0, rng_seed=seed)


def sample_dropout_mask(arch: ModelArch, keep_rate: float, rng, batch: int) -> dict:
    """{dropout point: (batch, width) inverted-dropout multipliers}, in ``arch.dropout_points()`` order.

    Each multiplier is an independent Bernoulli keep draw divided by
    ``keep_rate``: 0 for a dropped unit, 1 / keep_rate for a kept one, so
    a masked activation keeps the expectation of the unmasked one.
    """
    return {name: (rng.random((batch, width)) < keep_rate).astype(np.float64) / keep_rate
            for name, width in arch.dropout_points()}


def _lstm_states(params: ModelParams, x: np.ndarray):
    """The LSTM recurrence over a (batch, steps, features) input.

    Returns (gates, cell, hidden, tanh_cell), the history backpropagation
    through time needs: gates is the (steps, 4, batch, H) buffer whose
    [t, k] slot is gate k of step t, cell and hidden are (steps + 1,
    batch, H) with the zero state at t=0, tanh_cell is (steps, batch, H).
    x @ W is one GEMM over all steps.
    """
    t = params.tensors
    batch, steps, _ = x.shape
    w_in, w_rec, bias = t["lstm.W"], t["lstm.U"], t["lstm.b"]
    h = w_rec.shape[0]
    gates = np.empty((steps, 4, batch, h))
    hidden = np.zeros((steps + 1, batch, h))
    cell = np.zeros((steps + 1, batch, h))
    tanh_cell = np.empty((steps, batch, h))
    xw = (x.reshape(batch * steps, -1) @ w_in).reshape(batch, steps, 4 * h)
    z = np.empty((batch, 4 * h))
    zi, zf, zc, zo = z.reshape(batch, 4, h).swapaxes(0, 1)
    input_part = np.empty((batch, h))
    for step in range(steps):
        np.matmul(hidden[step], w_rec, out=z)
        z += xw[:, step]
        z += bias
        gi, gf, gc, go = gates[step]
        gate_sigmoid(zi, out=gi)
        gate_sigmoid(zf, out=gf)
        np.tanh(zc, out=gc)
        gate_sigmoid(zo, out=go)
        np.multiply(gf, cell[step], out=cell[step + 1])
        np.multiply(gi, gc, out=input_part)
        cell[step + 1] += input_part
        np.tanh(cell[step + 1], out=tanh_cell[step])
        np.multiply(go, tanh_cell[step], out=hidden[step + 1])
    return gates, cell, hidden, tanh_cell


def _window_blocks(x: np.ndarray) -> list:
    """``x`` split along its first axis into blocks of at most BLOCK_WINDOWS windows.

    There is more than one block only past BLOCK_WINDOWS windows, and
    ``np.array_split`` makes blocks that differ by at most one window, so
    each block holds all of ``x`` or more than BLOCK_WINDOWS / 2 windows.
    """
    return np.array_split(x, max(1, math.ceil(len(x) / BLOCK_WINDOWS)))


def _last_hidden(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The recurrence's last hidden state, (batch, H), of a (batch, steps, features) input.

    Each block of ``_window_blocks`` runs the traced recurrence, and its
    last hidden state is copied out, so that no block's history outlives
    its turn. The bits are those of ``_lstm_states(params, x)[2][-1]``.
    """
    last = np.empty((len(x), params.tensors["lstm.U"].shape[0]))
    # the same number of rows splits into the same blocks
    for block, rows in zip(_window_blocks(x), _window_blocks(last)):
        rows[:] = _lstm_states(params, block)[2][-1]
    return last


def forward(params: ModelParams, x: np.ndarray, mask: dict = None) -> tuple:
    """Run the network; returns ({head: probabilities}, trace).

    ``mask`` maps dropout points to the multipliers of
    ``sample_dropout_mask``, which scale the activations there as given.
    With ``mask`` absent, dropout is disabled and the pass is
    deterministic (inverted dropout needs no inference-time rescaling).
    The ``lstm_out`` multipliers apply to the recurrence's last hidden
    state or, in a model without an LSTM, to its input, so a head network
    given the full model's multipliers and the last hidden states gives
    the full model's outputs (see the module docstring).
    """
    arch = ModelArch.from_params(params)
    t = params.tensors
    trace = ForwardTrace(x=x, outputs={})
    mask = mask or {}

    trunk = x
    if arch.lstm_hidden is not None:
        trace.gates, trace.cell, trace.hidden, trace.tanh_cell = _lstm_states(params, x)
        trunk = trace.hidden[-1]

    trace.lstm_drop = mask.get("lstm_out")
    if trace.lstm_drop is not None:
        trunk = trunk * trace.lstm_drop
    trace.trunk_out = trunk

    if arch.dense_size is not None:
        pre = trunk @ t["dense.W"] + t["dense.b"]
        act = np.maximum(pre, 0.0)
        trace.dense_pre = pre
        trace.dense_drop = mask.get("dense_out")
        if trace.dense_drop is not None:
            act = act * trace.dense_drop
        head_in = act
    else:
        head_in = trunk
    trace.head_in = head_in

    outputs = {}
    for head in arch.heads:
        outputs[head] = head_sigmoid((head_in @ t[f"head.{head}.W"])[:, 0] + t[f"head.{head}.b"][0])
    trace.outputs = outputs
    return outputs, trace


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def mtl_loss(outputs: dict, targets: dict, task_weights: dict, sample_weights: np.ndarray) -> float:
    """Weighted multi-task binary cross-entropy.

    Per task: the sample-weighted mean BCE over the batch, sum(w_i *
    bce_i) / sum(w_i), scaled by the task weight (non-negative, as
    ``TrainConfig`` refuses others) and summed over tasks. Unit sample
    weights give the plain mean bit for bit. Probabilities are clamped to
    [1e-12, 1 - 1e-12].
    """
    total = 0.0
    for head, weight in task_weights.items():
        losses = _bce(outputs[head], targets[head])
        total += weight * float(np.sum(sample_weights * losses) / np.sum(sample_weights))
    return total


def _backprop(params: ModelParams, trace: ForwardTrace, score_seeds: dict, input_grad: bool = False) -> tuple:
    """Backpropagate {head: d(loss)/d(pre-sigmoid score)} seeds, each of batch length, through the net.

    Returns (grads, d_input) where grads matches params.tensors; a head
    without a seed gets zero gradients. d_input has the shape of the
    network input with ``input_grad``, and is None without it.
    """
    arch = ModelArch.from_params(params)
    t = params.tensors
    grads = {k: np.zeros_like(v) for k, v in t.items()}

    head_in = trace.head_in
    d_head_in = np.zeros_like(head_in)
    for head, seed in score_seeds.items():
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
        return grads, d_trunk if input_grad else None

    w_in, w_rec = t["lstm.W"], t["lstm.U"]
    x = trace.x
    batch, steps, _ = x.shape
    h = arch.lstm_hidden
    gates, cell, hidden, tanh_cell = trace.gates, trace.cell, trace.hidden, trace.tanh_cell

    d_hidden = d_trunk
    d_hidden_buf = np.empty((batch, h))
    d_cell = np.zeros((batch, h))
    work = np.empty((batch, h))
    deriv = np.empty((batch, h))
    d_rec = np.empty_like(w_rec)
    d_z_all = np.empty((batch, steps, 4 * h))
    dz_slots = d_z_all.reshape(batch, steps, 4, h).transpose(1, 2, 0, 3)  # (steps, 4, batch, H)
    for step in range(steps - 1, -1, -1):
        gi, gf, gc, go = gates[step]
        tc = tanh_cell[step]
        dz = d_z_all[:, step]
        dz_i, dz_f, dz_c, dz_o = dz_slots[step]
        # Each product is taken left to right, as written here; products
        # build in the contiguous work buffers, and only the last factor
        # writes into the strided slice of dz.
        # output gate: d_hidden * tc * go * (1 - go)
        np.multiply(d_hidden, tc, out=work)
        work *= go
        np.subtract(1.0, go, out=deriv)
        np.multiply(work, deriv, out=dz_o)
        # cell state: d_cell + d_hidden * go * (1 - tc * tc)
        np.multiply(d_hidden, go, out=work)
        np.multiply(tc, tc, out=deriv)
        np.subtract(1.0, deriv, out=deriv)
        work *= deriv
        d_cell += work
        # input gate: d_cell * gc * gi * (1 - gi)
        np.multiply(d_cell, gc, out=work)
        work *= gi
        np.subtract(1.0, gi, out=deriv)
        np.multiply(work, deriv, out=dz_i)
        # forget gate: d_cell * c_prev * gf * (1 - gf)
        np.multiply(d_cell, cell[step], out=work)
        work *= gf
        np.subtract(1.0, gf, out=deriv)
        np.multiply(work, deriv, out=dz_f)
        # cell gate: d_cell * gi * (1 - gc * gc)
        np.multiply(d_cell, gi, out=work)
        np.multiply(gc, gc, out=deriv)
        np.subtract(1.0, deriv, out=deriv)
        np.multiply(work, deriv, out=dz_c)
        np.matmul(hidden[step].T, dz, out=d_rec)
        grads["lstm.U"] += d_rec
        d_hidden = np.matmul(dz, w_rec.T, out=d_hidden_buf)
        d_cell *= gf

    flat_dz = d_z_all.reshape(batch * steps, 4 * h)
    grads["lstm.W"] = x.reshape(batch * steps, -1).T @ flat_dz
    grads["lstm.b"] = flat_dz.sum(axis=0)
    if not input_grad:
        return grads, None
    return grads, (flat_dz @ w_in.T).reshape(batch, steps, -1)


def backward(params: ModelParams, trace: ForwardTrace, targets: dict, task_weights: dict,
             sample_weights: np.ndarray) -> dict:
    """Exact analytic gradients of mtl_loss with respect to every parameter.

    ``trace`` is the one ``forward(params, ...)`` returned.
    """
    norm = sample_weights / np.sum(sample_weights)
    seeds = {}
    for head, weight in task_weights.items():
        p = trace.outputs[head]
        # where the probability clamp is active the loss is locally flat
        live = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
        seeds[head] = weight * norm * np.where(live, p - targets[head], 0.0)
    grads, _ = _backprop(params, trace, seeds)
    return grads


def input_gradient(params: ModelParams, x: np.ndarray, head: str) -> np.ndarray:
    """Gradient of a head's pre-sigmoid score with respect to the input, in the input's shape.

    Dropout is disabled. For a purely linear model every row is the
    head's weight vector.

    The blocks of ``_window_blocks`` go through forward and backward one
    at a time, each filling its rows of the result as ``_last_hidden``
    pairs them, so no block's trace outlives its turn. Every window's
    gradient depends on that window alone, but not its rounding: the
    transposed product ``dz @ U.T`` rounds a row by how many rows share
    it, so below H 64 the results may differ from one whole-batch pass
    in the last bits (see the module docstring).
    """
    grad = np.empty(x.shape)
    for block, rows in zip(_window_blocks(x), _window_blocks(grad)):
        _, trace = forward(params, block, mask=None)
        rows[:] = _backprop(params, trace, {head: np.ones(len(block))}, input_grad=True)[1]
    return grad


def _head_network(params: ModelParams, x: np.ndarray) -> tuple:
    """(head network, its input) of the model ``params`` on the input ``x``.

    For a model with an LSTM these are the params without the ``lstm.*``
    tensors and the recurrence's last hidden states, taken block by block
    (``_last_hidden``); a model without one is its own head network, on
    ``x``.
    """
    if "lstm.W" not in params.tensors:
        return params, x
    tensors = {name: tensor for name, tensor in params.tensors.items() if not name.startswith("lstm.")}
    return ModelParams(tensors, params.epoch, params.rng_seed), _last_hidden(params, x)


def predict(params: ModelParams, x: np.ndarray) -> dict:
    """{head: probabilities} with dropout disabled.

    The same outputs, bit for bit, as ``forward(params, x)``: one
    ``forward`` of the head network on the last hidden states
    (``_head_network``), so the recurrence keeps the history of one block
    of windows at a time; no trace is returned.
    """
    outputs, _ = forward(*_head_network(params, x))
    return outputs


def mc_forward(params: ModelParams, x: np.ndarray, keep_rate: float, rng, out: np.ndarray) -> np.ndarray:
    """Monte-Carlo dropout draws: fills ``out`` with each pass's head probabilities and returns it.

    ``out`` is the caller's (heads, passes, batch) buffer: ``out[k, i]`` is
    head k's (in ``ModelArch.heads`` order) probabilities in pass i, each
    pass with fresh dropout multipliers from ``rng``. It makes no
    reduction; the caller decides the measure over the draws.

    The recurrence runs once per call, block by block, and each pass is
    one ``forward`` of the head network (``_head_network``) with
    multipliers drawn for the full model: the bits of a full forward pass
    per pass with the same draws.
    """
    arch = ModelArch.from_params(params)
    net, inputs = _head_network(params, x)
    for draws in out.swapaxes(0, 1):  # one pass's (heads, batch) at a time
        mask = sample_dropout_mask(arch, keep_rate, rng, batch=len(inputs))
        outputs, _ = forward(net, inputs, mask=mask)
        for row, head in zip(draws, arch.heads):
            row[:] = outputs[head]
    return out


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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float) -> None:
    """One Adam update of ``params.tensors``, ``state.m``, ``state.v`` and ``state.t``, in place."""
    state.t += 1
    for name, value in params.tensors.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        value -= lr * (m / (1.0 - ADAM_BETA1**state.t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**state.t)) + ADAM_EPS)

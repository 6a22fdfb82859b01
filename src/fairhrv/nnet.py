"""Minimal float64 neural-network engine.

A shared trunk (optional LSTM over the 24x25 window, optional dense+ReLU
layer, inverted dropout after each) feeding one sigmoid head per task.
Everything is plain numpy with hand-derived backpropagation-through-time
gradients, so analytic gradients can be checked against finite
differences and checkpoints can be serialized bit-exactly.

Dropout acts only after the recurrence, so the LSTM states of an input
are deterministic. Inference therefore runs in two parts: the recurrence
gives each window's last hidden state, and ``forward`` then runs the head
network on those states. The head network is the model without its
``lstm.*`` tensors, which ``ModelArch.from_params`` reads as a model
without an LSTM whose input size is H; the full model's dropout mask
applies its ``lstm_out`` part to that input. Monte-Carlo dropout runs
the recurrence once per call and only the head network in each pass.

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
the 4H axis of lstm.W, lstm.U and lstm.b. Once activated they live in a
(steps, 4, batch, H) buffer: gate k of step t is the contiguous (batch, H)
block [t, k], so the elementwise work of each step, forward and backward,
runs on contiguous memory. The recurrence and backpropagation through
time write through ``out=`` into buffers allocated once per call, and
keep the operation order of the allocating form in
tests/reference_lstm.py, which the tests require to give the same bits.

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

# lstm gate slices within the stacked 4H axis
_GATES = ("input", "forget", "cell", "output")
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

    def param_shapes(self) -> dict:
        """The name and shape of every tensor this topology has."""
        shapes = {}
        if self.lstm_hidden is not None:
            h = self.lstm_hidden
            shapes.update({"lstm.W": (self.input_size, 4 * h), "lstm.U": (h, 4 * h), "lstm.b": (4 * h,)})
        if self.dense_size is not None:
            shapes.update({"dense.W": (self.trunk_size(), self.dense_size), "dense.b": (self.dense_size,)})
        for head in self.heads:
            shapes.update({f"head.{head}.W": (self.head_input_size(), 1), f"head.{head}.b": (1,)})
        return shapes

    @staticmethod
    def from_params(params: "ModelParams") -> "ModelArch":
        """The topology of a set of tensors.

        Raises:
            ShapeMismatch: the tensor names or shapes are not those of any
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
            raise ShapeMismatch(f"tensors {sorted(shapes)} name no model topology") from None
        arch = ModelArch(input_size=input_size, lstm_hidden=lstm_hidden, dense_size=dense_size, heads=heads)
        if shapes != arch.param_shapes():
            raise ShapeMismatch(f"tensor shapes {shapes} do not fit {arch}")
        return arch


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
            m = np.asarray(m)
            if not ((m == 0.0) | (m == 1.0)).all():
                raise ValueError(f"mask {name!r} must contain only 0/1")


@dataclass
class ForwardTrace:
    """Per-layer activations cached for the matching backward pass."""

    x: np.ndarray
    outputs: dict
    param_shapes: dict
    # lstm caches, shaped (T, B, H); states include t=0; None without an LSTM
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


def sample_dropout_mask(arch: ModelArch, keep_rate: float, rng, batch: int) -> DropoutMask:
    """Draw independent Bernoulli keep masks for every dropout point."""
    masks = {}
    for name, width in arch.dropout_points():
        masks[name] = (rng.random((batch, width)) < keep_rate).astype(np.float64)
    return DropoutMask(keep_rate=keep_rate, masks=masks)


def _prepare_input(arch: ModelArch, x) -> np.ndarray:
    """``x`` as a batch: (batch, steps, features) for an LSTM, (batch, input_size) without one."""
    x = np.asarray(x, dtype=np.float64)
    if arch.lstm_hidden is not None:
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3 or x.shape[2] != arch.input_size:
            raise ShapeMismatch(f"expected (batch, steps, {arch.input_size}), got {x.shape}")
    else:
        if x.ndim == 2 and x.shape[0] * x.shape[1] == arch.input_size:
            x = x.reshape(1, -1)
        elif x.ndim == 3:
            x = x.reshape(x.shape[0], -1)
        elif x.ndim == 1:
            x = x[None]
        if x.shape[1] != arch.input_size:
            raise ShapeMismatch(f"expected flattened size {arch.input_size}, got {x.shape}")
    return x


def _lstm_states(params: ModelParams, x: np.ndarray):
    """The LSTM recurrence over a (batch, steps, features) input.

    Returns (gates, cell, hidden, tanh_cell), the history backpropagation
    through time needs: gates maps each gate name to a (steps, batch, H)
    view into one (steps, 4, batch, H) buffer, cell and hidden are
    (steps + 1, batch, H) with the zero state at t=0, tanh_cell is
    (steps, batch, H). x @ W is one GEMM over all steps.
    """
    t = params.tensors
    batch, steps, _ = x.shape
    w_in, w_rec, bias = t["lstm.W"], t["lstm.U"], t["lstm.b"]
    h = w_rec.shape[0]
    gate_buf = np.empty((steps, 4, batch, h))
    hidden = np.zeros((steps + 1, batch, h))
    cell = np.zeros((steps + 1, batch, h))
    tanh_cell = np.empty((steps, batch, h))
    xw = (x.reshape(batch * steps, -1) @ w_in).reshape(batch, steps, 4 * h)
    z = np.empty((batch, 4 * h))
    input_part = np.empty((batch, h))
    for step in range(steps):
        np.matmul(hidden[step], w_rec, out=z)
        z += xw[:, step]
        z += bias
        gi, gf, gc, go = gate_buf[step]
        gate_sigmoid(z[:, :h], out=gi)
        gate_sigmoid(z[:, h : 2 * h], out=gf)
        np.tanh(z[:, 2 * h : 3 * h], out=gc)
        gate_sigmoid(z[:, 3 * h :], out=go)
        np.multiply(gf, cell[step], out=cell[step + 1])
        np.multiply(gi, gc, out=input_part)
        cell[step + 1] += input_part
        np.tanh(cell[step + 1], out=tanh_cell[step])
        np.multiply(go, tanh_cell[step], out=hidden[step + 1])
    gates = {name: gate_buf[:, k] for k, name in enumerate(_GATES)}
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


def forward(params: ModelParams, x, mask: DropoutMask = None) -> tuple:
    """Run the network; returns ({head: probabilities}, trace).

    With ``mask`` absent, dropout is disabled and the pass is
    deterministic (inverted dropout needs no inference-time rescaling).
    Masked activations are scaled by 1/keep_rate so expectations match
    the unmasked pass. The ``lstm_out`` mask applies to the recurrence's
    last hidden state or, in a model without an LSTM, to its input, so a
    head network given the full model's mask and the last hidden states
    gives the full model's outputs (see the module docstring).

    Raises:
        ShapeMismatch: ``x`` or ``mask`` do not fit the params.
    """
    arch = ModelArch.from_params(params)
    t = params.tensors
    x = _prepare_input(arch, x)
    trace = ForwardTrace(x=x, outputs={}, param_shapes={k: v.shape for k, v in t.items()})

    trunk = x
    if arch.lstm_hidden is not None:
        trace.gates, trace.cell, trace.hidden, trace.tanh_cell = _lstm_states(params, x)
        trunk = trace.hidden[-1]

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
        outputs[head] = head_sigmoid((head_in @ t[f"head.{head}.W"])[:, 0] + t[f"head.{head}.b"][0])
    trace.outputs = outputs
    return outputs, trace


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def mtl_loss(outputs: dict, targets: dict, task_weights: dict, sample_weights=1.0) -> float:
    """Weighted multi-task binary cross-entropy.

    Per task: the sample-weighted mean BCE over the batch, sum(w_i *
    bce_i) / sum(w_i), scaled by the task weight and summed over tasks.
    ``sample_weights`` defaults to unit weights, which give the plain mean
    bit for bit. Probabilities are clamped to [1e-12, 1 - 1e-12].
    """
    total = 0.0
    for head, weight in task_weights.items():
        if weight < 0:
            raise ValueError("task weights must be non-negative")
        p = np.atleast_1d(np.asarray(outputs[head], dtype=np.float64))
        y = np.atleast_1d(np.asarray(targets[head], dtype=np.float64))
        losses = _bce(p, y)
        sw = np.broadcast_to(np.asarray(sample_weights, dtype=np.float64), losses.shape)
        total += weight * float(np.sum(sw * losses) / np.sum(sw))
    return total


def _check_trace(params: ModelParams, trace: ForwardTrace):
    if {k: v.shape for k, v in params.tensors.items()} != trace.param_shapes:
        raise StaleTrace("trace was produced by parameters of different shapes")


def _backprop(params: ModelParams, trace: ForwardTrace, score_seeds: dict, input_grad: bool = False) -> tuple:
    """Backpropagate d(loss)/d(pre-sigmoid score) seeds through the net.

    Returns (grads, d_input) where grads matches params.tensors. d_input
    has the shape of the (batched) network input with ``input_grad``, and
    is None without it.
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
    for step in range(steps - 1, -1, -1):
        gi, gf = gates["input"][step], gates["forget"][step]
        gc, go = gates["cell"][step], gates["output"][step]
        tc = tanh_cell[step]
        dz = d_z_all[:, step]
        dz_i, dz_f, dz_c, dz_o = (dz[:, k * h : (k + 1) * h] for k in range(4))
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


def backward(params: ModelParams, trace: ForwardTrace, targets: dict, task_weights: dict, sample_weights=1.0) -> dict:
    """Exact analytic gradients of mtl_loss with respect to every parameter.

    Raises:
        StaleTrace: the trace came from parameters of different shapes.
    """
    _check_trace(params, trace)
    sw = np.broadcast_to(np.asarray(sample_weights, dtype=np.float64), trace.head_in.shape[:1])
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

    The blocks of ``_window_blocks`` go through forward and backward one
    at a time, and only their input gradients are kept. Every window's
    gradient depends on that window alone, but not its rounding: the
    transposed product ``dz @ U.T`` rounds a row by how many rows share
    it, so below H 64 the results may differ from one whole-batch pass
    in the last bits (see the module docstring).
    """
    arch = ModelArch.from_params(params)
    if head not in arch.heads:
        raise KeyError(f"unknown head {head!r}")
    x_arr = np.asarray(x, dtype=np.float64)
    x_batched = _prepare_input(arch, x_arr)
    parts = []
    for block in _window_blocks(x_batched):
        _, trace = forward(params, block, mask=None)
        _, d_input = _backprop(params, trace, {head: np.ones(len(block))}, input_grad=True)
        parts.append(d_input)
    return np.concatenate(parts).reshape(x_arr.shape)


def _head_network(params: ModelParams, x) -> tuple:
    """(head network, its input) of the model ``params`` on the input ``x``.

    For a model with an LSTM these are the params without the ``lstm.*``
    tensors and the recurrence's last hidden states, taken block by block
    (``_last_hidden``); a model without one is its own head network, on
    the batched ``x``.
    """
    arch = ModelArch.from_params(params)
    x = _prepare_input(arch, x)
    if arch.lstm_hidden is None:
        return params, x
    tensors = {name: tensor for name, tensor in params.tensors.items() if not name.startswith("lstm.")}
    return ModelParams(tensors, params.epoch, params.rng_seed), _last_hidden(params, x)


def predict(params: ModelParams, x) -> dict:
    """{head: probabilities} with dropout disabled.

    The same outputs, bit for bit, as ``forward(params, x)``: one
    ``forward`` of the head network on the last hidden states
    (``_head_network``), so the recurrence keeps the history of one block
    of windows at a time; no trace is returned.
    """
    outputs, _ = forward(*_head_network(params, x))
    return outputs


def mc_forward(params: ModelParams, x, passes: int, keep_rate: float, rng) -> tuple:
    """Monte-Carlo dropout: ``passes`` forward passes with fresh masks.

    Returns ({head: posterior mean}, {head: predictive variance}), the
    variance taken with divisor T. The mean is accumulated relative to
    the first pass so a deterministic model (keep_rate 1) yields an
    exactly zero variance.

    The recurrence runs once per call, block by block, and each pass is
    one ``forward`` of the head network (``_head_network``) with a mask
    drawn for the full model: the bits of ``passes`` full forward passes
    with the same masks.
    """
    if passes < 1:
        raise ValueError("need at least one pass")
    arch = ModelArch.from_params(params)
    net, inputs = _head_network(params, x)
    batch = inputs.shape[0]
    samples = {head: np.empty((passes, batch)) for head in arch.heads}
    for i in range(passes):
        mask = sample_dropout_mask(arch, keep_rate, rng, batch=batch)
        outputs, _ = forward(net, inputs, mask=mask)
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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float) -> tuple:
    """One Adam update; returns (new params, new state)."""
    t = state.t + 1
    new_tensors, new_m, new_v = {}, {}, {}
    for name, value in params.tensors.items():
        g = grads[name]
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_tensors[name] = value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    return (
        ModelParams(new_tensors, epoch=params.epoch, rng_seed=params.rng_seed),
        AdamState(m=new_m, v=new_v, t=t),
    )

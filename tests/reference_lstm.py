"""Frozen allocating LSTM recurrence and BPTT, kept as a bit-identity oracle.

These are the ``nnet._lstm_states`` and ``nnet._backprop`` bodies as they
were before the kernels moved to preallocated buffers and ``out=`` writes.
The rewrite keeps every floating-point operation and its order, so the
tests require ``np.array_equal`` between the two, not a tolerance. Do not
edit the arithmetic here to follow a change in ``nnet``. The one exception
is the gate sigmoid, an elementwise function taken from ``nnet`` itself:
these bodies check the buffers and the order of operations around it,
and ``TestSigmoid`` checks the function against scipy.
"""

import numpy as np

from fairhrv.nnet import ModelArch
from fairhrv.nnet import gate_sigmoid as sigmoid

_GATES = ("input", "forget", "cell", "output")


def reference_lstm_states(params, x):
    """(gates, cell, hidden, tanh_cell) of a (batch, steps, features) input."""
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


def reference_backprop(params, trace, score_seeds):
    """(grads, d_input) for d(loss)/d(pre-sigmoid score) seeds."""
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

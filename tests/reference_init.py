"""Frozen parameter initialisation, kept as a bit-identity oracle.

This is the ``nnet.init_params`` body as it was when it spelled out each
tensor's shape and fans by hand, with the two ``ModelArch`` widths it
read (the trunk's output and the heads' input) written inline.
``init_params`` now walks ``ModelArch.param_shapes()``; the tests require
both to give the same bytes, tensor for tensor, in the same order. Do
not edit the draws here to follow a change in ``nnet``.
"""

import numpy as np

from fairhrv.nnet import ModelParams
from fairhrv.rng import substream


def _glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def reference_init_params(arch, seed):
    """Glorot-uniform weights, zero biases, forget-gate bias 1."""
    rng = substream(seed, "init")
    tensors = {}
    trunk = arch.input_size if arch.lstm_hidden is None else arch.lstm_hidden
    head_in = trunk if arch.dense_size is None else arch.dense_size
    if arch.lstm_hidden is not None:
        h = arch.lstm_hidden
        tensors["lstm.W"] = _glorot(rng, arch.input_size, h, (arch.input_size, 4 * h))
        tensors["lstm.U"] = _glorot(rng, h, h, (h, 4 * h))
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0
        tensors["lstm.b"] = bias
    if arch.dense_size is not None:
        tensors["dense.W"] = _glorot(rng, trunk, arch.dense_size, (trunk, arch.dense_size))
        tensors["dense.b"] = np.zeros(arch.dense_size)
    for head in arch.heads:
        tensors[f"head.{head}.W"] = _glorot(rng, head_in, 1, (head_in, 1))
        tensors[f"head.{head}.b"] = np.zeros(1)
    return ModelParams(tensors, epoch=0, rng_seed=seed)

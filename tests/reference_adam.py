"""Frozen functional Adam step, kept as a bit-identity oracle.

This is the ``nnet.adam_step`` body as it was before the update moved in
place: it builds new parameter, moment and state objects on every call.
The in-place form keeps every floating-point operation and its order, so
the tests require bit equality between the two, not a tolerance. Do not
edit the arithmetic here to follow a change in ``nnet``.
"""

import numpy as np

from fairhrv.nnet import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, ModelParams


def reference_adam_step(params, grads, state, lr):
    """One Adam update; returns (new params, new state) and leaves its arguments as they were."""
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

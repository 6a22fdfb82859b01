"""Central finite-difference gradient checking for the nnet engine."""

import numpy as np

from fairhrv import nnet


def finite_diff_param_grads(params, x, targets, task_weights, sample_weights, mask=None, h=1e-5):
    """Numerical d(mtl_loss)/d(theta) for every parameter entry."""

    def loss_at():
        outputs, _ = nnet.forward(params, x, mask=mask)
        return nnet.mtl_loss(outputs, targets, task_weights, sample_weights)

    grads = {}
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        num = np.zeros_like(flat)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_at()
            flat[idx] = orig - h
            down = loss_at()
            flat[idx] = orig
            num[idx] = (up - down) / (2.0 * h)
        grads[name] = num.reshape(tensor.shape)
    return grads


def finite_diff_input_grad(params, x, head, h=1e-5):
    """Numerical d(pre-sigmoid score)/d(input) for a batch of one sample."""
    x = np.array(x, dtype=np.float64)

    def score_at():
        _, trace = nnet.forward(params, x, mask=None)
        t = params.tensors
        return float((trace.head_in @ t[f"head.{head}.W"])[0, 0] + t[f"head.{head}.b"][0])

    flat = x.reshape(-1)
    num = np.zeros_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = score_at()
        flat[idx] = orig - h
        down = score_at()
        flat[idx] = orig
        num[idx] = (up - down) / (2.0 * h)
    return num.reshape(x.shape)


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for name in analytic:
        a = analytic[name].reshape(-1)
        n = numeric[name].reshape(-1)
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def random_architecture(rng, max_heads=2):
    """A random tiny architecture covering every structural combination."""
    lstm_hidden = int(rng.integers(2, 6)) if rng.random() < 0.7 else None
    dense_size = int(rng.integers(2, 5)) if rng.random() < 0.7 else None
    steps = int(rng.integers(2, 6))
    features = int(rng.integers(3, 7))
    input_size = features if lstm_hidden is not None else steps * features
    n_heads = int(rng.integers(1, max_heads + 1))
    heads = ("anxiety", "protected")[:n_heads]
    arch = nnet.ModelArch(
        input_size=input_size, lstm_hidden=lstm_hidden, dense_size=dense_size, heads=heads
    )
    return arch, steps, features


def random_case(rng, seed):
    """Random (params, x, targets, weights, mask, sample_weights) tuple."""
    arch, steps, features = random_architecture(rng)
    params = nnet.init_params(arch, seed=seed)
    # perturb away from the symmetric init so gradients are generic
    for tensor in params.tensors.values():
        tensor += rng.normal(0.0, 0.3, size=tensor.shape)
    batch = int(rng.integers(1, 5))
    x = rng.normal(0.0, 1.0, size=(batch, steps, features))
    if arch.lstm_hidden is None:
        x = x.reshape(batch, -1)
    targets = {head: rng.integers(0, 2, size=batch).astype(float) for head in arch.heads}
    task_weights = {head: float(rng.uniform(0.2, 5.0)) for head in arch.heads}
    mask = None
    if arch.dropout_points() and rng.random() < 0.5:
        mask = nnet.sample_dropout_mask(arch, keep_rate=0.6, rng=rng, batch=batch)
    sample_weights = np.ones(batch)
    if rng.random() < 0.3:
        sample_weights = rng.uniform(0.2, 3.0, size=batch)
    return params, x, targets, task_weights, mask, sample_weights

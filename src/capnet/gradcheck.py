"""Finite-difference verification of every analytic backward pass.

Central differences at 64-bit with h = 1e-5; agreement is measured by the
worst relative error |a - b| / max(|a|, |b|, 1e-8) over all entries. The
per-layer checks exercise each layer in isolation on small random tensors;
``check_model`` pushes a full joint-loss gradient through a tiny network.
"""

import numpy as np

from . import layers as layers_mod
from .capgen import Charset
from .model import HEADS, ModelConfig, build_model
from .optim import bce_loss
from .tensor import Rng

FD_STEP = 1e-5
TOLERANCE = 1e-4

# smallest geometry the four pooling stages allow: 16 // 16 = 1
CHECK_CONFIG = ModelConfig(
    image_h=16,
    image_w=16,
    charset_size=3,
    conv_filters=(2, 2, 2, 2),
    dense_width=8,
    dropout_rate=0.0,
    precision="float64",
)
CHECK_CHARSET = Charset("abc")


def fd_gradient(f, x, h: float = FD_STEP):
    """Central finite-difference gradient of scalar-valued f at x.

    x is perturbed in place one entry at a time and restored afterwards, so
    f must read its argument fresh on every call.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(a, b, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def _with_value(p, f):
    """f as a function of p's value: objective(v) runs f() with p.value = v."""

    def objective(v):
        saved = p.value
        p.value = v
        try:
            return f()
        finally:
            p.value = saved

    return objective


def check_layer(layer, x, training: bool = True, h: float = FD_STEP, reseed=None) -> dict:
    """Worst relative FD error for a layer's input and parameter gradients.

    The scalar objective is sum(forward(x) * r) for a fixed random r, whose
    upstream gradient is exactly r. ``reseed`` (if given) is called with the
    layer before every forward so stochastic layers redraw identical masks.
    """
    x = np.asarray(x, dtype=np.float64)

    def run(inp):
        if reseed is not None:
            reseed(layer)
        return layer.forward(inp, training=training)

    out = run(x)
    r = np.random.default_rng(99).normal(size=out.shape)
    for p in layer.parameters():
        p.zero_grad()
    dx = layer.backward(r)

    errors = {"input": max_rel_error(dx, fd_gradient(lambda v: float((run(v) * r).sum()), x.copy(), h))}
    for p in layer.parameters():
        objective = _with_value(p, lambda: float((run(x) * r).sum()))
        errors[p.name] = max_rel_error(p.grad.copy(), fd_gradient(objective, p.value.copy(), h))
    return errors


def layer_checks(seed: int = 0) -> dict:
    """Run every per-layer gradient check on small random tensors."""
    rng = np.random.default_rng(seed)
    results = {}

    conv = layers_mod.Conv2D(2, 3, Rng(seed))
    results["conv2d"] = check_layer(conv, rng.normal(size=(2, 2, 5, 4)))

    results["relu"] = check_layer(layers_mod.ReLU(), rng.normal(size=(3, 2, 4, 4)) + 0.1)

    # keep window entries separated so FD never crosses an argmax boundary
    pool_in = rng.normal(size=(2, 2, 6, 6))
    pool_in += np.arange(pool_in.size).reshape(pool_in.shape) * 0.01
    results["maxpool2"] = check_layer(layers_mod.MaxPool2(), pool_in)

    bn = layers_mod.BatchNorm2d(2)
    bn.gamma.value = rng.normal(size=2) + 1.0
    bn.beta.value = rng.normal(size=2)
    results["batchnorm"] = check_layer(bn, rng.normal(size=(4, 2, 3, 3)))

    results["dense"] = check_layer(layers_mod.Dense(6, 4, Rng(seed)), rng.normal(size=(3, 6)))

    drop = layers_mod.Dropout(0.5, Rng(0))
    results["dropout"] = check_layer(
        drop,
        rng.normal(size=(3, 8)),
        reseed=lambda layer: setattr(layer, "rng", Rng(1234)),
    )

    results["flatten"] = check_layer(layers_mod.Flatten(), rng.normal(size=(2, 3, 4, 2)))

    results["softmax"] = check_layer(layers_mod.Softmax(), rng.normal(size=(4, 5)))
    return results


def check_model(seed: int = 0, h: float = FD_STEP) -> dict:
    """FD-verify every parameter gradient of a tiny full network.

    The objective is the joint cross-entropy of all five heads against a
    fixed random one-hot target, exactly the training loss. Conv biases
    that feed a batchnorm have an exactly-zero gradient (the mean
    subtraction cancels any per-channel constant), so central differences
    return pure cancellation noise there; the comparison floor is 1e-6 to
    keep that noise from registering as disagreement. Each training forward
    updates the batch-norm running stats, which no training forward reads,
    so the repeated objective evaluations all see the same function.
    """
    model = build_model(CHECK_CONFIG, CHECK_CHARSET, Rng(seed))
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(0.5, 0.25, size=(2, 1, 16, 16))
    k = CHECK_CONFIG.charset_size
    y = np.zeros((HEADS, 2, k))
    for head in range(HEADS):
        for b in range(2):
            y[head, b, rng.integers(k)] = 1.0

    def loss_at_current_params() -> float:
        probs = np.stack(model.forward(x, training=True))
        return bce_loss(probs, y).loss

    probs = np.stack(model.forward(x, training=True))
    grad = bce_loss(probs, y).gradient
    model.zero_grad()
    model.backward(list(grad))

    errors = {}
    for p in model.parameters():
        objective = _with_value(p, loss_at_current_params)
        errors[p.name] = max_rel_error(
            p.grad.copy(), fd_gradient(objective, p.value.copy(), h), floor=1e-6
        )
    return errors


def run_all(seed: int = 0) -> dict:
    """Per-layer checks plus the end-to-end model check, keyed by name."""
    results = layer_checks(seed)
    results["model"] = check_model(seed)
    return results

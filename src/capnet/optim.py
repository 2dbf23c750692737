"""Binary cross-entropy loss, the Adam update, and a plain SGD baseline.

The loss treats every one-hot cell across all heads as one Bernoulli term,
so the mean is over the full prediction tensor and the gradient scale does
not depend on how many heads contributed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, JsonConfig, ParameterError, ValidationError
from .tensor import Tensor

CLIP = 1e-7


@dataclass
class AdamHyper(JsonConfig):
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.beta1 < 1.0:
            raise ParameterError(f"beta1 must lie in (0,1), got {self.beta1}")
        if not 0.0 < self.beta2 < 1.0:
            raise ParameterError(f"beta2 must lie in (0,1), got {self.beta2}")
        if self.epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")


class AdamState:
    """First and second moment accumulators plus the completed-step count."""

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0


@dataclass
class LossValue:
    loss: float
    gradient: Tensor


def bce_loss(predictions: Tensor, targets: Tensor) -> LossValue:
    """Mean binary cross-entropy over every element, with its analytic gradient.

    Predictions are clipped into [1e-7, 1 - 1e-7] before the logs; the
    gradient is -(1/N) * (y/p - (1-y)/(1-p)) on the clipped values.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise DimensionError(
            f"bce_loss shapes differ: predictions {predictions.shape}, targets {targets.shape}"
        )
    if not np.all((targets == 0) | (targets == 1)):
        raise ValidationError("bce_loss targets must be 0 or 1")
    p = np.clip(predictions.astype(np.float64), CLIP, 1.0 - CLIP)
    y = targets.astype(np.float64)
    n = p.size
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / n)
    grad = -(y / p - (1.0 - y) / (1.0 - p)) / n
    return LossValue(loss, grad.astype(predictions.dtype, copy=False))


# elements per block of the in-place Adam update: large enough to amortize the
# per-call overhead, small enough that every temporary stays in cache
ADAM_BLOCK = 1 << 15


def adam_step(params: Tensor, grads: Tensor, state: AdamState, hyper: AdamHyper) -> Tensor:
    """One Adam update; mutates state (m, v, t) and returns the new parameters.

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
    mhat = m/(1-b1^t);    vhat = v/(1-b2^t)      with t the new step count
    theta = theta - lr * mhat / (sqrt(vhat) + eps)

    The moments are updated in place, block by block, with the same
    operations, order and dtypes as the whole-array formula above, so the
    moments and the returned (freshly allocated) parameters carry the same
    bits as that formula.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError(
            f"adam_step shapes differ: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    state.t += 1
    t = state.t
    b1, b2 = hyper.beta1, hyper.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    lr, eps = hyper.learning_rate, hyper.epsilon
    m = state.m.reshape(-1)
    v = state.v.reshape(-1)
    p = np.ascontiguousarray(params).reshape(-1)
    g = np.ascontiguousarray(grads).reshape(-1)
    new = np.empty(params.shape, dtype=params.dtype)
    out = new.reshape(-1)
    for lo in range(0, m.size, ADAM_BLOCK):
        hi = lo + ADAM_BLOCK
        mb, vb, gb = m[lo:hi], v[lo:hi], g[lo:hi]
        # (1-b)*g keeps the gradient's dtype (a Python float is a weak scalar)
        mb *= b1
        mb += (1.0 - b1) * gb
        g2 = (1.0 - b2) * gb
        g2 *= gb
        vb *= b2
        vb += g2
        update = mb / c1
        update *= lr
        denom = vb / c2
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        # moments run at 64-bit; keep the parameter's own precision
        out[lo:hi] = p[lo:hi] - update
    return new


def sgd_step(params: Tensor, grads: Tensor, learning_rate: float) -> Tensor:
    if params.shape != grads.shape:
        raise DimensionError(
            f"sgd_step shapes differ: params {params.shape}, grads {grads.shape}"
        )
    return params - learning_rate * grads


class AdamOptimizer:
    """Applies adam_step to a list of named parameters, one state per name."""

    def __init__(self, hyper: AdamHyper | None = None):
        self.hyper = hyper or AdamHyper()
        self.states: dict[str, AdamState] = {}

    def step(self, parameters):
        for p in parameters:
            state = self.states.get(p.name)
            if state is None:
                state = self.states[p.name] = AdamState(p.value.shape)
            p.value = adam_step(p.value, p.grad, state, self.hyper)


class SgdOptimizer:
    def __init__(self, learning_rate: float = 0.001):
        if learning_rate < 0:
            raise ParameterError(f"learning_rate must be non-negative, got {learning_rate}")
        self.learning_rate = learning_rate

    def step(self, parameters):
        for p in parameters:
            p.value = sgd_step(p.value, p.grad, self.learning_rate)

"""Dense-array substrate: seeded random streams, checked matmul, weight init.

Tensors are plain numpy arrays (row-major, explicit shapes). The helpers here
add the contract checks the rest of the package relies on: shape validation
with informative errors and a guarantee that results stay finite.
"""

import numpy as np

from .errors import DimensionError, DomainError

Tensor = np.ndarray


class Rng:
    """Splittable deterministic random stream.

    Backed by a counter-based Philox generator keyed on (seed, spawn path).
    The same seed always reproduces the same draws, and ``split(i)`` derives
    a child stream that is independent of every sibling, so per-index streams
    can be consumed in any order (or in parallel) with identical results.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(int(k) for k in _spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def split(self, index: int) -> "Rng":
        return Rng(self.seed, self._spawn_key + (index,))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, mean=0.0, std=1.0, size=None):
        return self._gen.normal(mean, std, size)

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high, size=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self._spawn_key})"


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product of two rank-2 tensors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul expects rank-2 tensors, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
    if not np.all(np.isfinite(out)):
        raise DomainError("matmul produced non-finite values")
    return out


def init_weights(shape, scheme: str, rng: Rng | None = None) -> Tensor:
    """Create a float64 parameter tensor.

    ``he_uniform`` draws from U(-sqrt(6/fan_in), +sqrt(6/fan_in)) where
    fan_in is the input count: rows for rank-2 input-by-output weights,
    channels * kh * kw for rank-4 filters-first kernels.
    """
    shape = tuple(int(d) for d in shape)
    if not shape or any(d < 1 for d in shape):
        raise DimensionError(f"invalid weight shape {shape}")
    if scheme == "zeros":
        return np.zeros(shape)
    if scheme == "ones":
        return np.ones(shape)
    if scheme == "he_uniform":
        if rng is None:
            raise ValueError("he_uniform needs an Rng")
        if len(shape) >= 4:
            fan_in = int(np.prod(shape[1:]))
        else:
            fan_in = shape[0]
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, shape)
    raise ValueError(f"unknown init scheme {scheme!r}")

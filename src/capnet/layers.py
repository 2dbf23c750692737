"""Network layers with explicit forward and backward passes.

Every layer follows the ``Layer`` protocol: ``forward(x, training)`` returns
the output and caches whatever ``backward(dout)`` needs, ``backward`` returns
the gradient with respect to the input, and ``parameters()`` lists the
layer's trainable ``Parameter`` objects (none, by default). A cache is only
valid for the immediately preceding forward call, and backward works after an
inference forward too. Gradients accumulate into ``Parameter.grad`` so callers
zero them between steps.

Cache lifetimes of the two large layers:

- ``MaxPool2`` keeps four boolean masks, one per window corner, marking where
  each output's gradient goes; they live until the next forward.
- ``Conv2D`` keeps a reference to its input. After a training forward it also
  keeps the im2col matrix, which backward reuses and frees; an inference
  forward keeps no matrix, and backward then rebuilds it from the input.

Two kernels skip work whose result nobody reads:

- ``Conv2D.backward(dout, input_grad=False)`` accumulates the weight and bias
  gradients only and returns None. The network's first convolution reads the
  image, whose gradient no caller uses, so it skips the
  ``(B*H*W x F) @ (F x 9C)`` matmul and the nine-tap col2im.
- ``ReLU.forward`` builds its output as ``fmax(x, 0)`` and then adds +0.0 in
  place, which gives the same bits as ``where(x > 0, x, 0)`` without reading
  the mask: fmax maps NaN and every negative value to a zero, and the added
  +0.0 turns a -0.0 into +0.0 while leaving every other value, subnormals
  and infinities included, unchanged.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateBatchError, DimensionError, ParameterError
from .tensor import Rng, Tensor, init_weights, matmul


class Parameter:
    """A named trainable tensor paired with its gradient accumulator."""

    def __init__(self, name: str, value: Tensor):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base of every layer; a layer without weights inherits ``parameters``."""

    def parameters(self):
        return []


class Conv2D(Layer):
    """3x3 cross-correlation, stride 1, zero padding 1 (spatial dims preserved)."""

    def __init__(self, in_channels: int, out_channels: int, rng: Rng, name: str = "conv"):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weights = Parameter(
            f"{name}.weights",
            init_weights((out_channels, in_channels, 3, 3), "he_uniform", rng),
        )
        self.bias = Parameter(f"{name}.bias", init_weights((out_channels,), "zeros"))
        self._x = None
        self._cols = None

    def parameters(self):
        return [self.weights, self.bias]

    def _im2col(self, x):
        b, c, h, w = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        win = sliding_window_view(xp, (3, 3), axis=(2, 3))
        return win.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * w, c * 9)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"conv2d expects B x C x H x W input, got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise DimensionError(
                f"conv2d channel mismatch: input has {x.shape[1]}, kernels expect {self.in_channels}"
            )
        b, _, h, w = x.shape
        self._x = x
        cols = self._im2col(x)
        # only a training forward is followed by backward; inference keeps nothing
        self._cols = cols if training else None
        wmat = self.weights.value.reshape(self.out_channels, -1)
        out = matmul(cols, wmat.T)
        out += self.bias.value
        return out.reshape(b, h, w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, dout: Tensor, input_grad: bool = True) -> Tensor | None:
        """Accumulate the weight and bias gradients; return the input's
        gradient, or None when ``input_grad`` is False."""
        x = self._x
        b, c, h, w = x.shape
        f = self.out_channels
        dmat = dout.transpose(0, 2, 3, 1).reshape(b * h * w, f)
        cols = self._cols if self._cols is not None else self._im2col(x)
        self._cols = None
        self.weights.grad += matmul(dmat.T, cols).reshape(f, c, 3, 3)
        del cols
        self.bias.grad += dmat.sum(axis=0)
        if not input_grad:
            return None
        dcols = matmul(dmat, self.weights.value.reshape(f, -1))
        dcols = dcols.reshape(b, h, w, c, 3, 3)
        # col2im in channels-last layout, so each tap adds into a contiguous
        # slice; same zero start and tap order as a channels-first scatter
        dxp = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
        for ki in range(3):
            for kj in range(3):
                dxp[:, ki:ki + h, kj:kj + w, :] += dcols[:, :, :, :, ki, kj]
        return dxp[:, 1:1 + h, 1:1 + w, :].transpose(0, 3, 1, 2)


class ReLU(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        # gradient at exactly 0 is defined as 0, so the mask is strict
        self._mask = x > 0
        out = np.fmax(x, 0.0)
        out += 0.0  # -0.0 -> +0.0, as where(mask, x, 0.0) gives
        return out

    def backward(self, dout: Tensor) -> Tensor:
        return dout * self._mask


class MaxPool2(Layer):
    """2x2 max pooling, stride 2; trailing odd row/column dropped."""

    # window corners in row-major order, which is also the tie-break order
    _CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self):
        self._masks = None
        self._in_shape = None

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if x.ndim != 4:
            raise DimensionError(f"maxpool2 expects B x C x H x W input, got shape {x.shape}")
        h, w = x.shape[2:]
        if h < 2 or w < 2:
            raise DimensionError(f"maxpool2 needs spatial dims >= 2, got {h}x{w}")
        h2, w2 = h // 2, w // 2
        corners = [x[:, :, i:h2 * 2:2, j:w2 * 2:2] for i, j in self._CORNERS]
        out = np.maximum(corners[0], corners[1])
        np.maximum(out, corners[2], out=out)
        np.maximum(out, corners[3], out=out)
        # each output routes its gradient to the first corner, in row-major
        # order, that holds the maximum; with finite inputs some corner always
        # does, so the last corner takes whatever the first three left
        masks = [corners[0] == out]
        taken = masks[0].copy()
        for corner in corners[1:3]:
            mask = corner == out
            np.greater(mask, taken, out=mask)  # mask and not taken
            taken |= mask
            masks.append(mask)
        masks.append(np.logical_not(taken, out=taken))
        self._masks = masks
        self._in_shape = x.shape
        return out

    def backward(self, dout: Tensor) -> Tensor:
        b, c, h, w = self._in_shape
        h2, w2 = h // 2, w // 2
        dx = np.empty((b, c, h, w), dtype=dout.dtype)
        dx[:, :, h2 * 2:, :] = 0.0
        dx[:, :, :, w2 * 2:] = 0.0
        # a zero here may carry dout's sign (-0.0); every gradient sum
        # downstream starts from +0.0, which absorbs it
        for (i, j), mask in zip(self._CORNERS, self._masks):
            np.multiply(dout, mask, out=dx[:, :, i:h2 * 2:2, j:w2 * 2:2])
        return dx


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (batch, height, width).

    Every training forward normalizes by biased batch statistics, never reads
    the running stats, and updates them as
    running = MOMENTUM * running + (1 - MOMENTUM) * batch; inference uses
    the running statistics only.
    """

    MOMENTUM = 0.9
    EPSILON = 1e-5

    def __init__(self, channels: int, name: str = "bn"):
        self.name = name
        self.channels = channels
        self.gamma = Parameter(f"{name}.gamma", init_weights((channels,), "ones"))
        self.beta = Parameter(f"{name}.beta", init_weights((channels,), "zeros"))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def parameters(self):
        return [self.gamma, self.beta]

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise DimensionError(
                f"batchnorm expects B x {self.channels} x H x W input, got shape {x.shape}"
            )
        if training:
            if x.shape[0] < 2:
                raise DegenerateBatchError(
                    f"batchnorm training needs batch >= 2, got {x.shape[0]}"
                )
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = self.MOMENTUM * self.running_mean + (1.0 - self.MOMENTUM) * mean
            self.running_var = self.MOMENTUM * self.running_var + (1.0 - self.MOMENTUM) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPSILON)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (xhat, inv_std, training)
        return self.gamma.value[None, :, None, None] * xhat + self.beta.value[None, :, None, None]

    def backward(self, dout: Tensor) -> Tensor:
        xhat, inv_std, training = self._cache
        self.gamma.grad += (dout * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += dout.sum(axis=(0, 2, 3))
        dxhat = dout * self.gamma.value[None, :, None, None]
        if not training:
            return dxhat * inv_std[None, :, None, None]
        b, _, h, w = dout.shape
        n = b * h * w
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        return (inv_std[None, :, None, None] / n) * (
            n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat
        )


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int, rng: Rng, name: str = "dense"):
        self.in_features = in_features
        self.out_features = out_features
        self.weights = Parameter(
            f"{name}.weights", init_weights((in_features, out_features), "he_uniform", rng)
        )
        self.bias = Parameter(f"{name}.bias", init_weights((out_features,), "zeros"))
        self._x = None

    def parameters(self):
        return [self.weights, self.bias]

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionError(
                f"dense expects B x {self.in_features} input, got shape {x.shape}"
            )
        self._x = x
        return matmul(x, self.weights.value) + self.bias.value

    def backward(self, dout: Tensor) -> Tensor:
        self.weights.grad += matmul(self._x.T, dout)
        self.bias.grad += dout.sum(axis=0)
        return matmul(dout, self.weights.value.T)


class Dropout(Layer):
    """Inverted dropout: inference is the identity, training rescales survivors."""

    def __init__(self, rate: float, rng: Rng | None = None):
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must lie in [0,1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask = None

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if self.rng is None:
            raise ParameterError("dropout with rate > 0 needs an rng in training mode")
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) >= self.rate) / keep
        return x * self._mask

    def backward(self, dout: Tensor) -> Tensor:
        if self._mask is None:
            return dout
        return dout * self._mask


class Flatten(Layer):
    def __init__(self):
        self._in_shape = None

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: Tensor) -> Tensor:
        return dout.reshape(self._in_shape)


class Softmax(Layer):
    """Row softmax with max-subtraction for overflow safety."""

    def __init__(self):
        self._out = None

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        if x.ndim != 2 or x.shape[1] < 2:
            raise DimensionError(f"softmax expects B x K logits with K >= 2, got shape {x.shape}")
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        self._out = e / e.sum(axis=1, keepdims=True)
        return self._out

    def backward(self, dout: Tensor) -> Tensor:
        p = self._out
        return p * (dout - (dout * p).sum(axis=1, keepdims=True))

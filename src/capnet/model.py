"""Five-head convolutional solver: architecture, training loop, metrics, I/O.

The network is a shared convolutional trunk (two conv-relu-pool stages, then
two conv-batchnorm-relu-pool stages) feeding five independent dense branches,
one per character position, each ending in a K-way softmax. Training
minimizes a single binary cross-entropy averaged jointly over all heads'
one-hot cells.
"""

import json
import math
import os
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import datapipe
from .capgen import IMAGE_H, IMAGE_W, Charset
from .capgen import TEXT_LEN as HEADS  # one softmax head per text position
from .errors import (
    CapnetError,
    ChecksumError,
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    ModelFormatError,
    TruncationError,
    UnsupportedVersionError,
    ValidationError,
)
from .layers import BatchNorm2d, Conv2D, Dense, Dropout, Flatten, MaxPool2, ReLU, Softmax
from .optim import AdamHyper, AdamOptimizer, SgdOptimizer, bce_loss
from .tensor import Rng

MAGIC = b"CAPN"
FORMAT_VERSION = 1

_PRECISIONS = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    image_h: int = IMAGE_H
    image_w: int = IMAGE_W
    charset_size: int = 36
    conv_filters: tuple = (32, 48, 64, 64)
    dense_width: int = 1664
    dropout_rate: float = 0.5
    precision: str = "float32"

    def __post_init__(self):
        object.__setattr__(self, "conv_filters", tuple(int(f) for f in self.conv_filters))
        if len(self.conv_filters) != 4:
            raise ConfigError(f"need exactly 4 conv stages, got {len(self.conv_filters)}")
        if any(f < 1 for f in self.conv_filters):
            raise ConfigError(f"conv filter counts must be >= 1, got {self.conv_filters}")
        if self.image_h // 16 < 1 or self.image_w // 16 < 1:
            raise ConfigError(
                f"{self.image_w}x{self.image_h} collapses to zero pixels through four poolings"
            )
        if self.charset_size < 2:
            raise ConfigError(f"charset size must be >= 2, got {self.charset_size}")
        if self.dense_width < 1:
            raise ConfigError(f"dense width must be >= 1, got {self.dense_width}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate must lie in [0,1), got {self.dropout_rate}")
        if self.precision not in _PRECISIONS:
            raise ConfigError(f"precision must be one of {sorted(_PRECISIONS)}, got {self.precision}")

    @property
    def dtype(self):
        return _PRECISIONS[self.precision]

    @property
    def flat_width(self) -> int:
        return self.conv_filters[3] * (self.image_h // 16) * (self.image_w // 16)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    adam: AdamHyper = field(default_factory=AdamHyper)
    seed: int = 0
    shuffle: bool = True
    optimizer: str = "adam"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be adam or sgd, got {self.optimizer!r}")


@dataclass
class Metrics:
    char_accuracy: float
    full_accuracy: float
    per_position_accuracy: tuple
    mean_loss: float


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    test_loss: float
    train_char_acc: float
    test_char_acc: float
    train_full_acc: float
    test_full_acc: float
    ms: float


@dataclass
class History:
    records: list

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class CapNet:
    """The five-head solver; owns its layers, charset, and optimizer state."""

    def __init__(self, config: ModelConfig, charset: Charset, rng: Rng):
        if len(charset) != config.charset_size:
            raise ConfigError(
                f"charset has {len(charset)} symbols but config declares {config.charset_size}"
            )
        self.config = config
        self.charset = charset
        self.dtype = config.dtype
        f1, f2, f3, f4 = config.conv_filters

        self.trunk = [
            Conv2D(1, f1, rng.split(0), "conv1"), ReLU(), MaxPool2(),
            Conv2D(f1, f2, rng.split(1), "conv2"), ReLU(), MaxPool2(),
            Conv2D(f2, f3, rng.split(2), "conv3"), BatchNorm2d(f3, name="bn3"), ReLU(), MaxPool2(),
            Conv2D(f3, f4, rng.split(3), "conv4"), BatchNorm2d(f4, name="bn4"), ReLU(), MaxPool2(),
            Flatten(),
        ]
        self.heads = []
        for i in range(HEADS):
            self.heads.append([
                Dense(config.flat_width, config.dense_width, rng.split(4 + 2 * i), f"head{i}.dense1"),
                ReLU(),
                Dropout(config.dropout_rate),
                Dense(config.dense_width, config.charset_size, rng.split(5 + 2 * i), f"head{i}.dense2"),
                Softmax(),
            ])
        self._batchnorms = [l for l in self.trunk if isinstance(l, BatchNorm2d)]
        self._dropouts = [l for head in self.heads for l in head if isinstance(l, Dropout)]
        self._cast(self.dtype)
        self.optimizer = None

    def _cast(self, dtype):
        for p in self.parameters():
            p.value = p.value.astype(dtype)
            p.grad = p.grad.astype(dtype)
        for bn in self._batchnorms:
            bn.running_mean = bn.running_mean.astype(dtype)
            bn.running_var = bn.running_var.astype(dtype)

    def parameters(self):
        layers = self.trunk + [layer for head in self.heads for layer in head]
        return [p for layer in layers for p in layer.parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def set_dropout_rng(self, rng: Rng):
        for d in self._dropouts:
            d.rng = rng

    def forward(self, x, training: bool = False, freeze_stats: bool = False):
        """Run the trunk and all five heads; returns a list of B x K arrays."""
        x = np.asarray(x)
        expected = (1, self.config.image_h, self.config.image_w)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise DimensionError(
                f"forward expects B x {expected[0]} x {expected[1]} x {expected[2]} input, "
                f"got shape {x.shape}"
            )
        if training and x.shape[0] < 2:
            raise DegenerateBatchError(
                f"training forward needs batch >= 2 for batch statistics, got {x.shape[0]}"
            )
        for bn in self._batchnorms:
            bn.update_running = not freeze_stats
        out = x.astype(self.dtype, copy=False)
        for layer in self.trunk:
            out = layer.forward(out, training=training)
        heads = []
        for head in self.heads:
            h = out
            for layer in head:
                h = layer.forward(h, training=training)
            heads.append(h)
        return heads

    def backward(self, dheads):
        """Backpropagate one upstream gradient per head; accumulates grads."""
        dflat = None
        for head, dout in zip(self.heads, dheads):
            d = dout
            for layer in reversed(head):
                d = layer.backward(d)
            dflat = d if dflat is None else dflat + d
        d = dflat
        for layer in reversed(self.trunk):
            d = layer.backward(d)
        return d

    def predict_dataset(self, samples, batch_size: int = 64) -> np.ndarray:
        """Inference probabilities for a list of samples, shaped N x 5 x K."""
        out = np.zeros((len(samples), HEADS, self.config.charset_size))
        for start in range(0, len(samples), batch_size):
            chunk = samples[start:start + batch_size]
            batch = np.stack([datapipe.normalize(s.image) for s in chunk])
            out[start:start + len(chunk)] = np.stack(self.forward(batch, training=False), axis=1)
        return out


def build_model(config: ModelConfig, charset: Charset, rng: Rng) -> CapNet:
    return CapNet(config, charset, rng)


def _dataset_arrays(model: CapNet, dataset):
    x = np.stack([datapipe.normalize(s.image) for s in dataset]).astype(model.dtype)
    y = np.stack([datapipe.encode_label(s.label, model.charset) for s in dataset])
    return x, y.transpose(1, 0, 2)  # heads x N x K


def _make_optimizer(config: TrainConfig):
    if config.optimizer == "adam":
        return AdamOptimizer(config.adam)
    return SgdOptimizer(config.adam.learning_rate)


def _run_epoch(model, x, y, config, shuffle_rng):
    """One pass over (x, y); returns (mean loss, char hits, full hits, n seen)."""
    n = x.shape[0]
    order = shuffle_rng.permutation(n) if config.shuffle else np.arange(n)
    total_loss = 0.0
    seen = 0
    char_hits = 0
    full_hits = 0
    for start in range(0, n, config.batch_size):
        idx = order[start:start + config.batch_size]
        if len(idx) == 1:
            continue  # a single sample cannot form batch statistics
        xb = x[idx]
        yb = y[:, idx, :]
        heads = model.forward(xb, training=True)
        probs = np.stack(heads)
        lv = bce_loss(probs, yb)
        model.zero_grad()
        model.backward(list(lv.gradient))
        model.optimizer.step(model.parameters())
        total_loss += lv.loss * len(idx)
        seen += len(idx)
        pred = probs.argmax(axis=2)
        true = yb.argmax(axis=2)
        match = pred == true
        char_hits += int(match.sum())
        full_hits += int(match.all(axis=0).sum())
    if seen == 0:
        raise DegenerateBatchError(
            "every batch degenerated to a single sample; use a batch size >= 2"
        )
    return total_loss / seen, char_hits, full_hits, seen


def train(model: CapNet, dataset, config: TrainConfig, test_dataset=None,
          progress=None) -> History:
    """Full training run; returns one record per epoch.

    All randomness fans out from config.seed: stream 2 shuffles, stream 3
    drives dropout (streams 0 and 1 belong to dataset generation and
    parameter init so a single CLI seed covers the whole pipeline).
    """
    if len(dataset) == 0:
        raise ValidationError("cannot train on an empty dataset")
    root = Rng(config.seed)
    shuffle_rng = root.split(2)
    model.set_dropout_rng(root.split(3))
    if model.optimizer is None:
        model.optimizer = _make_optimizer(config)

    x, y = _dataset_arrays(model, dataset)
    test_x = test_y = None
    if test_dataset is not None and len(test_dataset) > 0:
        test_x, test_y = _dataset_arrays(model, test_dataset)

    records = []
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        loss, char_hits, full_hits, seen = _run_epoch(model, x, y, config, shuffle_rng)
        ms = (time.perf_counter() - start) * 1000.0
        nan = float("nan")
        test = (_metrics_from_probs(_predict_arrays(model, test_x), test_y)
                if test_x is not None else Metrics(nan, nan, (), nan))
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss,
            test_loss=test.mean_loss,
            train_char_acc=char_hits / (HEADS * seen),
            test_char_acc=test.char_accuracy,
            train_full_acc=full_hits / seen,
            test_full_acc=test.full_accuracy,
            ms=ms,
        )
        records.append(record)
        if progress is not None:
            progress(record)
    return History(records)


def _predict_arrays(model: CapNet, x, batch_size: int = 64) -> np.ndarray:
    out = np.zeros((x.shape[0], HEADS, model.config.charset_size))
    for start in range(0, x.shape[0], batch_size):
        out[start:start + batch_size] = np.stack(
            model.forward(x[start:start + batch_size], training=False), axis=1)
    return out


def _metrics_from_probs(probs, y) -> Metrics:
    # probs: N x 5 x K, y: 5 x N x K
    lv = bce_loss(probs.transpose(1, 0, 2), y)
    pred = probs.argmax(axis=2)
    true = y.argmax(axis=2).T
    match = pred == true
    per_position = tuple(float(m) for m in match.mean(axis=0))
    return Metrics(
        char_accuracy=float(match.mean()),
        full_accuracy=float(match.all(axis=1).mean()),
        per_position_accuracy=per_position,
        mean_loss=lv.loss,
    )


def evaluate(model, dataset) -> Metrics:
    """Inference-mode metrics; works for any model exposing predict_dataset."""
    if len(dataset) == 0:
        raise ValidationError("cannot evaluate an empty dataset")
    charset = getattr(dataset, "charset", None)
    if charset is not None and charset.symbols != model.charset.symbols:
        raise ValidationError(
            f"model charset {model.charset.symbols!r} does not match "
            f"dataset charset {charset.symbols!r}"
        )
    samples = list(dataset)
    probs = model.predict_dataset(samples)
    y = np.stack([datapipe.encode_label(s.label, model.charset) for s in samples])
    return _metrics_from_probs(probs, y.transpose(1, 0, 2))


def emit_history(history: History, out_dir: str):
    """Write history.csv plus accuracy and loss SVG plots into out_dir."""
    if len(history) == 0:
        raise ValidationError("history is empty; nothing to emit")
    os.makedirs(out_dir, exist_ok=True)
    columns = fields(EpochRecord)
    with open(os.path.join(out_dir, "history.csv"), "w", encoding="utf-8") as f:
        f.write(",".join(c.name for c in columns) + "\n")
        for r in history:
            values = [getattr(r, c.name) for c in columns]
            f.write(",".join(str(v) if c.type is int else repr(float(v))
                             for c, v in zip(columns, values)) + "\n")

    epochs = [r.epoch for r in history]
    acc_series = [
        ("train char", [r.train_char_acc for r in history], "#1f77b4"),
        ("test char", [r.test_char_acc for r in history], "#ff7f0e"),
        ("train full", [r.train_full_acc for r in history], "#2ca02c"),
        ("test full", [r.test_full_acc for r in history], "#d62728"),
    ]
    loss_series = [
        ("train loss", [r.train_loss for r in history], "#1f77b4"),
        ("test loss", [r.test_loss for r in history], "#ff7f0e"),
    ]
    _write_svg(os.path.join(out_dir, "accuracy.svg"), "Accuracy by epoch",
               epochs, acc_series, y_lo=0.0, y_hi=1.0)
    flat = [v for _, vs, _ in loss_series for v in vs if not np.isnan(v)]
    y_hi = max(flat) * 1.05 if flat else 1.0
    _write_svg(os.path.join(out_dir, "loss.svg"), "Loss by epoch",
               epochs, loss_series, y_lo=0.0, y_hi=y_hi)


def _write_svg(path, title, xs, series, y_lo, y_hi):
    width, height = 640, 400
    ml, mr, mt, mb = 50, 20, 30, 40
    plot_w, plot_h = width - ml - mr, height - mt - mb
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return ml + (x - x_lo) / x_span * plot_w

    def py(y):
        return mt + (1.0 - (y - y_lo) / y_span) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>',
    ]
    for i in range(5):
        yv = y_lo + y_span * i / 4
        ypix = py(yv)
        parts.append(
            f'<line x1="{ml}" y1="{ypix:.1f}" x2="{ml + plot_w}" y2="{ypix:.1f}" '
            'stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{ypix + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.3g}</text>'
        )
    for i in range(5):
        xv = x_lo + x_span * i / 4
        xpix = px(xv)
        parts.append(
            f'<text x="{xpix:.1f}" y="{height - mb + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xv:.4g}</text>'
        )
    legend_y = mt + 12
    for label, values, color in series:
        points = " ".join(
            f"{px(x):.2f},{py(v):.2f}"
            for x, v in zip(xs, values)
            if not np.isnan(v)
        )
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>'
            )
        parts.append(
            f'<rect x="{ml + plot_w - 110}" y="{legend_y - 8}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{ml + plot_w - 96}" y="{legend_y + 1}" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
        legend_y += 14
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


def _pack_tensor(name: str, value: np.ndarray) -> bytes:
    data = np.ascontiguousarray(value, dtype="<f4").tobytes()
    name_b = name.encode("utf-8")
    header = struct.pack("<I", len(name_b)) + name_b
    header += struct.pack("<I", value.ndim) + struct.pack(f"<{value.ndim}I", *value.shape)
    return header + data


def _stored_slots(model: CapNet):
    """(tensor name, owner, attribute) of every stored tensor, in file order."""
    slots = [(p.name, p, "value") for p in model.parameters()]
    slots += [(f"{bn.name}.{attr}", bn, attr) for bn in model._batchnorms
              for attr in ("running_mean", "running_var")]
    return slots


def save_model(model: CapNet, path: str):
    """Serialize config, charset, parameters, and batchnorm running stats.

    Tensor payloads are 32-bit floats; a float64 model loses precision here.
    The trailing u32 is a CRC32 over everything before it.
    """
    named = [(name, getattr(owner, attr)) for name, owner, attr in _stored_slots(model)]
    config_block = json.dumps(
        {"model": model.config.to_dict(), "charset": model.charset.symbols},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    payload = MAGIC + struct.pack("<I", FORMAT_VERSION)
    payload += struct.pack("<I", len(config_block)) + config_block
    payload += struct.pack("<I", len(named))
    for name, value in named:
        payload += _pack_tensor(name, value)
    payload += struct.pack("<I", zlib.crc32(payload))
    with open(path, "wb") as f:
        f.write(payload)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncationError(
                f"{self.path}: file ends at byte {len(self.data)}, "
                f"needed {self.pos + n}"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_model(path: str) -> CapNet:
    """Read a format-v1 model file; a malformed file raises ModelFormatError.

    Lengths are walked first, so a short file raises TruncationError; then the
    CRC32 is checked; only then are the config block and tensor names decoded.
    """
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, path)
    if r.take(4) != MAGIC:
        raise ModelFormatError(f"{path}: bad magic, not a model file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format version {version}, this build reads {FORMAT_VERSION}"
        )
    config_block = r.take(r.u32())
    records = []
    for _ in range(r.u32()):
        name = r.take(r.u32())
        shape = tuple(r.u32() for _ in range(r.u32()))
        records.append((name, shape, r.take(4 * math.prod(shape))))
    stored_crc = r.u32()
    if r.pos != len(data):
        raise ModelFormatError(f"{path}: {len(data) - r.pos} trailing bytes after checksum")
    if stored_crc != zlib.crc32(data[:-4]):
        raise ChecksumError(f"{path}: checksum mismatch, file is corrupt")

    try:
        blob = json.loads(config_block.decode("utf-8"))
        model = CapNet(ModelConfig.from_dict(blob["model"]), Charset(blob["charset"]), Rng(0))
        tensors = {name.decode("utf-8"): np.frombuffer(raw, dtype="<f4").reshape(shape)
                   for name, shape, raw in records}
    except (ValueError, KeyError, TypeError, CapnetError) as e:
        raise ModelFormatError(f"{path}: bad config block or tensor name: {e}") from None
    for name, owner, attr in _stored_slots(model):
        if name not in tensors:
            raise ModelFormatError(f"{path}: missing tensor {name!r}")
        stored = tensors.pop(name)
        expected = getattr(owner, attr).shape
        if stored.shape != expected:
            raise ModelFormatError(
                f"{path}: tensor {name!r} has shape {stored.shape}, model expects {expected}"
            )
        setattr(owner, attr, stored.astype(model.dtype))
    if tensors:
        raise ModelFormatError(f"{path}: unknown tensors {sorted(tensors)}")
    return model

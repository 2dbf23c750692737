"""Deterministic synthetic CAPTCHA renderer.

Length-5 strings are drawn uniformly from a charset and rendered at 200x50
grayscale with parameterized distortions: per-character rotation, a
sinusoidal vertical wave, horizontal glyph overlap, and Gaussian-valued
pepper noise. Everything is a pure function of (text, spec, seed), so
datasets regenerate bit-identically and samples can be rendered in any
order or in parallel.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import CapacityError, ParameterError, RenderError, ValidationError
from .glyphs import build_atlas
from .tensor import Rng

IMAGE_W = 200
IMAGE_H = 50
TEXT_LEN = 5
SLOT_W = 40
CANVAS = 48
GLYPH_SCALE = 1.125
BACKGROUND = 235
NOISE_MEAN = 40.0
WAVE_LEN = 40.0

DEFAULT_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Charset:
    symbols: str = DEFAULT_SYMBOLS

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValidationError("charset must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"charset has duplicate symbols: {self.symbols!r}")

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, sym):
        return sym in self.symbols

    def index(self, sym: str) -> int:
        return self.symbols.index(sym)


@dataclass(frozen=True)
class DistortionSpec:
    rotation_max_deg: float = 25.0
    warp_amplitude: float = 3.0
    pepper_density: float = 0.05
    noise_sigma: float = 12.0
    text_gray_level: int = 60
    overlap_px: int = 6

    def __post_init__(self):
        if self.rotation_max_deg < 0:
            raise ParameterError(f"rotation_max_deg must be >= 0, got {self.rotation_max_deg}")
        if self.warp_amplitude < 0:
            raise ParameterError(f"warp_amplitude must be >= 0, got {self.warp_amplitude}")
        if not 0.0 <= self.pepper_density < 1.0:
            raise ParameterError(f"pepper_density must lie in [0,1), got {self.pepper_density}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0 <= int(self.text_gray_level) <= 255:
            raise ParameterError(f"text_gray_level must lie in 0..255, got {self.text_gray_level}")
        if int(self.overlap_px) < 0:
            raise ParameterError(f"overlap_px must be >= 0, got {self.overlap_px}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DistortionSpec":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown distortion keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class SampleMeta:
    """Realized distortion values for one sample, as used by the renderer."""

    rotations: tuple
    pepper_density: float
    gray_level: int


@dataclass
class CaptchaSample:
    image: np.ndarray
    label: str
    meta: SampleMeta


@dataclass
class Dataset:
    """Samples plus the generation settings the on-disk manifest records."""

    samples: list
    charset: Charset
    spec: DistortionSpec
    seed: int | None = None

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def sample_text(charset: Charset, length: int = TEXT_LEN, rng: Rng | None = None) -> str:
    if length < 1:
        raise ValidationError(f"text length must be >= 1, got {length}")
    idx = rng.integers(0, len(charset), size=length)
    return "".join(charset.symbols[i] for i in idx)


def _bilinear_gather(img, ys, xs):
    """Sample img at float coordinates, zero outside the image."""
    h, w = img.shape
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy = ys - y0
    fx = xs - x0
    out = np.zeros(ys.shape)
    for dy, dx, wgt in (
        (0, 0, (1 - fy) * (1 - fx)),
        (0, 1, (1 - fy) * fx),
        (1, 0, fy * (1 - fx)),
        (1, 1, fy * fx),
    ):
        yy = y0 + dy
        xx = x0 + dx
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        out[valid] += wgt[valid] * img[yy[valid], xx[valid]]
    return out


def _rotated_glyph(design, rotation_deg: float) -> np.ndarray:
    """Scale the design bitmap and rotate it about the canvas center."""
    theta = np.deg2rad(rotation_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    ys, xs = np.mgrid[0:CANVAS, 0:CANVAS].astype(np.float64)
    dy = ys - (CANVAS - 1) / 2.0
    dx = xs - (CANVAS - 1) / 2.0
    # inverse rotation, then inverse scale back into design coordinates
    rx = (cos_t * dx + sin_t * dy) / GLYPH_SCALE
    ry = (-sin_t * dx + cos_t * dy) / GLYPH_SCALE
    u = rx + (design.shape[1] - 1) / 2.0
    v = ry + (design.shape[0] - 1) / 2.0
    return _bilinear_gather(design, v, u)


def _round_half_up(x) -> np.ndarray:
    return np.floor(x + 0.5)


def render_captcha(text: str, spec: DistortionSpec, rng: Rng) -> CaptchaSample:
    """Render one sample; deterministic given (text, spec, rng seed)."""
    if len(text) != TEXT_LEN:
        raise ValidationError(f"text must have length {TEXT_LEN}, got {len(text)}")
    atlas = build_atlas(text)
    missing = [s for s in text if s not in atlas]
    if missing:
        raise RenderError(f"no glyph for symbol(s) {missing!r}")

    rot_stream = rng.split(0)
    wave_stream = rng.split(1)
    noise_stream = rng.split(2)

    rotations = rot_stream.uniform(-spec.rotation_max_deg, spec.rotation_max_deg, size=TEXT_LEN)
    phase = float(wave_stream.uniform(0.0, 2.0 * np.pi))

    overlap = int(spec.overlap_px)
    base_x = 2 * overlap
    top = (IMAGE_H - CANVAS) // 2
    ink = np.zeros((IMAGE_H, IMAGE_W))
    rows = np.arange(IMAGE_H, dtype=np.float64)[:, None]
    for i, sym in enumerate(text):
        glyph = _rotated_glyph(atlas[sym], float(rotations[i]))
        x_pos = base_x + i * (SLOT_W - overlap)
        cols = np.arange(CANVAS)
        shift = spec.warp_amplitude * np.sin(
            2.0 * np.pi * (x_pos + cols) / WAVE_LEN + phase
        )
        # vertical wave: each column samples the glyph at a shifted row
        src_rows = rows - top - shift[None, :]
        src_cols = np.broadcast_to(cols.astype(np.float64), (IMAGE_H, CANVAS))
        layer = _bilinear_gather(glyph, src_rows, src_cols)
        region = ink[:, x_pos:x_pos + CANVAS]
        np.maximum(region, layer[:, : region.shape[1]], out=region)

    image = BACKGROUND - ink * (BACKGROUND - int(spec.text_gray_level))

    mask = noise_stream.random((IMAGE_H, IMAGE_W)) < spec.pepper_density
    values = np.clip(
        _round_half_up(noise_stream.normal(NOISE_MEAN, spec.noise_sigma, size=(IMAGE_H, IMAGE_W))),
        0,
        255,
    )
    image = _round_half_up(image)
    image[mask] = values[mask]
    realized_density = float(mask.sum()) / mask.size

    meta = SampleMeta(
        rotations=tuple(float(r) for r in rotations),
        pepper_density=realized_density,
        gray_level=int(spec.text_gray_level),
    )
    return CaptchaSample(image.astype(np.uint8), text, meta)


def _draw_labels(n: int, charset: Charset, root: Rng) -> list:
    labels = []
    used = set()
    for i in range(n):
        stream = root.split(i).split(0)
        for _ in range(1000):
            label = sample_text(charset, TEXT_LEN, stream)
            if label not in used:
                break
        else:
            raise CapacityError(
                f"could not draw a distinct label for sample {i} after 1000 tries"
            )
        used.add(label)
        labels.append(label)
    return labels


def generate_dataset(
    n: int, charset: Charset, spec: DistortionSpec, seed: int, threads: int = 1
) -> Dataset:
    """n samples with pairwise-distinct labels, bit-reproducible from seed.

    Sample i renders from a stream keyed by (seed, i), so rendering is
    order-independent; label uniqueness is resolved in one serial pass first.
    """
    if n < 0:
        raise ValidationError(f"sample count must be >= 0, got {n}")
    if n > len(charset) ** TEXT_LEN:
        raise CapacityError(
            f"{n} samples requested but only {len(charset) ** TEXT_LEN} distinct labels exist"
        )
    root = Rng(seed)
    labels = _draw_labels(n, charset, root)

    def render(i):
        return render_captcha(labels[i], spec, root.split(i).split(1))

    if threads > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            samples = list(pool.map(render, range(n)))
    else:
        samples = [render(i) for i in range(n)]
    return Dataset(samples, charset, spec, seed)

"""Deterministic synthetic CAPTCHA renderer.

Length-5 strings are drawn uniformly from a charset and rendered at 200x50
grayscale with parameterized distortions: per-character rotation, a
sinusoidal vertical wave, horizontal glyph overlap, and Gaussian-valued
pepper noise. Everything is a pure function of (text, spec, seed), so
datasets regenerate bit-identically and samples could be rendered in any
order.

A sample's five glyphs are sampled together: one bilinear gather rotates all
five design bitmaps, and one more applies the wave to all five rotated
glyphs. Each gather reads its four taps from a zero-bordered stack and adds
them in a fixed order, so the pixels equal those of rendering one glyph at a
time. Design bitmaps are built once per symbol, on first use.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CapacityError, JsonConfig, ParameterError, RenderError, ValidationError
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
        if not isinstance(self.symbols, str):
            raise ValidationError(f"charset must be a string of symbols, got {self.symbols!r}")
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
class DistortionSpec(JsonConfig):
    rotation_max_deg: float = 25.0
    warp_amplitude: float = 3.0
    pepper_density: float = 0.05
    noise_sigma: float = 12.0
    text_gray_level: int = 60
    overlap_px: int = 6

    def __post_init__(self):
        if not 0 <= self.rotation_max_deg <= 180:
            raise ParameterError(
                f"rotation_max_deg must lie in [0,180], got {self.rotation_max_deg}"
            )
        if self.warp_amplitude < 0:
            raise ParameterError(f"warp_amplitude must be >= 0, got {self.warp_amplitude}")
        if not 0.0 <= self.pepper_density < 1.0:
            raise ParameterError(f"pepper_density must lie in [0,1), got {self.pepper_density}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0 <= int(self.text_gray_level) <= 255:
            raise ParameterError(f"text_gray_level must lie in 0..255, got {self.text_gray_level}")
        # at SLOT_W or more the slots stop advancing and run off the left edge
        if not 0 <= int(self.overlap_px) <= SLOT_W - 1:
            raise ParameterError(f"overlap_px must lie in 0..{SLOT_W - 1}, got {self.overlap_px}")

    def to_dict(self) -> dict:
        return asdict(self)


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


def _bilinear_gather(imgs, ys, xs):
    """Sample each image of a (G, h, w) stack at float coordinates, zero outside it.

    ``ys`` and ``xs`` broadcast to (G, H, W), one H x W grid per image. The
    stack gets a two-pixel zero border, so a tap outside an image reads +0.0
    and adds ``wgt * 0.0 = +0.0`` to a sum of non-negative terms; the four
    taps add in a fixed order, which gives the same bits as skipping the
    outside taps one image at a time.
    """
    g, h, w = imgs.shape
    padded = np.zeros((g, h + 4, w + 4))
    padded[:, 2:h + 2, 2:w + 2] = imgs
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    fy = ys - y0
    fx = xs - x0
    # floors below -2 or above h (w) read only border zeros, like -2 and h (w)
    yi = np.clip(y0, -2, h).astype(np.intp) + 2
    xi = np.clip(x0, -2, w).astype(np.intp) + 2
    base = (np.arange(g)[:, None, None] * (h + 4) + yi) * (w + 4) + xi
    flat = padded.ravel()
    gy = 1 - fy
    gx = 1 - fx
    return (gy * gx * flat.take(base)
            + gy * fx * flat.take(base + 1)
            + fy * gx * flat.take(base + (w + 4))
            + fy * fx * flat.take(base + (w + 5)))


# canvas pixel offsets from the rotation center, shared by every glyph
_CANVAS_DY, _CANVAS_DX = np.mgrid[0:CANVAS, 0:CANVAS].astype(np.float64) - (CANVAS - 1) / 2.0

# design bitmap per symbol, built on first use
_DESIGNS = {}


def _designs(text: str) -> np.ndarray:
    """The (len(text), DESIGN_H, DESIGN_W) stack of design bitmaps for text."""
    new = "".join(dict.fromkeys(s for s in text if s not in _DESIGNS))
    if new:
        _DESIGNS.update(build_atlas(new))
    missing = [s for s in text if s not in _DESIGNS]
    if missing:
        raise RenderError(f"no glyph for symbol(s) {missing!r}")
    return np.stack([_DESIGNS[s] for s in text])


def _rotated_glyphs(designs, rotations) -> np.ndarray:
    """Scale each design bitmap and rotate it about the canvas center."""
    theta = [np.deg2rad(float(r)) for r in rotations]
    cos_t = np.array([np.cos(t) for t in theta])[:, None, None]
    sin_t = np.array([np.sin(t) for t in theta])[:, None, None]
    # inverse rotation, then inverse scale back into design coordinates
    rx = (cos_t * _CANVAS_DX + sin_t * _CANVAS_DY) / GLYPH_SCALE
    ry = (-sin_t * _CANVAS_DX + cos_t * _CANVAS_DY) / GLYPH_SCALE
    u = rx + (designs.shape[2] - 1) / 2.0
    v = ry + (designs.shape[1] - 1) / 2.0
    return _bilinear_gather(designs, v, u)


def _round_half_up(x) -> np.ndarray:
    return np.floor(x + 0.5)


def _ink(designs, rotations, phase: float, spec: DistortionSpec) -> np.ndarray:
    """Ink coverage in [0, 1] of the image: rotated, waved and overlapped glyphs."""
    overlap = int(spec.overlap_px)
    x_pos = [2 * overlap + i * (SLOT_W - overlap) for i in range(TEXT_LEN)]
    top = (IMAGE_H - CANVAS) // 2
    glyphs = _rotated_glyphs(designs, rotations)
    cols = np.arange(CANVAS)
    shift = spec.warp_amplitude * np.sin(
        2.0 * np.pi * (np.array(x_pos, dtype=np.int64)[:, None] + cols) / WAVE_LEN + phase
    )
    # vertical wave: each column samples its glyph at a shifted row
    src_rows = np.arange(IMAGE_H, dtype=np.float64)[:, None] - top - shift[:, None, :]
    layers = _bilinear_gather(glyphs, src_rows, cols.astype(np.float64))
    ink = np.zeros((IMAGE_H, IMAGE_W))
    for x, layer in zip(x_pos, layers):
        region = ink[:, x:x + CANVAS]
        np.maximum(region, layer[:, : region.shape[1]], out=region)
    return ink


def render_captcha(text: str, spec: DistortionSpec, rng: Rng) -> CaptchaSample:
    """Render one sample; deterministic given (text, spec, rng seed)."""
    if len(text) != TEXT_LEN:
        raise ValidationError(f"text must have length {TEXT_LEN}, got {len(text)}")
    designs = _designs(text)

    rot_stream = rng.split(0)
    wave_stream = rng.split(1)
    noise_stream = rng.split(2)

    rotations = rot_stream.uniform(-spec.rotation_max_deg, spec.rotation_max_deg, size=TEXT_LEN)
    phase = float(wave_stream.uniform(0.0, 2.0 * np.pi))

    ink = _ink(designs, rotations, phase, spec)
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
    Samples render one ``render_captcha`` call each, in order, on the calling
    thread; ``threads`` is accepted for compatibility and has no effect.
    """
    if n < 0:
        raise ValidationError(f"sample count must be >= 0, got {n}")
    if n > len(charset) ** TEXT_LEN:
        raise CapacityError(
            f"{n} samples requested but only {len(charset) ** TEXT_LEN} distinct labels exist"
        )
    root = Rng(seed)
    labels = _draw_labels(n, charset, root)

    samples = [render_captcha(label, spec, root.split(i).split(1))
               for i, label in enumerate(labels)]
    return Dataset(samples, charset, spec, seed)

"""Image preprocessing, label encoding, and dataset persistence.

A dataset on disk is a directory of binary PGM images plus `manifest.csv`
(per-sample label and realized distortion metadata) and `dataset.json`
(charset, generation seed, and distortion settings). The round trip is
bit-exact: floats are written with repr so they reparse to the same value.
"""

import csv
import json
import os

import numpy as np

from .capgen import (
    IMAGE_H,
    IMAGE_W,
    TEXT_LEN,
    CaptchaSample,
    Charset,
    Dataset,
    DistortionSpec,
    SampleMeta,
)
from .errors import (
    DimensionError,
    EncodingError,
    IntegrityError,
    ManifestError,
    MissingFileError,
    ValidationError,
)

MANIFEST_HEADER = ["id", "label", "file", "rot1", "rot2", "rot3", "rot4", "rot5",
                   "pepper_density", "gray_level"]


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """Rounded per-pixel mean of the three channels (round half up)."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"to_grayscale expects H x W x 3 input, got shape {rgb.shape}")
    mean = rgb.astype(np.float64).sum(axis=2) / 3.0
    return np.floor(mean + 0.5).astype(np.uint8)


def denoise_median3(gray: np.ndarray) -> np.ndarray:
    """3x3 median filter with coordinate-clamped edges."""
    if gray.ndim != 2 or gray.shape[0] < 3 or gray.shape[1] < 3:
        raise DimensionError(f"denoise_median3 needs an image of at least 3x3, got {gray.shape}")
    padded = np.pad(gray, 1, mode="edge")
    h, w = gray.shape
    stack = np.stack(
        [padded[dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)], axis=0
    )
    return np.median(stack, axis=0).astype(gray.dtype)


def resize_bilinear(gray: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    if target_h < 1 or target_w < 1:
        raise DimensionError(f"resize target must be >= 1x1, got {target_h}x{target_w}")
    h, w = gray.shape
    if (h, w) == (target_h, target_w):
        return gray.copy()
    # corner-aligned mapping so endpoints reproduce source corner values
    ys = np.linspace(0.0, h - 1.0, target_h) if target_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, target_w) if target_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    img = gray.astype(np.float64)
    out = (
        img[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + img[np.ix_(y0, x1)] * (1 - fy) * fx
        + img[np.ix_(y1, x0)] * fy * (1 - fx)
        + img[np.ix_(y1, x1)] * fy * fx
    )
    return np.floor(out + 0.5).astype(np.uint8)


def normalize(gray: np.ndarray) -> np.ndarray:
    """Scale bytes into [0,1] and add the single channel axis conv expects."""
    return (gray.astype(np.float64) / 255.0)[None, :, :]


def encode_label(text: str, charset: Charset) -> np.ndarray:
    if len(text) != TEXT_LEN:
        raise ValidationError(f"label must have length {TEXT_LEN}, got {len(text)}")
    k = len(charset)
    matrix = np.zeros((TEXT_LEN, k))
    for pos, sym in enumerate(text):
        if sym not in charset:
            raise EncodingError(f"symbol {sym!r} at position {pos} is not in the charset")
        matrix[pos, charset.index(sym)] = 1.0
    return matrix


def decode_prediction(probs, charset: Charset) -> str:
    probs = np.asarray(probs)
    if probs.ndim != 2 or probs.shape[0] != TEXT_LEN or probs.shape[1] != len(charset):
        raise DimensionError(
            f"decode_prediction expects {TEXT_LEN} x {len(charset)} probabilities, "
            f"got shape {probs.shape}"
        )
    return "".join(charset.symbols[i] for i in probs.argmax(axis=1))


def write_pgm(path: str, image: np.ndarray):
    if image.ndim != 2 or image.dtype != np.uint8:
        raise DimensionError(f"write_pgm expects 2-d uint8, got {image.shape} {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def read_pgm(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise MissingFileError(f"no such image file: {path}")
    with open(path, "rb") as f:
        data = f.read()
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed; a single whitespace byte ends the header
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        c = data[i:i + 1]
        if c == b"#":
            i = data.find(b"\n", i)
            if i < 0:
                break
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise IntegrityError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise IntegrityError(f"{path}: malformed PGM header") from None
    if maxval != 255:
        raise IntegrityError(f"{path}: unsupported maxval {maxval}, expected 255")
    pixels = data[i + 1:]
    if len(pixels) != w * h:
        raise IntegrityError(
            f"{path}: pixel payload is {len(pixels)} bytes, header declares {w * h}"
        )
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def save_dataset(dataset: Dataset, path: str):
    os.makedirs(path, exist_ok=True)
    rows = []
    for i, sample in enumerate(dataset):
        filename = f"{i:05d}.pgm"
        write_pgm(os.path.join(path, filename), sample.image)
        rows.append(
            [str(i), sample.label, filename]
            + [repr(r) for r in sample.meta.rotations]
            + [repr(sample.meta.pepper_density), str(sample.meta.gray_level)]
        )
    with open(os.path.join(path, "manifest.csv"), "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    sidecar = {
        "charset": dataset.charset.symbols,
        "seed": dataset.seed,
        "spec": dataset.spec.to_dict(),
    }
    with open(os.path.join(path, "dataset.json"), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, sort_keys=True, indent=2)
        f.write("\n")


def load_dataset(path: str) -> Dataset:
    manifest_path = os.path.join(path, "manifest.csv")
    sidecar_path = os.path.join(path, "dataset.json")
    if not os.path.exists(manifest_path):
        raise MissingFileError(f"no manifest.csv in {path}")
    if not os.path.exists(sidecar_path):
        raise MissingFileError(f"no dataset.json in {path}")
    with open(sidecar_path, encoding="utf-8") as f:
        try:
            sidecar = json.load(f)
        except json.JSONDecodeError as e:
            raise ManifestError(f"dataset.json is not valid JSON: {e}") from None
    if not isinstance(sidecar, dict):
        raise ManifestError("dataset.json must hold a JSON object")
    try:
        charset = Charset(sidecar["charset"])
        spec = DistortionSpec.from_dict(sidecar["spec"])
        seed = sidecar["seed"]
    except KeyError as e:
        raise ManifestError(f"dataset.json missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ManifestError(f"dataset.json has a malformed charset or spec: {e}") from None

    samples = []
    seen_ids = set()
    with open(manifest_path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ManifestError(
                f"manifest header {header} does not match expected {MANIFEST_HEADER}"
            )
        for row in reader:
            if len(row) != len(MANIFEST_HEADER):
                raise ManifestError(f"manifest row has {len(row)} fields: {row}")
            sid, label, filename = row[0], row[1], row[2]
            if sid in seen_ids:
                raise ManifestError(f"duplicate sample id {sid}")
            seen_ids.add(sid)
            if len(label) != TEXT_LEN or any(s not in charset for s in label):
                raise ValidationError(f"sample {sid}: label {label!r} not valid for charset")
            image_path = os.path.join(path, filename)
            if not os.path.exists(image_path):
                raise MissingFileError(f"sample {sid}: image file {filename} is missing")
            image = read_pgm(image_path)
            if image.shape != (IMAGE_H, IMAGE_W):
                raise IntegrityError(
                    f"sample {sid}: image is {image.shape[1]}x{image.shape[0]}, "
                    f"expected {IMAGE_W}x{IMAGE_H}"
                )
            try:
                rotations = tuple(float(v) for v in row[3:8])
                density = float(row[8])
                gray = int(row[9])
            except ValueError:
                raise ManifestError(f"sample {sid}: malformed numeric fields: {row}") from None
            samples.append(
                CaptchaSample(image, label, SampleMeta(rotations, density, gray))
            )
    return Dataset(samples, charset, spec, seed)

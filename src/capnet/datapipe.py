"""Image normalization, label encoding, and dataset persistence.

A dataset on disk is a directory of binary PGM images plus `manifest.csv`
(per-sample label and realized distortion metadata) and `dataset.json`
(charset, generation seed, and distortion settings). The round trip is
bit-exact: floats are written with repr so they reparse to the same value.
"""

import csv
import json
import math
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
    ParameterError,
    ValidationError,
)

MANIFEST_HEADER = ["id", "label", "file", "rot1", "rot2", "rot3", "rot4", "rot5",
                   "pepper_density", "gray_level"]


def normalize(gray: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Scale bytes into [0,1] in ``dtype`` and add the channel axis conv expects.

    An H x W image gives 1 x H x W; an N x H x W stack gives N x 1 x H x W.
    The quotient is computed in ``dtype`` directly: for every byte value the
    float32 quotient equals the float64 one rounded to float32, so a float32
    model sees the same input bits as it would through a float64 copy.
    """
    return np.divide(gray, 255.0, dtype=dtype)[..., None, :, :]


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


def check_charset(charset: Charset, dataset):
    """Reject a dataset whose recorded charset is not the model's charset."""
    theirs = getattr(dataset, "charset", None)
    if theirs is not None and theirs.symbols != charset.symbols:
        raise ValidationError(
            f"model charset {charset.symbols!r} does not match "
            f"dataset charset {theirs.symbols!r}"
        )


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
    if w < 1 or h < 1:
        raise IntegrityError(f"{path}: PGM header declares {w}x{h} pixels")
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
        except (ValueError, RecursionError) as e:  # ValueError covers JSONDecodeError
            raise ManifestError(f"dataset.json is not valid JSON: {e}") from None
    if not isinstance(sidecar, dict):
        raise ManifestError("dataset.json must hold a JSON object")
    try:
        charset = Charset(sidecar["charset"])
        spec = DistortionSpec.from_dict(sidecar["spec"])
        seed = sidecar["seed"]
    except KeyError as e:
        raise ManifestError(f"dataset.json missing key {e}") from None
    except (ParameterError, ValidationError) as e:
        raise ManifestError(f"dataset.json has a malformed charset or spec: {e}") from None
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ManifestError(f"dataset.json seed must be a non-negative integer or null, "
                            f"got {seed!r}")

    samples = []
    seen_ids = set()
    try:
        with open(manifest_path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as e:
        raise ManifestError(f"manifest.csv is unreadable: {e}") from None
    header = rows[0] if rows else None
    if header != MANIFEST_HEADER:
        raise ManifestError(
            f"manifest header {header} does not match expected {MANIFEST_HEADER}"
        )
    for row in rows[1:]:
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
        if not (all(map(math.isfinite, rotations)) and 0.0 <= density <= 1.0
                and 0 <= gray <= 255):
            raise ManifestError(f"sample {sid}: a rotation is not finite, or the pepper "
                                f"density or gray level is out of range: {row}")
        samples.append(
            CaptchaSample(image, label, SampleMeta(rotations, density, gray))
        )
    return Dataset(samples, charset, spec, seed)

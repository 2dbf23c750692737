"""Uncertainty scoring and vulnerability breakdowns for a trained solver.

The uncertainty score eta is the mean over the five heads of the ratio
between the second-highest and highest softmax probability: 1 means the
model cannot separate its top two candidates, values near 0 mean it is
confident. The analyzer buckets correctness by the realized distortion
metadata so a CAPTCHA designer can see which knobs actually hurt the model.
It is one array pass over the N x 5 predicted and true symbol indices: one
bincount gives the confusion matrix, and one bincount per distortion axis
gives that axis's accuracy table.
"""

import csv
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .capgen import TEXT_LEN as HEADS  # one softmax head per text position
from .datapipe import check_charset, encode_label
from .errors import DimensionError, ValidationError

ROTATION_BUCKET_DEG = 5.0
GRAY_BUCKET = 16
PEPPER_BUCKET = 0.02


@dataclass
class UncertaintyScore:
    eta: float
    per_head_ratio: tuple
    d: int = HEADS


def uncertainty(heads) -> UncertaintyScore:
    """Best-vs-second-best ratio per head, averaged over the five heads."""
    heads = np.asarray(heads, dtype=np.float64)
    if heads.ndim != 2 or heads.shape[0] != HEADS:
        raise DimensionError(f"expected {HEADS} probability vectors, got shape {heads.shape}")
    if heads.shape[1] < 2:
        raise DimensionError(f"need at least 2 classes per head, got {heads.shape[1]}")
    if np.max(np.abs(heads.sum(axis=1) - 1.0)) > 1e-6:
        raise ValidationError("head probabilities must each sum to 1")
    top2 = np.sort(heads, axis=1)[:, -2:]
    ratios = top2[:, 0] / top2[:, 1]
    return UncertaintyScore(float(ratios.mean()), tuple(float(r) for r in ratios))


@dataclass
class VulnReport:
    n_samples: int
    confusion_counts: dict
    accuracy_by_rotation: list
    accuracy_by_gray_level: list
    accuracy_by_pepper_density: list
    top_confusable_pairs: list
    mean_eta_correct: float | None
    mean_eta_incorrect: float | None

    def to_dict(self) -> dict:
        # shallow on purpose: asdict would deep-copy every table
        return {f.name: getattr(self, f.name) for f in fields(self)}


class OracleModel:
    """Test stub that answers with the true label, nearly one-hot."""

    DELTA = 1e-7

    def __init__(self, charset):
        self.charset = charset

    def predict_dataset(self, samples) -> np.ndarray:
        k = len(self.charset)
        out = np.zeros((len(samples), HEADS, k))
        for i, sample in enumerate(samples):
            one_hot = encode_label(sample.label, self.charset)
            out[i] = one_hot * (1.0 - k * self.DELTA) + self.DELTA
        return out


def _meta_missing(sample) -> list:
    missing = []
    meta = getattr(sample, "meta", None)
    if meta is None:
        return ["rotations", "pepper_density", "gray_level"]
    if getattr(meta, "rotations", None) is None or len(meta.rotations) != HEADS:
        missing.append("rotations")
    if getattr(meta, "pepper_density", None) is None:
        missing.append("pepper_density")
    if getattr(meta, "gray_level", None) is None:
        missing.append("gray_level")
    return missing


def _bucket_table(values, hits, width, as_int: bool) -> list:
    """Count and accuracy per occupied bucket [k*width, (k+1)*width), by k."""
    keys, inverse = np.unique(np.floor_divide(values, width), return_inverse=True)
    counts = np.bincount(inverse, minlength=len(keys)).tolist()
    corrects = np.bincount(inverse[hits], minlength=len(keys)).tolist()
    cast = int if as_int else float
    return [{"lo": cast(int(key) * width), "hi": cast((int(key) + 1) * width),
             "count": count, "correct": correct, "accuracy": correct / count}
            for key, count, correct in zip(keys.tolist(), counts, corrects)]


def analyze(model, dataset) -> VulnReport:
    """Inference over the dataset plus per-distortion correctness tables."""
    samples = list(dataset)
    if not samples:
        raise ValidationError("cannot analyze an empty dataset")
    charset = model.charset
    check_charset(charset, dataset)
    for sample in samples:
        missing = _meta_missing(sample)
        if missing:
            raise ValidationError(
                f"sample {sample.label!r} lacks generation meta field(s): {missing}"
            )
    true = np.stack([encode_label(s.label, charset) for s in samples]).argmax(axis=2)
    probs = model.predict_dataset(samples)
    pred = probs.argmax(axis=2)
    hit = pred == true
    full = hit.all(axis=1)

    k = len(charset)
    matrix = np.bincount((true * k + pred).ravel(), minlength=k * k).reshape(k, k)
    sym = charset.symbols
    confusion = {sym[t]: {sym[p]: int(matrix[t, p]) for p in np.flatnonzero(matrix[t])}
                 for t in np.flatnonzero(matrix.sum(axis=1))}
    pairs = [{"true": sym[t], "predicted": sym[p], "count": int(matrix[t, p])}
             for t, p in zip(*np.nonzero(matrix)) if t != p]
    pairs.sort(key=lambda e: (-e["count"], e["true"], e["predicted"]))

    rotations = np.abs(np.array([s.meta.rotations for s in samples]))
    gray = np.array([int(s.meta.gray_level) for s in samples])
    pepper = np.array([s.meta.pepper_density for s in samples])
    eta = np.array([uncertainty(p).eta for p in probs])
    return VulnReport(
        n_samples=len(samples),
        confusion_counts=confusion,
        accuracy_by_rotation=_bucket_table(rotations.ravel(), hit.ravel(),
                                           ROTATION_BUCKET_DEG, as_int=True),
        accuracy_by_gray_level=_bucket_table(gray, full, GRAY_BUCKET, as_int=True),
        accuracy_by_pepper_density=_bucket_table(pepper, full, PEPPER_BUCKET, as_int=False),
        top_confusable_pairs=pairs,
        mean_eta_correct=float(eta[full].mean()) if full.any() else None,
        mean_eta_incorrect=float(eta[~full].mean()) if not full.all() else None,
    )


def _write_bucket_csv(path: str, table: list):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["bucket_lo", "bucket_hi", "count", "correct", "accuracy"])
        for row in table:
            writer.writerow([
                repr(row["lo"]), repr(row["hi"]),
                row["count"], row["correct"], repr(row["accuracy"]),
            ])


def emit_report(report: VulnReport, out_dir: str):
    """Write vuln_report.json (canonical form) plus one CSV per bucket table."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "vuln_report.json"), "w", encoding="utf-8") as f:
        f.write(json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":")))
        f.write("\n")
    _write_bucket_csv(os.path.join(out_dir, "rotation_accuracy.csv"),
                      report.accuracy_by_rotation)
    _write_bucket_csv(os.path.join(out_dir, "gray_level_accuracy.csv"),
                      report.accuracy_by_gray_level)
    _write_bucket_csv(os.path.join(out_dir, "pepper_density_accuracy.csv"),
                      report.accuracy_by_pepper_density)

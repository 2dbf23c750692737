"""Uncertainty scoring and vulnerability breakdowns for a trained solver.

The uncertainty score eta is the mean over the five heads of the ratio
between the second-highest and highest softmax probability: 1 means the
model cannot separate its top two candidates, values near 0 mean it is
confident. The analyzer buckets correctness by the realized distortion
metadata so a CAPTCHA designer can see which knobs actually hurt the model.
"""

import csv
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .capgen import TEXT_LEN as HEADS  # one softmax head per text position
from .datapipe import encode_label
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

    def __init__(self, charset, delta: float = 1e-7):
        self.charset = charset
        self.delta = delta

    def predict_dataset(self, samples) -> np.ndarray:
        k = len(self.charset)
        out = np.zeros((len(samples), HEADS, k))
        for i, sample in enumerate(samples):
            one_hot = encode_label(sample.label, self.charset)
            out[i] = one_hot * (1.0 - k * self.delta) + self.delta
        return out


class ConstantModel:
    """Test stub that always answers the same symbol, nearly one-hot."""

    def __init__(self, charset, index: int = 0, delta: float = 1e-7):
        self.charset = charset
        self.index = index
        self.delta = delta

    def predict_dataset(self, samples) -> np.ndarray:
        k = len(self.charset)
        row = np.full(k, self.delta)
        row[self.index] = 1.0 - (k - 1) * self.delta
        return np.broadcast_to(row, (len(samples), HEADS, k)).copy()


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


def _bucket_table(tallies: dict, width: float, as_int: bool) -> list:
    table = []
    for idx in sorted(tallies):
        count, correct = tallies[idx]
        lo = idx * width
        hi = (idx + 1) * width
        table.append({
            "lo": int(lo) if as_int else float(lo),
            "hi": int(hi) if as_int else float(hi),
            "count": count,
            "correct": correct,
            "accuracy": correct / count,
        })
    return table


def analyze(model, dataset) -> VulnReport:
    """Inference over the dataset plus per-distortion correctness tables."""
    samples = list(dataset)
    if not samples:
        raise ValidationError("cannot analyze an empty dataset")
    for sample in samples:
        missing = _meta_missing(sample)
        if missing:
            raise ValidationError(
                f"sample {sample.label!r} lacks generation meta field(s): {missing}"
            )
    charset = model.charset
    probs = model.predict_dataset(samples)

    confusion = {}
    rot_tally = {}
    gray_tally = {}
    pepper_tally = {}
    eta_correct = []
    eta_incorrect = []

    for i, sample in enumerate(samples):
        pred_idx = probs[i].argmax(axis=1)
        pred = "".join(charset.symbols[j] for j in pred_idx)
        full_correct = pred == sample.label

        for pos in range(HEADS):
            true_sym = sample.label[pos]
            pred_sym = pred[pos]
            confusion.setdefault(true_sym, {}).setdefault(pred_sym, 0)
            confusion[true_sym][pred_sym] += 1
            rot_idx = int(abs(sample.meta.rotations[pos]) // ROTATION_BUCKET_DEG)
            count, correct = rot_tally.get(rot_idx, (0, 0))
            rot_tally[rot_idx] = (count + 1, correct + (true_sym == pred_sym))

        gray_idx = int(sample.meta.gray_level) // GRAY_BUCKET
        count, correct = gray_tally.get(gray_idx, (0, 0))
        gray_tally[gray_idx] = (count + 1, correct + full_correct)

        pepper_idx = int(sample.meta.pepper_density // PEPPER_BUCKET)
        count, correct = pepper_tally.get(pepper_idx, (0, 0))
        pepper_tally[pepper_idx] = (count + 1, correct + full_correct)

        eta = uncertainty(probs[i]).eta
        (eta_correct if full_correct else eta_incorrect).append(eta)

    pairs = [
        {"true": t, "predicted": p, "count": c}
        for t, row in confusion.items()
        for p, c in row.items()
        if t != p
    ]
    pairs.sort(key=lambda e: (-e["count"], e["true"], e["predicted"]))

    return VulnReport(
        n_samples=len(samples),
        confusion_counts=confusion,
        accuracy_by_rotation=_bucket_table(rot_tally, ROTATION_BUCKET_DEG, as_int=True),
        accuracy_by_gray_level=_bucket_table(gray_tally, GRAY_BUCKET, as_int=True),
        accuracy_by_pepper_density=_bucket_table(pepper_tally, PEPPER_BUCKET, as_int=False),
        top_confusable_pairs=pairs,
        mean_eta_correct=float(np.mean(eta_correct)) if eta_correct else None,
        mean_eta_incorrect=float(np.mean(eta_incorrect)) if eta_incorrect else None,
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

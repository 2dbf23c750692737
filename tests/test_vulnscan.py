import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.capgen import (
    CaptchaSample,
    Charset,
    DistortionSpec,
    SampleMeta,
    generate_dataset,
)
from capnet.errors import DimensionError, EncodingError, ValidationError
from capnet.vulnscan import (
    GRAY_BUCKET,
    HEADS,
    PEPPER_BUCKET,
    ROTATION_BUCKET_DEG,
    OracleModel,
    analyze,
    emit_report,
    uncertainty,
)

DIGITS = Charset("0123456789")


class ConstantModel:
    """Stub that always answers the same symbol, nearly one-hot."""

    def __init__(self, charset, index: int = 0, delta: float = 1e-7):
        self.charset = charset
        self.index = index
        self.delta = delta

    def predict_dataset(self, samples) -> np.ndarray:
        k = len(self.charset)
        row = np.full(k, self.delta)
        row[self.index] = 1.0 - (k - 1) * self.delta
        return np.broadcast_to(row, (len(samples), HEADS, k)).copy()

# dyadic probabilities so the head ratios (and their mean) are exact floats
WORKED_HEADS = np.array([
    [0.5, 0.25, 0.125, 0.0625, 0.0625],     # ratio 0.5
    [0.25, 0.25, 0.25, 0.125, 0.125],       # ratio 1.0
    [0.5, 0.125, 0.125, 0.125, 0.125],      # ratio 0.25
    [0.5, 0.375, 0.0625, 0.03125, 0.03125], # ratio 0.75
    [0.5, 0.25, 0.125, 0.0625, 0.0625],     # ratio 0.5
])


def make_sample(label="31415", rotations=(0.0, 1.0, -2.0, 3.0, -4.0),
                pepper=0.05, gray=60):
    meta = SampleMeta(rotations=tuple(rotations), pepper_density=pepper,
                      gray_level=gray)
    image = np.full((50, 200), 235, dtype=np.uint8)
    return CaptchaSample(image=image, label=label, meta=meta)


class ProbModel:
    """Stub that replays a fixed (N, 5, K) probability array."""

    def __init__(self, charset, probs):
        self.charset = charset
        self.probs = np.asarray(probs, dtype=np.float64)

    def predict_dataset(self, samples):
        assert len(samples) == self.probs.shape[0]
        return self.probs


def reference_report(model, samples) -> dict:
    """The analyzer as a plain per-sample, per-position loop: the oracle for analyze."""
    symbols = model.charset.symbols
    probs = model.predict_dataset(samples)
    confusion = {}
    tallies = {"rotation": {}, "gray": {}, "pepper": {}}
    etas = {True: [], False: []}

    def tally(axis, idx, correct):
        count, right = tallies[axis].get(idx, (0, 0))
        tallies[axis][idx] = (count + 1, right + correct)

    for sample, heads in zip(samples, probs):
        pred = "".join(symbols[j] for j in heads.argmax(axis=1))
        full = pred == sample.label
        for pos, (t, p) in enumerate(zip(sample.label, pred)):
            row = confusion.setdefault(t, {})
            row[p] = row.get(p, 0) + 1
            tally("rotation", int(abs(sample.meta.rotations[pos]) // ROTATION_BUCKET_DEG), t == p)
        tally("gray", int(sample.meta.gray_level) // GRAY_BUCKET, full)
        tally("pepper", int(sample.meta.pepper_density // PEPPER_BUCKET), full)
        etas[full].append(uncertainty(heads).eta)

    def table(axis, width, cast):
        return [{"lo": cast(i * width), "hi": cast((i + 1) * width), "count": count,
                 "correct": right, "accuracy": right / count}
                for i, (count, right) in sorted(tallies[axis].items())]

    pairs = sorted(({"true": t, "predicted": p, "count": c}
                    for t, row in confusion.items() for p, c in row.items() if t != p),
                   key=lambda e: (-e["count"], e["true"], e["predicted"]))
    return {
        "n_samples": len(samples),
        "confusion_counts": confusion,
        "accuracy_by_rotation": table("rotation", ROTATION_BUCKET_DEG, int),
        "accuracy_by_gray_level": table("gray", GRAY_BUCKET, int),
        "accuracy_by_pepper_density": table("pepper", PEPPER_BUCKET, float),
        "top_confusable_pairs": pairs,
        "mean_eta_correct": float(np.mean(etas[True])) if etas[True] else None,
        "mean_eta_incorrect": float(np.mean(etas[False])) if etas[False] else None,
    }


# values on and just below bucket edges, where a float floor is easy to get wrong
EDGE_ROTATIONS = (0.0, -0.0, 4.999999999999999, 5.0, -5.0, 9.999999999999998, 10.0, 45.0)
EDGE_PEPPER = (0.0, 0.019999999999999997, 0.02, 0.06000000000000001, 0.3, 1.0)
EDGE_GRAY = (0, 15, 16, 47, 48, 255)


@st.composite
def analyses(draw):
    charset = Charset("wxyz"[:draw(st.integers(2, 4))])
    rotation = st.sampled_from(EDGE_ROTATIONS) | st.floats(-45.0, 45.0)
    pepper = st.sampled_from(EDGE_PEPPER) | st.floats(0.0, 1.0)
    gray = st.sampled_from(EDGE_GRAY) | st.integers(0, 255)
    samples = [
        make_sample(label=draw(st.text(charset.symbols, min_size=HEADS, max_size=HEADS)),
                    rotations=draw(st.tuples(*[rotation] * HEADS)),
                    pepper=draw(pepper), gray=draw(gray))
        for _ in range(draw(st.integers(1, 8)))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.random((len(samples), HEADS, len(charset))) ** 4
    for i, sample in enumerate(samples):
        if draw(st.booleans()):  # push this sample toward its label, so both eta means occur
            probs[i, range(HEADS), [charset.index(c) for c in sample.label]] += 1.0
    probs /= probs.sum(axis=2, keepdims=True)
    return ProbModel(charset, probs), samples


class TestUncertainty:
    def test_uniform_heads_score_one(self):
        heads = np.full((5, 36), 1.0 / 36.0)
        score = uncertainty(heads)
        assert abs(score.eta - 1.0) < 1e-9
        assert score.d == 5

    def test_near_one_hot_scores_near_zero(self):
        k = 36
        delta = 1e-7
        row = np.full(k, delta)
        row[3] = 1.0 - (k - 1) * delta
        score = uncertainty(np.tile(row, (5, 1)))
        assert score.eta < 0.01

    def test_worked_example_exact(self):
        score = uncertainty(WORKED_HEADS)
        assert score.eta == 0.6
        assert score.per_head_ratio == (0.5, 1.0, 0.25, 0.75, 0.5)

    def test_two_class_heads(self):
        heads = np.tile([0.75, 0.25], (5, 1))
        assert uncertainty(heads).eta == pytest.approx(1.0 / 3.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            heads = rng.random((5, 8))
            heads /= heads.sum(axis=1, keepdims=True)
            shuffled = np.stack([rng.permutation(h) for h in heads])
            assert uncertainty(shuffled).eta == uncertainty(heads).eta

    def test_rescale_then_renormalize_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            heads = rng.random((5, 8))
            heads /= heads.sum(axis=1, keepdims=True)
            scaled = heads * 37.5
            scaled /= scaled.sum(axis=1, keepdims=True)
            assert abs(uncertainty(scaled).eta - uncertainty(heads).eta) < 1e-12

    def test_rejects_wrong_head_count(self):
        with pytest.raises(DimensionError):
            uncertainty(np.full((4, 10), 0.1))

    def test_rejects_single_class(self):
        with pytest.raises(DimensionError):
            uncertainty(np.ones((5, 1)))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            uncertainty(np.full((5, 10), 0.2))


class TestAnalyze:
    def test_oracle_is_diagonal_and_perfect(self):
        dataset = generate_dataset(40, DIGITS, DistortionSpec(), seed=5)
        report = analyze(OracleModel(DIGITS), dataset)
        assert report.n_samples == 40
        for true_sym, row in report.confusion_counts.items():
            assert set(row) == {true_sym}
        assert report.top_confusable_pairs == []
        for table in (report.accuracy_by_rotation, report.accuracy_by_gray_level,
                      report.accuracy_by_pepper_density):
            assert table
            for bucket in table:
                assert bucket["accuracy"] == 1.0
        assert report.mean_eta_incorrect is None
        assert report.mean_eta_correct < 0.01

    def test_constant_model_fills_one_column(self):
        dataset = generate_dataset(30, DIGITS, DistortionSpec(), seed=6)
        report = analyze(ConstantModel(DIGITS, index=0), dataset)
        for row in report.confusion_counts.values():
            assert set(row) == {"0"}
        pooled = sum(c for row in report.confusion_counts.values()
                     for c in row.values())
        assert pooled == 30 * 5

    def test_bucket_counts_conserve_mass(self):
        dataset = generate_dataset(25, DIGITS, DistortionSpec(), seed=7)
        report = analyze(ConstantModel(DIGITS), dataset)
        assert sum(b["count"] for b in report.accuracy_by_rotation) == 25 * 5
        assert sum(b["count"] for b in report.accuracy_by_gray_level) == 25
        assert sum(b["count"] for b in report.accuracy_by_pepper_density) == 25
        for table in (report.accuracy_by_rotation, report.accuracy_by_gray_level,
                      report.accuracy_by_pepper_density):
            for bucket in table:
                assert 0.0 <= bucket["accuracy"] <= 1.0
                assert bucket["lo"] < bucket["hi"]

    def test_rotation_buckets_are_five_degrees_wide(self):
        sample = make_sample(rotations=(0.0, 4.9, 5.0, 12.0, -7.0))
        report = analyze(OracleModel(DIGITS), [sample])
        by_lo = {b["lo"]: b for b in report.accuracy_by_rotation}
        assert by_lo[0]["count"] == 2
        assert by_lo[5]["count"] == 2
        assert by_lo[10]["count"] == 1
        assert all(b["hi"] - b["lo"] == 5 for b in report.accuracy_by_rotation)

    def test_gray_and_pepper_bucket_edges(self):
        sample = make_sample(pepper=0.05, gray=60)
        report = analyze(OracleModel(DIGITS), [sample])
        (gray_bucket,) = report.accuracy_by_gray_level
        assert (gray_bucket["lo"], gray_bucket["hi"]) == (48, 64)
        (pepper_bucket,) = report.accuracy_by_pepper_density
        assert pepper_bucket["lo"] == pytest.approx(0.04)
        assert pepper_bucket["hi"] == pytest.approx(0.06)

    def test_confusable_pairs_ranked_by_count_then_name(self):
        samples = [make_sample("11111"), make_sample("12222")]
        # predict "22222" for both: 1->2 six times, 2->2 four times correct
        k = len(DIGITS)
        probs = np.zeros((2, 5, k))
        probs[:, :, 2] = 1.0
        report = analyze(ProbModel(DIGITS, probs), samples)
        assert report.top_confusable_pairs[0] == {
            "true": "1", "predicted": "2", "count": 6,
        }
        assert report.confusion_counts["2"]["2"] == 4

    def test_eta_split_by_correctness(self):
        samples = [make_sample("00000"), make_sample("00000")]
        k = len(DIGITS)
        confident = np.full(k, 1e-7)
        confident[0] = 1.0 - (k - 1) * 1e-7
        hesitant = np.full(k, (0.5 / (k - 2)))
        hesitant[1] = 0.25
        hesitant[5] = 0.25
        probs = np.stack([np.tile(confident, (5, 1)), np.tile(hesitant, (5, 1))])
        probs[1] /= probs[1].sum(axis=1, keepdims=True)
        report = analyze(ProbModel(DIGITS, probs), samples)
        assert report.mean_eta_correct < 0.01
        assert report.mean_eta_incorrect == 1.0

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(analyses())
    def test_matches_per_sample_reference(self, case):
        model, samples = case
        expected = json.dumps(reference_report(model, samples), sort_keys=True)
        assert json.dumps(analyze(model, samples).to_dict(), sort_keys=True) == expected

    def test_label_outside_model_charset_rejected(self):
        with pytest.raises(EncodingError):
            analyze(ConstantModel(DIGITS), [make_sample("3141a")])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            analyze(OracleModel(DIGITS), [])

    def test_missing_meta_lists_fields(self):
        sample = CaptchaSample(image=np.zeros((50, 200), dtype=np.uint8),
                               label="00000", meta=None)
        with pytest.raises(ValidationError) as err:
            analyze(OracleModel(DIGITS), [sample])
        for field in ("rotations", "pepper_density", "gray_level"):
            assert field in str(err.value)


class TestEmitReport:
    def test_json_is_canonical(self, tmp_path):
        dataset = generate_dataset(20, DIGITS, DistortionSpec(), seed=9)
        report = analyze(OracleModel(DIGITS), dataset)
        emit_report(report, str(tmp_path))
        raw = (tmp_path / "vuln_report.json").read_bytes()
        parsed = json.loads(raw)
        recoded = (json.dumps(parsed, sort_keys=True, separators=(",", ":"))
                   + "\n").encode()
        assert raw == recoded
        assert parsed["n_samples"] == 20

    def test_csvs_match_tables(self, tmp_path):
        dataset = generate_dataset(20, DIGITS, DistortionSpec(), seed=9)
        report = analyze(ConstantModel(DIGITS), dataset)
        emit_report(report, str(tmp_path))
        for name, table in [
            ("rotation_accuracy.csv", report.accuracy_by_rotation),
            ("gray_level_accuracy.csv", report.accuracy_by_gray_level),
            ("pepper_density_accuracy.csv", report.accuracy_by_pepper_density),
        ]:
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "bucket_lo,bucket_hi,count,correct,accuracy"
            assert len(lines) == len(table) + 1
            for line, bucket in zip(lines[1:], table):
                cells = line.split(",")
                assert int(cells[2]) == bucket["count"]
                assert float(cells[4]) == bucket["accuracy"]

    def test_rerun_is_byte_identical(self, tmp_path):
        dataset = generate_dataset(15, DIGITS, DistortionSpec(), seed=10)
        report = analyze(OracleModel(DIGITS), dataset)
        first = tmp_path / "a"
        second = tmp_path / "b"
        emit_report(report, str(first))
        emit_report(analyze(OracleModel(DIGITS), dataset), str(second))
        for name in ("vuln_report.json", "rotation_accuracy.csv",
                     "gray_level_accuracy.csv", "pepper_density_accuracy.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

import dataclasses
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from capnet.capgen import Charset, DistortionSpec, generate_dataset
from capnet.datapipe import encode_label
from capnet.errors import (
    ChecksumError,
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    ModelFormatError,
    TruncationError,
    UnsupportedVersionError,
    ValidationError,
)
from capnet.model import (
    CapNet,
    EpochRecord,
    History,
    Metrics,
    ModelConfig,
    TrainConfig,
    build_model,
    emit_history,
    evaluate,
    load_model,
    save_model,
    train,
)
from capnet.layers import ReLU
from capnet.optim import AdamOptimizer, SgdOptimizer, bce_loss
from capnet.tensor import Rng

TINY = ModelConfig(
    image_h=16,
    image_w=16,
    charset_size=3,
    conv_filters=(2, 2, 2, 2),
    dense_width=8,
    dropout_rate=0.0,
    precision="float64",
)
TINY_CHARSET = Charset("abc")

DESK = ModelConfig(
    conv_filters=(4, 4, 8, 8),
    dense_width=64,
    charset_size=10,
    dropout_rate=0.0,
)
DIGITS = Charset("0123456789")


def desk_dataset(n=10, seed=3):
    return generate_dataset(n, DIGITS, DistortionSpec(), seed=seed)


class FakeModel:
    """Deterministic stand-in emitting preset probabilities."""

    def __init__(self, charset, probs_fn):
        self.charset = charset
        self.probs_fn = probs_fn

    def predict_dataset(self, samples):
        return np.stack([self.probs_fn(s) for s in samples])


class TestModelConfig:
    def test_default_flat_width(self):
        assert ModelConfig().flat_width == 64 * 3 * 12 == 2304

    def test_desk_config_valid(self):
        assert DESK.flat_width == 8 * 3 * 12

    def test_dims_collapse_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_h=8, image_w=8)

    def test_stage_count(self):
        with pytest.raises(ConfigError):
            ModelConfig(conv_filters=(4, 4, 8))

    def test_field_ranges(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(dense_width=0)
        with pytest.raises(ConfigError):
            ModelConfig(charset_size=1)
        with pytest.raises(ConfigError):
            ModelConfig(precision="float16")

    @pytest.mark.parametrize("field,value", [
        ("dense_width", 10 ** 40),
        ("charset_size", 10 ** 40),
        ("image_w", 10 ** 40),
        ("conv_filters", (4, 4, 8, 10 ** 40)),
        ("conv_filters", (10 ** 10, 10 ** 10, 8, 8)),
    ])
    def test_unallocatable_weights_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ModelConfig(**{field: value})

    def test_dict_round_trip(self):
        assert ModelConfig.from_dict(DESK.to_dict()) == DESK

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"filters": [1, 2, 3, 4]})


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        a = build_model(TINY, TINY_CHARSET, Rng(5))
        b = build_model(TINY, TINY_CHARSET, Rng(5))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert_array_equal(pa.value, pb.value)

    def test_different_seeds_differ(self):
        a = build_model(TINY, TINY_CHARSET, Rng(5))
        b = build_model(TINY, TINY_CHARSET, Rng(6))
        assert not np.array_equal(a.parameters()[0].value, b.parameters()[0].value)

    def test_parameter_names_unique(self):
        names = [p.name for p in build_model(TINY, TINY_CHARSET, Rng(0)).parameters()]
        assert len(names) == len(set(names))

    def test_desk_heads_shape(self):
        m = build_model(DESK, DIGITS, Rng(1))
        heads = m.forward(np.zeros((2, 1, 50, 200)))
        assert len(heads) == 5
        assert all(h.shape == (2, 10) for h in heads)

    def test_charset_size_mismatch(self):
        with pytest.raises(ConfigError):
            CapNet(TINY, Charset("ab"), Rng(0))

    def test_biases_start_at_zero(self):
        m = build_model(TINY, TINY_CHARSET, Rng(2))
        for p in m.parameters():
            if p.name.endswith(".bias"):
                assert_array_equal(p.value, np.zeros_like(p.value))
            if p.name.endswith(".gamma"):
                assert_array_equal(p.value, np.ones_like(p.value))


class TestForward:
    def test_rows_sum_to_one(self):
        m = build_model(TINY, TINY_CHARSET, Rng(3))
        x = np.random.default_rng(0).random((4, 1, 16, 16))
        for head in m.forward(x):
            np.testing.assert_allclose(head.sum(axis=1), np.ones(4), atol=1e-6)

    def test_untrained_not_saturated(self):
        m = build_model(TINY, TINY_CHARSET, Rng(4))
        x = np.random.default_rng(1).random((8, 1, 16, 16))
        assert max(h.max() for h in m.forward(x)) < 0.99

    def test_infer_markov_free(self):
        # no dropout or batch statistics in inference: repeat runs agree
        m = build_model(DESK, DIGITS, Rng(5))
        x = np.random.default_rng(2).random((2, 1, 50, 200))
        a = m.forward(x)
        b = m.forward(x)
        for ha, hb in zip(a, b):
            assert_array_equal(ha, hb)

    def test_single_sample_training_rejected(self):
        m = build_model(TINY, TINY_CHARSET, Rng(6))
        with pytest.raises(DegenerateBatchError):
            m.forward(np.zeros((1, 1, 16, 16)), training=True)

    def test_shape_mismatch(self):
        m = build_model(TINY, TINY_CHARSET, Rng(7))
        with pytest.raises(DimensionError):
            m.forward(np.zeros((2, 1, 16, 20)))


class TestTraining:
    def test_empty_dataset_rejected(self):
        m = build_model(DESK, DIGITS, Rng(0))
        from capnet.capgen import Dataset

        empty = Dataset([], DIGITS, DistortionSpec(), 0)
        with pytest.raises(ValidationError):
            train(m, empty, TrainConfig(epochs=1))

    def test_zero_lr_epoch_changes_nothing(self):
        m = build_model(DESK, DIGITS, Rng(1))
        ds = desk_dataset()
        before = [p.value.copy() for p in m.parameters()]
        m.optimizer = SgdOptimizer(0.0)
        train(m, ds, TrainConfig(epochs=1, optimizer="sgd", seed=2))
        for p, old in zip(m.parameters(), before):
            assert_array_equal(p.value, old)

    def test_training_deterministic(self):
        ds = desk_dataset()
        cfg = TrainConfig(epochs=3, seed=11)
        runs = []
        for _ in range(2):
            m = build_model(DESK, DIGITS, Rng(7))
            train(m, ds, cfg)
            runs.append([p.value.copy() for p in m.parameters()])
        for pa, pb in zip(*runs):
            assert_array_equal(pa, pb)

    def test_loss_decreases(self):
        m = build_model(DESK, DIGITS, Rng(8))
        hist = train(m, desk_dataset(), TrainConfig(epochs=10, seed=1))
        assert hist.records[-1].train_loss < hist.records[0].train_loss

    def test_overfits_small_dataset(self):
        m = build_model(DESK, DIGITS, Rng(9))
        hist = train(m, desk_dataset(), TrainConfig(epochs=60, seed=2))
        assert any(r.train_full_acc == 1.0 for r in hist.records)

    def test_single_leftover_sample_dropped(self):
        m = build_model(DESK, DIGITS, Rng(10))
        ds = desk_dataset(3)
        hist = train(m, ds, TrainConfig(epochs=1, batch_size=2, shuffle=False))
        assert np.isfinite(hist.records[0].train_loss)

    def test_batch_of_one_total_rejected(self):
        m = build_model(DESK, DIGITS, Rng(11))
        with pytest.raises(DegenerateBatchError):
            train(m, desk_dataset(1), TrainConfig(epochs=1, batch_size=2))

    def test_sgd_optimizer_choice(self):
        m = build_model(DESK, DIGITS, Rng(12))
        hist = train(m, desk_dataset(), TrainConfig(epochs=2, optimizer="sgd", seed=3))
        assert len(hist) == 2

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="rmsprop")


class _WhereReLU(ReLU):
    """The ReLU kernel the layer used before fmax: np.where on the mask."""

    def forward(self, x, training=False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)


def _reference_step(model, x, y):
    """One Adam step with the where-ReLU and conv1's full backward, which
    also forms the gradient with respect to the input image."""
    heads = model.forward(x, training=True)
    grads = bce_loss(np.stack(heads), y).gradient
    model.zero_grad()
    dflat = None
    for head, dout in zip(model.heads, grads):
        d = dout
        for layer in reversed(head):
            d = layer.backward(d)
        dflat = d if dflat is None else dflat + d
    d = dflat
    for layer in reversed(model.trunk):
        d = layer.backward(d)
    assert d.shape == x.shape
    model.optimizer.step(model.parameters())


def _model_step(model, x, y):
    heads = model.forward(x, training=True)
    grads = bce_loss(np.stack(heads), y).gradient
    model.zero_grad()
    assert model.backward(list(grads)) is None
    model.optimizer.step(model.parameters())


class TestTrainingStepOracle:
    """Two Adam steps match a reference step bit for bit.

    Both sides run on the same BLAS in the same process, so the comparison
    holds on any machine.
    """

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_two_adam_steps_bit_identical(self, precision, dropout_rate):
        config = dataclasses.replace(TINY, precision=precision, dropout_rate=dropout_rate)
        rng = np.random.default_rng(5)
        x = (rng.integers(0, 256, size=(4, 1, 16, 16)) / 255.0).astype(config.dtype)
        y = np.zeros((5, 4, 3))
        y[np.arange(5)[:, None], np.arange(4), rng.integers(0, 3, size=(5, 4))] = 1.0
        models = []
        for _ in range(2):
            m = build_model(config, TINY_CHARSET, Rng(4))
            m.set_dropout_rng(Rng(6))
            m.optimizer = AdamOptimizer()
            models.append(m)
        ref, new = models
        for layers in [ref.trunk] + ref.heads:
            for i, layer in enumerate(layers):
                if isinstance(layer, ReLU):
                    layers[i] = _WhereReLU()
        for _ in range(2):
            _reference_step(ref, x, y)
            _model_step(new, x, y)
            for pr, pn in zip(ref.parameters(), new.parameters()):
                assert pn.grad.dtype == pr.grad.dtype == config.dtype
                assert pn.grad.tobytes() == pr.grad.tobytes(), pn.name
                assert pn.value.tobytes() == pr.value.tobytes(), pn.name
                sr, sn = ref.optimizer.states[pr.name], new.optimizer.states[pn.name]
                assert sn.m.tobytes() == sr.m.tobytes(), pn.name
                assert sn.v.tobytes() == sr.v.tobytes(), pn.name


class TestEvaluate:
    def test_metric_arithmetic_example(self):
        # two samples, second has exactly one wrong character
        cs = DIGITS
        ds = desk_dataset(2, seed=14)
        truth = [s.label for s in ds]
        wrong = truth[1][:4] + ("0" if truth[1][4] != "0" else "1")

        def probs_fn(sample):
            text = truth[0] if sample.label == truth[0] else wrong
            return encode_label(text, cs) * (1 - 36e-7) + 1e-7

        metrics = evaluate(FakeModel(cs, probs_fn), ds)
        assert metrics.char_accuracy == 0.9
        assert metrics.full_accuracy == 0.5

    def test_all_correct(self):
        cs = DIGITS
        ds = desk_dataset(4, seed=15)
        model = FakeModel(cs, lambda s: encode_label(s.label, cs))
        metrics = evaluate(model, ds)
        assert metrics.char_accuracy == 1.0
        assert metrics.full_accuracy == 1.0
        assert metrics.per_position_accuracy == (1.0,) * 5

    def test_full_bounded_by_min_position(self):
        cs = DIGITS
        ds = desk_dataset(30, seed=16)
        rng = np.random.default_rng(5)

        def noisy(sample):
            enc = encode_label(sample.label, cs)
            flip = rng.random(5) < 0.3
            for pos in np.where(flip)[0]:
                enc[pos] = 0.0
                enc[pos, rng.integers(0, 10)] = 1.0
            return enc

        metrics = evaluate(FakeModel(cs, noisy), ds)
        assert metrics.full_accuracy <= min(metrics.per_position_accuracy)
        assert min(metrics.per_position_accuracy) <= metrics.char_accuracy
        assert metrics.char_accuracy <= max(metrics.per_position_accuracy)

    def test_untrained_model_near_chance(self):
        m = build_model(DESK, DIGITS, Rng(17))
        ds = desk_dataset(100, seed=18)
        metrics = evaluate(m, ds)
        n = 500
        p = 0.1
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(metrics.char_accuracy - p) < 3 * sigma

    def test_empty_dataset(self):
        m = build_model(DESK, DIGITS, Rng(0))
        from capnet.capgen import Dataset

        with pytest.raises(ValidationError):
            evaluate(m, Dataset([], DIGITS, DistortionSpec(), 0))

    def test_charset_mismatch_names_both(self):
        m = build_model(DESK, DIGITS, Rng(0))
        ds = generate_dataset(2, Charset("01234"), DistortionSpec(), seed=1)
        with pytest.raises(ValidationError, match="0123456789"):
            evaluate(m, ds)


class TestSaveLoad:
    def make_trained(self):
        m = build_model(DESK, DIGITS, Rng(20))
        train(m, desk_dataset(), TrainConfig(epochs=2, seed=4))
        return m

    def test_round_trip_bit_exact(self, tmp_path):
        m = self.make_trained()
        path = str(tmp_path / "m.capn")
        save_model(m, path)
        back = load_model(path)
        for pa, pb in zip(m.parameters(), back.parameters()):
            assert pa.name == pb.name
            assert_array_equal(pa.value, pb.value)
        for ba, bb in zip(m._batchnorms, back._batchnorms):
            assert_array_equal(ba.running_mean, bb.running_mean)
            assert_array_equal(ba.running_var, bb.running_var)
        ds = desk_dataset(5, seed=22)
        assert evaluate(m, ds) == evaluate(back, ds)

    def test_truncation(self, tmp_path):
        m = self.make_trained()
        path = str(tmp_path / "m.capn")
        save_model(m, path)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:-1])
        with pytest.raises(TruncationError):
            load_model(path)

    def test_version_bump(self, tmp_path):
        m = self.make_trained()
        path = str(tmp_path / "m.capn")
        save_model(m, path)
        with open(path, "r+b") as f:
            f.seek(4)
            f.write(b"\x02\x00\x00\x00")
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_corruption(self, tmp_path):
        m = self.make_trained()
        path = str(tmp_path / "m.capn")
        save_model(m, path)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(size // 2)
            byte = f.read(1)
            f.seek(size // 2)
            f.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises((ChecksumError, ModelFormatError)):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "m.capn")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestEmitHistory:
    def make_history(self, epochs=3):
        return History([
            EpochRecord(e, 0.5 / e, 0.6 / e, 0.8, 0.7, 0.5, 0.4, 12.5)
            for e in range(1, epochs + 1)
        ])

    def test_csv_rows(self, tmp_path):
        emit_history(self.make_history(1), str(tmp_path))
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,test_loss,train_char_acc,"
                            "test_char_acc,train_full_acc,test_full_acc,ms")
        assert len(lines) == 2

    def test_row_count_matches_epochs(self, tmp_path):
        emit_history(self.make_history(7), str(tmp_path))
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert len(lines) == 8

    def test_svgs_are_well_formed_xml(self, tmp_path):
        emit_history(self.make_history(5), str(tmp_path))
        for name in ("accuracy.svg", "loss.svg"):
            root = ET.parse(tmp_path / name).getroot()
            assert root.tag.endswith("svg")

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_history(History([]), str(tmp_path))

    def test_nan_test_columns_tolerated(self, tmp_path):
        hist = History([EpochRecord(1, 0.5, float("nan"), 0.8, float("nan"),
                                    0.5, float("nan"), 3.0)])
        emit_history(hist, str(tmp_path))
        assert "nan" in (tmp_path / "history.csv").read_text()

import json
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from capnet.capgen import Charset, DistortionSpec, generate_dataset
from capnet.datapipe import (
    encode_label,
    load_dataset,
    normalize,
    read_pgm,
    save_dataset,
    write_pgm,
)
from capnet.errors import (
    EncodingError,
    IntegrityError,
    ManifestError,
    MissingFileError,
    ValidationError,
)
from capnet.model import ModelConfig, _dataset_arrays, build_model
from capnet.tensor import Rng


class TestNormalize:
    def test_endpoints(self):
        img = np.array([[0, 255]], dtype=np.uint8)
        out = normalize(img)
        assert out.shape == (1, 1, 2)
        assert out[0, 0, 0] == 0.0
        assert out[0, 0, 1] == 1.0

    def test_fifth(self):
        assert normalize(np.array([[51]], dtype=np.uint8))[0, 0, 0] == 0.2

    def test_byte_round_trip(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = normalize(img)[0]
        assert_array_equal(np.floor(out * 255 + 0.5).astype(np.uint8), img)

    def test_monotone(self):
        out = normalize(np.arange(256, dtype=np.uint8).reshape(1, 256))[0, 0]
        assert np.all(np.diff(out) > 0)

    def test_float32_is_rounded_float64(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = normalize(img, np.float32)
        assert out.dtype == np.float32
        assert out.tobytes() == normalize(img).astype(np.float32).tobytes()

    def test_batch_gets_channel_axis(self):
        batch = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        out = normalize(batch)
        assert out.shape == (2, 1, 3, 4)
        assert out.tobytes() == np.stack([normalize(img) for img in batch]).tobytes()

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_model_inputs_match_per_sample_path(self, precision):
        # 70 samples: predict_dataset runs a full and a partial batch
        ds = generate_dataset(70, Charset("abc"), DistortionSpec(), seed=8)
        config = ModelConfig(charset_size=3, conv_filters=(2, 2, 2, 2), dense_width=4,
                             dropout_rate=0.0, precision=precision)
        model = build_model(config, Charset("abc"), Rng(0))
        want = np.stack([normalize(s.image) for s in ds]).astype(config.dtype)
        x, _ = _dataset_arrays(model, ds)
        assert x.dtype == config.dtype
        assert x.tobytes() == want.tobytes()
        batches = []
        forward = model.forward
        model.forward = lambda batch, training=False: (batches.append(batch), forward(batch))[1]
        model.predict_dataset(ds.samples)
        assert [b.dtype for b in batches] == [config.dtype] * 2
        assert np.concatenate(batches).tobytes() == want.tobytes()


class TestEncodeLabel:
    def test_all_zero_symbol(self):
        enc = encode_label("00000", Charset())
        assert enc.shape == (5, 36)
        assert_array_equal(enc[:, 0], np.ones(5))
        assert enc.sum() == 5

    def test_alternating(self):
        enc = encode_label("0a0a0", Charset())
        assert_array_equal(enc.argmax(axis=1), [0, 10, 0, 10, 0])

    def test_rows_one_hot(self):
        enc = encode_label("3a8b9", Charset())
        assert_array_equal(enc.sum(axis=1), np.ones(5))
        assert set(np.unique(enc)) <= {0.0, 1.0}

    def test_unknown_symbol_names_position(self):
        with pytest.raises(EncodingError, match="position 2"):
            encode_label("ab!de", Charset())

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            encode_label("abc", Charset())


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = np.random.default_rng(5).integers(0, 256, size=(50, 200)).astype(np.uint8)
        p = str(tmp_path / "x.pgm")
        write_pgm(p, img)
        assert_array_equal(read_pgm(p), img)

    def test_header_bytes(self, tmp_path):
        p = str(tmp_path / "x.pgm")
        write_pgm(p, np.zeros((2, 3), dtype=np.uint8))
        with open(p, "rb") as f:
            assert f.read() == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_comment_tolerated(self, tmp_path):
        p = str(tmp_path / "c.pgm")
        with open(p, "wb") as f:
            f.write(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        assert_array_equal(read_pgm(p), [[1, 2], [3, 4]])

    def test_truncated_payload(self, tmp_path):
        p = str(tmp_path / "t.pgm")
        with open(p, "wb") as f:
            f.write(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(IntegrityError):
            read_pgm(p)

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "b.pgm")
        with open(p, "wb") as f:
            f.write(b"P6\n1 1\n255\n\x00")
        with pytest.raises(IntegrityError):
            read_pgm(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            read_pgm(str(tmp_path / "nope.pgm"))


class TestDatasetRoundTrip:
    def make(self, n=10, seed=8):
        return generate_dataset(n, Charset(), DistortionSpec(), seed=seed)

    def test_bit_exact_round_trip(self, tmp_path):
        ds = self.make()
        save_dataset(ds, str(tmp_path / "d"))
        back = load_dataset(str(tmp_path / "d"))
        assert len(back) == len(ds)
        assert back.charset == ds.charset
        assert back.spec == ds.spec
        assert back.seed == ds.seed
        for a, b in zip(ds, back):
            assert a.label == b.label
            assert_array_equal(a.image, b.image)
            assert a.meta.rotations == b.meta.rotations
            assert a.meta.pepper_density == b.meta.pepper_density
            assert a.meta.gray_level == b.meta.gray_level

    def test_manifest_header(self, tmp_path):
        save_dataset(self.make(2), str(tmp_path / "d"))
        with open(tmp_path / "d" / "manifest.csv", encoding="utf-8") as f:
            assert f.readline().rstrip("\n") == (
                "id,label,file,rot1,rot2,rot3,rot4,rot5,pepper_density,gray_level"
            )

    def test_missing_image_names_id(self, tmp_path):
        save_dataset(self.make(3), str(tmp_path / "d"))
        os.remove(tmp_path / "d" / "00001.pgm")
        with pytest.raises(MissingFileError, match="1"):
            load_dataset(str(tmp_path / "d"))

    def test_label_outside_charset(self, tmp_path):
        save_dataset(self.make(2), str(tmp_path / "d"))
        sidecar_path = tmp_path / "d" / "dataset.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["charset"] = "01"
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValidationError):
            load_dataset(str(tmp_path / "d"))

    def test_malformed_manifest(self, tmp_path):
        save_dataset(self.make(2), str(tmp_path / "d"))
        manifest = tmp_path / "d" / "manifest.csv"
        manifest.write_text("id,label\n0,abcde\n")
        with pytest.raises(ManifestError):
            load_dataset(str(tmp_path / "d"))

    def test_corrupt_image_size(self, tmp_path):
        save_dataset(self.make(2), str(tmp_path / "d"))
        write_pgm(str(tmp_path / "d" / "00000.pgm"), np.zeros((10, 10), dtype=np.uint8))
        with pytest.raises(IntegrityError):
            load_dataset(str(tmp_path / "d"))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(str(tmp_path))

    def test_save_is_deterministic(self, tmp_path):
        ds = self.make(4, seed=21)
        save_dataset(ds, str(tmp_path / "a"))
        save_dataset(ds, str(tmp_path / "b"))
        for name in sorted(os.listdir(tmp_path / "a")):
            with open(tmp_path / "a" / name, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read(), name

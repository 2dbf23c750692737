import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from capnet import capgen
from capnet.capgen import (
    BACKGROUND,
    CANVAS,
    DEFAULT_SYMBOLS,
    GLYPH_SCALE,
    IMAGE_H,
    IMAGE_W,
    NOISE_MEAN,
    SLOT_W,
    WAVE_LEN,
    Charset,
    DistortionSpec,
    SampleMeta,
    generate_dataset,
    render_captcha,
    sample_text,
)
from capnet.errors import CapacityError, ParameterError, RenderError, ValidationError
from capnet.glyphs import FONT_5X7, build_atlas
from capnet.tensor import Rng

# frozen on first implementation run; guard against silent renderer drift
GOLDEN_TEXT_SEED42 = "x355e"
GOLDEN_RENDER_CRC32 = 3504349125

# SHA-256 of 200-sample default-charset sets at edge specs, taken from the
# one-glyph-at-a-time renderer that the oracle below copies
GOLDEN_EDGE_SETS = {
    # the fifth glyph is cut at the right edge (x = 160..208 on a 200 canvas)
    "overlap_0": (DistortionSpec(overlap_px=0), 11,
                  "393d7687711d4c53cd9892c3a92b3d09f38e5d324723658b94cd1100e3a418cf"),
    "rotation_180_warp_20": (DistortionSpec(rotation_max_deg=180.0, warp_amplitude=20.0), 12,
                             "ca6ced79a608a95fb18d858efb198804b981770164d91b28da3c4b943afb9291"),
    "overlap_30": (DistortionSpec(overlap_px=30), 13,
                   "6d00cfc511b2b1327a89d12d3d93bd334c305af17c5094d7774c7ecb6dbe9b45"),
}

ZERO_SPEC = DistortionSpec(
    rotation_max_deg=0.0,
    warp_amplitude=0.0,
    pepper_density=0.0,
    noise_sigma=0.0,
    overlap_px=0,
)


class TestCharset:
    def test_default_is_36_symbols(self):
        cs = Charset()
        assert len(cs) == 36
        assert cs.symbols == "0123456789abcdefghijklmnopqrstuvwxyz"

    def test_index_is_list_position(self):
        cs = Charset()
        assert cs.index("0") == 0
        assert cs.index("a") == 10
        assert cs.index("z") == 35

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            Charset("abca")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Charset("")

    def test_contains(self):
        assert "7" in Charset()
        assert "A" not in Charset()


class TestDistortionSpec:
    def test_field_ranges(self):
        with pytest.raises(ParameterError):
            DistortionSpec(rotation_max_deg=-1)
        with pytest.raises(ParameterError):
            DistortionSpec(warp_amplitude=-0.5)
        with pytest.raises(ParameterError):
            DistortionSpec(pepper_density=1.0)
        with pytest.raises(ParameterError):
            DistortionSpec(noise_sigma=-2)
        with pytest.raises(ParameterError):
            DistortionSpec(text_gray_level=300)
        with pytest.raises(ParameterError):
            DistortionSpec(overlap_px=-1)
        with pytest.raises(ParameterError):
            DistortionSpec(overlap_px=SLOT_W)
        with pytest.raises(ParameterError):
            DistortionSpec(rotation_max_deg=180.5)

    def test_dict_round_trip(self):
        spec = DistortionSpec(rotation_max_deg=10, pepper_density=0.12)
        assert DistortionSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            DistortionSpec.from_dict({"rotation": 5})


class TestGlyphAtlas:
    def test_covers_default_charset(self):
        atlas = build_atlas(Charset().symbols)
        assert set(atlas) == set("0123456789abcdefghijklmnopqrstuvwxyz")

    def test_bitmaps_non_empty(self):
        for sym, design in build_atlas(Charset().symbols).items():
            assert design.shape == (32, 24)
            assert design.sum() > 0, sym

    def test_patterns_are_5x7(self):
        for sym, rows in FONT_5X7.items():
            assert len(rows) == 7, sym
            assert all(len(r) == 5 for r in rows), sym


class TestSampleText:
    def test_single_symbol_charset_forced(self):
        assert sample_text(Charset("a"), 5, Rng(0)) == "aaaaa"

    def test_golden_seed42(self):
        assert sample_text(Charset(), 5, Rng(42)) == GOLDEN_TEXT_SEED42

    def test_length_validated(self):
        with pytest.raises(ValidationError):
            sample_text(Charset(), 0, Rng(0))

    def test_uniform_frequencies(self):
        cs = Charset()
        rng = Rng(123)
        n_draws = 20_000
        counts = {s: 0 for s in cs.symbols}
        for _ in range(n_draws):
            for ch in sample_text(cs, 5, rng):
                counts[ch] += 1
        n = n_draws * 5
        p = 1.0 / 36.0
        sigma = (n * p * (1 - p)) ** 0.5
        for sym, c in counts.items():
            assert abs(c - n * p) < 3 * sigma, (sym, c)


class TestRenderCaptcha:
    def test_dims_and_dtype(self):
        s = render_captcha("3a8b9", DistortionSpec(), Rng(1))
        assert s.image.shape == (50, 200)
        assert s.image.dtype == np.uint8

    def test_zero_spec_deterministic_and_clean(self):
        a = render_captcha("hello", ZERO_SPEC, Rng(3))
        b = render_captcha("hello", ZERO_SPEC, Rng(3))
        assert_array_equal(a.image, b.image)
        # no noise: background stays at its nominal level
        assert a.image[0, 0] == 235
        assert (a.image == 235).mean() > 0.5
        assert a.meta.rotations == (0.0,) * 5
        assert a.meta.pepper_density == 0.0

    def test_same_seed_bit_identical(self):
        a = render_captcha("3a8b9", DistortionSpec(), Rng(7))
        b = render_captcha("3a8b9", DistortionSpec(), Rng(7))
        assert_array_equal(a.image, b.image)
        assert a.meta == b.meta

    def test_golden_checksum(self):
        s = render_captcha("3a8b9", DistortionSpec(), Rng(7))
        assert zlib.crc32(s.image.tobytes()) == GOLDEN_RENDER_CRC32

    def test_pepper_fraction_on_blank_render(self):
        # invisible text: glyph level equals the background level
        spec = DistortionSpec(pepper_density=0.1, text_gray_level=235)
        s = render_captcha("3a8b9", spec, Rng(11))
        frac = float((s.image != 235).mean())
        assert abs(frac - 0.1) < 0.01

    def test_rotations_within_bounds_and_recorded(self):
        spec = DistortionSpec(rotation_max_deg=15.0)
        s = render_captcha("abcde", spec, Rng(5))
        assert len(s.meta.rotations) == 5
        assert all(abs(r) <= 15.0 for r in s.meta.rotations)

    def test_unknown_symbol(self):
        with pytest.raises(RenderError):
            render_captcha("ABCDE", DistortionSpec(), Rng(0))

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            render_captcha("abc", DistortionSpec(), Rng(0))

    def test_gray_level_reaches_text_value(self):
        s = render_captcha("88888", ZERO_SPEC, Rng(0))
        assert s.image.min() == 60
        assert s.meta.gray_level == 60


class TestGenerateDataset:
    def test_empty(self):
        ds = generate_dataset(0, Charset(), DistortionSpec(), seed=1)
        assert len(ds) == 0

    def test_labels_distinct_and_regeneration_identical(self):
        a = generate_dataset(1000, Charset(), DistortionSpec(), seed=9)
        labels = [s.label for s in a]
        assert len(set(labels)) == 1000
        b = generate_dataset(1000, Charset(), DistortionSpec(), seed=9)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            assert_array_equal(sa.image, sb.image)
            assert sa.meta == sb.meta

    def test_different_seeds_differ(self):
        a = generate_dataset(20, Charset(), DistortionSpec(), seed=1)
        b = generate_dataset(20, Charset(), DistortionSpec(), seed=2)
        assert sorted(s.label for s in a) != sorted(s.label for s in b)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            generate_dataset(33, Charset("01"), DistortionSpec(), seed=0)

    def test_exhaustive_small_charset(self):
        # exactly K^5 samples forces every label to appear once
        ds = generate_dataset(32, Charset("01"), DistortionSpec(), seed=3)
        assert len({s.label for s in ds}) == 32

    def test_thread_count_does_not_change_output(self):
        a = generate_dataset(24, Charset(), DistortionSpec(), seed=4, threads=1)
        b = generate_dataset(24, Charset(), DistortionSpec(), seed=4, threads=4)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            assert_array_equal(sa.image, sb.image)

    def test_negative_count(self):
        with pytest.raises(ValidationError):
            generate_dataset(-1, Charset(), DistortionSpec(), seed=0)


def _dataset_sha256(dataset) -> str:
    h = hashlib.sha256()
    for s in dataset:
        h.update(s.label.encode())
        h.update(s.image.tobytes())
        meta = s.meta
        h.update(np.array([*meta.rotations, meta.pepper_density, meta.gray_level]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_EDGE_SETS))
def test_edge_spec_sets_match_golden(name):
    spec, seed, digest = GOLDEN_EDGE_SETS[name]
    assert _dataset_sha256(generate_dataset(200, Charset(), spec, seed=seed)) == digest


def test_each_design_is_built_at_most_once(monkeypatch):
    built = []

    def counting_build_atlas(symbols):
        built.extend(symbols)
        return build_atlas(symbols)

    monkeypatch.setattr(capgen, "_DESIGNS", {}, raising=False)
    monkeypatch.setattr(capgen, "build_atlas", counting_build_atlas)
    dataset = generate_dataset(100, Charset(), DistortionSpec(), seed=6)
    used = {ch for s in dataset for ch in s.label}
    assert sorted(built) == sorted(used)


# -- oracle: the renderer as it was, one glyph and four masked gathers at a time


def _reference_gather(img, ys, xs):
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


def _reference_rotated_glyph(design, rotation_deg):
    theta = np.deg2rad(rotation_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    ys, xs = np.mgrid[0:CANVAS, 0:CANVAS].astype(np.float64)
    dy = ys - (CANVAS - 1) / 2.0
    dx = xs - (CANVAS - 1) / 2.0
    rx = (cos_t * dx + sin_t * dy) / GLYPH_SCALE
    ry = (-sin_t * dx + cos_t * dy) / GLYPH_SCALE
    u = rx + (design.shape[1] - 1) / 2.0
    v = ry + (design.shape[0] - 1) / 2.0
    return _reference_gather(design, v, u)


def _reference_ink(text, spec, rotations, phase):
    atlas = build_atlas(text)
    overlap = int(spec.overlap_px)
    top = (IMAGE_H - CANVAS) // 2
    ink = np.zeros((IMAGE_H, IMAGE_W))
    rows = np.arange(IMAGE_H, dtype=np.float64)[:, None]
    for i, sym in enumerate(text):
        glyph = _reference_rotated_glyph(atlas[sym], float(rotations[i]))
        x_pos = 2 * overlap + i * (SLOT_W - overlap)
        cols = np.arange(CANVAS)
        shift = spec.warp_amplitude * np.sin(2.0 * np.pi * (x_pos + cols) / WAVE_LEN + phase)
        src_rows = rows - top - shift[None, :]
        src_cols = np.broadcast_to(cols.astype(np.float64), (IMAGE_H, CANVAS))
        layer = _reference_gather(glyph, src_rows, src_cols)
        region = ink[:, x_pos:x_pos + CANVAS]
        np.maximum(region, layer[:, : region.shape[1]], out=region)
    return ink


def _reference_render(text, spec, rng):
    """(image, meta, ink) as the one-glyph-at-a-time renderer made them."""
    rotations = rng.split(0).uniform(-spec.rotation_max_deg, spec.rotation_max_deg, size=5)
    phase = float(rng.split(1).uniform(0.0, 2.0 * np.pi))
    noise_stream = rng.split(2)
    ink = _reference_ink(text, spec, rotations, phase)
    image = BACKGROUND - ink * (BACKGROUND - int(spec.text_gray_level))
    mask = noise_stream.random((IMAGE_H, IMAGE_W)) < spec.pepper_density
    values = np.clip(np.floor(noise_stream.normal(NOISE_MEAN, spec.noise_sigma,
                                                  size=(IMAGE_H, IMAGE_W)) + 0.5), 0, 255)
    image = np.floor(image + 0.5)
    image[mask] = values[mask]
    meta = SampleMeta(tuple(float(r) for r in rotations), float(mask.sum()) / mask.size,
                      int(spec.text_gray_level))
    return image.astype(np.uint8), meta, ink, phase


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    text=st.text(alphabet=DEFAULT_SYMBOLS, min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    spec=st.builds(
        DistortionSpec,
        rotation_max_deg=st.floats(0.0, 180.0),
        warp_amplitude=st.floats(0.0, 20.0),
        overlap_px=st.integers(0, 30),
        pepper_density=st.floats(0.0, 0.99),
        text_gray_level=st.integers(0, 255),
    ),
)
def test_render_matches_one_glyph_at_a_time_oracle(text, seed, spec):
    sample = render_captcha(text, spec, Rng(seed))
    image, meta, ink, phase = _reference_render(text, spec, Rng(seed))
    assert sample.image.tobytes() == image.tobytes()
    assert sample.meta == meta
    # the float ink too: a change in summation order rarely moves a rounded byte
    rotations = np.array(meta.rotations)
    assert capgen._ink(capgen._designs(text), rotations, phase, spec).tobytes() == ink.tobytes()

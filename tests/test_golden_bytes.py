"""Frozen SHA-256 of the files capnet writes, so refactors cannot move a byte.

The hashes were taken from the v1 writers before the record types' field
lists were derived from their dataclasses. The untrained model's parameters
come from the seeded init streams alone, with no BLAS call, so its bytes do
not depend on the linear-algebra library.
"""

import hashlib

import pytest

from capnet.capgen import Charset, DistortionSpec, generate_dataset
from capnet.datapipe import save_dataset
from capnet.model import ModelConfig, build_model, save_model
from capnet.tensor import Rng
from capnet.vulnscan import OracleModel, analyze, emit_report

TINY = ModelConfig(image_h=16, image_w=16, charset_size=3, conv_filters=(2, 2, 2, 2),
                   dense_width=8, dropout_rate=0.0, precision="float64")
SPEC = DistortionSpec(rotation_max_deg=15.0, pepper_density=0.03, overlap_px=4)

GOLDEN = {
    "model.capn": "9d723e0474d95137f834746cdb070d648758c003d4d4e30455b8edcc338952f1",
    "data/dataset.json": "d9d7e40d96646c92bf077172ece8924722a8605b781824ff3488966fb5d3b185",
    "data/manifest.csv": "1d44911aba02e591f5ff378ecda14d82f9c5ae67b20d577df31ce152c45b14bf",
    "report/vuln_report.json": "9bd001fe2e93d876a64728d091d113d3aef7ebc443f089e9645dd9b4a835daf4",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    save_model(build_model(TINY, Charset("abc"), Rng(0)), str(root / "model.capn"))
    dataset = generate_dataset(6, Charset("0123456789"), SPEC, seed=42)
    save_dataset(dataset, str(root / "data"))
    emit_report(analyze(OracleModel(dataset.charset), dataset), str(root / "report"))
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_written_bytes_match_golden(written, name):
    assert hashlib.sha256((written / name).read_bytes()).hexdigest() == GOLDEN[name]

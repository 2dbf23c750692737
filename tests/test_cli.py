import json
import shutil
import struct
import subprocess
import sys
import zlib

import pytest

from capnet.capgen import Charset
from capnet.cli import entry
from capnet.model import ModelConfig, build_model, save_model
from capnet.tensor import Rng

DIGIT_CONFIG = {
    "charset": "0123456789",
    "model": {"conv_filters": [4, 4, 8, 8], "dense_width": 64,
              "dropout_rate": 0.0},
    "train": {"epochs": 80, "batch_size": 10},
    "distortion": {"rotation_max_deg": 10.0},
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CAPNET_SEED", raising=False)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DIGIT_CONFIG))
    return str(path)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {**DIGIT_CONFIG, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestGenerate:
    def test_writes_pgms_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "data"
        code = entry(["generate", "--count", "10", "--seed", "1",
                      "--config", config_path, "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("*.pgm"))) == 10
        assert (out / "manifest.csv").exists()

    def test_rerun_is_bit_identical(self, tmp_path, config_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert entry(["generate", "--count", "10", "--seed", "1",
                          "--config", config_path, "--out", str(out)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_capacity_exceeded_fails(self, tmp_path):
        cfg = write_config(tmp_path, charset="ab")
        code = entry(["generate", "--count", "100", "--seed", "1",
                      "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == 1

    def test_env_seed_is_default(self, tmp_path, config_path, monkeypatch):
        flagged = tmp_path / "flagged"
        entry(["generate", "--count", "6", "--seed", "9",
               "--config", config_path, "--out", str(flagged)])
        monkeypatch.setenv("CAPNET_SEED", "9")
        env_run = tmp_path / "env_run"
        entry(["generate", "--count", "6",
               "--config", config_path, "--out", str(env_run)])
        assert tree_bytes(flagged) == tree_bytes(env_run)

    def test_unknown_config_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"charset": "ab", "renderer": {}}))
        code = entry(["generate", "--count", "2", "--config", str(path),
                      "--out", str(tmp_path / "d")])
        assert code == 1

    def test_missing_required_flag_exits_1(self, tmp_path, capsys):
        assert entry(["generate", "--count", "5"]) == 1
        assert "required" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small end-to-end train run shared by the eval/analyze tests."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(DIGIT_CONFIG))
    data = root / "data"
    assert entry(["generate", "--count", "10", "--seed", "1",
                  "--config", str(cfg), "--out", str(data)]) == 0
    model = root / "run" / "model.capn"
    assert entry(["train", "--data", str(data), "--test-data", str(data),
                  "--config", str(cfg), "--model-out", str(model),
                  "--seed", "0"]) == 0
    return {"root": root, "cfg": cfg, "data": data, "model": model}


class TestTrain:
    def test_overfit_run_writes_artifacts(self, trained):
        run_dir = trained["root"] / "run"
        assert trained["model"].exists()
        history = (run_dir / "history.csv").read_text().splitlines()
        assert len(history) == DIGIT_CONFIG["train"]["epochs"] + 1
        final = history[-1].split(",")
        assert float(final[5]) == 1.0  # train_full_acc column
        assert (run_dir / "accuracy.svg").exists()
        assert (run_dir / "loss.svg").exists()

    def test_single_epoch_history_row(self, tmp_path, trained):
        cfg = write_config(tmp_path, train={"epochs": 1, "batch_size": 10})
        model = tmp_path / "m.capn"
        code = entry(["train", "--data", str(trained["data"]),
                      "--config", cfg, "--model-out", str(model),
                      "--history-out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_missing_data_path_exits_2(self, tmp_path):
        code = entry(["train", "--data", str(tmp_path / "nope"),
                      "--model-out", str(tmp_path / "m.capn")])
        assert code == 2

    def test_charset_size_conflict_rejected(self, tmp_path, trained):
        cfg = write_config(tmp_path, model={"charset_size": 36})
        code = entry(["train", "--data", str(trained["data"]),
                      "--config", cfg, "--model-out", str(tmp_path / "m")])
        assert code == 1

    def test_unknown_train_key_rejected(self, tmp_path, trained):
        cfg = write_config(tmp_path, train={"epochs": 1, "momentum": 0.9})
        code = entry(["train", "--data", str(trained["data"]),
                      "--config", cfg, "--model-out", str(tmp_path / "m")])
        assert code == 1


class TestEval:
    def test_eval_matches_trainer_report(self, trained, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = entry(["eval", "--model", str(trained["model"]),
                      "--data", str(trained["data"]),
                      "--metrics-out", str(metrics_path)])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        history = (trained["root"] / "run" / "history.csv").read_text()
        final = history.splitlines()[-1].split(",")
        # evaluating the saved model reproduces the trainer's final test
        # metrics exactly (columns: test_loss 2, test_char 4, test_full 6)
        assert metrics["mean_loss"] == float(final[2])
        assert metrics["char_accuracy"] == float(final[4])
        assert metrics["full_accuracy"] == float(final[6])
        assert len(metrics["per_position_accuracy"]) == 5

    def test_oracle_scores_perfectly(self, trained, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = entry(["eval", "--oracle", "--data", str(trained["data"]),
                      "--metrics-out", str(metrics_path)])
        assert code == 0
        assert json.loads(metrics_path.read_text())["full_accuracy"] == 1.0

    def test_charset_mismatch_names_both(self, trained, tmp_path, capsys):
        cfg = write_config(tmp_path, charset="abcdef",
                           train={"epochs": 1, "batch_size": 4},
                           model={"conv_filters": [2, 2, 2, 2],
                                  "dense_width": 8, "dropout_rate": 0.0})
        letters = tmp_path / "letters"
        entry(["generate", "--count", "6", "--seed", "3",
               "--config", cfg, "--out", str(letters)])
        code = entry(["eval", "--model", str(trained["model"]),
                      "--data", str(letters),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "abcdef" in err and "0123456789" in err

    def test_requires_model_or_oracle(self, trained, tmp_path):
        code = entry(["eval", "--data", str(trained["data"]),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 1


def _flip_tensor_name(data):
    at = data.index(b"conv1.weights")
    return data[:at] + b"\xff" + data[at + 1:]


class TestCorruptInputs:
    """A damaged model file or dataset.json exits 2, never with a traceback."""

    @pytest.mark.parametrize("fix_crc", [False, True], ids=["stale_crc", "fixed_crc"])
    @pytest.mark.parametrize("flip", [
        lambda data: data.replace(b'"dense_width":8', b'"dense_width":0', 1),
        _flip_tensor_name,
    ], ids=["dense_width_0", "tensor_name_0xff"])
    def test_corrupt_model_exits_2(self, trained, tmp_path, flip, fix_crc):
        config = ModelConfig(image_h=16, image_w=16, charset_size=3,
                             conv_filters=(2, 2, 2, 2), dense_width=8)
        path = tmp_path / "m.capn"
        save_model(build_model(config, Charset("abc"), Rng(0)), str(path))
        data = flip(path.read_bytes())
        if fix_crc:
            data = data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))
        path.write_bytes(data)
        code = entry(["eval", "--model", str(path), "--data", str(trained["data"]),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("mangle", [
        lambda sidecar: {**sidecar, "spec": []},
        lambda sidecar: {**sidecar, "charset": 5},
        lambda sidecar: {**sidecar, "spec": {"overlap_px": "x"}},
        lambda sidecar: [sidecar],
    ], ids=["spec_list", "charset_int", "overlap_px_str", "top_level_list"])
    def test_malformed_sidecar_exits_2(self, trained, tmp_path, mangle):
        data = tmp_path / "data"
        shutil.copytree(trained["data"], data)
        sidecar = json.loads((data / "dataset.json").read_text())
        (data / "dataset.json").write_text(json.dumps(mangle(sidecar)))
        code = entry(["eval", "--oracle", "--data", str(data),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2


class TestAnalyze:
    def test_oracle_confusion_is_diagonal(self, trained, tmp_path):
        report_dir = tmp_path / "report"
        code = entry(["analyze", "--oracle", "--data", str(trained["data"]),
                      "--report-dir", str(report_dir)])
        assert code == 0
        report = json.loads((report_dir / "vuln_report.json").read_text())
        for true_sym, row in report["confusion_counts"].items():
            assert list(row) == [true_sym]

    def test_rerun_is_byte_identical(self, trained, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for report_dir in (a, b):
            code = entry(["analyze", "--model", str(trained["model"]),
                          "--data", str(trained["data"]),
                          "--report-dir", str(report_dir)])
            assert code == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_unwritable_report_dir_exits_2(self, trained, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = entry(["analyze", "--oracle", "--data", str(trained["data"]),
                      "--report-dir", str(blocker)])
        assert code == 2


class TestGradcheck:
    def test_passes_and_prints_layers(self, capsys):
        assert entry(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for name in ("conv2d", "batchnorm", "softmax", "model"):
            assert name in out
        assert "pass" in out


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path, config_path):
        out = tmp_path / "data"
        proc = subprocess.run(
            [sys.executable, "-m", "capnet.cli", "generate", "--count", "3",
             "--seed", "5", "--config", config_path, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "wrote 3 samples" in proc.stdout

    def test_help_exits_zero(self):
        assert entry(["--help"]) == 0

    def test_invalid_json_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = entry(["generate", "--count", "2", "--config", str(bad),
                      "--out", str(tmp_path / "d")])
        assert code == 1

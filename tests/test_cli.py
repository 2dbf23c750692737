import json
import shutil
import struct
import subprocess
import sys
import zlib
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.capgen import Charset, DistortionSpec
from capnet.cli import entry
from capnet.errors import CapnetError
from capnet.model import ModelConfig, build_model, save_model
from capnet.tensor import Rng

NAN = float("nan")
INF = float("inf")

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

    def test_test_data_charset_mismatch_exits_1(self, tmp_path, trained, capsys):
        reversed_digits = tmp_path / "reversed"
        assert entry(["generate", "--count", "4", "--seed", "2", "--out", str(reversed_digits),
                      "--config", write_config(tmp_path, charset="9876543210")]) == 0
        cfg = write_config(tmp_path, "train.json", train={"epochs": 1, "batch_size": 10})
        code = entry(["train", "--data", str(trained["data"]),
                      "--test-data", str(reversed_digits), "--config", cfg,
                      "--model-out", str(tmp_path / "m.capn")])
        assert code == 1
        err = capsys.readouterr().err
        assert "9876543210" in err and "0123456789" in err
        assert not (tmp_path / "m.capn").exists()

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


def _with_config_block(data, block):
    """A model file's bytes with its config block replaced (lengths kept valid)."""
    n = struct.unpack_from("<I", data, 8)[0]
    return data[:8] + struct.pack("<I", len(block)) + block + data[12 + n:]


def _edit_config_block(old, new):
    def flip(data):
        block = data[12:12 + struct.unpack_from("<I", data, 8)[0]]
        assert old in block
        return _with_config_block(data, block.replace(old, new, 1))
    return flip


class TestCorruptInputs:
    """A damaged model file or dataset.json exits 2, never with a traceback."""

    @pytest.mark.parametrize("fix_crc", [False, True], ids=["stale_crc", "fixed_crc"])
    @pytest.mark.parametrize("flip", [
        lambda data: data.replace(b'"dense_width":8', b'"dense_width":0', 1),
        _flip_tensor_name,
        _edit_config_block(b'"dense_width":8', b'"dense_width":8.0'),
        _edit_config_block(b'"charset_size":3', b'"charset_size":3.0'),
        _edit_config_block(b'"conv_filters":[2,2,2,2]', b'"conv_filters":[2.9,2,2,2]'),
    ], ids=["dense_width_0", "tensor_name_0xff", "dense_width_8.0", "charset_size_3.0",
            "conv_filters_2.9"])
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
        lambda sidecar: {**sidecar, "seed": "x"},
        lambda sidecar: {**sidecar, "seed": -3},
        lambda sidecar: {**sidecar, "seed": 1.5},
        lambda sidecar: {**sidecar, "spec": {"overlap_px": -1}},
        lambda sidecar: {**sidecar, "spec": {"pepper_density": 2.0}},
        lambda sidecar: {**sidecar, "spec": {**sidecar["spec"], "blur": 1}},
        lambda sidecar: {**sidecar, "charset": "0123456780"},
        lambda sidecar: {**sidecar, "spec": {**sidecar["spec"], "overlap_px": 2.5}},
        lambda sidecar: {**sidecar, "spec": {**sidecar["spec"], "text_gray_level": True}},
        lambda sidecar: {**sidecar, "charset": list(sidecar["charset"])},
        lambda sidecar: {**sidecar, "spec": {**sidecar["spec"], "rotation_max_deg": NAN}},
        lambda sidecar: {**sidecar, "spec": {**sidecar["spec"], "noise_sigma": INF}},
    ], ids=["spec_list", "charset_int", "overlap_px_str", "top_level_list", "seed_str",
            "seed_negative", "seed_fraction", "overlap_px_negative", "pepper_density_2",
            "spec_unknown_key", "charset_duplicate", "overlap_px_2.5", "text_gray_level_true",
            "charset_list", "rotation_nan", "noise_sigma_inf"])
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

    def test_charset_mismatch_exits_1(self, trained, tmp_path, capsys):
        letters = tmp_path / "letters"
        assert entry(["generate", "--count", "6", "--seed", "3", "--out", str(letters),
                      "--config", write_config(tmp_path, charset="abcdefghij")]) == 0
        code = entry(["analyze", "--model", str(trained["model"]), "--data", str(letters),
                      "--report-dir", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert "abcdefghij" in err and "0123456789" in err
        assert not (tmp_path / "report").exists()

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


def _set_first_row(data, column, value):
    lines = (data / "manifest.csv").read_text().splitlines()
    row = lines[1].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[1] = ",".join(row)
    (data / "manifest.csv").write_text("\n".join(lines) + "\n")


class TestMalformedInputs:
    """Bad external input exits with its documented code, never a traceback."""

    @pytest.mark.parametrize("section,key,value", [
        ("train", "epochs", "2"),
        ("train", "epochs", 2.5),
        ("train", "batch_size", 2.5),
        ("train", "learning_rate", "0.1"),
        ("train", "shuffle", "no"),
        ("model", "dense_width", "x"),
        ("model", "conv_filters", 5),
        ("model", "conv_filters", [4, 4, 8, "x"]),
        ("distortion", "overlap_px", "x"),
        ("distortion", "rotation_max_deg", "5"),
        ("distortion", "warp_amplitude", 10 ** 400),
        ("distortion", "text_gray_level", 60.7),
        ("model", "charset_size", 10.0),
    ])
    def test_config_value_of_wrong_type_exits_1(self, trained, tmp_path, section,
                                                key, value):
        sections = {"train": {"epochs": 1, "batch_size": 10},
                    "model": dict(DIGIT_CONFIG["model"]), "distortion": {}}
        sections[section][key] = value
        cfg = write_config(tmp_path, **sections)
        if section == "distortion":
            argv = ["generate", "--count", "2", "--out", str(tmp_path / "d")]
        else:
            argv = ["train", "--data", str(trained["data"]),
                    "--model-out", str(tmp_path / "m.capn")]
        assert entry(argv + ["--config", cfg]) == 1

    @pytest.mark.parametrize("how", ["flag", "env", "config_str", "config_negative",
                                     "config_str_and_flag", "config_fraction_and_flag"])
    def test_bad_seed_exits_1(self, trained, tmp_path, monkeypatch, how):
        argv = ["train", "--data", str(trained["data"]),
                "--model-out", str(tmp_path / "m.capn")]
        train = {"epochs": 1, "batch_size": 10}
        if how == "flag":
            argv += ["--seed", "-1"]
        elif how == "env":
            monkeypatch.setenv("CAPNET_SEED", "-1")
        else:
            # a valid --seed wins, but the config value is still checked as written
            train["seed"] = {"config_str": "x", "config_negative": -1,
                             "config_str_and_flag": "x", "config_fraction_and_flag": 1.5}[how]
            if how.endswith("_and_flag"):
                argv += ["--seed", "3"]
        assert entry(argv + ["--config", write_config(tmp_path, train=train)]) == 1

    @pytest.mark.parametrize("key,code", [
        ("beta1", 1), ("beta2", 1), ("epsilon", 1), ("learning_rate", 0),
    ])
    def test_adam_only_key_with_sgd_rejected(self, trained, tmp_path, key, code):
        train = {"epochs": 1, "batch_size": 10, "optimizer": "sgd", key: 0.1}
        argv = ["train", "--data", str(trained["data"]),
                "--model-out", str(tmp_path / "m.capn")]
        assert entry(argv + ["--config", write_config(tmp_path, train=train)]) == code

    @pytest.mark.parametrize("key,value", [
        ("overlap_px", 40),  # every glyph would land at x=80
        ("overlap_px", 90),  # the fifth glyph would start off the canvas and vanish
        ("overlap_px", 150),  # two glyphs would vanish
        ("overlap_px", 2 ** 62),  # overflowed a C long in the renderer
        ("rotation_max_deg", 180.5),
        ("rotation_max_deg", 1e308),  # overflowed Generator.uniform's range
    ])
    def test_unrenderable_spec_rejected(self, trained, tmp_path, key, value):
        cfg = write_config(tmp_path, distortion={key: value})
        assert entry(["generate", "--count", "1", "--config", cfg,
                      "--out", str(tmp_path / "d")]) == 1
        data = tmp_path / "data"
        shutil.copytree(trained["data"], data)
        sidecar = json.loads((data / "dataset.json").read_text())
        sidecar["spec"][key] = value
        (data / "dataset.json").write_text(json.dumps(sidecar))
        assert entry(["eval", "--oracle", "--data", str(data),
                      "--metrics-out", str(tmp_path / "m.json")]) == 2

    def test_widest_renderable_spec_accepted(self, tmp_path):
        cfg = write_config(tmp_path, distortion={"overlap_px": 39, "rotation_max_deg": 180})
        out = tmp_path / "d"
        assert entry(["generate", "--count", "1", "--config", cfg, "--out", str(out)]) == 0
        assert entry(["eval", "--oracle", "--data", str(out),
                      "--metrics-out", str(tmp_path / "m.json")]) == 0

    def test_deeply_nested_config_exits_1(self, tmp_path):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200_000)
        code = entry(["generate", "--count", "2", "--config", str(cfg),
                      "--out", str(tmp_path / "d")])
        assert code == 1

    def test_deeply_nested_sidecar_exits_2(self, trained, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(trained["data"], data)
        (data / "dataset.json").write_text("[" * 200_000)
        code = entry(["eval", "--oracle", "--data", str(data),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2

    def test_deeply_nested_model_config_exits_2(self, trained, tmp_path):
        block = b"[" * 200_000
        data = b"CAPN" + struct.pack("<II", 1, len(block)) + block + struct.pack("<I", 0)
        path = tmp_path / "m.capn"
        path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        code = entry(["eval", "--model", str(path), "--data", str(trained["data"]),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2

    def test_over_long_json_integer_in_config_exits_1(self, tmp_path):
        cfg = tmp_path / "long.json"
        cfg.write_text('{"distortion": {"overlap_px": ' + "9" * 5000 + "}}")
        code = entry(["generate", "--count", "2", "--config", str(cfg),
                      "--out", str(tmp_path / "d")])
        assert code == 1

    def test_over_long_json_integer_in_sidecar_exits_2(self, trained, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(trained["data"], data)
        sidecar = json.loads((data / "dataset.json").read_text())
        sidecar["spec"]["overlap_px"] = 0
        text = json.dumps(sidecar).replace('"overlap_px": 0', '"overlap_px": ' + "9" * 5000)
        (data / "dataset.json").write_text(text)
        code = entry(["eval", "--oracle", "--data", str(data),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2

    def test_unallocatable_model_config_exits_1(self, trained, tmp_path):
        model = {**DIGIT_CONFIG["model"], "dense_width": 10 ** 40}
        cfg = write_config(tmp_path, model=model, train={"epochs": 1, "batch_size": 10})
        code = entry(["train", "--data", str(trained["data"]), "--config", cfg,
                      "--model-out", str(tmp_path / "m.capn")])
        assert code == 1

    def test_unallocatable_model_file_config_exits_2(self, trained, tmp_path):
        flip = _edit_config_block(b'"dense_width":64', b'"dense_width":1' + b"0" * 40)
        raw = flip(trained["model"].read_bytes())[:-4]
        path = tmp_path / "m.capn"
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
        code = entry(["eval", "--model", str(path), "--data", str(trained["data"]),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("damage", [
        lambda d: (d / "00000.pgm").write_bytes(b"P5\n-100 -50\n255\n" + bytes(5000)),
        lambda d: (d / "manifest.csv").write_bytes(
            (d / "manifest.csv").read_bytes().replace(b"\n0,", b"\n0,\xff", 1)),
        lambda d: _set_first_row(d, "rot1", "nan"),
        lambda d: (d / "manifest.csv").write_bytes(
            (d / "manifest.csv").read_bytes() + b"x" * 200_000 + b"\n"),
        lambda d: _set_first_row(d, "gray_level", "-7"),
        lambda d: _set_first_row(d, "gray_level", "300"),
        lambda d: _set_first_row(d, "pepper_density", "-0.5"),
        lambda d: _set_first_row(d, "pepper_density", "1.5"),
    ], ids=["pgm_negative_size", "manifest_0xff", "rotation_nan", "csv_field_limit",
            "gray_level_negative", "gray_level_300", "pepper_negative", "pepper_1.5"])
    def test_damaged_dataset_dir_exits_2(self, trained, tmp_path, damage):
        data = tmp_path / "data"
        shutil.copytree(trained["data"], data)
        damage(data)
        code = entry(["eval", "--oracle", "--data", str(data),
                      "--metrics-out", str(tmp_path / "m.json")])
        assert code == 2


def _json_values(ints, text):
    """Any JSON value: scalars of every kind, lists of them and small objects."""
    floats = st.floats(-3.0, 9.0) | st.sampled_from([NAN, INF, -INF, 1e308, -1e308])
    kinds = [st.none(), st.booleans(), ints, floats, text]
    scalars = st.one_of(kinds)
    return st.one_of(*kinds, st.lists(scalars, max_size=5),
                     st.lists(ints, min_size=4, max_size=4),
                     st.dictionaries(st.text(max_size=2), scalars, max_size=2))


_TINY = ModelConfig(charset_size=3, conv_filters=(2, 2, 2, 2), dense_width=4, dropout_rate=0.0)
# ints stay in -3..8, so every model built is tiny and an accepted image size
# can only be the dataset's 50x200 (-3..8 collapses through four poolings);
# strings stay short because a digit string can become a filter count
_MODEL_VALUES = _json_values(st.integers(-3, 8), st.text(max_size=2) | st.just("float64"))
_SPEC_VALUES = _json_values(st.integers(-3, 300) | st.sampled_from([2 ** 63, 10 ** 400]),
                            st.text(max_size=4))


@pytest.fixture(scope="module")
def abc_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("json_rule")
    assert entry(["generate", "--count", "2", "--seed", "4", "--out", str(root / "data"),
                  "--config", write_config(root, charset="abc")]) == 0
    shutil.copytree(root / "data", root / "spec_data")  # its dataset.json gets rewritten
    return root


class TestOneJsonRule:
    """--config, dataset.json and a model file's config block accept the same values.

    A value either loads from all of them, or exits 1 from --config and 2 from
    the file.
    """

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_spec_value_accepted_alike(self, abc_data, data):
        key = data.draw(st.sampled_from([f.name for f in fields(DistortionSpec)]))
        value = data.draw(st.just(getattr(DistortionSpec(), key)) | _SPEC_VALUES, label=key)
        cfg = abc_data / "spec_cfg.json"
        cfg.write_text(json.dumps({"distortion": {key: value}}))
        from_config = entry(["generate", "--count", "0", "--config", str(cfg),
                             "--out", str(abc_data / "empty")])
        sidecar_path = abc_data / "spec_data" / "dataset.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["spec"] = {**DistortionSpec().to_dict(), key: value}
        sidecar_path.write_text(json.dumps(sidecar))
        from_file = entry(["eval", "--oracle", "--data", str(abc_data / "spec_data"),
                           "--metrics-out", str(abc_data / "m.json")])
        assert (from_config, from_file) in ((0, 0), (1, 2))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_model_value_accepted_alike(self, abc_data, data):
        key = data.draw(st.sampled_from([f.name for f in fields(ModelConfig)]))
        value = data.draw(st.just(getattr(_TINY, key)) | _MODEL_VALUES, label=key)
        section = {**json.loads(json.dumps(_TINY.to_dict())), key: value}
        cfg = abc_data / "model_cfg.json"
        cfg.write_text(json.dumps({"model": section, "train": {"epochs": 1, "batch_size": 2}}))
        from_config = entry(["train", "--data", str(abc_data / "data"), "--config", str(cfg),
                             "--model-out", str(abc_data / "trained.capn")])
        # the tensors come from the value read leniently by Python, so a file
        # whose config block is accepted also holds tensors of the right shapes
        try:
            model = build_model(ModelConfig(**section), Charset("abc"), Rng(0))
        except (CapnetError, TypeError, ValueError, OverflowError):
            model = build_model(_TINY, Charset("abc"), Rng(0))
        path = abc_data / "m.capn"
        save_model(model, str(path))
        block = json.dumps({"model": section, "charset": "abc"}).encode()
        raw = _with_config_block(path.read_bytes(), block)[:-4]
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
        from_file = entry(["eval", "--model", str(path), "--data", str(abc_data / "data"),
                           "--metrics-out", str(abc_data / "m.json")])
        assert (from_config, from_file) in ((0, 0), (1, 2))

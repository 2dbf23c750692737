"""Command-line front end for reproducible batch runs.

Subcommands: generate, train, eval, analyze, gradcheck. Every run is
deterministic given --seed (or the CAPNET_SEED environment variable) and
the JSON config; flags always win over config values.

Exit codes are a stable scripting contract: 0 success, 1 validation or
config error, 2 I/O error, 3 verification failure.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

from . import gradcheck as gradcheck_mod
from .capgen import Charset, DistortionSpec, generate_dataset
from .datapipe import load_dataset, save_dataset
from .errors import CapnetError, ConfigError, DatasetIOError, ModelFormatError
from .model import (
    ModelConfig,
    TrainConfig,
    build_model,
    emit_history,
    evaluate,
    load_model,
    save_model,
    train,
)
from .optim import AdamHyper
from .tensor import Rng
from .vulnscan import OracleModel, analyze, emit_report

CONFIG_SECTIONS = ("charset", "model", "train", "distortion")
ADAM_KEYS = tuple(f.name for f in fields(AdamHyper))


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, over-long integers
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config file {path} nests too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    return raw


def _resolve_seed(flag_value, config_value=0) -> int:
    """Flag wins, then CAPNET_SEED, then the config file, then 0."""
    if flag_value is not None:
        seed, source = flag_value, "--seed"
    elif "CAPNET_SEED" in os.environ:
        seed, source = os.environ["CAPNET_SEED"], "CAPNET_SEED"
        try:
            seed = int(seed)
        except ValueError:
            pass  # rejected below, quoting the raw text
    else:
        seed, source = config_value, "train.seed"
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed!r}")
    return seed


def _train_config(config: dict, flag_seed) -> TrainConfig:
    """The train section as written, then the seed that --seed or CAPNET_SEED picks."""
    section = config.get("train", {})
    if not isinstance(section, dict):
        raise ConfigError("config section 'train' must be a JSON object")
    adam_only = sorted(set(section) & (set(ADAM_KEYS) - {"learning_rate"}))
    if section.get("optimizer") == "sgd" and adam_only:
        raise ConfigError(f"train key(s) {adam_only} apply only to optimizer 'adam'")
    adam = AdamHyper.from_dict({k: v for k, v in section.items() if k in ADAM_KEYS})
    train = TrainConfig.from_dict({k: v for k, v in section.items() if k not in ADAM_KEYS})
    return replace(train, adam=adam, seed=_resolve_seed(flag_seed, train.seed))


def _model_config(config: dict, charset_size: int) -> ModelConfig:
    """The model section as written, then the dataset's charset size."""
    section = config.get("model", {})
    model = ModelConfig.from_dict(section)
    if "charset_size" in section and model.charset_size != charset_size:
        raise ConfigError(
            f"model charset_size {model.charset_size} does not match the dataset "
            f"charset ({charset_size} symbols)"
        )
    return replace(model, charset_size=charset_size)


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    symbols = config.get("charset")
    charset = Charset() if symbols is None else Charset(symbols)
    spec = DistortionSpec.from_dict(config.get("distortion", {}))
    seed = _resolve_seed(args.seed)
    dataset = generate_dataset(args.count, charset, spec, seed,
                               threads=args.threads)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    dataset = load_dataset(args.data)
    test_dataset = load_dataset(args.test_data) if args.test_data else None

    train_config = _train_config(config, args.seed)
    model_config = _model_config(config, len(dataset.charset))

    # stream 1 of the seed fan-out initializes parameters; train() itself
    # derives the shuffle and dropout streams (2 and 3) from the same seed
    model = build_model(model_config, dataset.charset, Rng(train_config.seed).split(1))

    def progress(record):
        print(f"epoch {record.epoch}: train_loss={record.train_loss:.6f} "
              f"train_char={record.train_char_acc:.4f} "
              f"train_full={record.train_full_acc:.4f} "
              f"test_char={record.test_char_acc:.4f} "
              f"test_full={record.test_full_acc:.4f}")

    history = train(model, dataset, train_config, test_dataset=test_dataset,
                    progress=progress)
    parent = os.path.dirname(args.model_out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_model(model, args.model_out)
    history_dir = args.history_out or (os.path.dirname(args.model_out) or ".")
    emit_history(history, history_dir)

    final = history.records[-1]
    print(f"final train: char_accuracy={final.train_char_acc!r} "
          f"full_accuracy={final.train_full_acc!r}")
    if test_dataset is not None:
        print(f"final test: char_accuracy={final.test_char_acc!r} "
              f"full_accuracy={final.test_full_acc!r}")
    print(f"model written to {args.model_out}")
    return 0


def _load_eval_model(args, charset):
    if args.oracle:
        return OracleModel(charset)
    if args.model is None:
        raise ConfigError("either --model or --oracle is required")
    return load_model(args.model)


def cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    model = _load_eval_model(args, dataset.charset)
    metrics = evaluate(model, dataset)
    print(f"char_accuracy={metrics.char_accuracy!r}")
    print(f"full_accuracy={metrics.full_accuracy!r}")
    for i, acc in enumerate(metrics.per_position_accuracy):
        print(f"position_{i}_accuracy={acc!r}")
    print(f"mean_loss={metrics.mean_loss!r}")
    with open(args.metrics_out, "w", encoding="utf-8") as f:
        f.write(json.dumps(asdict(metrics), sort_keys=True, separators=(",", ":")))
        f.write("\n")
    print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_analyze(args) -> int:
    dataset = load_dataset(args.data)
    model = _load_eval_model(args, dataset.charset)
    report = analyze(model, dataset)
    emit_report(report, args.report_dir)
    print(f"analyzed {report.n_samples} samples")
    print(f"mean_eta_correct={report.mean_eta_correct!r}")
    print(f"mean_eta_incorrect={report.mean_eta_incorrect!r}")
    print(f"report written to {args.report_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_all(seed=_resolve_seed(args.seed))
    failing = []
    for name in sorted(results):
        worst = max(results[name].values())
        ok = worst < gradcheck_mod.TOLERANCE
        print(f"{name:12s} max_rel_err={worst:.3e}  {'pass' if ok else 'FAIL'}")
        if not ok:
            failing.append(name)
    if failing:
        print(f"gradient check FAILED for: {', '.join(failing)}", file=sys.stderr)
        return 3
    print("all gradient checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; remap to the validation/config code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="capnet",
                     description="CAPTCHA generation, solver training, and "
                                 "vulnerability analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="render a labeled CAPTCHA dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a solver on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--model-out", required=True)
    p.add_argument("--history-out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report metrics for a model on a dataset")
    p.add_argument("--model", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics-out", default="metrics.json")
    p.add_argument("--oracle", action="store_true",
                   help="use a perfect oracle instead of a model file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="write a vulnerability report")
    p.add_argument("--model", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use a perfect oracle instead of a model file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def entry(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else exc.code
    try:
        return args.func(args)
    except (DatasetIOError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())

"""The three capnet workloads, driven through capnet's public API and CLI.

desk_c5      the c5 acceptance experiment: render 1000/250 digit samples and
             train the desk net (4/4/8/8, dense 64) until the test set
             reaches char >= 0.85 and full >= 0.50. After every epoch a fresh
             set of 100 is rendered and analyzed against the current net.
paper_train  the paper default ModelConfig() (19.56M parameters) trained for
             six B=32 steps, six epochs of a 32-sample 36-symbol set; after
             every epoch a held-out set of 64 is scored (the epoch's test
             evaluation) and analyzed, at paper scale. Both sets render in
             set-up.
attack_eval  the README quick-start minus training, through capnet.cli.entry:
             eight rounds of generate --threads 2, eval and analyze, each on
             a fresh set of 200, against a desk-geometry 36-symbol net
             trained for four steps and saved in set-up.

The scoring and rendering repeat through each run because this machine's
speed wanders by 10-20% over seconds: a rate taken as the median of phases
spread across the run holds still, one taken from a single block does not.

Every workload has three steps. ``setup`` builds the inputs and the model.
``run`` is the timed unit of work. ``verify`` checks the outputs after the
timer has stopped and returns the fingerprints that must be identical between
repeated units and between the traced and the untraced pass. ``setup`` and
``run`` record ``Phase`` entries: samples rendered, trained or scored, the
seconds they took, and how many of them failed. A rate is taken from the
phases of the timed units; set-up phases count only for a kind of work the
units do not do (paper_train's rendering, attack_eval's training).

Inputs come from the workload seed s alone: data sets render from seeds 2s+1
and 2s+2, and per-epoch or per-round sets from 1000 + 100s + i; parameters
initialise from Rng(s).split(1), and training shuffles from s. At s = 0,
desk_c5 trains exactly the c5 acceptance test's data and model.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, replace

from capnet import capgen, cli, model, vulnscan
from capnet.capgen import Charset, DistortionSpec
from capnet.model import ModelConfig, TrainConfig
from capnet.tensor import Rng

BATCH = 32
TARGET_CHAR = 0.85
TARGET_FULL = 0.50
LOSS_RTOL = 1e-4  # a stored paper_train loss must hold to this across BLAS builds
DIGITS = Charset("0123456789")
SYMBOLS = Charset()
DESK = ModelConfig(charset_size=10, conv_filters=(4, 4, 8, 8), dense_width=64, dropout_rate=0.0)
ATTACK = replace(DESK, charset_size=36)
PAPER = ModelConfig()


@dataclass
class Phase:
    kind: str  # gen, train, eval or analyze
    samples: int
    seconds: float
    ops: int = 0  # operations attempted: the samples, or the steps of a train phase
    failed: int = 0
    in_setup: bool = False

    def __post_init__(self):
        self.ops = self.ops or self.samples


class _TargetReached(Exception):
    pass


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _fresh_seed(seed, i):
    return 1000 + 100 * seed + i


def _epoch_shape(n):
    """Optimizer steps and samples trained per epoch; a 1-sample tail batch is skipped."""
    skipped = 1 if n % BATCH == 1 else 0
    return math.ceil((n - skipped) / BATCH), n - skipped, skipped


def _generate(phases, n, charset, spec, seed):
    start = time.perf_counter()
    dataset = capgen.generate_dataset(n, charset, spec, seed, threads=1)
    seconds = time.perf_counter() - start
    bad = sum(1 for s in dataset.samples
              if s.image.shape != (capgen.IMAGE_H, capgen.IMAGE_W) or s.image.dtype.name != "uint8")
    phases.append(Phase("gen", n, seconds, failed=n - len(dataset) + bad))
    return dataset


def _met_target(record):
    return record.test_char_acc >= TARGET_CHAR and record.test_full_acc >= TARGET_FULL


def _train(phases, net, dataset, epochs, seed, test_dataset=None, stop_at_target=False,
           after_epoch=None):
    """model.train() with one train phase, and one eval phase, per epoch.

    The progress callback fires after each epoch's test evaluation, so an
    epoch's wall time minus its History ``ms`` (the training loop alone) is
    the time of that evaluation. ``after_epoch(record)`` runs inside the
    callback. Returns the records and, per epoch, the times at which its
    evaluation and its after_epoch ended.
    """
    steps, seen, _ = _epoch_shape(len(dataset))
    records, marks = [], []

    def progress(record):
        evaluated = time.perf_counter()
        records.append(record)
        if after_epoch is not None:
            after_epoch(record)
        marks.append((evaluated, time.perf_counter()))
        if stop_at_target and _met_target(record):
            raise _TargetReached

    config = TrainConfig(epochs=epochs, batch_size=BATCH, seed=seed)
    start = time.perf_counter()
    try:
        model.train(net, dataset, config, test_dataset=test_dataset, progress=progress)
    except _TargetReached:
        pass
    previous = start
    for record, (evaluated, done) in zip(records, marks):
        train_s = record.ms / 1000.0
        phases.append(Phase("train", seen, train_s, ops=steps,
                            failed=0 if _finite(record.train_loss) else steps))
        if test_dataset is not None:
            n = len(test_dataset)
            ok = _finite(record.test_loss, record.test_char_acc, record.test_full_acc)
            phases.append(Phase("eval", n, evaluated - previous - train_s, failed=0 if ok else n))
        previous = done
    return records, marks


def _analyze(phases, net, samples):
    start = time.perf_counter()
    report = vulnscan.analyze(net, samples).to_dict()
    phase = Phase("analyze", len(samples), time.perf_counter() - start)
    phases.append(phase)
    return phase, report


def _report_checks(analyzed):
    """Per (analyze phase, report): bucket counts sum to its n; a dropped or
    non-finite sample counts as failed."""
    sums_ok = True
    for phase, r in analyzed:
        n = phase.samples
        sums_ok &= (sum(b["count"] for b in r["accuracy_by_gray_level"]) == n
                    and sum(b["count"] for b in r["accuracy_by_pepper_density"]) == n
                    and sum(b["count"] for b in r["accuracy_by_rotation"]) == 5 * n)
        etas = (r["mean_eta_correct"], r["mean_eta_incorrect"])
        if any(e is not None and not math.isfinite(e) for e in etas):
            phase.failed = n
        else:
            phase.failed = min(n, phase.failed + max(n - r["n_samples"], 0))
    return {
        "report buckets sum to n": sums_ok,
        "report scores every sample": all(phase.failed == 0 for phase, _ in analyzed),
    }


def _reports_sha(analyzed):
    return _sha(json.dumps([r for _, r in analyzed], sort_keys=True).encode())


def _model_sha(net, path):
    model.save_model(net, path)
    with open(path, "rb") as f:
        digest = _sha(f.read())
    os.remove(path)
    return digest


class DeskC5:
    name = "desk_c5"
    # seeds 0-17 reach the c5 target within 11 epochs, 18 later, and 19 stays
    # near chance (test char acc 0.10 after 12 epochs); a seed that misses the
    # target stops at max_epochs, which keeps a run under 100 s. The target is
    # checked where it is specified: at seed 0, the c5 acceptance experiment,
    # and at the seeds whose stored reference records it.
    FULL = {"n_train": 1000, "n_test": 250, "n_fresh": 100, "max_epochs": 12,
            "need_target": True}
    # a traced run trains a fixed four epochs twice (untraced, then traced), so
    # it ends well inside 180 s and its counts are the same for every seed
    TRACED = dict(FULL, max_epochs=4, need_target=False)
    SMOKE = {"n_train": 64, "n_test": 32, "n_fresh": 16, "max_epochs": 1, "need_target": False}

    def __init__(self, seed, sizes, refs, work):
        self.seed, self.sizes, self.refs, self.work = seed, sizes, refs, work

    def planned_ops(self):
        s = self.sizes
        per_epoch = _epoch_shape(s["n_train"])[0] + s["n_test"] + 2 * s["n_fresh"]
        return s["n_train"] + s["n_test"] + s["max_epochs"] * per_epoch

    def setup(self, phases):
        return {"net": model.build_model(DESK, DIGITS, Rng(self.seed).split(1))}

    def run(self, state, phases):
        s, seed, net = self.sizes, self.seed, state["net"]
        spec = DistortionSpec(rotation_max_deg=15.0)
        analyzed = []

        def fresh_analysis(record):
            fresh = _generate(phases, s["n_fresh"], DIGITS, spec, _fresh_seed(seed, record.epoch))
            analyzed.append(_analyze(phases, net, fresh.samples))

        start = time.perf_counter()
        train_set = _generate(phases, s["n_train"], DIGITS, spec, 2 * seed + 1)
        test_set = _generate(phases, s["n_test"], DIGITS, spec, 2 * seed + 2)
        records, marks = _train(phases, net, train_set, s["max_epochs"], seed,
                                test_dataset=test_set, stop_at_target=s["need_target"],
                                after_epoch=fresh_analysis)
        hit = next((i for i, r in enumerate(records) if _met_target(r)), None)
        final = records[-1]
        facts = {
            "records": records,
            "analyzed": analyzed,
            "time_to_target_s": None,
            "epochs_to_target": None,
            "test_char_acc": final.test_char_acc,
            "test_full_acc": final.test_full_acc,
            "final_train_loss": final.train_loss,
            "model.epochs": len(records),
            "model.skipped_samples": len(records) * _epoch_shape(s["n_train"])[2],
        }
        if hit is not None:
            # the per-epoch fresh analyses are not part of the c5 run
            extra = sum(done - evaluated for evaluated, done in marks[:hit])
            facts["time_to_target_s"] = marks[hit][0] - start - extra
            facts["epochs_to_target"] = hit + 1
        return facts

    def verify(self, state, facts, phases):
        records = facts["records"]
        checks = _report_checks(facts["analyzed"])
        checks["losses finite"] = all(_finite(r.train_loss, r.test_loss) for r in records)
        if len(records) > 1:
            checks["training loss falls from the first epoch to the last"] = (
                records[-1].train_loss < records[0].train_loss)
        if self.sizes["need_target"]:
            if self.seed == 0:
                checks["c5 target met at seed 0, the c5 acceptance experiment"] = (
                    facts["epochs_to_target"] is not None)
        ref = self.refs.get(str(self.seed))
        if ref is not None:
            checks["epochs to target and final loss match stored reference"] = (
                facts["epochs_to_target"] == ref["epochs_to_target"]
                and math.isclose(facts["final_train_loss"], ref["final_train_loss"],
                                 rel_tol=LOSS_RTOL))
        outputs = {
            "epochs": [[repr(r.train_loss), repr(r.test_loss), repr(r.train_char_acc),
                        repr(r.test_char_acc), repr(r.test_full_acc)] for r in records],
            "reports": _reports_sha(facts["analyzed"]),
            "model": _model_sha(state["net"], os.path.join(self.work, "desk.capn")),
        }
        return checks, outputs

    @staticmethod
    def reference(outputs, facts):
        return {"epochs_to_target": facts["epochs_to_target"],
                "final_train_loss": facts["final_train_loss"]}


class PaperTrain:
    name = "paper_train"
    FULL = {"n": 32, "n_test": 64, "epochs": 6, "config": PAPER}
    SMOKE = {"n": 32, "n_test": 16, "epochs": 2, "config": replace(PAPER, dense_width=64)}

    def __init__(self, seed, sizes, refs, work):
        self.seed, self.sizes, self.refs, self.work = seed, sizes, refs, work

    def planned_ops(self):
        s = self.sizes
        return s["n"] + s["n_test"] + s["epochs"] * (_epoch_shape(s["n"])[0] + 2 * s["n_test"])

    def setup(self, phases):
        s, spec = self.sizes, DistortionSpec()
        data = _generate(phases, s["n"], SYMBOLS, spec, 2 * self.seed + 1)
        test = _generate(phases, s["n_test"], SYMBOLS, spec, 2 * self.seed + 2)
        net = model.build_model(s["config"], SYMBOLS, Rng(self.seed).split(1))
        return {"net": net, "data": data, "test": test}

    def run(self, state, phases):
        net, data, test = state["net"], state["data"], state["test"]
        analyzed = []
        records, _ = _train(phases, net, data, self.sizes["epochs"], self.seed,
                            test_dataset=test,
                            after_epoch=lambda r: analyzed.append(_analyze(phases, net, test)))
        return {
            "records": records,
            "analyzed": analyzed,
            "final_train_loss": records[-1].train_loss,
            "model.epochs": len(records),
            "model.skipped_samples": len(records) * _epoch_shape(len(data))[2],
        }

    def verify(self, state, facts, phases):
        records = facts["records"]
        checks = _report_checks(facts["analyzed"])
        checks["losses finite"] = all(_finite(r.train_loss, r.test_loss) for r in records)
        ref = self.refs.get(str(self.seed))
        if ref is not None:
            checks["final loss matches stored reference"] = math.isclose(
                facts["final_train_loss"], ref["final_train_loss"], rel_tol=LOSS_RTOL)
        outputs = {
            "epochs": [[repr(r.train_loss), repr(r.test_loss), repr(r.test_char_acc),
                        repr(r.test_full_acc)] for r in records],
            "reports": _reports_sha(facts["analyzed"]),
            "model": _model_sha(state["net"], os.path.join(self.work, "paper.capn")),
        }
        return checks, outputs

    @staticmethod
    def reference(outputs, facts):
        return {"final_train_loss": facts["final_train_loss"]}


class AttackEval:
    name = "attack_eval"
    FULL = {"n_setup": 64, "rounds": 8, "n_round": 200}
    SMOKE = {"n_setup": 32, "rounds": 2, "n_round": 24}

    def __init__(self, seed, sizes, refs, work):
        self.seed, self.sizes, self.refs, self.work = seed, sizes, refs, work
        self.model_path = os.path.join(work, "model.capn")

    def planned_ops(self):
        s = self.sizes
        return s["n_setup"] + 2 * _epoch_shape(s["n_setup"])[0] + 3 * s["rounds"] * s["n_round"]

    def setup(self, phases):
        data = _generate(phases, self.sizes["n_setup"], SYMBOLS, DistortionSpec(),
                         2 * self.seed + 1)
        net = model.build_model(ATTACK, SYMBOLS, Rng(self.seed).split(1))
        _train(phases, net, data, 2, self.seed)
        model.save_model(net, self.model_path)
        return {}

    def _cli(self, phases, kind, argv):
        n = self.sizes["n_round"]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.entry(argv)
        phase = Phase(kind, n, time.perf_counter() - start, failed=n if code else 0)
        phases.append(phase)
        return code, out.getvalue(), phase

    def run(self, state, phases):
        rounds = []
        for i in range(self.sizes["rounds"]):
            paths = {k: os.path.join(self.work, f"{k}{i}") for k in ("data", "metrics", "report")}
            for path in paths.values():
                shutil.rmtree(path, ignore_errors=True)
            done = {"paths": paths}
            done["generate"] = self._cli(phases, "gen", [
                "generate", "--count", str(self.sizes["n_round"]),
                "--seed", str(_fresh_seed(self.seed, i)), "--out", paths["data"],
                "--threads", "2"])
            done["eval"] = self._cli(phases, "eval", [
                "eval", "--model", self.model_path, "--data", paths["data"],
                "--metrics-out", paths["metrics"]])
            done["analyze"] = self._cli(phases, "analyze", [
                "analyze", "--model", self.model_path, "--data", paths["data"],
                "--report-dir", paths["report"]])
            rounds.append(done)
        return {"rounds": rounds, "model.epochs": 0, "model.skipped_samples": 0}

    @staticmethod
    def _read(*parts):
        with open(os.path.join(*parts), "rb") as f:
            return f.read()

    def verify(self, state, facts, phases):
        n = self.sizes["n_round"]
        checks = {"generate, eval and analyze exit 0": True, "generate writes every sample": True,
                  "eval metrics finite": True}
        outputs = {"model": _sha(self._read(self.model_path))}
        images = hashlib.sha256()
        analyzed = []
        for i, done in enumerate(facts["rounds"]):
            paths = done["paths"]
            failed = False
            for cmd in ("generate", "eval", "analyze"):
                code, output, _ = done[cmd]
                if code:
                    failed = True
                    print(f"capnet {cmd} exited {code}:\n{output}", file=sys.stderr)
            if failed:
                checks["generate, eval and analyze exit 0"] = False
                continue

            with open(os.path.join(paths["data"], "manifest.csv"), newline="",
                      encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            for row in rows:
                images.update(self._read(paths["data"], row["file"]))
            gen = done["generate"][2]
            gen.failed = min(n, gen.failed + max(n - len(rows), 0))
            checks["generate writes every sample"] &= len(rows) == n

            metrics = json.loads(self._read(paths["metrics"]))
            if not _finite(metrics["char_accuracy"], metrics["full_accuracy"],
                           metrics["mean_loss"]):
                done["eval"][2].failed = n
                checks["eval metrics finite"] = False
            outputs[f"metrics{i}"] = _sha(self._read(paths["metrics"]))

            report = json.loads(self._read(paths["report"], "vuln_report.json"))
            analyzed.append((done["analyze"][2], report))
            for name in sorted(os.listdir(paths["report"])):
                outputs[f"report{i}/{name}"] = _sha(self._read(paths["report"], name))
        checks.update(_report_checks(analyzed))
        outputs["images"] = images.hexdigest()
        ref = self.refs.get(str(self.seed))
        if ref is not None:
            checks["rendered bytes match stored digest"] = outputs["images"] == ref["images_sha256"]
        return checks, outputs

    @staticmethod
    def reference(outputs, facts):
        return {"images_sha256": outputs["images"]}


WORKLOADS = {w.name: w for w in (DeskC5, PaperTrain, AttackEval)}

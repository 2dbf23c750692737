#!/usr/bin/env python3
"""capnet benchmark: one workload per process, measured from outside the package.

    python3 perfbench/run.py --workload desk_c5 --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports capnet from ``src/`` there and
exits 2 without a result when those sources are absent.

--trace 0   runs timed units, each on a fresh set-up, until another unit
            would pass --seconds, sets up again until it has five set-ups,
            and prints the end-to-end metrics named in BENCHMARK.json.
            setup_s is the median set-up plus the median of five imports of
            capnet, each in a fresh interpreter.
--trace 1   runs one untraced unit and then one traced unit of the same seed,
            checks that both give identical outputs and that the traced
            counts match the unit's work, and prints the per-layer metrics of
            the traced unit plus trace.overhead_pct, the traced unit's wall
            time over the untraced one's, less one, in percent. desk_c5
            trains a fixed four epochs here instead of training to target.
--smoke     the same workloads at a few dozen samples, for the harness's tests.

Rates are medians over a run's phases: one phase per generate call, per
training epoch, per evaluation and per analysis; the report line lists every
phase's rate, so each median's sample count shows. An operation (a sample
rendered, a training step, a sample scored) fails when its call raises or
exits non-zero, gives a non-finite result, or drops the sample. The last line
of standard output is the result, as JSON; the line before it, starting with
``report``, holds every end-to-end figure, the checks and the environment.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
# end-to-end figures that BENCHMARK.json does not bound (they depend on the
# seed, or are 0 when nothing fails); printed with the bounded metrics
FIGURE_UNITS = {
    "wall_s": "s",
    "time_to_target_s": "s",
    "epochs_to_target": "count",
    "test_char_acc": "ratio",
    "test_full_acc": "ratio",
    "final_train_loss": "bce",
    "failed_ratio": "ratio",
    "units": "count",
}


def _import_seconds(src):
    """Median time to import capnet, each time in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
            "import capnet.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def _phase_rates(phases, kind):
    """Samples per second of each phase of a kind, from the timed units if
    they have any, else from the set-ups (paper_train renders, and
    attack_eval trains, only in set-up)."""
    for in_setup in (False, True):
        rates = [p.samples / p.seconds for p in phases
                 if p.kind == kind and p.in_setup == in_setup and p.seconds > 0]
        if rates:
            return rates
    return []


def _merge_checks(into, checks):
    for name, ok in checks.items():
        into[name] = into.get(name, True) and ok


def measure(workload, seconds):
    """Untraced run: timed units until --seconds is used, and at least SETUP_REPS set-ups."""
    phases, setup_times, walls, checks, fingerprints = [], [], [], {}, []

    def fresh():
        gc.collect()  # the previous unit's model is freed before the next is built
        setup_phases = []
        start = time.perf_counter()
        state = workload.setup(setup_phases)
        setup_times.append(time.perf_counter() - start)
        for phase in setup_phases:
            phase.in_setup = True
        phases.extend(setup_phases)
        return state

    began = time.perf_counter()
    while True:
        state = fresh()
        start = time.perf_counter()
        facts = workload.run(state, phases)
        walls.append(time.perf_counter() - start)
        unit_checks, outputs = workload.verify(state, facts, phases)
        _merge_checks(checks, unit_checks)
        fingerprints.append(outputs)
        if len(walls) == 1:
            first = facts
        del state
        if time.perf_counter() - began + statistics.median(walls) > seconds:
            break
    # the remaining set-ups run after the units, so set-up phases spread over the run
    while len(setup_times) < SETUP_REPS:
        fresh()
    checks["repeated units give identical outputs"] = all(f == fingerprints[0] for f in fingerprints)
    return phases, checks, {
        "setup_runs_s": setup_times,
        "wall_s": statistics.median(walls),
        "units": len(walls),
        "facts": first,
    }


def _count_checks(tracer, unit_phases):
    """The traced counts must equal what the unit did, computed from its phases."""
    def done(kind, field="samples"):
        return sum(getattr(p, field) for p in unit_phases if p.kind == kind)

    return {
        "traced renders = samples rendered": tracer.calls["capgen.render"] == done("gen"),
        "traced Adam steps = training steps": tracer.calls["optim.adam_step"] == done("train", "ops"),
        "traced predictions = samples scored": (
            tracer.counts["model.predict_samples"] == done("eval") + done("analyze")),
    }


def measure_traced(workload, layer_names):
    """One untraced and one traced unit of the same seed; per-layer metrics of the traced one."""
    import tracing

    phases = []
    state = workload.setup(phases)
    start = time.perf_counter()
    facts = workload.run(state, phases)
    wall_untraced = time.perf_counter() - start
    checks, untraced = workload.verify(state, facts, phases)
    del state
    gc.collect()

    tracer = tracing.Tracer()
    tracer.install()
    unit_phases = []
    try:
        state = workload.setup(phases)
        tracer.enabled = True
        start = time.perf_counter()
        facts = workload.run(state, unit_phases)
        wall_traced = time.perf_counter() - start
        tracer.enabled = False
        traced_checks, traced = workload.verify(state, facts, unit_phases)
    finally:
        tracer.restore()
    phases.extend(unit_phases)
    _merge_checks(checks, traced_checks)
    checks["traced and untraced outputs identical"] = traced == untraced
    checks.update(_count_checks(tracer, unit_phases))

    layers = tracing.layer_metrics(tracer, layer_names)
    layers["model.epochs"] = facts["model.epochs"]
    layers["model.skipped_samples"] = facts["model.skipped_samples"]
    layers["trace.overhead_pct"] = 100.0 * (wall_traced / wall_untraced - 1.0)
    return phases, checks, {
        "wall_s": wall_untraced,
        "wall_traced_s": wall_traced,
        "facts": facts,
        "layers": layers,
    }


def _figures(phases, info, import_s):
    """Every end-to-end figure of a run, bounded in BENCHMARK.json or not."""
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    facts = info["facts"]
    figures = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": info["wall_s"],
        "failed_ratio": failed / attempted if attempted else 0.0,
        "phase_rates": {},
    }
    for kind in ("gen", "train", "eval", "analyze"):
        rates = _phase_rates(phases, kind)
        figures[f"{kind}_samples_per_s"] = statistics.median(rates) if rates else 0.0
        figures["phase_rates"][kind] = [round(r, 3) for r in rates]
    if "setup_runs_s" in info:
        figures["setup_s"] = import_s + statistics.median(info["setup_runs_s"])
        figures["units"] = info["units"]
    for key in ("time_to_target_s", "epochs_to_target", "test_char_acc", "test_full_acc",
                "final_train_loss"):
        if key in facts:
            figures[key] = facts[key]
    return figures, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "capnet", "__init__.py")):
        print(f"perfbench: no capnet sources at {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sys.path.insert(0, src)
    import capnet.cli  # noqa: F401
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.smoke:
        size = "smoke"
    elif args.trace and hasattr(cls, "TRACED"):
        size = "traced"
    else:
        size = "full"
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as f:
        refs = json.load(f).get(args.workload, {}).get(size, {})
    if refs and str(args.seed) not in refs:
        print(f"perfbench: no stored reference for {args.workload} seed {args.seed}; "
              "its outputs are checked only against each other", file=sys.stderr)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    workload = cls(args.seed, getattr(cls, size.upper()), refs, work)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    error = None
    try:
        if args.trace:
            phases, checks, info = measure_traced(workload, [m["name"] for m in declared])
        else:
            phases, checks, info = measure(workload, args.seconds)
        import_s = 0.0 if args.trace else _import_seconds(src)
        figures, attempted, failed = _figures(phases, info, import_s)
        values = info["layers"] if args.trace else figures
    except Exception:  # any failure is reported as a failed, incorrect run
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        attempted = workload.planned_ops()
        failed = attempted
        checks, figures, values = {"run completed": False}, {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    metrics = {m["name"]: {"value": 0.0 if error else values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    for name, unit in FIGURE_UNITS.items():
        if name in figures and name not in metrics:
            value = "none" if figures[name] is None else f"{figures[name]:.6g}"
            print(f"{name:32s} {value:>14s} {unit}")
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "figures": figures,
        "checks": checks,
        "environment": envinfo.environment(ROOT),
    }
    print("report " + json.dumps(report, sort_keys=True))
    correct = error is None and failed == 0 and all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

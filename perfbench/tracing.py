"""Spans around capnet's public functions and layer objects, from outside the package.

A ``Tracer`` replaces functions and methods of the imported capnet modules
with wrappers that record wall time while ``enabled`` is true. Each span adds
its duration to its parent span's child time, so a span's self time is its
duration minus the time of the spans it caused. Spans are kept per thread,
because ``generate --threads 2`` renders on a thread pool. ``restore`` puts
every original back.

Nothing here changes what capnet computes: each wrapper calls the original
with the same arguments and returns its result unchanged.
"""

import sys
import threading
import time
from collections import defaultdict

from capnet import capgen, datapipe, glyphs, model, optim, tensor, vulnscan
from capnet.layers import BatchNorm2d, Conv2D, Dense, MaxPool2

# spans whose every duration is kept, for percentiles
_KEEP_DURATIONS = ("capgen.render", "model.train_step")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(float)
        self.adam_state_bytes = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []
        self._step_start = None

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_call=None):
        """Return fn wrapped in a span called name; on_call(args) runs first."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    self.calls[name] += 1
                    self.total[name] += duration
                    self.self_time[name] += duration - frame[0]
                    if name in _KEEP_DURATIONS:
                        self.durations[name].append(duration)

        return traced

    def count(self, name, amount=1.0):
        with self._lock:
            self.counts[name] += amount

    # -- installing ------------------------------------------------------

    def _patch_function(self, module, attr, name, on_call=None):
        """Wrap module.attr in every capnet module that imported it by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, on_call)
        for mod in _capnet_modules():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, original))

    def _patch_method(self, cls, attr, name, on_call=None, after=None):
        original = cls.__dict__[attr]
        wrapped = self.wrap(name, original, on_call)
        if after is not None:
            inner = wrapped

            def wrapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                if self.enabled:
                    after(args)
                return result

        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, original))

    def install(self):
        pf = self._patch_function
        pf(capgen, "generate_dataset", "capgen.generate")
        pf(capgen, "render_captcha", "capgen.render")
        pf(glyphs, "build_atlas", "glyphs.build_atlas")
        pf(datapipe, "save_dataset", "datapipe.save_dataset")
        pf(datapipe, "load_dataset", "datapipe.load_dataset")
        pf(datapipe, "normalize", "datapipe.normalize")
        pf(tensor, "matmul", "tensor.matmul", self._count_matmul)
        pf(optim, "bce_loss", "optim.bce_loss")
        pf(model, "_run_epoch", "model.train_loop")
        pf(model, "_predict_arrays", "model.predict",
           lambda a, k: self.count("model.predict_samples", a[1].shape[0]))
        pf(model, "save_model", "model.save_model")
        pf(model, "load_model", "model.load_model")
        pf(vulnscan, "analyze", "vulnscan.analyze")
        pf(vulnscan, "emit_report", "vulnscan.emit_report")

        pm = self._patch_method
        pm(model.CapNet, "forward", "model.forward", self._on_forward)
        pm(model.CapNet, "backward", "model.backward")
        pm(model.CapNet, "zero_grad", "model.zero_grad")
        pm(model.CapNet, "predict_dataset", "model.predict",
           lambda a, k: self.count("model.predict_samples", len(a[1])))
        pm(optim.AdamOptimizer, "step", "optim.adam_step", after=self._after_adam)

    def restore(self):
        self.enabled = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- hooks -----------------------------------------------------------

    def _count_matmul(self, args, kwargs):
        a, b = args[0], args[1]
        if getattr(a, "ndim", 0) == 2 and getattr(b, "ndim", 0) == 2:
            self.count("tensor.matmul_flop", 2.0 * a.shape[0] * a.shape[1] * b.shape[1])

    def _on_forward(self, args, kwargs):
        self._instrument_self(args, kwargs)
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        if training:
            self._step_start = time.perf_counter()

    def _after_adam(self, args):
        if self._step_start is not None:
            duration = time.perf_counter() - self._step_start
            self._step_start = None
            with self._lock:
                self.durations["model.train_step"].append(duration)
        opt = args[0]
        nbytes = sum(s.m.nbytes + s.v.nbytes for s in opt.states.values())
        self.adam_state_bytes = max(self.adam_state_bytes, nbytes)

    def _instrument_self(self, args, kwargs):
        net = args[0]
        if getattr(net, "_perfbench_traced", False):
            return
        net._perfbench_traced = True
        pools = 0
        for layer in net.trunk:
            if isinstance(layer, Conv2D):
                name = layer.weights.name.split(".")[0]
            elif isinstance(layer, BatchNorm2d):
                name = layer.gamma.name.split(".")[0]
            elif isinstance(layer, MaxPool2):
                pools += 1
                name = f"pool{pools}"
            else:  # relu, flatten: summed over the trunk
                name = type(layer).__name__.lower()
            self._instrument_layer(layer, f"layers.{name}")
        for head in net.heads:
            for layer in head:
                if isinstance(layer, Dense):
                    name = layer.weights.name.split(".")[1]
                else:
                    name = type(layer).__name__.lower()
                self._instrument_layer(layer, f"layers.heads.{name}")

    def _instrument_layer(self, layer, prefix):
        layer.forward = self.wrap(f"{prefix}.fwd", layer.forward)
        layer.backward = self.wrap(f"{prefix}.bwd", layer.backward)


def _capnet_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "capnet" or n.startswith("capnet."))]


def layer_metrics(tracer, layer_names):
    """Per-layer metric values from a finished traced run.

    Layer times are milliseconds per model pass: a layer group's total time
    divided by the number of CapNet forward (or backward) calls. Other times
    are milliseconds per call unless the name says otherwise.
    """
    calls, total, self_t = tracer.calls, tracer.total, tracer.self_time

    def per_call(name, kind="self"):
        n = calls.get(name, 0)
        if not n:
            return 0.0
        return 1000.0 * (self_t if kind == "self" else total)[name] / n

    def pct(name, q):
        values = sorted(tracer.durations.get(name, ()))
        if not values:
            return 0.0
        return 1000.0 * values[min(len(values) - 1, int(q * len(values)))]

    fwd_passes = calls.get("model.forward", 0)
    bwd_passes = calls.get("model.backward", 0)
    out = {}
    for name in layer_names:
        base, _, kind = name.rpartition(".")
        if name.startswith("layers.") and kind in ("fwd_ms", "bwd_ms"):
            passes = fwd_passes if kind == "fwd_ms" else bwd_passes
            span = f"{base}.{kind[:3]}"
            out[name] = 1000.0 * self_t.get(span, 0.0) / passes if passes else 0.0
    predicted = tracer.counts.get("model.predict_samples", 0.0)
    out.update({
        "capgen.generate_s": total.get("capgen.generate", 0.0),
        "capgen.render_ms_p50": pct("capgen.render", 0.50),
        "capgen.render_ms_p99": pct("capgen.render", 0.99),
        "capgen.render_calls": calls.get("capgen.render", 0),
        "glyphs.build_atlas_calls": calls.get("glyphs.build_atlas", 0),
        "glyphs.build_atlas_ms": per_call("glyphs.build_atlas"),
        "datapipe.save_dataset_ms": per_call("datapipe.save_dataset"),
        "datapipe.load_dataset_ms": per_call("datapipe.load_dataset"),
        "datapipe.load_dataset_calls": calls.get("datapipe.load_dataset", 0),
        "datapipe.normalize_ms": per_call("datapipe.normalize"),
        "datapipe.normalize_calls": calls.get("datapipe.normalize", 0),
        "tensor.matmul_ms": 1000.0 * self_t.get("tensor.matmul", 0.0),
        "tensor.matmul_calls": calls.get("tensor.matmul", 0),
        "tensor.matmul_gflop": tracer.counts.get("tensor.matmul_flop", 0.0) / 1e9,
        "optim.adam_step_ms": per_call("optim.adam_step"),
        "optim.adam_state_mb": tracer.adam_state_bytes / 2 ** 20,
        "optim.bce_loss_ms": per_call("optim.bce_loss"),
        "model.train_step_ms_p50": pct("model.train_step", 0.50),
        "model.train_step_ms_p90": pct("model.train_step", 0.90),
        "model.forward_self_ms": per_call("model.forward"),
        "model.backward_self_ms": per_call("model.backward"),
        "model.zero_grad_ms": per_call("model.zero_grad"),
        "model.train_loop_self_ms": per_call("model.train_loop"),
        "model.steps": calls.get("optim.adam_step", 0),
        "model.predict_ms": (1000.0 * total.get("model.predict", 0.0) / predicted
                             if predicted else 0.0),
        "model.save_model_ms": per_call("model.save_model"),
        "model.load_model_ms": per_call("model.load_model"),
        "vulnscan.analyze_self_ms": per_call("vulnscan.analyze"),
        "vulnscan.emit_report_ms": per_call("vulnscan.emit_report"),
    })
    return out


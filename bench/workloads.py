"""The benchmark's workloads, correctness checks and result assembly.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  Inputs come from
``synth_generate(seed)`` during set-up, so the same seed gives the same
inputs.  The untraced run measures the end-to-end metrics; the traced run
measures the same loop untraced and then traced (their difference is the
tracing overhead), and reads the per-layer metrics from the traced spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import harness as H
import ref64
from spans import NULL_TRACER, Tracer, self_times

# setup_s is the median of this many set-ups.  Each takes under half a
# second, so the median of a few follows the host's short slow phases.
SETUP_REPEATS = 11
N_PER_CLASS = 4          # 8 synthetic 256x256 patches per set-up
REF_OPS = (0, 1)         # onboard ops checked against the float64 reference
SCORE_ATOL = 1e-5        # float32 vs float64 score, infer mode; seen <= 5e-7
# The program's train-mode BN computes E[x^2] - E[x]^2 in float32, which
# cancels when a channel's mean dwarfs its spread (a known defect, ROADMAP
# item 4).  On 13 seeds it put the first-step loss 6e-6 to 3.7e-3 off the
# float64 value, so the loss check allows 2e-2 relative until that fix lands.
LOSS_RTOL = 2e-2
P90_MIN_BEYOND = 10
WARMUP_S = 1.0           # untimed ops before the loop: at least one, then to 1 s

MS = "ms"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def p90(samples):
    """Nearest-rank 90th percentile, or None unless >= 10 samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(0.9 * n)
    if n - rank < P90_MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def p10(samples):
    """Nearest-rank 10th percentile (the minimum below ten samples)."""
    return sorted(samples)[max(math.ceil(0.1 * len(samples)), 1) - 1]


def summarize(seconds):
    """p10, median and (when the rule allows) p90 of op times, in ms, with counts."""
    ms = [s * 1e3 for s in seconds]
    hi = p90(ms)
    return {"n": len(ms), "p10_ms": p10(ms), "p50_ms": statistics.median(ms), "p90_ms": hi,
            "beyond_p90": len(ms) - math.ceil(0.9 * len(ms))}


# ---------------------------------------------------------------------------
# correctness checks (all outside the timed region)
# ---------------------------------------------------------------------------


def score_ok(score):
    return math.isfinite(score) and 0.0 <= score <= 1.0


def score_matches(score, ref_score):
    return abs(score - ref_score) <= SCORE_ATOL


def loss_matches(loss, ref_loss):
    return abs(loss - ref_loss) <= LOSS_RTOL * abs(ref_loss)


def composite_ok(pixels):
    return (pixels.shape == (3, H.IMAGE, H.IMAGE) and bool(np.isfinite(pixels).all())
            and pixels.min() >= 0.0 and pixels.max() <= 1.0)


def roundtrip_exact(written, read_back):
    return (written.shape == read_back.shape and
            written.astype("<f4").tobytes() == read_back.astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Onboard:
    """Raw VBP1 patch -> preprocess_raw -> one net in infer mode, batch 1."""

    items_per_op = 1

    def __init__(self, net_name):
        self.net_name = net_name
        self.kept = {}

    def setup(self, seed, work):
        self.samples = H.make_samples(seed, N_PER_CLASS, work)
        self.net = H.Net(self.net_name, seed)

    def op(self, k, tracer):
        return H.score_patch(self.net, H.patch_path(self.samples[k % len(self.samples)]),
                             tracer)

    def check(self, k, out):
        planes, sensor, score, _ = out
        if k in REF_OPS:
            self.kept[k] = (planes, sensor, score)
        return score_ok(score)

    def reference(self):
        """Ops whose score misses the float64 reference; with the largest error."""
        params, bad, worst = self.net.export(), [], 0.0
        for k, (planes, sensor, score) in sorted(self.kept.items()):
            scale, offset = H.sensor_profile(sensor)
            x = ref64.composite64(planes, scale, offset).transpose(1, 2, 0)[None]
            ref_score = float(ref64.forward64(params, x)[0][0, 0])
            worst = max(worst, abs(score - ref_score))
            if not score_matches(score, ref_score):
                bad.append(k)
        return bad, {"ref_ops": sorted(self.kept), "max_abs_score_err": worst,
                     "tolerance_abs": SCORE_ATOL}


class Train:
    """Full-net training steps at 512x512, N=4, from balanced batches."""

    items_per_op = H.TRAIN_BATCH

    def setup(self, seed, work):
        samples = H.make_samples(seed, N_PER_CLASS, work)
        self.trainer = H.Trainer([s for s in samples if s.split == "train"], seed)
        self.first = None

    def snapshot(self):
        self.initial = self.trainer.net.export()

    def op(self, k, tracer):
        return self.trainer.step(k, tracer)

    def check(self, k, out):
        if self.first is None:
            self.first = (k, out)
        return math.isfinite(out[0])

    def reference(self):
        if self.first is None:
            return [], {}
        k, (loss, x, y, mask) = self.first
        scores, _ = ref64.forward64(self.initial, x, train=True, mask=mask)
        ref_loss = ref64.bce64(scores, y)
        return ([] if loss_matches(loss, ref_loss) else [k]), {
            "ref_op": k, "loss": loss, "ref_loss": ref_loss,
            "loss_rel_err": abs(loss - ref_loss) / abs(ref_loss),
            "tolerance_rel": LOSS_RTOL}


class Ingest:
    """Composite cache build: load_sample -> compose -> save VRC1 -> load."""

    items_per_op = 1

    def setup(self, seed, work):
        self.samples = H.make_samples(seed, N_PER_CLASS, work)
        self.cache = os.path.join(work, "composites")
        os.makedirs(self.cache)

    def op(self, k, tracer):
        i = k % len(self.samples)
        return H.ingest_sample(self.samples[i], os.path.join(self.cache, f"{i}.vrc"))

    def check(self, k, out):
        written, read_back = out
        return composite_ok(written) and roundtrip_exact(written, read_back)

    def reference(self):
        return [], {}


WORKLOADS = {
    "onboard_full": lambda: Onboard("full"),
    "onboard_pruned": lambda: Onboard("pruned"),
    "train": Train,
    "ingest": Ingest,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _attempt(w, k, tracer, failed):
    """Run op k, then check it outside the timed span; returns its seconds."""
    tracer.request_id = k
    t0 = time.perf_counter()
    try:
        with tracer.span("op"):
            out = w.op(k, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    dt = time.perf_counter() - t0
    if out is None or not w.check(k, out):
        failed.add(k)
    return dt


def _loop(w, seconds, k, tracer, failed):
    """At least one op, then more until ``seconds`` have passed."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(_attempt(w, k, tracer, failed))
        k += 1
    return times, k


def _setup(name, seed, work):
    w = WORKLOADS[name]()
    times = []
    for r in range(SETUP_REPEATS):
        d = os.path.join(work, f"setup{r}")
        t0 = time.perf_counter()
        w.setup(seed, d)
        times.append(time.perf_counter() - t0)
    if hasattr(w, "snapshot"):
        w.snapshot()
    return w, times


def _traced(tracer):
    stack = contextlib.ExitStack()
    for module, prefix, names in H.TRACED_CALLS:
        stack.enter_context(tracer.patched(module, names, prefix))
    return stack


def run(name, seed, seconds, trace, root):
    """One benchmark run; returns (detail dict, result dict)."""
    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    try:
        w, setup_times = _setup(name, seed, work)
        phase = seconds
        if trace:
            # the sweep counts against --seconds; the rest is split in half,
            # untraced then traced
            t0 = time.perf_counter()
            swept = _sweep(name, seed, work)
            phase = max(seconds - (time.perf_counter() - t0), 0.0) / 2
        failed = set()
        # warm-up: first-call allocations and the first slow requests
        warm, k = _loop(w, WARMUP_S, 0, NULL_TRACER, failed)
        times, k = _loop(w, phase, k, NULL_TRACER, failed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "machine": machine(), "setup_runs_s": setup_times,
                  "warmup_s": sum(warm), "warmup_ops": len(warm),
                  "ops": summarize(times),
                  "items_per_op": w.items_per_op}
        if trace:
            tracer = Tracer()
            with _traced(tracer):
                traced_times, k = _loop(w, phase, k, tracer, failed)
            sources = [(name, tracer)] + swept
            for producer, tr in sources:
                tr.dump(os.path.join(out_dir, f"spans_{name}_s{seed}_{producer}.jsonl"))
            detail["traced_ops"] = summarize(traced_times)
            detail["trace_overhead_ms"] = (detail["traced_ops"]["p50_ms"]
                                           - detail["ops"]["p50_ms"])
            # host noise swamps that difference; this is the computed cost
            detail["spans_per_op"] = len(tracer.spans) / len(traced_times)
            detail["span_cost_us"] = _span_cost_us()
            layers = detail["layers"] = layer_table(sources)
            if name == "train":
                detail["roadmap_compare"] = roadmap_compare(layers)
        bad, detail["checks"] = w.reference()
        failed.update(bad)
        detail["failed_frac"] = len(failed) / k
        if trace:
            metrics = {n: {"value": layers[n[:-3]]["self_ms_p50"], "unit": MS}
                       for n in H.per_layer_names()}
            metrics["trace.untraced_op_ms"] = {"value": detail["ops"]["p50_ms"], "unit": MS}
            metrics["trace.traced_op_ms"] = {"value": detail["traced_ops"]["p50_ms"],
                                             "unit": MS}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "op_ms_p10": {"value": detail["ops"]["p10_ms"], "unit": MS},
                "items_per_s": {"value": w.items_per_op * len(times) / sum(times),
                                "unit": "items/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        result = {"correct": not failed, "attempted": k, "failed": len(failed),
                  "metrics": metrics}
        return detail, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _span_cost_us(n=20000):
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - t0) / n * 1e6


def _sweep(name, seed, work):
    """One warm and one traced op of every other workload.

    The traced run must report every per-layer metric, and some layers never
    run in this workload's loop (no backward pass on board, no nn in ingest).
    Their values come from this single traced op and are labelled
    ``cross_workload`` in the layer table.  Returns [(name, tracer)].
    """
    out = []
    for other in WORKLOADS:
        if other == name:
            continue
        w = WORKLOADS[other]()
        w.setup(seed, os.path.join(work, f"sweep-{other}"))
        _attempt(w, 0, NULL_TRACER, set())
        tracer = Tracer()
        with _traced(tracer):
            _attempt(w, 1, tracer, set())
        out.append((other, tracer))
    return out


def layer_table(sources):
    """Per span name: calls, median total and self ms, the workload it was
    measured in (the run's own loop first; any other is a cross-workload
    single op), and FLOPs and GF/s (convs) or computed bytes moved."""
    out = {}
    own = sources[0][0]
    for producer, tracer in sources:
        batch = H.TRAIN_BATCH if producer == "train" else 1
        costs = H.span_costs(batch)
        for span, calls in self_times(tracer.spans).items():
            if span in out:
                continue
            entry = out[span] = {
                "calls": len(calls), "measured_in": producer,
                "cross_workload": producer != own,
                "total_ms_p50": statistics.median(c[0] for c in calls) * 1e3,
                "self_ms_p50": statistics.median(c[1] for c in calls) * 1e3}
            if span.startswith("nn."):
                entry["batch"] = batch
            entry.update(costs.get(span, {}))
            if "flops" in entry:
                entry["gflops_per_s"] = entry["flops"] / (entry["self_ms_p50"] * 1e6)
    return out


# ROADMAP's hand-measured table (N=4, best of 3): (row, span, low ms, high ms)
ROADMAP_ROWS = (
    ("conv 3->16 @512 fwd", "nn.full.b0.conv.fwd", 127, 127),
    ("conv 3->16 @512 bwd", "nn.full.b0.conv.bwd", 422, 422),
    ("conv 16->32 @256 fwd", "nn.full.b1.conv.fwd", 81, 81),
    ("conv 16->32 @256 bwd", "nn.full.b1.conv.bwd", 233, 233),
    ("conv 32->64 @128 fwd", "nn.full.b2.conv.fwd", 27, 27),
    ("conv 32->64 @128 bwd", "nn.full.b2.conv.bwd", 109, 109),
    ("conv 64->128 @64 fwd", "nn.full.b3.conv.fwd", 17, 17),
    ("conv 64->128 @64 bwd", "nn.full.b3.conv.bwd", 45, 45),
    ("conv 256->512 @16 fwd", "nn.full.b5.conv.fwd", 19, 19),
    ("conv 256->512 @16 bwd", "nn.full.b5.conv.bwd", 52, 52),
    ("maxpool 16ch @512 fwd", "nn.full.b0.pool.fwd", 258, 278),
    ("BN train 16ch @512 fwd", "nn.full.b0.bn.fwd", 86, 100),
    ("ReLU 16ch @512 fwd", "nn.full.b0.relu.fwd", 23, 23),
    ("bicubic resize 256->512 (per patch)", "preprocess.bicubic_resize", 28, 28),
    ("Gaussian noise 3x512 (per composite)", "preprocess.add_gaussian_noise", 36, 36),
)


def roadmap_compare(layers):
    """Harness vs ROADMAP values; flags rows off by more than a fifth."""
    rows = []
    for label, span, lo, hi in ROADMAP_ROWS:
        ms = layers[span]["self_ms_p50"]
        rows.append({"row": label, "span": span, "roadmap_ms": [lo, hi],
                     "harness_ms": ms, "flag": not 0.8 * lo <= ms <= 1.2 * hi})
    return rows


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads OpenBLAS reports in effect, read from the loaded library."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}

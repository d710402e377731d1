"""Run one workload: set up, measure for a fixed time, check, report.

End-to-end metrics come from runs with tracing off. A traced run alternates
untraced and traced operations, so it can report per-layer numbers and the
tracing overhead (median traced minus median untraced operation time) from
one process. Per-layer ``.s`` and ``.calls`` metrics are per traced
operation; ``.ms`` and ``.us`` metrics are per call.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import canary
import workloads
from tracer import NN_LAYERS, Tracer

SETUP_REPS = 5
RUNS_DIR = ".perfbench_runs"

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("windows_per_s", "1/s"),
]

_BUSY = [
    "scene.generate_scene",
    "scene.build_channel_grid.rsu0",
    "scene.build_channel_grid.rsu1",
    "scene.build_channel_grid.mbs",
    "mobility.sample_trajectory",
    "data.grid_features",
    "data.grid_beam_labels",
    "data.snap_positions",
    "data.make_dataset",
    "data.save_dataset",
    "data.load_dataset",
    *[f"nn.{fn}" for fn in NN_LAYERS],
    "seq2seq.accumulate_params",
    "nn.clip_global_norm",
    "nn.adam_step",
    "nn.save_tensors",
    "nn.load_tensors",
    "seq2seq.save_train_state",
    "seq2seq.load_train_state",
    "seq2seq.train",
]
_CALLS = [
    "mobility.sample_trajectory",
    "data.snap_positions",
    "nn.lstm_cell_forward",
    "nn.lstm_cell_backward",
    "nn.attention_forward",
    "nn.adam_step",
    "seq2seq.accumulate_params",
]
_SELF = ["data.make_dataset", "seq2seq.train"]
_PER_CALL_MS = ["seq2seq.encode", "seq2seq.decode_greedy"]
_PER_CALL_US = ["phy.synthesize_channel", "phy.optimal_beam"]
_COUNTERS = [
    ("scene.grid_points", "count"),
    ("scene.paths_per_point", "count"),
    *[(f"scene.outage_frac.{bs}", "frac") for bs in workloads.BS_IDS],
    ("scene.synth_terms", "count"),
    ("scene.snapshot_bytes", "bytes"),
    ("data.windows", "count"),
    ("data.dropped_trajectories", "count"),
    ("data.grid_visited_frac", "frac"),
    ("data.dataset_bytes", "bytes"),
    ("nn.busy_s", "s"),
    ("nn.fwd_flops_per_window", "flop"),
    ("nn.gflops", "GFLOP/s"),
    ("nn.grad_norm", "norm"),
    ("nn.clip_events", "count"),
    ("nn.checkpoint_bytes", "bytes"),
    ("trace.ops", "count"),
    ("trace.spans_per_op", "count"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]

PER_LAYER = [
    *[(f"{n}.s", "s") for n in _BUSY],
    *[(f"{n}.calls", "count") for n in _CALLS],
    *[(f"{n}.self_s", "s") for n in _SELF],
    *[(f"{n}.{suffix}", "ms") for n in _PER_CALL_MS for suffix in ("ms", "self_ms")],
    *[(f"{n}.{suffix}", unit) for n in _PER_CALL_US for suffix, unit in (("us", "us"), ("calls", "count"))],
    *_COUNTERS,
]


@dataclass
class Record:
    """One operation that returned: its timing, what it produced, and for a
    traced operation the counters taken from its outputs."""

    op_id: int
    traced: bool
    seconds: float
    windows: int
    fingerprint: dict
    counters: dict


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _trim_heap() -> None:
    """Hand freed heap memory back to the system between operations, so that
    the next operation's peak resident set does not depend on what the
    allocator kept from the last one. A no-op where libc has no malloc_trim."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, seed: int, ctx: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "scene_digest": ctx["scene"].digest(),
        "canary_seed": canary.SEED,
        "infer_model_seed": canary.INFER_MODEL_SEED,
        "source_digest": _source_digest(root),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _measure(wl, ctx, seconds: float, tracer: Tracer | None):
    """Closed loop of operations for ``seconds``. With a tracer, odd
    operations are traced. Returns (records, attempted, failed, failures)."""
    records: list[Record] = []
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    op_id = 0
    while True:
        traced = tracer is not None and op_id % 2 == 1
        units = wl.units_per_op(ctx)
        attempted += units
        if traced:
            tracer.install(op_id)
        try:
            result = wl.op(ctx)
        except workloads.TYPED_ERRORS as exc:
            failed += units
            failures.append(f"op {op_id}: {type(exc).__name__}: {exc}")
            result = None
        finally:
            if traced:
                tracer.uninstall()
        if result is not None:
            if traced:
                tracer.install(op_id, phase="check")
            try:
                op_failures, fingerprint = wl.verify(ctx, result.outputs)
            finally:
                if traced:
                    tracer.uninstall()
            failures += [f"op {op_id}: {f}" for f in op_failures]
            counters = wl.counters(ctx, result.outputs) if traced else {}
            records.append(Record(op_id, traced, result.seconds, result.windows, fingerprint, counters))
            result = None  # let large outputs go before the next op
        _trim_heap()
        op_id += 1
        enough = sum(not r.traced for r in records) >= wl.min_ops(ctx) and (
            tracer is None or any(r.traced for r in records)
        )
        elapsed = time.perf_counter() - start
        typical = _median([r.seconds for r in records])
        if enough and elapsed + typical > seconds:
            break
        if not records and elapsed > seconds:
            break
    return records, attempted, failed, failures


def _end_to_end(setup_times, records) -> dict:
    secs = [r.seconds for r in records if not r.traced]
    rates = [r.windows / r.seconds for r in records if not r.traced]
    values = {
        "setup_s": _median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
        "op_p50_ms": 1e3 * _median(secs),
        "op_p90_ms": 1e3 * float(np.percentile(secs, 90)) if secs else 0.0,
        "windows_per_s": _median(rates),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(wl, ctx, tracer: Tracer, records) -> dict:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = max(len(traced), 1)
    ops = tracer.summary("op")
    every = tracer.summary()
    values: dict[str, float] = {}

    def row(table, name):
        return table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    for name in _BUSY:
        values[f"{name}.s"] = row(ops, name)["busy_s"] / n
    for name in _CALLS:
        values[f"{name}.calls"] = row(ops, name)["calls"] / n
    for name in _SELF:
        values[f"{name}.self_s"] = row(ops, name)["self_s"] / n
    for name in _PER_CALL_MS:
        r = row(ops, name)
        calls = max(r["calls"], 1)
        values[f"{name}.ms"] = 1e3 * r["busy_s"] / calls
        values[f"{name}.self_ms"] = 1e3 * r["self_s"] / calls
    for name in _PER_CALL_US:
        r = row(every, name)
        values[f"{name}.us"] = 1e6 * r["busy_s"] / max(r["calls"], 1)
        values[f"{name}.calls"] = r["calls"] / n

    for key in {k for r in traced for k in r.counters}:
        values[key] = float(np.mean([r.counters[key] for r in traced if key in r.counters]))
    grad_norms = tracer.values.get("nn.grad_norm", [])
    values["nn.grad_norm"] = _median(grad_norms)
    values["nn.clip_events"] = sum(tracer.values.get("nn.clip_events", [])) / n
    values["nn.checkpoint_bytes"] = sum(tracer.values.get("nn.checkpoint_bytes", [])) / n
    values["data.dataset_bytes"] = sum(tracer.values.get("data.dataset_bytes", [])) / n

    nn_busy = sum(row(ops, f"nn.{fn}")["busy_s"] for fn in NN_LAYERS) / n
    fwd_flops, forward_passes = wl.nn_work(ctx)
    values["nn.busy_s"] = nn_busy
    values["nn.fwd_flops_per_window"] = fwd_flops
    values["nn.gflops"] = fwd_flops * forward_passes / nn_busy / 1e9 if nn_busy > 0 else 0.0

    values["trace.ops"] = len(traced)
    values["trace.spans_per_op"] = sum(1 for s in tracer.spans if s[5] == "op") / n
    values["trace.coverage_frac"] = (
        float(np.mean([tracer.top_level_seconds(r.op_id) / r.seconds for r in traced]))
        if traced else 0.0
    )
    t_med = _median([r.seconds for r in traced])
    u_med = _median([r.seconds for r in untraced])
    values["trace.overhead_frac"] = t_med / u_med - 1.0 if traced and untraced else 0.0
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.PAPER, root: Path = Path(".")) -> tuple[dict, dict]:
    """Returns (report, result): the report holds checks, fingerprint and
    provenance; the result is the line the benchmark prints last."""
    wl = workloads.WORKLOADS[workload]()
    runs_dir = root / RUNS_DIR
    runs_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=runs_dir)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            ctx = None  # free the previous set-up before building the next
            t0 = time.perf_counter()
            ctx = wl.setup(seed, sizes, workdir)
            setup_times.append(time.perf_counter() - t0)

        rss = {"setup": _peak_rss_mb()}
        tracer = Tracer() if trace else None
        records, attempted, failed, failures = _measure(wl, ctx, seconds, tracer)
        rss["ops"] = _peak_rss_mb()
        canary_failures, canary_fp, digests = canary.check(workdir)
        rss["canary"] = _peak_rss_mb()
        failures += canary_failures
        if not records:
            failures.append("no operation succeeded")

        metrics = _per_layer(wl, ctx, tracer, records) if trace else _end_to_end(setup_times, records)
        report = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "setup_s": setup_times,
            "op_s": [r.seconds for r in records],
            "op_traced": [r.traced for r in records],
            "peak_rss_mb_after": rss,
            "checks": {"passed": not failures, "failures": failures[:50]},
            "fingerprint": {
                "run": records[-1].fingerprint if records else {},
                "canary": canary_fp,
                "canary_exact_digests": digests,
            },
            "provenance": provenance(root, seed, ctx),
        }
        if trace:
            spans_path = runs_dir / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write_jsonl(spans_path)
            report["spans_file"] = str(spans_path)
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return report, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

"""etawave benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scattering_sample --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` of that checkout and nothing else.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones.  A full result file with run metadata goes
to `.perfbench_out/` in the checkout, and the traced run also writes its
spans there.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import workloads
from layers import accounting, pass_metrics, unattributed
from spans import PASS_SPAN, REQUEST_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_library():
    """Import etawave from this checkout's src/, never from elsewhere."""
    if not (SRC / "etawave" / "__init__.py").is_file():
        fail(f"no etawave sources under {SRC}; run from the root of a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    etawave = importlib.import_module("etawave")
    if Path(etawave.__file__).resolve().parent != (SRC / "etawave").resolve():
        fail(f"imported etawave from {etawave.__file__}, not from {SRC}")
    for sub in ("numerics", "clifford", "waveop", "spinors", "scattering", "boundstates", "pauligauge", "cli"):
        importlib.import_module(f"etawave.{sub}")
    return etawave


def make_workload(name: str, seed: int, workdir):
    return workloads.WORKLOADS[name](import_library(), seed, workdir)


# ------------------------------------------------------------- metadata


def git_revision():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _blas_threads():
    """OpenBLAS thread count as the process runs it; never overridden."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_metadata(seed: int):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "cache_note": "L3 is shared with other tenants of the host",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ------------------------------------------------------------ measuring


def run_pass(workload, tracer=None):
    """Serve every request once, each followed by a host speed probe if the
    workload is host-normalized.  Returns (elapsed_s, latencies_s, outputs,
    probe_s): probe_s holds the kernel's seconds per repetition right after
    each request."""
    outputs, latencies, speeds = [], [], []
    if tracer is not None:
        pass_span = tracer.open(PASS_SPAN)
    t_pass = perf_counter()
    for i, req in enumerate(workload.requests):
        if tracer is not None:
            tracer.current_request = i
            req_span = tracer.open(REQUEST_SPAN)
        t0 = perf_counter()
        outputs.append(workload.execute(req))
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close(req_span)
        if workload.host_normalized:
            speeds.append(hostspeed.probe(latencies[-1]))
    wall = perf_counter() - t_pass
    if tracer is not None:
        tracer.current_request = -1
        tracer.close(pass_span)
    return wall, latencies, outputs, speeds


class Passes:
    """Verified passes of one phase (untraced or traced)."""

    def __init__(self):
        self.walls, self.latencies, self.speeds, self.spans = [], [], [], []
        self.attempted = self.failed = 0
        self.failures, self.counters, self.outputs = [], [], None

    def add(self, workload, wall, latencies, outputs, speeds, spans=None):
        attempted, failures = workload.verify(outputs)
        self.walls.append(wall)
        self.latencies.append(latencies)
        self.speeds.append(speeds)
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += failures[: 20 - len(self.failures)]
        self.counters.append(workload.pass_counters(outputs))
        self.spans.append(spans)
        if self.outputs is None:
            self.outputs = [workload.normalize(r, o) for r, o in zip(workload.requests, outputs)]

    def request_latencies(self, workload):
        """Each request's latency.  Host-normalized: in seconds at idle-host
        speed, i.e. divided by the probe right after it and multiplied by the
        kernel's idle time, median over the passes.  Otherwise the lowest
        over the passes, which rejects the slow stretches that do not cover
        the whole run."""
        if workload.host_normalized:
            ratios = np.array(self.latencies) / np.array(self.speeds)
            return np.median(ratios, axis=0) * hostspeed.IDLE_S
        return self.best_latencies()

    def best_latencies(self):
        """Each request's lowest raw latency over the passes."""
        return np.min(np.array(self.latencies), axis=0)


def measure(workload, seconds: float, after_pass) -> Passes:
    passes = Passes()
    deadline = perf_counter() + seconds
    # start no pass that would, at the fastest pass time seen, end after the deadline
    while len(passes.walls) < MIN_PASSES or perf_counter() + min(passes.walls) < deadline:
        passes.add(workload, *run_pass(workload))
        after_pass()
    return passes


def measure_traced(workload, seconds: float, tracer):
    """Untraced and traced passes in alternation, so both see the same
    stretches of host speed."""
    plain, traced = Passes(), Passes()
    deadline = perf_counter() + seconds
    while len(traced.walls) < MIN_TRACE_PASSES or perf_counter() + min(plain.walls) + min(traced.walls) < deadline:
        plain.add(workload, *run_pass(workload))
        lo = len(tracer)
        tracer.install()
        try:
            result = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
        traced.add(workload, *result, spans=(lo, len(tracer)))
    return plain, traced


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        fail(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    return float(proc.stdout.split()[-1]) - t0


def percentile_ms(latencies, q):
    return float(np.percentile(latencies, q)) * 1e3


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checked_metrics(spec_metrics, values):
    """Attach units from BENCHMARK.json; every declared metric must be computed."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    if set(units) != set(values):
        fail(f"metrics computed {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(args, workload, spec):
    setup_samples = []

    def probe():
        # spread over the run, so one slow stretch of the host moves few samples
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(args.workload, args.seed))

    probe()
    workload.execute(workload.requests[0])  # warm-up: first-call paths and caches
    passes = measure(workload, args.seconds, after_pass=probe)
    while len(setup_samples) < SETUP_PROBES:
        probe()
    latency = passes.request_latencies(workload)
    wall = float(latency.sum())
    best = passes.best_latencies()
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "items_per_s": workload.items_per_pass / wall,
        "request_ms_p50": percentile_ms(latency, 50),
        "request_ms_p95": percentile_ms(latency, 95),
        "peak_rss_mb": peak_rss_mb(),
        "pass_ratio": 1.0 - passes.failed / passes.attempted,
    }
    details = {
        "setup_samples_s": setup_samples,
        "pass_walls_s": passes.walls,
        "pass_wall_median_s": statistics.median(passes.walls),
        "request_samples": len(latency),
        "request_ms": [round(float(x) * 1e3, 4) for x in latency],
        "host_normalized": workload.host_normalized,
        # probe time over the kernel's idle time: how much slower the host ran
        "host_slowdown_median": (
            float(np.median(passes.speeds)) / hostspeed.IDLE_S if workload.host_normalized else None
        ),
        # raw figures: lowest latency over the passes, not normalized
        "raw_best_wall_s": float(best.sum()),
        "raw_request_best_ms": [round(float(x) * 1e3, 4) for x in best],
        # percentiles within each pass, median over passes: these keep the
        # variance that the per-request lowest latencies leave out
        "pass_request_ms_p50_median": statistics.median(percentile_ms(p, 50) for p in passes.latencies),
        "pass_request_ms_p95_median": statistics.median(percentile_ms(p, 95) for p in passes.latencies),
        "repeats_per_request": len(passes.walls),
        "requests_per_pass": len(workload.requests),
        "items_per_pass": workload.items_per_pass,
        "item_unit": workload.item_unit,
        "fail_ratio": passes.failed / passes.attempted,
    }
    return passes.attempted, passes.failed, passes.failures, checked_metrics(spec["end_to_end"], values), details


def per_layer(args, workload, spec):
    workload.execute(workload.requests[0])  # warm-up
    tracer = Tracer()
    plain, traced = measure_traced(workload, args.seconds, tracer)
    per_pass = [pass_metrics(tracer, lo, hi, c) for (lo, hi), c in zip(traced.spans, traced.counters)]
    sums = [accounting(tracer, lo, hi, m) for (lo, hi), m in zip(traced.spans, per_pass)]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_ratio"] = (
        float(traced.request_latencies(workload).sum() / plain.request_latencies(workload).sum()) - 1.0
    )
    failures = plain.failures + traced.failures
    failed = plain.failed + traced.failed
    if traced.outputs != plain.outputs:
        failures.append("traced outputs differ from untraced outputs")
        failed += 1
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)
    details = {
        "absent": tracer.absent,
        "untraced_pass_walls_s": plain.walls,
        "traced_pass_walls_s": traced.walls,
        "accounting": [{"time_metrics_sum_s": t, "pass_wall_s": w} for t, w in sums],
        "unattributed_s_by_name_last_pass": unattributed(tracer, *traced.spans[-1]),
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    for t, w in sums:
        if abs(t - w) > 1e-6 * w:
            print(f"perfbench: time metrics sum to {t!r} s, traced pass took {w!r} s", file=sys.stderr)
    if tracer.absent:
        print(f"perfbench: absent from the library, reported as 0: {', '.join(tracer.absent)}", file=sys.stderr)
    attempted = plain.attempted + traced.attempted
    return attempted, failed, failures, checked_metrics(spec["per_layer"], values), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        make_workload(args.workload, args.seed, None)
        print(repr(perf_counter()))
        return 0

    import_library()
    spec = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = make_workload(args.workload, args.seed, str(workdir))
        run = per_layer if args.trace else end_to_end
        attempted, failed, failures, metrics, details = run(args, workload, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        **result,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": host_metadata(args.seed),
        "details": details,
        "failures": failures,
    }
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in failures:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

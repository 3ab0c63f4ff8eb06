"""Timed phase, set-up samples, traced per-layer figures and the smoke run."""

from __future__ import annotations

import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .tracer import Tracer

WORKLOADS = ("dense-spectrum", "surface-sweep", "analytic-tables", "cli")
SETUP_PROBES = 1  # fresh set-up probes before, and as many after, the timed phase
IMPORT_SAMPLES = 3

DENSE_LAYERS = ("realspace.assemble_operator", "realspace.solve_spectrum",
                "realspace.self_adjointness_defect", "realspace.completeness_check",
                "realspace.reconstruct_node_fields")
SPARSE_LAYERS = ("realspace.assemble_sparse", "realspace.solve_windowed")
ANALYTIC_LAYERS = ("modes.make_mode", "modes.normalize", "modes.evaluate",
                   "nonlinear.scattering_coefficient", "dissipative.lossy_epsilon",
                   "dissipative.driven_field", "dispersion.surface_dispersion_omega",
                   "dispersion.bulk_branches")
CLI_LAYERS = tuple(f"cli.{c}" for c in ("dispersion", "mode", "solve", "scatter", "lossy", "verify"))
TIMED_LAYERS = DENSE_LAYERS + SPARSE_LAYERS + ANALYTIC_LAYERS + ("cli.import",) + CLI_LAYERS + ("verify.run_all",)


def process_age() -> float:
    """Seconds since this process started (10 ms resolution, from /proc)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def make_workload(name: str, seed: int, tracer: Tracer, root: Path, out: Path):
    """Imports only the workload's own modules, so its set-up pays for nothing else."""
    if name == "dense-spectrum":
        from .wl_dense import DenseSpectrum
        return DenseSpectrum(seed, tracer)
    if name == "surface-sweep":
        from .wl_surface import SurfaceSweep
        return SurfaceSweep(seed, tracer)
    if name == "analytic-tables":
        from .wl_analytic import AnalyticTables
        return AnalyticTables(seed, tracer)
    if name == "cli":
        from .wl_cli import Cli
        return Cli(seed, tracer, root, out)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    eigenpairs: int = 0
    cpu: float = 0.0
    elapsed: float = 0.0
    wrong: list = field(default_factory=list)
    failures: collections.Counter = field(default_factory=collections.Counter)


def run_op(wl, item, phase: Phase):
    cpu0 = cpu_seconds()
    try:
        phase.eigenpairs += wl.run(item)
    except checks.CheckFailed as exc:
        phase.wrong.append(f"{wl.name}: {exc}")
    except Exception as exc:  # the program failed this op: count it and go on
        phase.failed += 1
        phase.failures[f"{type(exc).__name__}: {exc}"] += 1
    phase.attempted += 1
    phase.cpu += cpu_seconds() - cpu0


class Calibration:
    """A fixed 200x200 matmul kernel run between ops; its rate shows the machine's phase."""

    REPS = 20
    INTERVAL_S = 0.25

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((200, 200))
        self.rates: list[float] = []
        self.last = -float("inf")

    def maybe(self, tracer: Tracer):
        if time.perf_counter() - self.last < self.INTERVAL_S:
            return
        with tracer.span("bench.calib"):
            t0 = time.perf_counter()
            for _ in range(self.REPS):
                self.a @ self.a
            self.rates.append(self.REPS / (time.perf_counter() - t0))
        self.last = time.perf_counter()


def timed_phase(wl, seconds: float, tracer: Tracer, calib: Calibration | None) -> Phase:
    """Whole rounds of the work list, ending as close to `seconds` as whole rounds allow."""
    phase = Phase()
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for item in wl.items:
            tracer.op = phase.attempted
            with tracer.span("bench.op"):
                run_op(wl, item, phase)
            if calib is not None:
                wl.trace_extras(item)
                tracer.op = -1
                calib.maybe(tracer)
            tracer.op = -1
        now = time.perf_counter()
        if now - t0 + 0.5 * (now - r0) > seconds:
            break
    phase.elapsed = time.perf_counter() - t0
    return phase


def warm_up(wl, tracer: Tracer) -> Phase:
    enabled, tracer.enabled = tracer.enabled, False
    phase = Phase()
    run_op(wl, wl.warmup, phase)
    tracer.enabled = enabled
    return phase


def _quiet():
    warnings.filterwarnings("ignore", message=".*under-resolved.*")


def _setup_probe(root: Path, workload: str, seed: int) -> float:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _import_time(root: Path) -> float:
    code = "import time; t = time.perf_counter(); import polmodes.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# traced run: layers the workload did not call are timed once on fixed inputs


def _reference_pass(tracer: Tracer, root: Path, out: Path) -> tuple[set, list]:
    """Returns the layers timed here and the notes of any wrong or failed reference op."""
    notes = []

    def one(wl, items):
        phase = Phase()
        for item in items:
            run_op(wl, item, phase)
            wl.trace_extras(item)
        notes.extend(phase.wrong + [f"reference op failed: {f}" for f in phase.failures])

    groups = ((DENSE_LAYERS, "dense-spectrum"), (SPARSE_LAYERS, "surface-sweep"),
              (ANALYTIC_LAYERS, "analytic-tables"), (CLI_LAYERS, "cli"))
    reference = set()
    for names, workload in groups:
        if not any(tracer.count(n) for n in names):
            wl = make_workload(workload, 0, tracer, root, out)
            one(wl, wl.reference)
            reference.update(names)
    for _ in range(IMPORT_SAMPLES):
        tracer.record("cli.import", _import_time(root))
    from polmodes.verify import run_all
    with tracer.span("verify.run_all"):
        results = run_all()
    passed = sum(r.passed for r in results)
    if passed != len(results):
        notes.append(f"verify.run_all passed {passed}/{len(results)}")
    return reference | {"cli.import", "verify.run_all"}, notes


def _span_cost(samples: int = 20000) -> float:
    probe = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with probe.span("x"):
            pass
    return (time.perf_counter() - t0) / samples


def _per_layer(tracer: Tracer, phase: Phase, calib: Calibration, reference: set) -> dict:
    ops = phase.attempted
    op_times = tracer.durations("bench.op", ops_only=True)
    metrics, rows = {}, []
    for name in TIMED_LAYERS:
        timed = tracer.durations(name, ops_only=True)
        samples = timed or tracer.durations(name)
        value = statistics.median(samples)
        metrics[f"{name}_s"] = (value, "s")
        source = "reference" if name in reference else "ops"
        rows.append(f"  {name + '_s':<42} {value:12.6g} s  {len(timed) / ops:8.3g} calls/op"
                    f"  {len(samples):6d} samples  ({source})")
    metrics["realspace.eigenpairs"] = (phase.eigenpairs / ops, "count")
    metrics["bench.op_s_p50"] = (statistics.median(op_times), "s")
    metrics["bench.op_s_p90"] = (float(np.percentile(op_times, 90)), "s")
    metrics["bench.op_samples"] = (len(op_times), "count")
    metrics["bench.cpu_s"] = (phase.cpu / ops, "s")
    metrics["bench.calib_rate"] = (statistics.median(calib.rates), "1/s")
    rows.append(f"  op time p50 {metrics['bench.op_s_p50'][0]:.6g} s, p90 {metrics['bench.op_s_p90'][0]:.6g} s "
                f"over {len(op_times)} ops" + ("" if len(op_times) >= 100 else " (p90 is no tail below 100 ops)"))
    rows.append(f"  traced op rate {ops / sum(op_times):.6g} 1/s (compare ops_per_s of an untraced run)")
    per_span = _span_cost()
    spans_per_op = sum(1 for s in tracer.spans if s.op >= 0) / ops
    rows.append(f"  tracing cost {per_span * 1e6:.2f} us/span x {spans_per_op:.1f} spans/op = "
                f"{100 * per_span * spans_per_op * ops / sum(op_times):.3f}% of op time")
    rows.append(f"  calibration kernel {metrics['bench.calib_rate'][0]:.6g} 1/s over {len(calib.rates)} samples")
    return metrics, rows


# ---------------------------------------------------------------------------
# entry points


def run(args, root: Path, blas_threads: int) -> int:
    _quiet()
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(bool(args.trace))
    wl = make_workload(args.workload, args.seed, tracer, root, out)
    warm = warm_up(wl, tracer)
    if args.setup_probe:
        print(process_age())
        return 0
    setups = [process_age()]
    if not tracer.enabled:
        setups += [_setup_probe(root, args.workload, args.seed) for _ in range(SETUP_PROBES)]
    calib = Calibration() if tracer.enabled else None
    phase = timed_phase(wl, args.seconds, tracer, calib)
    if args.workload == "cli":
        peak_rss_mib = wl.peak_rss_kib / 1024.0
    else:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wrong = warm.wrong + phase.wrong

    print(f"workload {args.workload}, seed {args.seed}, BLAS threads {blas_threads}, "
          f"{phase.attempted} ops in {phase.elapsed:.3f} s")
    for note in warm.failures:
        print(f"failed warm-up op: {note}")
    for note, count in sorted(phase.failures.items()):
        print(f"failed op x{count}: {note}")

    if tracer.enabled:
        reference, notes = _reference_pass(tracer, root, out)
        wrong += notes
        metrics, rows = _per_layer(tracer, phase, calib, reference)
        print("per-layer figures (median seconds per call):")
        print("\n".join(rows))
        path = out / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "blas_threads": blas_threads})
        print(f"spans written to {path.relative_to(root)}")
    else:
        setups += [_setup_probe(root, args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (phase.attempted / phase.elapsed, "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        print("set-up samples (s): " + ", ".join(f"{s:.3f}" for s in setups))
    for note in wrong[:20]:
        print(f"WRONG: {note}")
    result = {
        "correct": not wrong,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def smoke(root: Path) -> int:
    """One round of every workload with every check; under a minute."""
    _quiet()
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(False)
    status = 0
    for name in WORKLOADS:
        wl = make_workload(name, 0, tracer, root, out)
        phase = Phase()
        t0 = time.perf_counter()
        for item in wl.items:
            run_op(wl, item, phase)
        figures = ", ".join(f"{k} {v:.3g}" for k, v in sorted(wl.figures.items()))
        print(f"{name}: {phase.attempted} ops, {phase.failed} failed, {time.perf_counter() - t0:.1f} s; {figures}")
        for note, count in sorted(phase.failures.items()):
            print(f"  failed op x{count}: {note}")
        for note in phase.wrong:
            print(f"  WRONG: {note}")
        expected_failures = 1 if name == "cli" else 0
        if phase.wrong or phase.failed > expected_failures:
            status = 1
    print("smoke: " + ("all checks passed" if status == 0 else "FAILED"))
    return status


def big_solve() -> int:
    """One n=512 TM interface solve (the target of the half-size solve), timed per layer."""
    _quiet()
    from .wl_dense import DenseSpectrum, Item

    tracer = Tracer(True)
    wl = DenseSpectrum(0, tracer)
    item = Item("interface", "TM", 512, 40.0, 2.0, 1.2, 1.0, 55)
    t0 = time.perf_counter()
    eigenpairs = wl.run(item)
    print(f"n=512 TM interface, k_par=2: {eigenpairs} eigenpairs, op {time.perf_counter() - t0:.2f} s")
    for s in tracer.spans:
        print(f"  {s.name:<40} {s.end - s.start:8.3f} s")
    print("  " + ", ".join(f"{k} {v:.2e}" for k, v in sorted(wl.figures.items())))
    return 0


def blas_sweep(root: Path, seconds: int) -> int:
    """dense-spectrum op rate and CPU per op at each BLAS thread count up to nproc."""
    def measure(threads, trace):
        argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "dense-spectrum",
                "--seed", "1", "--seconds", str(seconds), "--trace", str(trace), "--blas-threads", str(threads)]
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]

    for threads in range(1, (os.cpu_count() or 1) + 1):
        plain, traced = measure(threads, 0), measure(threads, 1)
        print(f"BLAS threads {threads}: {plain['ops_per_s']['value']:.4f} ops/s, "
              f"CPU {traced['bench.cpu_s']['value']:.4f} s/op, "
              f"solve_spectrum {traced['realspace.solve_spectrum_s']['value']:.4f} s")
    return 0

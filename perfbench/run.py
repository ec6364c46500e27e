"""Benchmark of tcphonon: one workload, one process, closed loop.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ./src.  The run
repeats passes of the workload until the next pass would take the timed
total past --seconds, checks every pass's outputs untimed, and prints a
report whose last line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
alternates traced and untraced passes and reports the per-layer metrics of
the traced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5

# Host speed.  The host's speed switches between states up to 1.6x apart that
# last from seconds to tens of minutes.  Where a time tracks it (set-up, and
# the passes of most workloads), a Python float loop that uses no tcphonon
# code runs before and after each measurement, and the measurement is scaled
# to the reference host: time * REFERENCE_S / (mean of those two loop times).
REFERENCE_S = 0.072  # median loop time on the reference host (README)


def python_kernel() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300_000):
        acc += math.sqrt(i + 0.5) * math.cos(i * 1e-3)
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two loops into reference seconds."""
    return 2.0 * REFERENCE_S / (before + after)


# A fresh interpreter: import the package, build the workload's inputs.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tcphonon
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5], None)
print(time.perf_counter() - t0)
"""


def import_package():
    """Import tcphonon from this checkout's src, never from elsewhere."""
    sys.path[:0] = [SRC, HERE]
    import tcphonon

    if not os.path.abspath(tcphonon.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tcphonon resolved to {tcphonon.__file__}, outside {SRC}")
    return tcphonon


def setup_seconds(workload: str, seed: int, size: str, probes: int) -> float:
    """Median over fresh interpreters of import time plus input generation,
    each scaled to the reference host by the loops run around it."""
    times, kernel_s = [], [python_kernel()]
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, SRC, HERE, workload, str(seed), size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        kernel_s.append(python_kernel())
        times.append(float(done.stdout.strip().splitlines()[-1]) * speed_scale(*kernel_s[-2:]))
    return statistics.median(times)


def git_commit() -> str:
    try:
        # the ceiling keeps git from reporting a repository that merely encloses ROOT
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "output_sha256": {workload.name: workload.output_sha256},
    }


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated inside the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its metrics, check tallies and provenance."""
    import workloads
    from spans import Tracer, peak_rss_mb

    setup_s = setup_seconds(name, seed, size, probes) if probes and not trace else None
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, size, workdir)
        workload.prepare()
        tracer = Tracer() if trace else None
        plain, traced, scales, traced_scales, ops, evals = [], [], [], [], [], 0
        pass_times, op_pass = [], []  # scaled time of each pass; pass of each op
        kernel_s = [python_kernel()] if workload.host_scaled else []
        while True:
            use = tracer if trace and len(plain) >= len(traced) else None
            t0 = time.perf_counter()
            if use is None:
                pass_ops = workload.run_pass(len(plain) + len(traced))
            else:
                with use:
                    pass_ops = workload.run_pass(len(plain) + len(traced), use)
            elapsed = time.perf_counter() - t0
            if workload.host_scaled:
                kernel_s.append(python_kernel())
            scale = speed_scale(*kernel_s[-2:]) if workload.host_scaled else 1.0
            (plain if use is None else traced).append(elapsed)
            (scales if use is None else traced_scales).append(scale)
            for op in pass_ops:
                op.seconds *= scale
            op_pass.extend([len(pass_times)] * len(pass_ops))
            pass_times.append(elapsed * scale)
            workload.check_pass(len(plain) + len(traced) - 1, pass_ops)
            ops.extend(pass_ops)
            evals += workload.evals(pass_ops)
            spent = sum(plain) + sum(traced)
            enough = len(plain) >= 1 and (len(traced) >= 1 or not trace)
            if enough and spent + statistics.median(plain + traced) > seconds:
                break
    finally:
        shutil.rmtree(workdir)

    failed = sum(not op.ok for op in ops)
    latencies = [op.seconds for op in ops]  # scaled; only untraced runs report them
    if workload.pass_normalized:
        # every pass has the same cost mix, so a pass slower than the median
        # one was slowed by the host: scale its operations to the median pass
        median_pass = statistics.median(pass_times)
        latencies = [t * median_pass / pass_times[i] for t, i in zip(latencies, op_pass)]
    scaled = [t * f for t, f in zip(plain, scales)]
    traced_scaled = [t * f for t, f in zip(traced, traced_scales)]
    p99 = quantile(latencies, 99)
    result = {
        "workload": name,
        "size": size,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_seconds": {"untraced": plain, "traced": traced},
        "calibration": {"kernel_seconds": kernel_s, "reference_s": REFERENCE_S, "pass_scales": scales},
        "ops": len(ops),
        "ops_beyond_p99": sum(t > p99 for t in latencies),
        "op_seconds": latencies,
        "checks": {check: {"passed": p, "failed": f} for check, (p, f) in workload.tally.items()},
        "failures": [f"op {i} ({op.name}): {'; '.join(op.errors)}"
                     for i, op in enumerate(ops) if not op.ok],
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "provenance": provenance(workload, seed),
    }
    if trace:
        layer = tracer.layer_metrics(len(traced))
        layer["trace.overhead_s"] = (statistics.median(traced_scaled) - statistics.median(scaled), "s")
        layer["trace.spans"] = (len(tracer.spans) / len(traced), "count")
        result["metrics"] = layer
        result["absent_hooks"] = tracer.absent
        result["spans_file"] = os.path.join(OUT, f"{name}-seed{seed}.spans.jsonl")
        tracer.dump(result["spans_file"])
    else:
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            # per median pass, like wall_s: a mean over passes follows the host's drift
            "evals_per_s": (evals / len(plain) / statistics.median(scaled), "1/s"),
            "op_p50_ms": (1e3 * quantile(latencies, 50), "ms"),
            "op_p99_ms": (1e3 * p99, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_ratio": (1.0 - failed / len(ops), "ratio"),
        }
        if setup_s is not None:
            metrics["setup_s"] = (setup_s, "s")
        result["metrics"] = metrics
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    return result


def report(result: dict) -> None:
    print(f"perfbench {result['workload']} size={result['size']} trace={result['trace']}: "
          f"{result['passes']} untraced + {result['traced_passes']} traced passes, "
          f"{result['ops']} ops, {result['ops_beyond_p99']} beyond p99")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    cal = result["calibration"]
    if cal["kernel_seconds"]:
        print(f"host speed: passes scaled by {statistics.median(cal['pass_scales']):.4f} "
              f"(median) to the reference host; unscaled median pass "
              f"{statistics.median(result['pass_seconds']['untraced']):.4f} s")
    for check, row in sorted(result["checks"].items()):
        status = "PASS" if row["failed"] == 0 else "FAIL"
        print(f"check {status} {check}: {row['passed']} passed, {row['failed']} failed")
    for line in result["failures"][:5]:
        print(f"failure {line}")
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for hook in result.get("absent_hooks", []):
        print(f"hook absent {hook}")
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "verify", "point-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads: one BLAS thread, no thread pool
        os.environ[var] = "1"
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import tcphonon from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
